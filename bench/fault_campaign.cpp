// Fault-injection campaign over a trained classifier (companion to
// fig6_voltage): sweeps fault kind x rate with N seeded Monte Carlo
// trials per cell and emits the accuracy-vs-rate surface as JSON
// (schema generic.fault_campaign.v1, docs/resilience.md) plus a
// human-readable table.
//
//   fault_campaign [--quick] [--dataset=FACE] [--bw=8] [--trials=5]
//                  [--seed=64023] [--degrade] [--out=campaign.json]
//                  [--threads=N] [--target=class|level|id_seed] [--remat]
//                  [--trace=out.json] [--metrics=out.json]
//
// The qualitative claim this reproduces: HDC accuracy degrades gracefully
// — monotonically, with no cliff — as the bit-error rate rises through
// 1e-3 (the voltage-over-scaling argument of §4.3.4), and the BlockGuard
// detect-and-mask policy (--degrade) recovers most of the loss for
// block-structured faults.
//
// --target selects which datapath SRAM the campaign corrupts: the class
// memory (default, run_campaign) or the encoder's level memory / rotating
// id seed (run_encoder_campaign, which re-encodes every trial through the
// damaged memory). --remat builds the encoder with rematerialized level
// memory (PR 7): its level rows physically do not exist, so a --target=level
// sweep sits at baseline in every cell — the campaign-shaped proof of the
// remat immunity claim — while --target=id_seed still bites (the seed row is
// stored in both modes). --threads fans Monte Carlo trials (class memory) or
// the per-trial re-encoding (encoder targets) across a pool; the JSON is
// byte-identical for any thread count.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "model/hdc_classifier.h"
#include "obs/export.h"
#include "resilience/campaign.h"

using namespace generic;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  const std::string name = flags.value("--dataset", "FACE");
  const std::size_t dims = quick ? 2048 : 4096;
  const std::size_t epochs = quick ? 5 : 20;
  const int bw = static_cast<int>(flags.size("--bw", 8));
  const std::size_t trials = flags.size("--trials", quick ? 3 : 5);
  const auto seed = static_cast<std::uint64_t>(flags.size("--seed", 64023));
  const std::string out_path = flags.value("--out", "");
  const std::string target_name = flags.value("--target", "class");
  const bool remat = flags.has("--remat");
  const bool degrade = flags.has("--degrade");
  const std::size_t threads = flags.threads();
  obs::Session obs_session(flags.value("--trace", ""),
                           flags.value("--metrics", ""));
  flags.done();
  set_global_threads(threads);

  resilience::FaultTarget target = resilience::FaultTarget::kClassMemory;
  if (target_name == "level") {
    target = resilience::FaultTarget::kLevelMemory;
  } else if (target_name == "id_seed") {
    target = resilience::FaultTarget::kIdSeed;
  } else if (target_name != "class") {
    std::fprintf(stderr, "error: --target must be class, level, or id_seed\n");
    return 1;
  }

  const auto ds = data::make_benchmark(name);
  enc::EncoderConfig cfg;
  cfg.dims = dims;
  cfg.remat = remat;
  enc::GenericEncoder encoder(cfg);
  encoder.fit(ds.train_x);
  const auto train = encoder.encode_batch(ds.train_x);
  const auto test = encoder.encode_batch(ds.test_x);
  model::HdcClassifier clf(dims, ds.num_classes);
  clf.fit_parallel(train, ds.train_y, epochs, global_pool());
  clf.quantize(bw);

  resilience::CampaignConfig cc;
  cc.trials = trials;
  cc.seed = seed;
  cc.degrade = degrade;
  cc.rates = {0.0, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 0.03, 0.07};

  const auto result =
      target == resilience::FaultTarget::kClassMemory
          ? resilience::run_campaign(clf, test, ds.test_y, cc,
                                     global_pool())
          : resilience::run_encoder_campaign(encoder, clf, ds.test_x,
                                             ds.test_y, cc, target,
                                             global_pool());

  std::printf("Fault campaign: %s, D=%zu, %db model, %zu trials/cell, "
              "target=%s%s%s\n",
              name.c_str(), dims, bw, trials,
              std::string(resilience::fault_target_name(target)).c_str(),
              remat ? ", remat encoder" : "",
              cc.degrade ? ", detect+mask degradation ON" : "");
  if (target != resilience::FaultTarget::kClassMemory)
    std::printf("encoder footprint: %zu bytes (%s)\n",
                result.encoder_footprint_bytes,
                result.encoder_remat ? "rematerialized" : "stored");
  std::printf("baseline accuracy: %.2f%%\n\n", 100.0 * result.baseline_accuracy);
  std::printf("%-12s", "rate");
  for (auto k : cc.kinds)
    std::printf(" %12s", std::string(resilience::fault_kind_name(k)).c_str());
  std::printf("\n");
  bench::print_rule(12 + 13 * cc.kinds.size());
  for (std::size_t ri = 0; ri < cc.rates.size(); ++ri) {
    std::printf("%-12g", cc.rates[ri]);
    for (std::size_t ki = 0; ki < cc.kinds.size(); ++ki) {
      const auto& cell = result.cells[ki * cc.rates.size() + ri];
      std::printf(" %6.1f%%±%4.1f", 100.0 * cell.mean_accuracy,
                  100.0 * cell.stddev_accuracy);
    }
    std::printf("\n");
  }

  if (!out_path.empty()) {
    obs::write_file(out_path, resilience::campaign_to_json(result));
    std::printf("\nJSON written to %s\n", out_path.c_str());
  } else {
    std::printf("\n%s", resilience::campaign_to_json(result).c_str());
  }
  return 0;
}
