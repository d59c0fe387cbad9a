// generic-infer: classify a CSV with a saved GENERIC model.
//
//   generic_infer --model=m.ghdc --data=samples.csv
//                 [--labeled] [--label-col=-1] [--binary]
//                 [--fault-campaign [--fault-kinds=transient,dead_block]
//                  [--fault-rates=0,1e-4,1e-3,1e-2] [--fault-trials=5]
//                  [--fault-seed=64023] [--degrade] [--fault-out=c.json]
//                  [--threads=N]]
//                 [--trace=out.json] [--metrics=out.json]
//
// With --labeled, the last column (or --label-col) holds ground truth and
// accuracy is reported; otherwise one prediction per line is printed.
// --binary runs the packed 1-bit fast path (model::BinaryModel).
//
// --fault-campaign (implies labelled data) runs the Monte Carlo
// fault-injection campaign of resilience::run_campaign on the loaded
// model against the CSV and prints (or writes with --fault-out) the
// deterministic JSON accuracy surface — see docs/resilience.md.
//
// Flags are strict (bench::Flags): an unknown flag, an empty value or a
// non-number exits 2.
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "bench/bench_util.h"
#include "data/csv.h"
#include "encoding/encoders.h"
#include "model/binary_model.h"
#include "model/model_io.h"
#include "obs/export.h"
#include "resilience/campaign.h"

using namespace generic;

namespace {

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::string model_path = flags.value("--model", "");
  const std::string data_path = flags.value("--data", "");
  const int label_col = static_cast<int>(flags.real("--label-col", -1));
  const bool labeled = flags.has("--labeled");
  const bool binary = flags.has("--binary");
  const bool campaign = flags.has("--fault-campaign");
  resilience::CampaignConfig cc;
  cc.trials = flags.size("--fault-trials", 5);
  cc.seed = static_cast<std::uint64_t>(flags.size("--fault-seed", 64023));
  cc.degrade = flags.has("--degrade");
  const std::size_t threads = flags.threads();
  const std::string kinds = flags.value("--fault-kinds", "");
  const std::string rates = flags.value("--fault-rates", "");
  const std::string campaign_out = flags.value("--fault-out", "");
  obs::Session obs_session(flags.value("--trace", ""),
                           flags.value("--metrics", ""));
  bench::apply_kernel_backend(flags);
  flags.done();
  if (model_path.empty() || data_path.empty()) {
    std::fputs(
        "usage: generic_infer --model=m.ghdc --data=samples.csv\n"
        "       [--labeled] [--label-col=-1] [--binary]\n"
        "       [--fault-campaign [--fault-kinds=...] [--fault-rates=...]\n"
        "        [--fault-trials=5] [--fault-seed=64023] [--degrade]\n"
        "        [--fault-out=campaign.json] [--threads=N]]\n"
        "       [--trace=out.json] [--metrics=out.json]\n"
        "       [--kernel-backend=auto|scalar|avx2|avx512|neon]\n",
        stderr);
    return 2;
  }
  // Encoding and the campaign's trials fan out across the global pool; the
  // JSON is byte-identical for any thread count (see docs/parallelism.md).
  set_global_threads(threads);
  if (!kinds.empty()) {
    cc.kinds.clear();
    std::stringstream ss(kinds);
    for (std::string item; std::getline(ss, item, ',');)
      cc.kinds.push_back(resilience::fault_kind_from_name(item));
  }
  if (!rates.empty()) {
    cc.rates.clear();
    std::stringstream ss(rates);
    for (std::string item; std::getline(ss, item, ',');) {
      char* end = nullptr;
      cc.rates.push_back(std::strtod(item.c_str(), &end));
      if (end == item.c_str() || *end != '\0') {
        std::fprintf(stderr, "error: --fault-rates needs numbers, got '%s'\n",
                     item.c_str());
        return 2;
      }
    }
  }

  const auto saved = model::load_model_file(model_path);
  enc::GenericEncoder encoder(saved.encoder_config);
  if (!saved.quantizer_fitted)
    throw std::runtime_error("model was saved with an unfitted encoder");
  encoder.fit_range(saved.quantizer_lo, saved.quantizer_hi);

  if (campaign) {
    const auto samples = data::load_labeled_csv(data_path, label_col);
    const auto encoded = encoder.encode_batch(samples.x);
    const auto result = resilience::run_campaign(
        saved.classifier, encoded, samples.y, cc, global_pool());
    if (campaign_out.empty()) {
      std::fputs(resilience::campaign_to_json(result).c_str(), stdout);
    } else {
      obs::write_file(campaign_out, resilience::campaign_to_json(result));
      std::fprintf(stderr, "campaign JSON written to %s\n",
                   campaign_out.c_str());
    }
    return 0;
  }

  std::unique_ptr<model::BinaryModel> fast;
  if (binary) fast = std::make_unique<model::BinaryModel>(saved.classifier);
  auto predict = [&](const std::vector<float>& x) {
    const auto q = encoder.encode(x);
    return binary ? fast->predict(q) : saved.classifier.predict(q);
  };

  if (labeled) {
    const auto samples = data::load_labeled_csv(data_path, label_col);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < samples.x.size(); ++i)
      hits += predict(samples.x[i]) == samples.y[i];
    std::printf("accuracy: %.2f%% (%zu/%zu)%s\n",
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(samples.x.size()),
                hits, samples.x.size(), binary ? " [1-bit fast path]" : "");
  } else {
    const auto xs = data::load_unlabeled_csv(data_path);
    for (const auto& x : xs) std::printf("%d\n", predict(x));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_tool(run, argc, argv); }
