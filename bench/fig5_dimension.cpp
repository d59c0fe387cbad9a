// Reproduces Figure 5: accuracy vs number of dimensions used at inference
// (on-demand dimension reduction, §4.3.3) with the stale full-model
// ("Constant") L2 norms versus the per-128-dim sub-norms stored in the
// norm2 memory ("Updated").
//
// Expected shape: Updated >= Constant everywhere, with the gap opening as
// dimensions shrink (paper: up to 20.1 pts on EEG and 8.5 on ISOLET), and
// ISOLET holding accuracy down to ~1K dimensions (the §4.3.4 discussion).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "model/hdc_classifier.h"

using namespace generic;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  flags.done();
  const std::size_t full_dims = 4096;
  const std::size_t epochs = quick ? 5 : 20;

  std::printf(
      "Figure 5: accuracy (%%) vs dimensions, Constant vs Updated L2 norms\n");
  for (const char* name : {"EEG", "ISOLET"}) {
    const auto ds = data::make_benchmark(name);
    enc::EncoderConfig cfg;
    cfg.dims = full_dims;
    const auto gcfg = data::generic_config_for(name);
    cfg.use_ids = gcfg.use_ids;
    cfg.window = gcfg.window;
    enc::GenericEncoder encoder(cfg);
    encoder.fit(ds.train_x);
    const auto train = encoder.encode_batch(ds.train_x);
    const auto test = encoder.encode_batch(ds.test_x);
    model::HdcClassifier clf(full_dims, ds.num_classes);
    clf.fit_parallel(train, ds.train_y, epochs, global_pool());

    std::printf("\n%s\n%-8s %12s %12s %8s\n", name, "dims", "Constant",
                "Updated", "gap");
    bench::print_rule(44);
    std::vector<const hdc::IntHV*> rows;
    for (const auto& q : test) rows.push_back(&q);
    for (std::size_t dims = 512; dims <= full_dims; dims += 512) {
      const std::vector<bool> mask = clf.prefix_mask(dims);
      auto acc = [&](model::NormMode mode) {
        const auto preds = clf.scan_batch(rows, mask, mode, global_pool());
        std::size_t hits = 0;
        for (std::size_t i = 0; i < preds.size(); ++i)
          hits += preds[i].cls == ds.test_y[i];
        return 100.0 * static_cast<double>(hits) /
               static_cast<double>(test.size());
      };
      const double c = acc(model::NormMode::kConstant);
      const double u = acc(model::NormMode::kUpdated);
      std::printf("%-8zu %11.1f%% %11.1f%% %+7.1f\n", dims, c, u, u - c);
    }
  }
  return 0;
}
