// Reproduces Figure 6: accuracy and class-memory power reduction as a
// function of the SRAM bit-error rate induced by voltage over-scaling
// (§4.3.4), for model bit-widths {8, 4, 2, 1}.
//
// Expected shape: the 1-bit FACE model tolerates ~7% flips; ISOLET needs a
// wider model and degrades beyond ~4% at 4 bits; the right-hand columns
// show the [20]-style static (up to ~7x) and dynamic (up to ~3x) savings.
#include <cstdio>
#include <vector>

#include "arch/energy_model.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "model/hdc_classifier.h"
#include "resilience/fault_model.h"

using namespace generic;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  flags.done();
  const std::size_t dims = quick ? 2048 : 4096;
  const std::size_t epochs = quick ? 5 : 20;
  const int repeats = quick ? 1 : 3;  // injection seeds averaged

  const std::vector<double> error_rates{0.0,  0.005, 0.01, 0.02,
                                        0.04, 0.07,  0.10};
  const std::vector<int> bit_widths{8, 4, 2, 1};

  std::printf("Figure 6: accuracy vs class-memory bit error rate (%%)\n");
  for (const char* name : {"FACE", "ISOLET"}) {
    const auto ds = data::make_benchmark(name);
    enc::EncoderConfig cfg;
    cfg.dims = dims;
    enc::GenericEncoder encoder(cfg);
    encoder.fit(ds.train_x);
    const auto train = encoder.encode_batch(ds.train_x);
    const auto test = encoder.encode_batch(ds.test_x);
    model::HdcClassifier base(dims, ds.num_classes);
    base.fit_parallel(train, ds.train_y, epochs, global_pool());

    std::printf("\n%s\n%-8s", name, "BER");
    for (int bw : bit_widths) std::printf(" %7db", bw);
    std::printf(" %9s %9s\n", "pwr(s)", "pwr(dyn)");
    bench::print_rule(8 + 9 * bit_widths.size() + 20);

    for (double ber : error_rates) {
      std::printf("%6.1f%% ", 100.0 * ber);
      for (int bw : bit_widths) {
        double acc_sum = 0.0;
        for (int r = 0; r < repeats; ++r) {
          model::HdcClassifier clf = base;  // fresh copy per operating point
          clf.quantize(bw);
          Rng rng(1234 + static_cast<std::uint64_t>(r) * 77 +
                  static_cast<std::uint64_t>(bw));
          resilience::inject(clf, {resilience::FaultKind::kTransient, ber},
                             rng);
          std::size_t hits = 0;
          for (std::size_t i = 0; i < test.size(); ++i)
            hits += clf.predict(test[i]) == ds.test_y[i];
          acc_sum += static_cast<double>(hits) /
                     static_cast<double>(test.size());
        }
        std::printf(" %7.1f%%", 100.0 * acc_sum / repeats);
      }
      const auto vos = arch::vos_for_error_rate(ber);
      std::printf(" %8.2fx %8.2fx\n", vos.static_reduction,
                  vos.dynamic_reduction);
    }
  }
  return 0;
}
