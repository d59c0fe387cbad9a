// generic-train: train a GENERIC HDC model on a labelled CSV and save it.
//
//   generic_train --data=train.csv --model=out.ghdc
//                 [--dims=4096] [--levels=64] [--window=3] [--no-ids]
//                 [--epochs=20] [--test-frac=0.25] [--label-col=-1]
//                 [--seed=1] [--trace=out.json] [--metrics=out.json]
//
// CSV format: one row per sample, numeric features, integer class label in
// the last column (or --label-col). A header line is auto-skipped. The
// saved model file loads back with generic_infer or model::load_model_file.
// Flags are strict (bench::Flags): an unknown flag, an empty value or a
// non-number exits 2, and so does --dims outside [128, 2^26] or not a
// multiple of 128, --levels outside [1, 64] or --window=0.
#include <cstdio>

#include "arch/spec.h"
#include "bench/bench_util.h"
#include "data/csv.h"
#include "encoding/encoders.h"
#include "model/hdc_classifier.h"
#include "model/model_io.h"
#include "obs/export.h"

using namespace generic;

namespace {

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const std::string data_path = flags.value("--data", "");
  const std::string model_path = flags.value("--model", "");
  const int label_col = flags.column("--label-col");
  const double test_frac = flags.real("--test-frac", 0.25);
  const auto seed = static_cast<std::uint64_t>(flags.size("--seed", 1));
  enc::EncoderConfig cfg;
  cfg.dims = flags.size("--dims", 4096);
  cfg.levels = flags.size("--levels", 64);
  cfg.window = flags.size("--window", 3);
  cfg.use_ids = !flags.has("--no-ids");
  cfg.seed = seed;
  const std::size_t epochs = flags.size("--epochs", 20);
  obs::Session obs_session(flags.value("--trace", ""),
                           flags.value("--metrics", ""));
  bench::apply_kernel_backend(flags);
  flags.done();
  if (data_path.empty() || model_path.empty()) {
    std::fputs(
        "usage: generic_train --data=train.csv --model=out.ghdc\n"
        "       [--dims=4096] [--levels=64] [--window=3] [--no-ids]\n"
        "       [--epochs=20] [--test-frac=0.25] [--label-col=-1] [--seed=1]\n"
        "       [--trace=out.json] [--metrics=out.json]\n"
        "       [--kernel-backend=auto|scalar|avx2|avx512|amx]\n",
        stderr);
    return 2;
  }
  // Same envelope deserialize_model and HdcClassifier enforce: a model this
  // tool writes must load back, its dims split into 128-dim chunks, and the
  // level memory holds ArchConstants::levels rows. Checked before anything
  // is built, so a huge --dims fails fast instead of allocating.
  const std::size_t chunk = arch::ArchConstants{}.chunk;
  const std::size_t max_dims = std::size_t{1} << 26;
  if (cfg.dims < chunk || cfg.dims > max_dims || cfg.dims % chunk != 0) {
    std::fprintf(stderr,
                 "generic_train: error: --dims must be a multiple of %zu in "
                 "[%zu, %zu]\n",
                 chunk, chunk, max_dims);
    return 2;
  }
  const std::size_t max_levels = arch::ArchConstants{}.levels;
  if (cfg.levels == 0 || cfg.levels > max_levels || cfg.window == 0) {
    std::fprintf(stderr,
                 "generic_train: error: --levels must be in [1, %zu] and "
                 "--window at least 1\n",
                 max_levels);
    return 2;
  }

  auto samples = data::load_labeled_csv(data_path, label_col);
  std::printf("loaded %zu samples, %zu features, %zu classes\n",
              samples.x.size(), samples.x.front().size(), samples.num_classes);
  const auto ds =
      data::to_dataset("cli", std::move(samples), 1.0 - test_frac, seed);

  enc::GenericEncoder encoder(cfg);
  encoder.fit(ds.train_x);
  const auto train_hv = encoder.encode_batch(ds.train_x);
  model::HdcClassifier clf(cfg.dims, ds.num_classes);
  clf.fit_parallel(train_hv, ds.train_y, epochs, global_pool());

  std::size_t hits = 0;
  for (std::size_t i = 0; i < ds.train_x.size(); ++i)
    hits += clf.predict(train_hv[i]) == ds.train_y[i];
  std::printf("train accuracy: %.2f%%\n",
              100.0 * static_cast<double>(hits) /
                  static_cast<double>(ds.train_size()));
  if (ds.test_size() > 0) {
    hits = 0;
    for (std::size_t i = 0; i < ds.test_x.size(); ++i)
      hits += clf.predict(encoder.encode(ds.test_x[i])) == ds.test_y[i];
    std::printf("held-out accuracy (%zu samples): %.2f%%\n", ds.test_size(),
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(ds.test_size()));
  }

  model::save_model_file(model_path, encoder, clf);
  std::printf("model written to %s\n", model_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_tool(run, argc, argv); }
