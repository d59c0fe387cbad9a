#include "model/pipeline.h"

#include <gtest/gtest.h>

#include "data/benchmarks.h"
#include "encoding/encoders.h"

namespace generic::model {
namespace {

TEST(Pipeline, EncodeAllShapes) {
  const auto ds = data::make_benchmark("PAGE");
  enc::EncoderConfig cfg;
  cfg.dims = 1024;
  enc::GenericEncoder encoder(cfg);
  encoder.fit(ds.train_x);
  const auto enc = encoder.encode_batch(ds.train_x);
  ASSERT_EQ(enc.size(), ds.train_x.size());
  for (const auto& h : enc) EXPECT_EQ(h.size(), 1024u);
}

TEST(Pipeline, GenericBeatsChanceOnEveryBenchmark) {
  // Cheap smoke over all 11 benchmark clones with a small model.
  for (const auto& name : data::benchmark_names()) {
    const auto ds = data::make_benchmark(name);
    enc::EncoderConfig cfg;
    cfg.dims = 1024;
    const auto gcfg = data::generic_config_for(name);
    cfg.use_ids = gcfg.use_ids;
    cfg.window = gcfg.window;
    enc::GenericEncoder encoder(cfg);
    const auto res = run_hdc_classification(encoder, ds, 5, global_pool());
    const double chance = 1.0 / static_cast<double>(ds.num_classes);
    // "Clearly above chance": double it, but cap so 2-class sets don't
    // demand the impossible 100%.
    const double bar = std::min(2.0 * chance, chance + 0.25);
    EXPECT_GT(res.test_accuracy, bar) << name;
    EXPECT_EQ(res.predictions.size(), ds.test_size()) << name;
  }
}

TEST(Pipeline, MoreDimsDoNotHurtMuch) {
  const auto ds = data::make_benchmark("ISOLET");
  enc::EncoderConfig small_cfg;
  small_cfg.dims = 512;
  enc::GenericEncoder small_enc(small_cfg);
  const double small =
      run_hdc_classification(small_enc, ds, 5, global_pool()).test_accuracy;
  enc::EncoderConfig big_cfg;
  big_cfg.dims = 4096;
  enc::GenericEncoder big_enc(big_cfg);
  const double big =
      run_hdc_classification(big_enc, ds, 5, global_pool()).test_accuracy;
  EXPECT_GE(big + 0.05, small);
}

}  // namespace
}  // namespace generic::model
