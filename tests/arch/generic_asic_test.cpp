// Behavioural verification of the ASIC model against the algorithmic
// golden stack (the role Modelsim played in the paper, §5.1).
#include "arch/generic_asic.h"

#include <gtest/gtest.h>

#include "data/benchmarks.h"
#include "data/fcps.h"
#include "ml/metrics.h"
#include "model/hdc_classifier.h"

namespace generic::arch {
namespace {

AppSpec spec_for(const data::Dataset& ds, std::size_t dims = 2048) {
  AppSpec s;
  s.dims = dims;
  s.features = ds.num_features();
  s.classes = ds.num_classes;
  const auto g = data::generic_config_for(ds.name);
  s.window = g.window;
  s.use_ids = g.use_ids;
  return s;
}

TEST(GenericAsic, UntrainedInferThrows) {
  AppSpec s;
  s.features = 4;
  GenericAsic asic(s);
  const std::vector<float> x{0.1f, 0.2f, 0.3f, 0.4f};
  EXPECT_THROW(asic.infer(x), std::logic_error);
}

TEST(GenericAsic, InvalidSpecRejectedAtConstruction) {
  AppSpec s;
  s.classes = 64;
  EXPECT_THROW(GenericAsic{s}, std::invalid_argument);
}

TEST(GenericAsic, ExactDividerMatchesGoldenModelExactly) {
  // With the exact divider, the ASIC must reproduce the software stack's
  // predictions bit-for-bit: same encoder seed, same retraining
  // trajectory, same scores.
  const auto ds = data::make_benchmark("PAGE");
  AppSpec spec = spec_for(ds);
  GenericAsic asic(spec, /*seed=*/7);
  asic.set_exact_divider(true);
  asic.train(ds.train_x, ds.train_y, 5);

  enc::EncoderConfig cfg;
  cfg.dims = spec.dims;
  cfg.window = spec.window;
  cfg.use_ids = spec.use_ids;
  cfg.seed = 7;
  enc::GenericEncoder golden_enc(cfg);
  golden_enc.fit(ds.train_x);
  const auto train_enc = golden_enc.encode_batch(ds.train_x);
  model::HdcClassifier golden(spec.dims, ds.num_classes);
  golden.fit_parallel(train_enc, ds.train_y, 5, global_pool());

  for (std::size_t i = 0; i < ds.test_x.size(); ++i) {
    const int hw = asic.infer(ds.test_x[i]);
    const int sw = golden.predict(golden_enc.encode(ds.test_x[i]));
    ASSERT_EQ(hw, sw) << "sample " << i;
  }
}

TEST(GenericAsic, MitchellDividerAgreesWithExactAlmostAlways) {
  const auto ds = data::make_benchmark("ISOLET");
  AppSpec spec = spec_for(ds);
  GenericAsic mitchell(spec, 7);
  mitchell.set_exact_divider(true);  // identical training trajectories
  mitchell.train(ds.train_x, ds.train_y, 5);
  mitchell.set_exact_divider(false);

  GenericAsic exact(spec, 7);
  exact.set_exact_divider(true);
  exact.train(ds.train_x, ds.train_y, 5);

  std::size_t agree = 0;
  for (const auto& x : ds.test_x)
    agree += mitchell.infer(x) == exact.infer(x);
  const double rate =
      static_cast<double>(agree) / static_cast<double>(ds.test_x.size());
  EXPECT_GT(rate, 0.95);  // Mitchell's ~11% score error rarely flips ranks
}

TEST(GenericAsic, AccuracyMatchesSoftwarePipelineOnBenchmarks) {
  for (const auto& name : {"PAGE", "EMG"}) {
    const auto ds = data::make_benchmark(name);
    GenericAsic asic(spec_for(ds), 7);
    asic.train(ds.train_x, ds.train_y, 10);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < ds.test_x.size(); ++i)
      hits += asic.infer(ds.test_x[i]) == ds.test_y[i];
    const double acc =
        static_cast<double>(hits) / static_cast<double>(ds.test_size());
    EXPECT_GT(acc, 0.8) << name;
  }
}

TEST(GenericAsic, CountsAccumulateAndReset) {
  const auto ds = data::make_benchmark("PAGE");
  GenericAsic asic(spec_for(ds), 7);
  asic.train(ds.train_x, ds.train_y, 3);
  EXPECT_GT(asic.counts().cycles, 0u);
  EXPECT_GT(asic.energy_j(), 0.0);
  EXPECT_GT(asic.elapsed_seconds(), 0.0);
  asic.reset_counts();
  EXPECT_EQ(asic.counts().cycles, 0u);
  const auto before = asic.counts().cycles;
  (void)asic.infer(ds.test_x[0]);
  EXPECT_GT(asic.counts().cycles, before);
}

TEST(GenericAsic, InferenceCostMatchesCycleModel) {
  const auto ds = data::make_benchmark("PAGE");
  AppSpec spec = spec_for(ds);
  GenericAsic asic(spec, 7);
  asic.train(ds.train_x, ds.train_y, 2);
  asic.reset_counts();
  (void)asic.infer(ds.test_x[0]);
  CycleModel cm;
  EXPECT_EQ(asic.counts().cycles, cm.infer_input(spec).cycles);
}

TEST(GenericAsic, DimensionReductionCutsCyclesAndEnergy) {
  const auto ds = data::make_benchmark("EMG");
  AppSpec spec = spec_for(ds, 4096);
  GenericAsic asic(spec, 7);
  asic.train(ds.train_x, ds.train_y, 5);

  asic.reset_counts();
  (void)asic.infer(ds.test_x[0]);
  const auto full_cycles = asic.counts().cycles;
  const double full_energy = asic.energy_j();

  asic.set_active_dims(1024);
  asic.reset_counts();
  (void)asic.infer(ds.test_x[0]);
  EXPECT_LT(asic.counts().cycles, full_cycles / 3);
  EXPECT_LT(asic.energy_j(), full_energy / 3);
}

TEST(GenericAsic, DimensionReductionKeepsAccuracyReasonable) {
  const auto ds = data::make_benchmark("EMG");
  GenericAsic asic(spec_for(ds, 4096), 7);
  asic.train(ds.train_x, ds.train_y, 10);
  auto acc = [&] {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < ds.test_x.size(); ++i)
      hits += asic.infer(ds.test_x[i]) == ds.test_y[i];
    return static_cast<double>(hits) / static_cast<double>(ds.test_size());
  };
  const double full = acc();
  asic.set_active_dims(2048);  // half the dimensions, Updated norms
  EXPECT_GT(acc(), full - 0.1);
  EXPECT_THROW(asic.set_active_dims(100), std::invalid_argument);
  EXPECT_THROW(asic.set_active_dims(8192), std::invalid_argument);
}

TEST(GenericAsic, ConstantNormsNoWorseDetector) {
  // Figure 5: constant (stale) norms must never beat updated sub-norms by
  // a meaningful margin at reduced dimensions.
  const auto ds = data::make_benchmark("ISOLET");
  GenericAsic asic(spec_for(ds, 4096), 7);
  asic.train(ds.train_x, ds.train_y, 5);
  auto acc = [&] {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < ds.test_x.size(); ++i)
      hits += asic.infer(ds.test_x[i]) == ds.test_y[i];
    return static_cast<double>(hits) / static_cast<double>(ds.test_size());
  };
  asic.set_active_dims(512, /*constant_norms=*/false);
  const double updated = acc();
  asic.set_active_dims(512, /*constant_norms=*/true);
  const double constant = acc();
  EXPECT_GE(updated + 0.02, constant);
}

TEST(GenericAsic, QuantizeAndVoltageScalingPipeline) {
  const auto ds = data::make_benchmark("FACE");
  GenericAsic asic(spec_for(ds), 7);
  asic.train(ds.train_x, ds.train_y, 5);
  auto acc = [&] {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < ds.test_x.size(); ++i)
      hits += asic.infer(ds.test_x[i]) == ds.test_y[i];
    return static_cast<double>(hits) / static_cast<double>(ds.test_size());
  };
  const double clean = acc();
  asic.quantize(4);
  EXPECT_EQ(asic.spec().bit_width, 4);
  EXPECT_GT(acc(), clean - 0.1);  // quantization is nearly free (§4.3.4)
  asic.apply_voltage_scaling(0.001);
  EXPECT_GT(asic.vos().static_reduction, 1.0);
  EXPECT_GT(acc(), clean - 0.15);  // mild VOS barely hurts
  // Energy at the scaled point is lower than nominal for the same work.
  asic.reset_counts();
  (void)asic.infer(ds.test_x[0]);
  const double scaled_energy = asic.energy_j();
  GenericAsic nominal(spec_for(ds), 7);
  nominal.train(ds.train_x, ds.train_y, 5);
  nominal.quantize(4);
  nominal.reset_counts();
  (void)nominal.infer(ds.test_x[0]);
  EXPECT_LT(scaled_energy, nominal.energy_j());
}

TEST(GenericAsic, ClusteringRecoverableOnHepta) {
  const auto ds = data::make_fcps("Hepta");
  AppSpec spec;
  spec.dims = 2048;
  spec.features = ds.num_features();
  spec.classes = ds.num_clusters;
  spec.window = 3;
  GenericAsic asic(spec, 7);
  const auto labels = asic.cluster(ds.points, 10);
  ASSERT_EQ(labels.size(), ds.points.size());
  EXPECT_GT(ml::normalized_mutual_information(ds.labels, labels), 0.6);
  EXPECT_GT(asic.counts().class_writes, 0u);
}

TEST(GenericAsic, ClusterRequiresEnoughPoints) {
  AppSpec spec;
  spec.features = 2;
  spec.classes = 8;
  spec.window = 2;
  GenericAsic asic(spec);
  std::vector<std::vector<float>> pts(3, std::vector<float>{0.0f, 1.0f});
  EXPECT_THROW(asic.cluster(pts), std::invalid_argument);
}

}  // namespace
}  // namespace generic::arch
