// State-management semantics of the behavioural ASIC: snapshot/restore
// (the config port), knob reset, and clustering agreement with the
// software clusterer.
#include <gtest/gtest.h>

#include "arch/generic_asic.h"
#include "data/benchmarks.h"
#include "data/fcps.h"
#include "ml/metrics.h"
#include "model/hdc_classifier.h"
#include "model/hdc_cluster.h"

namespace generic::arch {
namespace {

AppSpec page_spec(const data::Dataset& ds) {
  AppSpec spec;
  spec.dims = 1024;
  spec.features = ds.num_features();
  spec.classes = ds.num_classes;
  return spec;
}

TEST(AsicState, SnapshotBeforeTrainThrows) {
  const auto ds = data::make_benchmark("PAGE");
  GenericAsic asic(page_spec(ds));
  EXPECT_THROW((void)asic.snapshot_model(), std::logic_error);
}

TEST(AsicState, RestoreResetsEveryKnob) {
  const auto ds = data::make_benchmark("PAGE");
  GenericAsic asic(page_spec(ds));
  asic.train(ds.train_x, ds.train_y, 3);
  const auto snap = asic.snapshot_model();

  asic.set_active_dims(512, /*constant_norms=*/true);
  asic.quantize(4);
  asic.apply_voltage_scaling(0.01);
  EXPECT_EQ(asic.spec().bit_width, 4);
  EXPECT_GT(asic.vos().static_reduction, 1.0);

  asic.restore_model(snap);
  EXPECT_EQ(asic.spec().bit_width, 16);
  EXPECT_DOUBLE_EQ(asic.vos().static_reduction, 1.0);
  // Predictions return to the clean-model values.
  GenericAsic fresh(page_spec(ds));
  fresh.train(ds.train_x, ds.train_y, 3);
  for (std::size_t i = 0; i < 40; ++i)
    EXPECT_EQ(asic.infer(ds.test_x[i]), fresh.infer(ds.test_x[i])) << i;
}

TEST(AsicState, RestoreRejectsWrongGeometry) {
  const auto ds = data::make_benchmark("PAGE");
  GenericAsic asic(page_spec(ds));
  asic.train(ds.train_x, ds.train_y, 2);
  model::HdcClassifier other(2048, ds.num_classes);
  EXPECT_THROW(asic.restore_model(other), std::invalid_argument);
}

TEST(AsicState, TrainRejectsBadInput) {
  const auto ds = data::make_benchmark("PAGE");
  GenericAsic asic(page_spec(ds));
  std::vector<std::vector<float>> x(3, std::vector<float>(ds.num_features()));
  std::vector<int> y(2, 0);
  EXPECT_THROW(asic.train(x, y), std::invalid_argument);
  EXPECT_THROW(asic.train({}, {}), std::invalid_argument);
}

TEST(AsicState, QuantizeBeforeTrainThrows) {
  const auto ds = data::make_benchmark("PAGE");
  GenericAsic asic(page_spec(ds));
  EXPECT_THROW(asic.quantize(8), std::logic_error);
  EXPECT_THROW(asic.apply_voltage_scaling(0.01), std::logic_error);
}

TEST(AsicState, ClusteringAgreesWithSoftwareClusterer) {
  // Same seeding rule (first k), same copy-epoch algorithm; the only gap
  // is exact vs corrected-Mitchell assignment, so partitions should be
  // near-identical on a well-separated set.
  const auto ds = data::make_fcps("Hepta");
  AppSpec spec;
  spec.dims = 2048;
  spec.features = ds.num_features();
  spec.classes = ds.num_clusters;
  spec.window = std::min<std::size_t>(3, ds.num_features());
  GenericAsic asic(spec, /*seed=*/21);
  const auto hw_labels = asic.cluster(ds.points, 10);

  enc::EncoderConfig cfg;
  cfg.dims = spec.dims;
  cfg.window = spec.window;
  cfg.seed = 21;  // same encoder stream as the ASIC
  enc::GenericEncoder encoder(cfg);
  encoder.fit(ds.points);
  const auto encoded = encoder.encode_batch(ds.points);
  model::HdcCluster hc(spec.dims, spec.classes);
  hc.fit(encoded, 10, global_pool());
  const auto sw_labels = hc.labels(encoded, global_pool());

  EXPECT_GT(ml::normalized_mutual_information(hw_labels, sw_labels), 0.85);
}

TEST(AsicState, OnlineUpdateBeforeTrainThrows) {
  const auto ds = data::make_benchmark("PAGE");
  GenericAsic asic(page_spec(ds));
  EXPECT_THROW(asic.online_update(ds.test_x[0], 0), std::logic_error);
}

}  // namespace
}  // namespace generic::arch
