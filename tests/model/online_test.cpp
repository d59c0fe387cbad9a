// Online (single-sample) adaptation through GenericAsic::online_update —
// the continuous-learning mode of an always-on edge node — and its cycle
// accounting.
#include <gtest/gtest.h>

#include "arch/generic_asic.h"
#include "data/benchmarks.h"

namespace generic::model {
namespace {

TEST(AsicOnlineUpdate, CountsInferencePlusUpdateCycles) {
  const auto ds = data::make_benchmark("PAGE");
  arch::AppSpec spec;
  spec.dims = 1024;
  spec.features = ds.num_features();
  spec.classes = ds.num_classes;
  arch::GenericAsic asic(spec);
  asic.train(ds.train_x, ds.train_y, 3);
  asic.reset_counts();

  arch::CycleModel cm;
  const auto infer_cost = cm.infer_input(spec).cycles;
  const auto update_cost = cm.retrain_update(spec).cycles;

  // Feed samples with a deliberately wrong label until one update fires.
  std::uint64_t expected = 0;
  bool updated = false;
  for (std::size_t i = 0; i < ds.test_x.size() && !updated; ++i) {
    const int pred = asic.online_update(
        ds.test_x[i], (ds.test_y[i] + 1) % static_cast<int>(ds.num_classes));
    expected += infer_cost;
    if (pred != (ds.test_y[i] + 1) % static_cast<int>(ds.num_classes)) {
      expected += update_cost;
      updated = true;
    }
  }
  EXPECT_TRUE(updated);
  EXPECT_EQ(asic.counts().cycles, expected);
}

TEST(AsicOnlineUpdate, ValidatesLabel) {
  const auto ds = data::make_benchmark("PAGE");
  arch::AppSpec spec;
  spec.dims = 1024;
  spec.features = ds.num_features();
  spec.classes = ds.num_classes;
  arch::GenericAsic asic(spec);
  asic.train(ds.train_x, ds.train_y, 2);
  EXPECT_THROW(asic.online_update(ds.test_x[0], 99), std::invalid_argument);
}

}  // namespace
}  // namespace generic::model
