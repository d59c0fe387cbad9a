// Golden-file regression: a fixed-seed end-to-end pipeline (synthetic
// dataset -> GENERIC encoder -> trained + quantized classifier -> fault
// campaign) must reproduce the committed JSON fixture byte for byte.
//
// This pins three public contracts at once:
//  * the deterministic numeric pipeline (any change to RNG streams,
//    encoding, training order, or quantization shifts baseline_accuracy),
//  * the generic.fault_campaign.v1 schema and its field order,
//  * the fixed-format float rendering of campaign_to_json.
//
// tests/golden.h says how to regenerate the fixture after an INTENTIONAL
// contract change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "golden.h"
#include "model/hdc_classifier.h"
#include "resilience/campaign.h"

#ifndef GENERIC_GOLDEN_DIR
#error "GENERIC_GOLDEN_DIR must be defined by the build"
#endif

namespace generic {
namespace {

std::string fixture_path() {
  return std::string(GENERIC_GOLDEN_DIR) + "/fault_campaign_page.json";
}

/// The pinned pipeline. Every constant here is part of the fixture's
/// identity — change one and the fixture must be regenerated.
std::string run_pinned_pipeline() {
  const auto ds = data::make_benchmark("PAGE");
  enc::EncoderConfig cfg;
  cfg.dims = 1024;
  enc::GenericEncoder encoder(cfg);
  encoder.fit(ds.train_x);
  const auto train = encoder.encode_batch(ds.train_x);
  const auto test = encoder.encode_batch(ds.test_x);
  model::HdcClassifier clf(1024, ds.num_classes);
  clf.fit_parallel(train, ds.train_y, 5, global_pool());
  clf.quantize(8);

  resilience::CampaignConfig cc;
  cc.kinds = {resilience::FaultKind::kTransient,
              resilience::FaultKind::kDeadBlock};
  cc.rates = {0.0, 1e-3, 0.05};
  cc.trials = 3;
  cc.seed = 20220722;  // the paper's venue date — fixed forever
  const auto result =
      resilience::run_campaign(clf, test, ds.test_y, cc, global_pool());
  return resilience::campaign_to_json(result);
}

TEST(GoldenPipeline, MatchesCommittedFixtureByteForByte) {
  golden::expect_golden(run_pinned_pipeline(), fixture_path());
  if (golden::updating()) GTEST_SKIP() << "fixture regenerated";
}

TEST(GoldenPipeline, FixtureCarriesSchemaAndSaneAccuracy) {
  // Independent of the byte comparison: the committed fixture itself must
  // declare the v1 schema and a plausible fault-free baseline, so a
  // regenerated-but-broken fixture cannot slip through silently.
  const std::string want = golden::read_file(fixture_path());
  ASSERT_FALSE(want.empty()) << "missing fixture " << fixture_path();
  EXPECT_NE(want.find("\"schema\": \"generic.fault_campaign.v1\""),
            std::string::npos);
  EXPECT_NE(want.find("\"target\": \"class_memory\""), std::string::npos);
  const auto pos = want.find("\"baseline_accuracy\": ");
  ASSERT_NE(pos, std::string::npos);
  const double acc =
      std::strtod(want.c_str() + pos + sizeof("\"baseline_accuracy\": ") - 1,
                  nullptr);
  EXPECT_GT(acc, 0.5) << "fixture baseline accuracy implausibly low";
  EXPECT_LE(acc, 1.0);
}

}  // namespace
}  // namespace generic
