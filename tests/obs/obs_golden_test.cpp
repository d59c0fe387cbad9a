// Golden-file regression for the generic.metrics.v1 schema: a fixed-seed
// single-lane pipeline run must produce a metrics document whose SHAPE —
// every key, the field order, the counter/gauge values, stage call counts
// and pool chunk accounting — matches the committed fixture byte for byte
// after timing-dependent numbers are scrubbed to "<num>".
//
// Scrubbing replaces the value of every key ending in _s, _bytes or
// _per_s (wall times, stage durations, RSS, throughput) — everything else
// in the document is deterministic under a fixed seed and one pool lane.
//
// tests/golden.h says how to regenerate the fixture after an INTENTIONAL
// schema or instrumentation change.
//
// A second suite pins the behavioural contract the exporters ride on:
// collection on vs off must not change pipeline results by a single byte.
#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "common/thread_pool.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "golden.h"
#include "model/pipeline.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "resilience/campaign.h"

#ifndef GENERIC_GOLDEN_DIR
#error "GENERIC_GOLDEN_DIR must be defined by the build"
#endif

namespace generic {
namespace {

std::string fixture_path() {
  return std::string(GENERIC_GOLDEN_DIR) + "/metrics_page_scrubbed.json";
}

/// Replace the numeric value of every timing/size key with "<num>". The
/// key list is structural: anything measured in seconds, bytes or rates.
std::string scrub_volatile(const std::string& json) {
  static const std::regex volatile_value(
      R"re(("[A-Za-z0-9_.]*(?:_s|_bytes|_per_s)": )-?[0-9][0-9eE+.\-]*)re");
  return std::regex_replace(json, volatile_value, "$1\"<num>\"");
}

/// The pinned instrumented run. One pool lane keeps every count (chunks,
/// jobs, per-lane attribution) deterministic; the seed-fixed pipeline
/// keeps epochs, ops counts and predictions deterministic.
std::string run_pinned_metrics() {
  obs::Registry& reg = obs::Registry::instance();
  obs::set_tracing(false);
  obs::set_metrics(false);
  reg.reset();
  obs::set_tracing(true);
  obs::set_metrics(true);

  ThreadPool pool(1);
  const auto ds = data::make_benchmark("PAGE");
  enc::EncoderConfig cfg;
  cfg.dims = 1024;
  enc::GenericEncoder encoder(cfg);
  (void)model::run_hdc_classification(encoder, ds, 5, pool);

  obs::MetricsSnapshot snap = obs::collect_metrics();
  snap.pool = pool.stats();
  // Counters registered by OTHER tests in this binary survive reset() as
  // zero-valued entries (the macros cache Counter references, so entries
  // are never erased). Drop them: the fixture pins what the pipeline
  // records, independent of which suites ran first.
  auto drop_zeros = [](std::vector<std::pair<std::string, std::uint64_t>>& v) {
    std::erase_if(v, [](const auto& kv) { return kv.second == 0; });
  };
  drop_zeros(snap.counters);
  drop_zeros(snap.gauges);
  std::erase_if(snap.histograms,
                [](const auto& kv) { return kv.second.count == 0; });
  obs::set_tracing(false);
  obs::set_metrics(false);
  reg.reset();
  return scrub_volatile(obs::metrics_to_json(snap));
}

TEST(ObsGolden, ScrubbedMetricsMatchCommittedFixture) {
#if !GENERIC_OBS_ENABLED
  GTEST_SKIP() << "built with GENERIC_OBS=OFF — no metrics to pin";
#else
  golden::expect_golden(run_pinned_metrics(), fixture_path());
  if (golden::updating()) GTEST_SKIP() << "fixture regenerated";
#endif
}

TEST(ObsGolden, FixtureDeclaresSchemaAndCoreSections) {
  // Independent of the byte comparison: the committed fixture itself must
  // carry the v1 schema, the scrub marker, and the instrumented stages a
  // pipeline run is expected to produce.
  const std::string want = golden::read_file(fixture_path());
  ASSERT_FALSE(want.empty()) << "missing fixture " << fixture_path();
  EXPECT_NE(want.find("\"schema\": \"generic.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(want.find("\"wall_time_s\": \"<num>\""), std::string::npos)
      << "fixture was committed unscrubbed";
  for (const char* marker :
       {"\"encode.samples\"", "\"train.samples\"", "\"pool.jobs\"",
        "\"pipeline.run\"", "\"predict.batch\"", "\"thread_pool\"",
        "\"lanes\": 1"})
    EXPECT_NE(want.find(marker), std::string::npos) << "missing " << marker;
}

/// Acceptance contract of the whole layer: enabling collection must not
/// perturb the computation. The campaign JSON (every accuracy to 9
/// significant digits) is compared byte for byte with collection off vs
/// fully on, serial and pooled.
std::string run_pinned_campaign(std::size_t threads) {
  const auto ds = data::make_benchmark("PAGE");
  enc::EncoderConfig cfg;
  cfg.dims = 1024;
  enc::GenericEncoder encoder(cfg);
  encoder.fit(ds.train_x);
  const auto test = model::encode_all(encoder, ds.test_x);
  const auto train = model::encode_all(encoder, ds.train_x);
  model::HdcClassifier clf(1024, ds.num_classes);
  clf.fit(train, ds.train_y, 5);
  clf.quantize(8);

  resilience::CampaignConfig cc;
  cc.kinds = {resilience::FaultKind::kTransient,
              resilience::FaultKind::kDeadBlock};
  cc.rates = {0.0, 1e-3};
  cc.trials = 2;
  cc.seed = 20220722;
  cc.threads = threads;
  return resilience::campaign_to_json(
      resilience::run_campaign(clf, test, ds.test_y, cc));
}

class ObsDeterminism : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing(false);
    obs::set_metrics(false);
    obs::Registry::instance().reset();
  }
  void TearDown() override { SetUp(); }
};

TEST_F(ObsDeterminism, CollectionOnAndOffProduceIdenticalCampaignJson) {
  const std::string off = run_pinned_campaign(1);
  obs::set_tracing(true);
  obs::set_metrics(true);
  const std::string on = run_pinned_campaign(1);
  EXPECT_EQ(off, on)
      << "instrumentation perturbed the serial campaign output";
}

TEST_F(ObsDeterminism, InstrumentedParallelRunMatchesSerialUninstrumented) {
  const std::string serial_off = run_pinned_campaign(1);
  obs::set_tracing(true);
  obs::set_metrics(true);
  const std::string pooled_on = run_pinned_campaign(4);
  EXPECT_EQ(serial_off, pooled_on)
      << "instrumentation or pooling perturbed the campaign output";
}

}  // namespace
}  // namespace generic
