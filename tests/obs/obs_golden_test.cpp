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
// The generic.trace.v1 Chrome document is pinned the same way: two named
// tracks and their spans, with the wall-clock "ts"/"dur" values scrubbed.
//
// tests/golden.h says how to regenerate the fixtures after an INTENTIONAL
// schema or instrumentation change.
//
// A second suite pins the behavioural contract the exporters ride on:
// collection on vs off must not change pipeline results by a single byte.
#include <gtest/gtest.h>

#include <future>
#include <regex>
#include <string>
#include <thread>

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

/// Replace every trace-event "ts"/"dur" value (wall microseconds, %.3f)
/// with "<num>", the way scrub_volatile treats wall times.
std::string scrub_trace_times(const std::string& json) {
  static const std::regex wall_time(R"re(("(?:ts|dur)": )[0-9]+\.[0-9]{3})re");
  return std::regex_replace(json, wall_time, "$1\"<num>\"");
}

TEST(ObsGolden, ScrubbedTraceMatchesCommittedFixture) {
  obs::Registry& reg = obs::Registry::instance();
  reg.reset();
  obs::set_tracing(true);
  // An idle named thread registered before the golden tracks: it records
  // nothing, so it must neither appear nor shift the golden tids.
  std::promise<void> named;
  std::promise<void> release;
  std::thread idle([&] {
    obs::set_current_thread_name("idle");
    named.set_value();
    release.get_future().wait();
  });
  named.get_future().wait();
  // Two named tracks, recorded one after the other: track 0 carries a
  // span with args, track 1 a plain one.
  std::thread([&] {
    obs::set_current_thread_name("golden \"a\"");
    const std::uint64_t t0 = reg.now_ns();
    reg.record_span("golden.args", t0, t0 + 2500,
                    {{"version", 3}, {"delta", -2}});
  }).join();
  std::thread([&] {
    obs::set_current_thread_name("golden-b");
    const std::uint64_t t0 = reg.now_ns();
    reg.record_span("golden.plain", t0, t0 + 1000);
  }).join();
  const std::string got = scrub_trace_times(obs::trace_to_json());
  release.set_value();
  idle.join();
  obs::set_tracing(false);
  reg.reset();
  golden::expect_golden(got, std::string(GENERIC_GOLDEN_DIR) +
                                 "/trace_scrubbed.json");
  if (golden::updating()) GTEST_SKIP() << "fixture regenerated";
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
  const auto test = encoder.encode_batch(ds.test_x);
  const auto train = encoder.encode_batch(ds.train_x);
  model::HdcClassifier clf(1024, ds.num_classes);
  clf.fit_parallel(train, ds.train_y, 5, global_pool());
  clf.quantize(8);

  resilience::CampaignConfig cc;
  cc.kinds = {resilience::FaultKind::kTransient,
              resilience::FaultKind::kDeadBlock};
  cc.rates = {0.0, 1e-3};
  cc.trials = 2;
  cc.seed = 20220722;
  ThreadPool pool(threads);
  return resilience::campaign_to_json(
      resilience::run_campaign(clf, test, ds.test_y, cc, pool));
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
