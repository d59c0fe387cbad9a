// The rtrace determinism contract (docs/observability.md): the full
// generic.rtrace.v1 stream, the flight ring, and the Chrome view recorded
// while the engine serves a stressed trace must render to byte-identical
// JSON at pool widths {1, 2, 7} and on every compiled kernel backend —
// every event is emitted by the engine's virtual-time event loop on the
// caller's thread, so seq numbers included, SIMD selection and lane count
// can never show. The
// stream is additionally pinned byte-for-byte by a committed golden
// fixture (tests/golden.h says how to regenerate it).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "golden.h"
#include "hdc/kernels.h"
#include "kernel_backends.h"
#include "obs/rtrace.h"
#include "serve/engine.h"
#include "serve_test_util.h"

#ifndef GENERIC_GOLDEN_DIR
#error "GENERIC_GOLDEN_DIR must be defined by the build"
#endif

namespace generic::serve {
namespace {

namespace rtrace = obs::rtrace;

ServeConfig stress_config() {
  ServeConfig cfg;
  cfg.servers = 2;
  cfg.queue_capacity = 64;
  cfg.high_water = 32;
  cfg.low_water = 4;
  cfg.deadline_us = 4000;
  cfg.slo_us = 1500;
  cfg.max_attempts = 3;
  cfg.service_base_us = 900;
  cfg.service_jitter = 0.2;
  cfg.fault_rate = 0.2;
  cfg.fault_bit_rate = 0.5;
  cfg.min_dims = 128;
  cfg.cooldown = 4;
  cfg.compute_batch = 8;
  cfg.burn_min_events = 16;  // small trace: let the burn monitor speak
  return cfg;
}

std::vector<Request> make_trace(const ServeConfig& cfg, std::size_t n,
                                std::size_t num_queries) {
  return poisson_trace(cfg.seed, n, 2500, cfg.deadline_us, num_queries);
}

/// One instrumented run; returns {rtrace json, flight json, chrome json}.
struct Capture {
  std::string rtrace;
  std::string flight;
  std::string chrome;
};

Capture run_once(const test::TinyWorkload& w,
                 const std::vector<Request>& trace, const ServeConfig& cfg,
                 std::size_t lanes) {
  rtrace::reset();
  rtrace::set_flight_capacity(128);  // small enough that the ring wraps
  rtrace::set_trace(true);
  rtrace::set_flight(true);
  {
    ThreadPool pool(lanes);
    ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool);
    for (const Request& r : trace) (void)engine.submit(r);
    (void)engine.finish();
  }
  Capture c;
  c.rtrace = rtrace::rtrace_to_json();
  c.flight = rtrace::flight_to_json();
  c.chrome = rtrace::rtrace_to_chrome_json();
  rtrace::set_trace(false);
  rtrace::set_flight(false);
  rtrace::set_flight_capacity(rtrace::kDefaultFlightCapacity);
  rtrace::reset();
  return c;
}

#if GENERIC_OBS_ENABLED

TEST(RtraceDeterminism, StreamsByteIdenticalAcrossLaneCounts) {
  const test::TinyWorkload w = test::make_workload(96);
  const ServeConfig cfg = stress_config();
  const auto trace = make_trace(cfg, 400, w.queries.size());

  const Capture baseline = run_once(w, trace, cfg, 1);
  // The run must actually exercise the interesting emission sites, or
  // identical streams would prove nothing.
  EXPECT_NE(baseline.rtrace.find("\"kind\": \"upset\""), std::string::npos);
  EXPECT_NE(baseline.rtrace.find("\"kind\": \"retry_attempt\""),
            std::string::npos);
  EXPECT_NE(baseline.rtrace.find("\"kind\": \"degrade_step\""),
            std::string::npos);
  EXPECT_NE(baseline.rtrace.find("\"kind\": \"slo_alert\""),
            std::string::npos);
  // The ring is smaller than the stream, so wrap accounting is in play.
  EXPECT_EQ(baseline.flight.find("\"dropped\": 0,"), std::string::npos);
  for (const std::size_t lanes : {2ul, 7ul}) {
    const Capture got = run_once(w, trace, cfg, lanes);
    EXPECT_EQ(baseline.rtrace, got.rtrace) << "rtrace differs, lanes=" << lanes;
    EXPECT_EQ(baseline.flight, got.flight) << "flight differs, lanes=" << lanes;
    EXPECT_EQ(baseline.chrome, got.chrome) << "chrome differs, lanes=" << lanes;
  }
}

TEST(RtraceDeterminism, StreamsByteIdenticalAcrossKernelBackends) {
  namespace k = hdc::kernels;
  const test::TinyWorkload w = test::make_workload(64);
  const ServeConfig cfg = stress_config();
  const auto trace = make_trace(cfg, 250, w.queries.size());

  generic::test::BackendGuard guard;
  k::set_backend(k::Backend::kScalar);
  const Capture baseline = run_once(w, trace, cfg, 2);
  for (k::Backend backend : generic::test::available_backends()) {
    k::set_backend(backend);
    const Capture got = run_once(w, trace, cfg, 2);
    EXPECT_EQ(baseline.rtrace, got.rtrace)
        << "backend " << k::to_string(backend) << " leaked into the rtrace";
    EXPECT_EQ(baseline.flight, got.flight)
        << "backend " << k::to_string(backend) << " leaked into the flight log";
  }
}

// Byte-for-byte pin of the rtrace and flight documents for a fixed
// (workload, trace, config) — the schema freeze the CI rtrace job and any
// external consumer rely on.
TEST(RtraceGolden, StreamsMatchCommittedFixtures) {
  const test::TinyWorkload w = test::make_workload(64);
  const ServeConfig cfg = stress_config();
  const auto trace = make_trace(cfg, 250, w.queries.size());
  const Capture got = run_once(w, trace, cfg, 2);

  const struct {
    const char* file;
    const std::string& content;
  } fixtures[] = {
      {"serve_rtrace.json", got.rtrace},
      {"serve_flight.json", got.flight},
  };
  for (const auto& fx : fixtures)
    golden::expect_golden(fx.content,
                          std::string(GENERIC_GOLDEN_DIR) + "/" + fx.file);
  if (golden::updating()) GTEST_SKIP() << "fixtures regenerated";
}

// The report's burn-rate alerts are part of the same determinism contract:
// same trace, same alert edges, at any lane count.
TEST(RtraceDeterminism, BurnAlertsAreDeterministic) {
  const test::TinyWorkload w = test::make_workload(64);
  ServeConfig cfg = stress_config();
  const auto trace = make_trace(cfg, 300, w.queries.size());

  std::vector<BurnAlert> baseline;
  for (const std::size_t lanes : {1ul, 2ul, 7ul}) {
    ThreadPool pool(lanes);
    ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool);
    for (const Request& r : trace) (void)engine.submit(r);
    const ServeReport rep = engine.finish();
    ASSERT_FALSE(rep.slo_alerts.empty())
        << "stressed trace should burn error budget";
    EXPECT_TRUE(rep.slo_alerts.front().fired);
    for (const BurnAlert& a : rep.slo_alerts)
      EXPECT_GE(a.fast_burn, 0.0);
    if (lanes == 1ul) {
      baseline = rep.slo_alerts;
      continue;
    }
    ASSERT_EQ(baseline.size(), rep.slo_alerts.size()) << "lanes=" << lanes;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(baseline[i].vt, rep.slo_alerts[i].vt);
      EXPECT_EQ(baseline[i].fired, rep.slo_alerts[i].fired);
      EXPECT_EQ(baseline[i].fast_burn, rep.slo_alerts[i].fast_burn);
      EXPECT_EQ(baseline[i].slow_burn, rep.slo_alerts[i].slow_burn);
    }
  }
}

#else  // GENERIC_OBS_ENABLED == 0

// Obs-off builds must still run instrumented-looking configurations and
// produce empty-but-valid documents (the tools' --rtrace/--flight-dump
// outputs under -DGENERIC_OBS=OFF).
TEST(RtraceDeterminism, ObsOffRunProducesEmptyButValidDocuments) {
  const test::TinyWorkload w = test::make_workload(32);
  const ServeConfig cfg = stress_config();
  const auto trace = make_trace(cfg, 100, w.queries.size());
  const Capture got = run_once(w, trace, cfg, 2);
  EXPECT_NE(got.rtrace.find("\"schema\": \"generic.rtrace.v1\""),
            std::string::npos);
  EXPECT_NE(got.rtrace.find("\"obs_enabled\": false"), std::string::npos);
  EXPECT_NE(got.rtrace.find("\"events\": []"), std::string::npos);
  EXPECT_NE(got.flight.find("\"schema\": \"generic.flight.v1\""),
            std::string::npos);
  EXPECT_NE(got.flight.find("\"events\": []"), std::string::npos);
  EXPECT_NE(got.chrome.find("\"traceEvents\""), std::string::npos);
}

#endif  // GENERIC_OBS_ENABLED

}  // namespace
}  // namespace generic::serve
