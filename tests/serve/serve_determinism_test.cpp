// Thread-count independence of the serving engine: the full
// generic.serve.v1 report — every admission, shed, retry, timeout and
// ladder move, every latency bucket and accuracy tally — must render to
// byte-identical JSON for pool widths {1, 2, 7}, and re-running the same
// width must reproduce itself. This extends the seed-equivalence contract
// of tests/model/test_parallel_determinism.cpp up through the serving
// layer: the virtual-time event loop is the only decision maker, and the
// pool only executes prediction batches that are themselves bit-identical
// at any lane count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "golden.h"
#include "hdc/kernels.h"
#include "kernel_backends.h"
#include "resilience/fault_model.h"
#include "serve/engine.h"
#include "serve_test_util.h"

namespace generic::serve {
namespace {

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
  cfg.fault_rate = 0.2;  // plenty of retries in the mix
  cfg.fault_bit_rate = 0.5;
  cfg.min_dims = 128;
  cfg.cooldown = 4;
  cfg.compute_batch = 8;
  return cfg;
}

/// Seeded open-loop trace shared by every run: Poisson arrivals at ~2500
/// rps (over the 2 * 1111 rps full-dims capacity, so everything happens:
/// queueing, shedding, degradation, timeouts, retries).
std::vector<Request> make_trace(const ServeConfig& cfg, std::size_t n,
                                std::size_t num_queries) {
  return poisson_trace(cfg.seed, n, 2500, cfg.deadline_us, num_queries);
}

std::string run_once(const test::TinyWorkload& w,
                     const std::vector<Request>& trace,
                     const ServeConfig& cfg, std::size_t lanes,
                     const std::vector<bool>& chunk_ok = {}) {
  ThreadPool pool(lanes);
  ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool, chunk_ok);
  std::vector<ResponseFuture> futures;
  for (const Request& r : trace) futures.push_back(engine.submit(r));
  const ServeReport rep = engine.finish();
  for (const auto& f : futures)  // every future resolved after finish()
    EXPECT_TRUE(f.try_get().has_value());
  return serve_report_to_json(rep);
}

TEST(ServeDeterminismTest, ReportByteIdenticalAcrossLaneCounts) {
  const test::TinyWorkload w = test::make_workload(96);
  const ServeConfig cfg = stress_config();
  const auto trace = make_trace(cfg, 400, w.queries.size());

  const std::string baseline = run_once(w, trace, cfg, 1);
  // The scenario must actually exercise the resilient paths, or identical
  // reports would prove nothing.
  EXPECT_EQ(baseline.find("\"degraded\": 0,"), std::string::npos);
  EXPECT_EQ(baseline.find("\"retried\": 0,"), std::string::npos);
  EXPECT_NE(baseline.find("\"schema\": \"generic.serve.v1\""),
            std::string::npos);
  for (const std::size_t lanes : {2ul, 7ul}) {
    EXPECT_EQ(baseline, run_once(w, trace, cfg, lanes))
        << "report differs at lanes=" << lanes;
  }
}

// Serving around dead dimension blocks: chunks 1 and 3 of the model are
// zeroed and masked, so every rung scores through the chunk mask. The
// report is pinned byte-for-byte and must depend on neither the lane count
// nor the kernel backend whose dot tile scores the flushes.
TEST(ServeDeterminismTest, DeadChunksReportMatchesGolden) {
  test::TinyWorkload w = test::make_workload(96);
  resilience::inject_dead_blocks(w.clf, {1, 3});
  const std::vector<bool> chunk_ok = {true, false, true, false};
  const ServeConfig cfg = stress_config();
  const auto trace = make_trace(cfg, 400, w.queries.size());

  generic::test::BackendGuard guard;
  for (const hdc::kernels::Backend b : generic::test::available_backends()) {
    SCOPED_TRACE(std::string(hdc::kernels::to_string(b)));
    hdc::kernels::set_backend(b);
    const std::string report = run_once(w, trace, cfg, 1, chunk_ok);
    EXPECT_EQ(report.find("\"degraded\": 0,"), std::string::npos);
    EXPECT_EQ(report, run_once(w, trace, cfg, 7, chunk_ok));
    golden::expect_golden(report, std::string(GENERIC_GOLDEN_DIR) +
                                      "/serve_dead_chunks.json");
  }
  if (golden::updating()) GTEST_SKIP() << "fixtures regenerated";
}

TEST(ServeDeterminismTest, SameLaneCountReproducesItself) {
  const test::TinyWorkload w = test::make_workload(64);
  const ServeConfig cfg = stress_config();
  const auto trace = make_trace(cfg, 200, w.queries.size());
  EXPECT_EQ(run_once(w, trace, cfg, 2), run_once(w, trace, cfg, 2));
}

// End-to-end backend invariance: the generic.serve.v1 report must be
// byte-identical no matter which kernel backend (hdc/kernels.h) scores the
// predictions — SIMD selection can never be observable in a report, only
// in wall-clock.
TEST(ServeKernelInvariance, ReportByteIdenticalAcrossKernelBackends) {
  namespace k = hdc::kernels;
  const test::TinyWorkload w = test::make_workload(64);
  const ServeConfig cfg = stress_config();
  const auto trace = make_trace(cfg, 250, w.queries.size());

  generic::test::BackendGuard guard;
  k::set_backend(k::Backend::kScalar);
  const std::string baseline = run_once(w, trace, cfg, 2);
  EXPECT_NE(baseline.find("\"schema\": \"generic.serve.v1\""),
            std::string::npos);
  for (k::Backend backend : generic::test::available_backends()) {
    k::set_backend(backend);
    EXPECT_EQ(run_once(w, trace, cfg, 2), baseline)
        << "backend " << k::to_string(backend)
        << " leaked into the serve report";
  }
}

TEST(ServeDeterminismTest, ReportCountsAreConsistent) {
  const test::TinyWorkload w = test::make_workload(64);
  const ServeConfig cfg = stress_config();
  const auto trace = make_trace(cfg, 300, w.queries.size());
  ThreadPool pool(2);
  ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool);
  for (const Request& r : trace) (void)engine.submit(r);
  const ServeReport rep = engine.finish();

  std::uint64_t total = 0;
  for (const auto c : rep.outcomes) total += c;
  EXPECT_EQ(total, rep.requests);
  EXPECT_EQ(rep.requests, trace.size());
  EXPECT_EQ(rep.served,
            rep.outcomes[static_cast<std::size_t>(Outcome::kOk)] +
                rep.outcomes[static_cast<std::size_t>(Outcome::kRetried)] +
                rep.outcomes[static_cast<std::size_t>(Outcome::kDegraded)]);
  EXPECT_EQ(rep.latency.count, rep.served);
  std::uint64_t rung_served = 0, rung_correct = 0;
  for (const auto& r : rep.rungs) {
    rung_served += r.served;
    rung_correct += r.correct;
  }
  EXPECT_EQ(rung_served, rep.served);
  EXPECT_EQ(rung_correct, rep.correct);
  EXPECT_GE(rep.attempts, rep.served);
}

}  // namespace
}  // namespace generic::serve
