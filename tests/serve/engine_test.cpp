// ServeEngine behaviour: deadline expiry (at completion and fail-fast at
// dequeue), shed ordering at the high-water mark, retry exhaustion,
// degradation ladder transitions in both directions, and exact agreement
// of served predictions with the classifier's scan over the rung's mask.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"
#include "serve/engine.h"
#include "serve_test_util.h"

namespace generic::serve {
namespace {

using test::TinyWorkload;
using test::make_workload;

/// Deterministic scenario knobs: no service jitter, no faults; individual
/// tests override what they exercise.
ServeConfig base_config() {
  ServeConfig cfg;
  cfg.servers = 1;
  cfg.queue_capacity = 64;
  cfg.high_water = 48;
  cfg.service_base_us = 1000;
  cfg.service_jitter = 0.0;
  cfg.fault_rate = 0.0;
  cfg.deadline_us = 100000;
  cfg.slo_us = 100000;  // controller never engages unless asked
  cfg.min_dims = 512;   // single-rung ladder unless asked
  cfg.compute_batch = 4;
  return cfg;
}

Request make_request(std::uint64_t id, std::uint64_t arrival,
                     std::uint64_t deadline_us, std::size_t query) {
  Request r;
  r.id = id;
  r.arrival_us = arrival;
  r.deadline_us = arrival + deadline_us;
  r.query = query;
  return r;
}

TEST(ServeEngineTest, UnderloadServesEverythingOkAndMatchesPredict) {
  const TinyWorkload w = make_workload(24);
  ThreadPool pool(2);
  const ServeConfig cfg = base_config();
  ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool);

  std::vector<ResponseFuture> futures;
  for (std::uint64_t i = 0; i < 24; ++i)
    futures.push_back(engine.submit(
        make_request(i, (i + 1) * 2000, cfg.deadline_us, i % 24)));
  const ServeReport rep = engine.finish();

  EXPECT_EQ(rep.requests, 24u);
  EXPECT_EQ(rep.served, 24u);
  EXPECT_EQ(rep.outcomes[static_cast<std::size_t>(Outcome::kOk)], 24u);
  EXPECT_EQ(rep.attempts, 24u);
  EXPECT_EQ(rep.retries, 0u);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto r = futures[i].try_get();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->outcome, Outcome::kOk);
    EXPECT_EQ(r->attempts, 1u);
    EXPECT_EQ(r->dims_used, 512u);
    EXPECT_EQ(r->predicted, w.clf.predict(w.queries[i % 24]));
    EXPECT_EQ(r->latency_us, 1000u);  // exactly one jitter-free service
  }
}

TEST(ServeEngineTest, DeadlineExpiryAtCompletionAndAtDequeue) {
  const TinyWorkload w = make_workload(8);
  ThreadPool pool(1);
  ServeConfig cfg = base_config();
  cfg.deadline_us = 1500;  // one service fits (1000us), two do not
  ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool);

  // Five simultaneous arrivals, one server: r0 serves in budget, r1's
  // completion lands at +2000 > deadline, r2..r4 are already expired when a
  // server frees and must fail fast at dequeue without burning service.
  std::vector<ResponseFuture> futures;
  for (std::uint64_t i = 0; i < 5; ++i)
    futures.push_back(engine.submit(make_request(i, 1000, 1500, i)));
  const ServeReport rep = engine.finish();

  EXPECT_EQ(rep.outcomes[static_cast<std::size_t>(Outcome::kOk)], 1u);
  EXPECT_EQ(rep.outcomes[static_cast<std::size_t>(Outcome::kTimeout)], 4u);
  const auto r0 = futures[0].try_get();
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->outcome, Outcome::kOk);
  const auto r1 = futures[1].try_get();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->outcome, Outcome::kTimeout);
  EXPECT_EQ(r1->attempts, 1u);  // was in service when the budget ran out
  EXPECT_EQ(r1->finish_us, 3000u);
  for (std::size_t i = 2; i < 5; ++i) {
    const auto r = futures[i].try_get();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->outcome, Outcome::kTimeout);
    EXPECT_EQ(r->attempts, 0u);  // failed fast at dequeue
    EXPECT_EQ(r->predicted, -1);
  }
}

TEST(ServeEngineTest, ShedsNewestArrivalsAtHighWater) {
  const TinyWorkload w = make_workload(8);
  ThreadPool pool(1);
  ServeConfig cfg = base_config();
  cfg.high_water = 2;
  cfg.service_base_us = 10000;
  ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool);

  // One server busy + two pending == high water: arrivals 3..5 shed, in
  // arrival order, while the earlier ones are eventually served.
  std::vector<ResponseFuture> futures;
  for (std::uint64_t i = 0; i < 6; ++i)
    futures.push_back(engine.submit(make_request(i, 100, 100000, i)));
  const ServeReport rep = engine.finish();

  EXPECT_EQ(rep.outcomes[static_cast<std::size_t>(Outcome::kOk)], 3u);
  EXPECT_EQ(rep.outcomes[static_cast<std::size_t>(Outcome::kShed)], 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(futures[i].try_get()->outcome, Outcome::kOk) << i;
  for (std::size_t i = 3; i < 6; ++i) {
    const auto r = futures[i].try_get();
    EXPECT_EQ(r->outcome, Outcome::kShed) << i;
    EXPECT_EQ(r->attempts, 0u);
    EXPECT_EQ(r->finish_us, 100u);  // refused at the arrival instant
  }
}

TEST(ServeEngineTest, RetryExhaustionFails) {
  const TinyWorkload w = make_workload(4);
  ThreadPool pool(2);
  ServeConfig cfg = base_config();
  cfg.fault_rate = 1.0;      // every attempt upsets...
  cfg.fault_bit_rate = 0.5;  // ...and certainly corrupts
  cfg.max_attempts = 2;
  ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool);

  std::vector<ResponseFuture> futures;
  for (std::uint64_t i = 0; i < 4; ++i)
    futures.push_back(
        engine.submit(make_request(i, (i + 1) * 20000, 100000, i)));
  const ServeReport rep = engine.finish();

  EXPECT_EQ(rep.outcomes[static_cast<std::size_t>(Outcome::kFailed)], 4u);
  EXPECT_EQ(rep.served, 0u);
  EXPECT_EQ(rep.attempts, 8u);
  EXPECT_EQ(rep.retries, 4u);
  for (const auto& f : futures) {
    const auto r = f.try_get();
    EXPECT_EQ(r->outcome, Outcome::kFailed);
    EXPECT_EQ(r->attempts, 2u);
    EXPECT_EQ(r->predicted, -1);
  }
}

TEST(ServeEngineTest, TransientFaultsRetryThenServeCorrectly) {
  const TinyWorkload w = make_workload(40);
  ThreadPool pool(2);
  ServeConfig cfg = base_config();
  cfg.fault_rate = 0.4;
  cfg.fault_bit_rate = 0.5;
  cfg.max_attempts = 8;  // exhaustion essentially impossible
  ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool);

  std::vector<ResponseFuture> futures;
  for (std::uint64_t i = 0; i < 40; ++i)
    futures.push_back(
        engine.submit(make_request(i, (i + 1) * 20000, 100000, i)));
  const ServeReport rep = engine.finish();

  const auto retried = rep.outcomes[static_cast<std::size_t>(Outcome::kRetried)];
  EXPECT_GT(retried, 0u);
  EXPECT_EQ(rep.served, 40u);
  EXPECT_EQ(rep.retries, rep.attempts - 40u);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto r = futures[i].try_get();
    ASSERT_TRUE(r.has_value());
    if (r->outcome == Outcome::kRetried) {
      EXPECT_GT(r->attempts, 1u);
    }
    if (r->outcome == Outcome::kOk) {
      EXPECT_EQ(r->attempts, 1u);
    }
    // Retries never change the answer: served == full-dims golden.
    EXPECT_EQ(r->predicted, w.clf.predict(w.queries[i]));
  }
}

TEST(ServeEngineTest, OverloadWalksLadderDownAndRecovers) {
  const TinyWorkload w = make_workload(64);
  ThreadPool pool(2);
  ServeConfig cfg = base_config();
  cfg.min_dims = 128;  // ladder {512, 256, 128}
  cfg.slo_us = 1500;
  cfg.deadline_us = 4000;
  cfg.cooldown = 2;
  cfg.high_water = 40;
  ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool);
  ASSERT_EQ(engine.ladder(), (std::vector<std::size_t>{512, 256, 128}));

  // Phase 1 — overload: 2000 rps against 1000 rps full-dims capacity.
  std::vector<Request> requests;
  std::uint64_t vt = 0;
  for (std::uint64_t i = 0; i < 120; ++i) {
    vt += 500;
    requests.push_back(make_request(i, vt, cfg.deadline_us, i % 64));
  }
  // Phase 2 — calm: widely spaced arrivals let the EWMA sink and the
  // ladder step back up.
  for (std::uint64_t i = 120; i < 160; ++i) {
    vt += 10000;
    requests.push_back(make_request(i, vt, cfg.deadline_us, i % 64));
  }
  std::vector<ResponseFuture> futures;
  for (const Request& r : requests) futures.push_back(engine.submit(r));
  const ServeReport rep = engine.finish();

  EXPECT_GT(rep.steps_down, 0u);
  EXPECT_GT(rep.steps_up, 0u);
  EXPECT_EQ(rep.final_rung, 0u);  // recovered to full dimensions
  EXPECT_GT(rep.rungs[1].served + rep.rungs[2].served, 0u);
  EXPECT_GT(rep.outcomes[static_cast<std::size_t>(Outcome::kDegraded)], 0u);

  // Accuracy-at-degradation golden: every degraded response equals
  // the classifier's scan over its rung's prefix mask with Updated norms.
  std::uint64_t checked = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto r = futures[i].try_get();
    ASSERT_TRUE(r.has_value());
    if (r->outcome != Outcome::kDegraded) continue;
    EXPECT_LT(r->dims_used, 512u);
    EXPECT_EQ(r->predicted, w.clf.scan(w.queries[requests[i].query],
                                       w.clf.prefix_mask(r->dims_used))
                                .cls);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(ServeEngineTest, MaskedServingMatchesPredictMasked) {
  const TinyWorkload w = make_workload(16);
  ThreadPool pool(2);
  const ServeConfig cfg = base_config();
  const std::vector<bool> chunk_ok = {true, false, true, true};
  ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool, chunk_ok);

  std::vector<ResponseFuture> futures;
  for (std::uint64_t i = 0; i < 16; ++i)
    futures.push_back(
        engine.submit(make_request(i, (i + 1) * 5000, 100000, i)));
  const ServeReport rep = engine.finish();

  // Serving around a dead block is degraded service even at the full rung.
  EXPECT_EQ(rep.outcomes[static_cast<std::size_t>(Outcome::kDegraded)], 16u);
  EXPECT_EQ(rep.rungs[0].active_chunks, 3u);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto r = futures[i].try_get();
    EXPECT_EQ(r->predicted, w.clf.scan(w.queries[i], chunk_ok).cls);
  }
}

TEST(ServeEngineTest, RejectsLadderRungWithNoHealthyChunk) {
  const TinyWorkload w = make_workload(4);
  ThreadPool pool(1);
  ServeConfig cfg = base_config();
  cfg.min_dims = 128;  // floor rung is exactly chunk 0
  const std::vector<bool> chunk_ok = {false, true, true, true};
  EXPECT_THROW(ServeEngine(w.clf, w.queries, w.labels, cfg, pool, chunk_ok),
               std::invalid_argument);
}

/// Scripted lifecycle hook: records every observation and hands out one
/// prepared update when the virtual clock reaches its vt.
class ScriptedLifecycle : public ModelLifecycle {
 public:
  void observe(const ServedObservation& obs) override { seen.push_back(obs); }

  std::optional<ModelUpdate> poll(std::uint64_t now) override {
    if (pending.has_value() && now >= pending->vt) {
      ModelUpdate u = std::move(*pending);
      pending.reset();
      return u;
    }
    return std::nullopt;
  }

  std::vector<ServedObservation> seen;
  std::optional<ModelUpdate> pending;
};

/// A same-geometry model that disagrees with `clf` on purpose: classes 0
/// and 1 trade accumulators (norms recomputed), so post-swap predictions
/// are distinguishable from pre-swap ones.
model::HdcClassifier make_swapped_classes(const model::HdcClassifier& clf) {
  model::HdcClassifier other = clf;
  other.set_class_vector(0, clf.class_vector(1));
  other.set_class_vector(1, clf.class_vector(0));
  other.recompute_norms();
  return other;
}

TEST(ServeEngineTest, HotSwapInstallsBetweenBatchesAndAttributesVersions) {
  const TinyWorkload w = make_workload(48);
  ThreadPool pool(2);
  const ServeConfig cfg = base_config();
  const auto next = std::make_shared<const model::HdcClassifier>(
      make_swapped_classes(w.clf));

  ScriptedLifecycle lc;
  lc.pending = ModelUpdate{next, 1, 50000, false};
  ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool, {}, &lc);

  std::vector<ResponseFuture> futures;
  for (std::uint64_t i = 0; i < 48; ++i) {
    Request r = make_request(i, (i + 1) * 2000, cfg.deadline_us, i);
    r.canary = (i % 4 == 0);
    futures.push_back(engine.submit(r));
  }
  const ServeReport rep = engine.finish();

  // Exactly one swap, no rollback, and the engine now carries two versions
  // whose tallies account for every served request exactly once.
  ASSERT_EQ(rep.swaps.size(), 1u);
  EXPECT_FALSE(rep.swaps[0].rollback);
  EXPECT_EQ(rep.swaps[0].version, 1u);
  EXPECT_GE(rep.swaps[0].vt, 50000u);
  ASSERT_EQ(rep.versions.size(), 2u);
  EXPECT_EQ(rep.versions[0].version, 0u);
  EXPECT_EQ(rep.versions[1].version, 1u);
  EXPECT_GT(rep.versions[0].served, 0u);
  EXPECT_GT(rep.versions[1].served, 0u);
  EXPECT_EQ(rep.versions[0].served + rep.versions[1].served, rep.served);

  // No request dropped and none served by a half-installed model: every
  // future resolves, and requests arriving after the swap instant match
  // the NEW model's golden prediction while the earliest requests match
  // the old one.
  EXPECT_EQ(rep.served, 48u);
  std::uint64_t checked_new = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto r = futures[i].try_get();
    ASSERT_TRUE(r.has_value()) << "unresolved future " << i;
    const std::uint64_t arrival = (i + 1) * 2000;
    if (arrival > rep.swaps[0].vt) {
      EXPECT_EQ(r->predicted, next->predict(w.queries[i])) << i;
      ++checked_new;
    }
  }
  EXPECT_GT(checked_new, 0u);
  EXPECT_EQ(futures[0].try_get()->predicted, w.clf.predict(w.queries[0]));

  // The observation stream carries every served request in virtual order,
  // with canary flags and normalized margins intact.
  ASSERT_EQ(lc.seen.size(), rep.served);
  std::uint64_t canaries = 0;
  for (std::size_t i = 0; i < lc.seen.size(); ++i) {
    const ServedObservation& o = lc.seen[i];
    EXPECT_GE(o.margin, 0.0);
    EXPECT_LE(o.margin, 1.0);
    EXPECT_EQ(o.label, w.labels[o.query]);
    if (o.canary) ++canaries;
    if (i > 0) {
      EXPECT_GE(o.vt, lc.seen[i - 1].vt);
    }
  }
  EXPECT_EQ(canaries, 12u);
}

TEST(ServeEngineTest, RollbackIsRecordedWithoutInstalling) {
  const TinyWorkload w = make_workload(16);
  ThreadPool pool(1);
  const ServeConfig cfg = base_config();
  ScriptedLifecycle lc;
  lc.pending = ModelUpdate{nullptr, 1, 10000, true};
  ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool, {}, &lc);

  std::vector<ResponseFuture> futures;
  for (std::uint64_t i = 0; i < 16; ++i)
    futures.push_back(
        engine.submit(make_request(i, (i + 1) * 2000, cfg.deadline_us, i)));
  const ServeReport rep = engine.finish();

  ASSERT_EQ(rep.swaps.size(), 1u);
  EXPECT_TRUE(rep.swaps[0].rollback);
  ASSERT_EQ(rep.versions.size(), 1u);  // nothing installed
  EXPECT_EQ(rep.versions[0].served, rep.served);
  for (std::size_t i = 0; i < futures.size(); ++i)
    EXPECT_EQ(futures[i].try_get()->predicted, w.clf.predict(w.queries[i]));
}

// A swap the engine cannot honour is a caller error: the engine runs on the
// caller's thread, so the typed exception reaches the submit()/finish()
// that polled it, and the engine is still safe to destroy afterwards.
TEST(ServeEngineTest, MismatchedSwapThrowsOnTheCaller) {
  const TinyWorkload w = make_workload(8);
  ThreadPool pool(1);
  const ServeConfig cfg = base_config();
  {
    // Lifecycle update with one class too many, due at the second arrival.
    ScriptedLifecycle lc;
    lc.pending = ModelUpdate{
        std::make_shared<const model::HdcClassifier>(
            w.clf.dims(), w.clf.num_classes() + 1, 128),
        1, 2000, false};
    ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool, {}, &lc);
    (void)engine.submit(make_request(0, 1000, cfg.deadline_us, 0));
    EXPECT_THROW((void)engine.submit(make_request(1, 2000, cfg.deadline_us, 1)),
                 std::invalid_argument);
  }
  {
    // Encoder table one query short, due only at the final drain.
    const std::vector<hdc::IntHV> short_table(w.queries.begin(),
                                              w.queries.end() - 1);
    ScriptedEncoderFaults::Entry entry;
    entry.meta.phase = EncoderUpdate::Phase::kCorrupt;
    entry.meta.vt = 1500;
    entry.table = short_table;
    ScriptedEncoderFaults enc({entry});
    ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool, {}, nullptr,
                       &enc);
    const ResponseFuture f =
        engine.submit(make_request(0, 1000, cfg.deadline_us, 0));
    EXPECT_THROW((void)engine.finish(), std::invalid_argument);
    EXPECT_FALSE(f.try_get().has_value());
  }
}

// The engine packs its query table once, so a row that is not exactly
// model.dims() long is rejected up front rather than at a flush: a short
// row could not be scored, and a long one would be packed by its prefix.
TEST(ServeEngineTest, RejectsQueryRowsNotModelDimsLong) {
  const TinyWorkload w = make_workload(8);
  ThreadPool pool(1);
  const ServeConfig cfg = base_config();
  for (const std::size_t len : {w.clf.dims() - 1, w.clf.dims() + 1}) {
    std::vector<hdc::IntHV> queries = w.queries;
    queries[5].resize(len, 1);
    EXPECT_THROW(ServeEngine(w.clf, queries, w.labels, cfg, pool),
                 std::invalid_argument)
        << "row length " << len;
  }
}

TEST(ServeEngineTest, SwapToALongerRowThrowsBeforeFlushing) {
  const TinyWorkload w = make_workload(8);
  ThreadPool pool(1);
  const ServeConfig cfg = base_config();
  ScriptedEncoderFaults::Entry entry;
  entry.meta.phase = EncoderUpdate::Phase::kScrub;
  entry.meta.vt = 1500;
  entry.table = w.queries;
  entry.table[3].push_back(0);
  ScriptedEncoderFaults enc({entry});
  ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool, {}, nullptr,
                     &enc);
  const ResponseFuture f =
      engine.submit(make_request(0, 1000, cfg.deadline_us, 0));
  // Request 0 completes at 2000 and waits in its rung's batch; the swap
  // polled at the second arrival is rejected before that batch is flushed.
  EXPECT_THROW((void)engine.submit(make_request(1, 2000, cfg.deadline_us, 1)),
               std::invalid_argument);
  EXPECT_FALSE(f.try_get().has_value());
}

TEST(ServeEngineTest, RejectsARequestPastTheQueryTable) {
  const TinyWorkload w = make_workload(4);
  ThreadPool pool(1);
  const ServeConfig cfg = base_config();
  ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool);
  EXPECT_THROW((void)engine.submit(make_request(0, 100, cfg.deadline_us, 4)),
               std::out_of_range);
  // Nothing was admitted: the engine serves the next request as usual.
  const ResponseFuture f =
      engine.submit(make_request(1, 200, cfg.deadline_us, 3));
  const ServeReport rep = engine.finish();
  EXPECT_EQ(rep.requests, 1u);
  EXPECT_EQ(rep.served, 1u);
  ASSERT_TRUE(f.try_get().has_value());
  EXPECT_EQ(f.try_get()->predicted, w.clf.predict(w.queries[3]));
}

TEST(ServeEngineTest, SubmitAfterFinishResolvesShed) {
  const TinyWorkload w = make_workload(4);
  ThreadPool pool(1);
  ServeEngine engine(w.clf, w.queries, w.labels, base_config(), pool);
  engine.submit(make_request(0, 100, 1000, 0));
  (void)engine.finish();
  const auto r = engine.submit(make_request(1, 200, 1000, 1)).try_get();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->outcome, Outcome::kShed);
}

// tick(vt) is the discrete-event coordinator handle (fleet::run_closed_loop):
// it must resolve every future finishing <= vt before returning, report the
// next scheduled event exactly, and go kNoEvent when idle.
TEST(ServeEngineTest, TickResolvesFuturesAndReportsTheNextEvent) {
  const TinyWorkload w = make_workload(8);
  ThreadPool pool(1);
  const ServeConfig cfg = base_config();  // 1 server, 1000us, jitter-free
  ServeEngine engine(w.clf, w.queries, w.labels, cfg, pool);

  EXPECT_EQ(engine.tick(0), ServeEngine::kNoEvent);  // idle engine

  // Two back-to-back requests on one lane: completions at 2000 and 3000.
  auto f0 = engine.submit(make_request(0, 1000, cfg.deadline_us, 0));
  auto f1 = engine.submit(make_request(1, 1000, cfg.deadline_us, 1));

  const std::uint64_t next = engine.tick(1500);
  EXPECT_EQ(next, 2000u);  // first completion still pending
  EXPECT_FALSE(f0.try_get().has_value());

  EXPECT_EQ(engine.tick(2000), 3000u);  // first done, second scheduled
  const auto r0 = f0.try_get();
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->outcome, Outcome::kOk);
  EXPECT_EQ(r0->finish_us, 2000u);
  EXPECT_FALSE(f1.try_get().has_value());

  EXPECT_EQ(engine.tick(5000), ServeEngine::kNoEvent);  // fully drained
  const auto r1 = f1.try_get();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->finish_us, 3000u);

  const ServeReport rep = engine.finish();
  EXPECT_EQ(rep.served, 2u);
}

#if GENERIC_OBS_ENABLED
// Several engines in one process must tally into disjoint registry metrics:
// cfg.model_id namespaces them as "serve.<stem>{model=<id>}", while an
// empty id keeps the legacy process-global "serve.<stem>" series.
TEST(ServeEngineTest, RegistryMetricsAreNamespacedPerModel) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& alpha = reg.counter("serve.requests{model=alpha}");
  obs::Counter& beta = reg.counter("serve.requests{model=beta}");
  obs::Counter& legacy = reg.counter("serve.requests");
  alpha.reset_value();
  beta.reset_value();
  legacy.reset_value();

  const TinyWorkload w = make_workload(8);
  ThreadPool pool(2);
  ServeConfig cfg_a = base_config();
  cfg_a.model_id = "alpha";
  ServeConfig cfg_b = base_config();
  cfg_b.model_id = "beta";
  ServeEngine ea(w.clf, w.queries, w.labels, cfg_a, pool);
  ServeEngine eb(w.clf, w.queries, w.labels, cfg_b, pool);

  for (std::uint64_t i = 0; i < 5; ++i)
    ea.submit(make_request(i, (i + 1) * 2000, 100000, i));
  for (std::uint64_t i = 0; i < 3; ++i)
    eb.submit(make_request(i, (i + 1) * 2000, 100000, i));
  (void)ea.finish();
  (void)eb.finish();

  EXPECT_EQ(alpha.value(), 5u);
  EXPECT_EQ(beta.value(), 3u);
  EXPECT_EQ(legacy.value(), 0u) << "namespaced engines leaked into the "
                                   "process-global series";

  // An engine with no model_id still feeds the legacy series.
  ServeEngine legacy_engine(w.clf, w.queries, w.labels, base_config(), pool);
  legacy_engine.submit(make_request(0, 1000, 100000, 0));
  (void)legacy_engine.finish();
  EXPECT_EQ(legacy.value(), 1u);
  EXPECT_EQ(alpha.value(), 5u);
}
#endif  // GENERIC_OBS_ENABLED

}  // namespace
}  // namespace generic::serve
