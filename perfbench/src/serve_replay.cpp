// serve_replay — the in-process ServeEngine over pre-encoded queries.
//
// A seeded open-loop Poisson trace arrives faster than the engine's virtual
// capacity, so the degradation ladder walks from 4096 down to 512 dims, and
// three dead 128-dim chunks put every rung on the masked scoring path. No
// encoding happens: scoring and serve control are the whole cost, which is
// where a scoring-kernel change must show.
//
// The closed-loop unit is one replay: build an engine, submit the whole
// trace (the admission queue holds all of it, so the submitter never waits
// per request), finish. Per-request wall latency is not reported; it would
// measure queue depth, not the program.
#include <array>
#include <cmath>
#include <string>

#include "harness.h"
#include "resilience/fault_model.h"
#include "serve/engine.h"

namespace perfbench {

using namespace generic;

namespace {

constexpr std::size_t kRequests = 6000;  // requests per replay
constexpr double kRateRps = 5000.0;      // virtual arrival rate
constexpr std::size_t kTailBlock = 50;   // replays per tail block: p80

struct Replay {
  serve::ServeReport report;
  std::vector<serve::Response> responses;
  double wall_us = 0.0;
};

}  // namespace

Result run_serve_replay(const Options& opt) {
  Result r;
  keep_freed_memory();
  const data::Dataset ds = isolet_inputs(opt.seed);
  ThreadPool pool(1);

  // Fixed dead chunks, one inside each rung's prefix above 512 dims, so
  // every seed scores the same number of chunks per rung.
  const std::vector<std::size_t> dead = {5, 13, 29};
  std::vector<bool> chunk_ok(kIsoletDims / 128, true);
  for (std::size_t k : dead) chunk_ok[k] = false;

  IsoletModel m;
  std::vector<hdc::IntHV> queries;
  const double setup_s = setup_seconds(opt, [&] {
    m = train_isolet(ds, opt.seed, pool);
    queries = m.encoder->encode_batch(ds.test_x, pool);
    resilience::inject_dead_blocks(*m.clf, dead);
  });

  serve::ServeConfig cfg;
  cfg.queue_capacity = kRequests + 1;
  cfg.high_water = kRequests + 1;
  cfg.deadline_us = 60'000'000;  // no request times out: nothing fails
  cfg.seed = opt.seed ^ 0x5EB7EULL;

  std::vector<serve::Request> trace(kRequests);
  Rng gen(opt.seed ^ 0x0A11CE5ULL);
  std::uint64_t vt = 0;
  for (std::size_t id = 0; id < kRequests; ++id) {
    const double gap = -std::log(1.0 - gen.uniform()) * (1e6 / kRateRps);
    vt += static_cast<std::uint64_t>(std::max<long long>(std::llround(gap), 1));
    trace[id].id = id;
    trace[id].arrival_us = vt;
    trace[id].deadline_us = vt + cfg.deadline_us;
    trace[id].query = static_cast<std::size_t>(gen.below(queries.size()));
  }

  Tracer tracer;
  std::uint64_t replay_id = 0;
  auto replay = [&] {
    Replay out;
    const auto t0 = Clock::now();
    {
      Span op(tracer, "op", replay_id);
      std::vector<serve::ResponseFuture> futures;
      futures.reserve(kRequests);
      {
        Span s(tracer, "serve", replay_id);
        serve::ServeEngine engine(*m.clf, queries, ds.test_y, cfg, pool,
                                  chunk_ok);
        for (const serve::Request& req : trace)
          futures.push_back(engine.submit(req));
        out.report = engine.finish();
      }
      out.responses.reserve(kRequests);
      for (const auto& f : futures) {
        const auto resp = f.try_get();
        out.responses.push_back(resp.value_or(serve::Response{}));
        r.gate(resp.has_value());
      }
    }
    out.wall_us = us_since(t0);
    ++replay_id;
    return out;
  };

  // Warm-up replay; its report and responses are the reference every timed
  // replay must repeat exactly.
  Replay ref = replay();
  if (opt.tamper) ref.responses[0].predicted = -2;
  auto check = [&](const Replay& rp) {
    std::array<std::uint64_t, serve::kNumOutcomes> seen{};
    bool same = true;
    for (std::size_t i = 0; i < kRequests; ++i) {
      ++seen[static_cast<std::size_t>(rp.responses[i].outcome)];
      same = same && rp.responses[i].predicted == ref.responses[i].predicted &&
             rp.responses[i].rung == ref.responses[i].rung &&
             rp.responses[i].outcome == ref.responses[i].outcome;
    }
    r.gate(seen == rp.report.outcomes);
    r.gate(rp.report.outcomes == ref.report.outcomes);
    for (std::size_t k = 0; k < ref.report.rungs.size(); ++k)
      r.gate(rp.report.rungs[k].served == ref.report.rungs[k].served);
    r.gate(same);
  };
  check(ref);

  const auto& oc = ref.report.outcomes;
  const std::uint64_t unserved =
      oc[static_cast<std::size_t>(serve::Outcome::kShed)] +
      oc[static_cast<std::size_t>(serve::Outcome::kTimeout)] +
      oc[static_cast<std::size_t>(serve::Outcome::kFailed)];

  // Re-score the served (query, rung, mask) set through the batched
  // predictor the engine flushes through, rung by rung, on a pool of its
  // own: scoring runs inside the engine's calls, and this pass is its share
  // of them. Run after every traced replay, so both see the same host.
  // The copies of the queries this takes are the harness's memory, so only
  // traced runs, which do not report peak RSS, make them.
  std::vector<std::size_t> ladder;
  for (const auto& rs : ref.report.rungs) ladder.push_back(rs.dims);
  std::vector<std::vector<hdc::IntHV>> by_rung(ladder.size());
  std::vector<std::vector<int>> want(ladder.size());
  for (std::size_t i = 0; opt.trace && i < kRequests; ++i) {
    const serve::Response& resp = ref.responses[i];
    if (resp.predicted < 0) continue;
    by_rung[resp.rung].push_back(queries[trace[i].query]);
    want[resp.rung].push_back(resp.predicted);
  }
  ThreadPool score_pool(1);
  auto rescore = [&] {
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < ladder.size(); ++k) {
      if (by_rung[k].empty()) continue;
      std::vector<bool> mask(chunk_ok.size(), false);
      for (std::size_t c = 0; c < ladder[k] / 128; ++c) mask[c] = chunk_ok[c];
      const auto preds =
          m.clf->predict_masked_margin_batch(by_rung[k], mask, score_pool);
      for (std::size_t i = 0; i < preds.size(); ++i)
        r.gate(preds[i].cls == want[k][i]);
    }
    return us_since(t0);
  };

  std::uint64_t replays = 0;
  std::vector<double> score_us;
  PoolDelta pd;  // over the replays only, not the re-scoring passes
  auto unit = [&] {
    const obs::PoolStats pool0 = pool.stats();
    const Replay rp = replay();
    pd += pool_delta(pool0, pool.stats());
    check(rp);
    ++replays;
    if (tracer.enabled()) score_us.push_back(rescore());
    return rp.wall_us;
  };

  const Units u = run_units(opt.seconds, tracer, opt.trace, unit);
  r.attempted = replays * kRequests;
  r.failed = replays * unserved;
  add_probe(r, u, opt.trace);
  if (!opt.trace) {
    r.metric("throughput_ops_s", kRequests * 1e6 / median(u.plain_us), "1/s");
    BlockStats latency(kTailBlock);
    for (double us : u.plain_us) latency.add(us);
    r.metric("latency_p50_us", latency.p50(), "us");
    r.metric("latency_tail_us", latency.tail(), "us");
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("accuracy",
             static_cast<double>(ref.report.correct) /
                 static_cast<double>(ref.report.requests),
             "ratio");
    r.note("tail", latency.note());
    r.note("latency_op", "\"one replay of " + std::to_string(kRequests) +
                             " requests\"");
    return r;
  }

  const double score_per_req = median(score_us) / kRequests;
  const double wall_per_req = median(u.plain_us) / kRequests;
  r.metric("model.score_us_per_req", score_per_req, "us");
  r.metric("serve.wall_us_per_req", wall_per_req, "us");
  r.metric("serve.overhead_us_per_req", wall_per_req - score_per_req, "us");

  double dot_ops = 0.0, bytes = 0.0;
  const double served = static_cast<double>(ref.report.served);
  for (const auto& rs : ref.report.rungs) {
    const double share = static_cast<double>(rs.served) / served;
    const double active_dims = static_cast<double>(rs.active_chunks * 128);
    r.metric("serve.rung_share." + std::to_string(rs.dims), share, "ratio");
    dot_ops += share * static_cast<double>(ds.num_classes) * active_dims;
    bytes += share * 4.0 * static_cast<double>(ds.num_classes + 1) *
             active_dims;
  }
  r.metric("model.dot_ops_per_query", dot_ops, "count");
  r.metric("model.bytes_per_query", bytes, "B");
  for (std::size_t i = 0; i < serve::kNumOutcomes; ++i) {
    const auto o = static_cast<serve::Outcome>(i);
    r.metric("serve.outcome." + std::string(serve::outcome_name(o)),
             static_cast<double>(oc[i]), "count");
  }
  r.metric("common.pool_busy_share", pd.busy_share(), "ratio");
  r.metric("common.pool_jobs_per_op",
           pd.jobs / static_cast<double>(replays * kRequests), "count");
  const auto traced_requests =
      static_cast<double>(u.traced_us.size() * kRequests);
  auto self = tracer.self_us();
  for (double us : score_us) self["model"] += us;
  self["serve"] -= self["model"];
  add_self_times(r, tracer, self, traced_requests);
  r.derived("self.model_us_per_op",
            "re-scoring pass after each traced replay");
  r.derived("self.serve_us_per_op",
            "serve span self time minus self.model_us_per_op");
  r.metric("trace.overhead_share",
           median(u.traced_us) / median(u.plain_us) - 1.0, "ratio");
  tracer.write(opt.work_dir + "/serve_replay.seed" + std::to_string(opt.seed) +
               ".spans.tsv");
  return r;
}

}  // namespace perfbench
