// edge_infer — the paper's edge device: one caller, no pool, a closed loop
// of encode + full-dims predict per raw ISOLET sample.
//
// Encoding is ~90% of the op, so encoder changes show here and a scoring
// change can move this workload by at most its ~8% share.
#include <string>

#include "harness.h"

namespace perfbench {

using namespace generic;

namespace {
constexpr std::size_t kTailBlock = 100;  // ops per tail block: p90
}  // namespace

Result run_edge_infer(const Options& opt) {
  Result r;
  const data::Dataset ds = isolet_inputs(opt.seed);
  ThreadPool pool(1);

  IsoletModel m;
  const double setup_s = setup_seconds(opt, [&] {
    m = train_isolet(ds, opt.seed, pool);
  });

  // Gate reference: the batched path over the same encodings.
  const auto ref_enc = m.encoder->encode_batch(ds.test_x, pool);
  std::vector<int> expected = m.clf->predict_batch(ref_enc, pool);
  if (opt.tamper)
    expected[0] = (expected[0] + 1) % static_cast<int>(ds.num_classes);

  Tracer tracer;
  std::uint64_t op_id = 0;
  const std::size_t n = ds.test_x.size();

  // One op: encode one raw sample, then score it on all dims.
  auto op = [&](std::size_t i) {
    Span s(tracer, "op", op_id);
    hdc::IntHV hv;
    {
      Span e(tracer, "encoding", op_id);
      hv = m.encoder->encode(ds.test_x[i]);
    }
    int pred = 0;
    {
      Span p(tracer, "model", op_id);
      pred = m.clf->predict(hv);
    }
    ++op_id;
    return pred;
  };

  // Warm-up pass over the whole test set; it also checks that the single
  // sample path reproduces the batched encodings.
  for (std::size_t i = 0; i < n; ++i) {
    r.gate(m.encoder->encode(ds.test_x[i]) == ref_enc[i]);
    r.gate(op(i) == expected[i]);
  }

  // One timed unit is a whole pass over the test set, so the accuracy of
  // the timed ops is the same on every run of a seed.
  BlockStats latency(kTailBlock);
  std::uint64_t ops = 0, correct = 0, mismatches = 0;
  auto pass = [&] {
    const auto p0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto o0 = Clock::now();
      const int pred = op(i);
      if (!tracer.enabled()) latency.add(us_since(o0));
      ++ops;
      if (pred != expected[i]) ++mismatches;
      if (pred == ds.test_y[i]) ++correct;
    }
    return us_since(p0);
  };

  const Units u = run_units(opt.seconds, tracer, opt.trace, pass);
  r.attempted = ops;
  r.failed = mismatches;
  r.gate(mismatches == 0);
  add_probe(r, u, opt.trace);
  if (!opt.trace) {
    r.metric("throughput_ops_s", n * 1e6 / median(u.plain_us), "1/s");
    r.metric("latency_p50_us", latency.p50(), "us");
    r.metric("latency_tail_us", latency.tail(), "us");
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("accuracy",
             static_cast<double>(correct) / static_cast<double>(ops), "ratio");
    r.note("tail", latency.note());
    return r;
  }

  const double dot_ops =
      static_cast<double>(ds.num_classes) * static_cast<double>(kIsoletDims);
  r.metric("encoding.encode_us", median(tracer.durations("encoding")), "us");
  r.metric("model.predict_us", median(tracer.durations("model")), "us");
  r.metric("model.dot_ops_per_query", dot_ops, "count");
  // int32 query + int32 class rows over every dimension.
  r.metric("model.bytes_per_query", 4.0 * (dot_ops + kIsoletDims), "B");
  add_self_times(r, tracer, tracer.self_us(),
                 static_cast<double>(u.traced_us.size() * n));
  r.metric("trace.overhead_share",
           median(u.traced_us) / median(u.plain_us) - 1.0, "ratio");
  tracer.write(opt.work_dir + "/edge_infer.seed" + std::to_string(opt.seed) +
               ".spans.tsv");
  return r;
}

}  // namespace perfbench
