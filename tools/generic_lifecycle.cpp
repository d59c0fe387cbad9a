// generic_lifecycle — the online-lifecycle scenario end to end
// (docs/lifecycle.md): a model serves a seeded concept-shift stream, the
// drift detector notices the post-shift margin collapse, a retrain on the
// serving pool adapts a shadow on replayed canaries, validation gates it at
// every ladder rung, and the serving engine hot-swaps it in between batches
// — zero requests dropped, zero served from a half-installed model.
//
//   generic_lifecycle [--quick] [--requests=N] [--rate=RPS] [--shift-at=K]
//                     [--canary-every=M] [--severity=S] [--seed=S]
//                     [--threads=N] [--retrain-cost-us=C]
//                     [--shadow-fault-rate=P] [--ckpt-dir=DIR]
//                     [--out=serve.json] [--lifecycle-out=lifecycle.json]
//                     [--trace=out.json] [--metrics=out.json]
//                     [--rtrace=out.json] [--rtrace-chrome=out.json]
//                     [--flight-dump=out.json]
//
// The run is one edge chaos scenario with no attack (docs/chaos.md): the
// flags become a chaos::ScenarioSpec — Poisson arrivals at --rate, a concept
// shift at --shift-at — and chaos::run_scenario assembles and drives the
// deployment. Exit 1 when an always-on invariant fails (an unresolved
// future, an outcome or per-version tally that does not add up).
//
// Determinism: the whole run — every arrival, margin, alarm, retrain
// trigger, validation verdict and swap, and both JSON reports — is a pure
// function of (flags, seed). --threads only changes wall-clock speed;
// reports are byte-identical (the CI lifecycle smoke cmp's them).
//
// --shadow-fault-rate corrupts the retrained shadow before validation (the
// rejection-gate demo): the validator must refuse it and the engine must
// record a rollback instead of a swap.
//
// --ckpt-dir both saves validated versions AND restarts from disk: when
// the store already holds a checkpoint of matching geometry, boot serves
// from it (corrupt files are quarantined, the walk falls back to older
// versions) and version numbering continues where the last run stopped.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "chaos/orchestrator.h"
#include "common/thread_pool.h"
#include "obs/export.h"

using namespace generic;

namespace {

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  chaos::ScenarioSpec spec;
  spec.name = "lifecycle";
  spec.quick = quick;
  spec.dims = quick ? 1024 : 2048;
  spec.train_samples = quick ? 600 : 1200;
  spec.requests = flags.positive_size("--requests", quick ? 2000 : 4000);
  spec.load.kind = chaos::LoadKind::kPoisson;
  spec.load.base_rps =
      static_cast<double>(flags.positive_size("--rate", 1200));
  spec.drift_enabled = true;
  spec.shift_at = flags.size("--shift-at", quick ? 600 : 1000);
  spec.canary_every = flags.positive_size("--canary-every", 2);
  spec.severity = flags.real("--severity", 0.75);
  chaos::RunOptions opt;
  opt.seed = flags.size("--seed", 0xD21F7);
  const std::size_t threads = flags.threads();
  spec.retrain_cost_us = flags.positive_size("--retrain-cost-us", 30000);
  spec.shadow_fault_rate = flags.real("--shadow-fault-rate", 0.0);
  opt.store_dir = flags.value("--ckpt-dir", "");
  const std::string out_path = flags.value("--out", "");
  const std::string lifecycle_out = flags.value("--lifecycle-out", "");
  const bench::RtraceOutputs rtrace(flags);
  obs::Session obs_session(flags.value("--trace", ""),
                           flags.value("--metrics", ""));
  bench::apply_kernel_backend(flags);
  flags.done();

  if (spec.shift_at >= spec.requests) {
    std::fprintf(stderr, "error: need --shift-at < --requests\n");
    return 2;
  }

  set_global_threads(threads);
  ThreadPool& pool = global_pool();
  opt.rtrace = obs::rtrace::trace_enabled();
  const chaos::ChaosReport chaos = chaos::run_scenario(spec, opt, pool);
  const serve::ServeReport& report = chaos.serve;
  const lifecycle::LifecycleReport& lreport = chaos.lifecycle;

  if (chaos.boot.from_checkpoint)
    std::printf("booted from checkpoint version %llu (%llu corrupt "
                "quarantined)\n",
                static_cast<unsigned long long>(chaos.boot.version),
                static_cast<unsigned long long>(chaos.boot.quarantined));
  else if (chaos.boot.version > 0)
    std::fprintf(stderr,
                 "warning: checkpoint version %llu has other geometry; "
                 "using the fresh model\n",
                 static_cast<unsigned long long>(chaos.boot.version));

  std::printf("generic_lifecycle: D=%zu, %zu requests at %.0f rps, shift at "
              "request %zu, canary every %zu, %zu threads\n",
              spec.dims, spec.requests, spec.load.base_rps, spec.shift_at,
              spec.canary_every, threads);
  bench::print_rule(72);
  std::printf("drift: %llu alarms, score %.3f, margin ewma %.4f\n",
              static_cast<unsigned long long>(lreport.alarms),
              lreport.drift_score, lreport.margin_ewma);
  std::printf("retrains: %llu triggered, %llu swapped, %llu rolled back\n",
              static_cast<unsigned long long>(lreport.triggered),
              static_cast<unsigned long long>(lreport.swapped),
              static_cast<unsigned long long>(lreport.rolled_back));
  std::printf("canary accuracy ewma: %.4f at first trigger -> %.4f final\n",
              lreport.accuracy_ewma_at_trigger, lreport.final_accuracy_ewma);
  for (const auto& v : lreport.versions) {
    std::printf("  version %llu (%s, %s) vt=%llu us, %zu updates",
                static_cast<unsigned long long>(v.version),
                v.from_retrain ? "retrain" : "initial",
                v.installed ? "installed" : "rejected",
                static_cast<unsigned long long>(v.vt), v.updates);
    for (std::size_t r = 0; r < v.rung_dims.size(); ++r)
      std::printf("%s D=%zu %.3f vs %.3f", r == 0 ? " |" : ",",
                  v.rung_dims[r], v.holdout_accuracy[r],
                  v.baseline_accuracy[r]);
    std::printf("\n");
  }
  for (const auto& v : report.versions)
    std::printf("  served by version %llu: %llu (accuracy %.4f)\n",
                static_cast<unsigned long long>(v.version),
                static_cast<unsigned long long>(v.served),
                v.served == 0 ? 0.0
                              : static_cast<double>(v.correct) /
                                    static_cast<double>(v.served));
  if (!opt.store_dir.empty())
    std::printf("checkpoints: %llu saved, %llu pruned (dir %s)\n",
                static_cast<unsigned long long>(lreport.checkpoints_saved),
                static_cast<unsigned long long>(lreport.checkpoints_pruned),
                opt.store_dir.c_str());

  obs_session.set_pool_stats(pool.stats());
  bench::write_output(out_path, "serve report",
                      serve::serve_report_to_json(report));
  bench::write_output(lifecycle_out, "lifecycle report",
                      lifecycle::lifecycle_report_to_json(lreport));
  rtrace.write();

  for (const auto& inv : chaos.invariants)
    if (!inv.passed)
      std::fprintf(stderr, "error: invariant %s failed (value %.4g, bound "
                   "%.4g)\n", inv.name.c_str(), inv.value, inv.bound);
  return chaos.passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_tool(run, argc, argv); }
