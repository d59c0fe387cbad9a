// generic_lifecycle — the online-lifecycle scenario end to end
// (docs/lifecycle.md): a model serves a seeded concept-shift stream, the
// drift detector notices the post-shift margin collapse, a background
// retrain adapts a shadow on replayed canaries, validation gates it at
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
// Determinism: the whole run — every arrival, margin, alarm, retrain
// trigger, validation verdict and swap, and both JSON reports — is a pure
// function of (flags, seed). --threads only changes wall-clock speed;
// reports are byte-identical (the CI lifecycle smoke cmp's them).
//
// --shadow-fault-rate corrupts the retrained shadow before validation (the
// rejection-gate demo): the validator must refuse it and the engine must
// record a rollback instead of a swap.
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "data/drift.h"
#include "encoding/encoders.h"
#include "lifecycle/manager.h"
#include "model/pipeline.h"
#include "obs/export.h"
#include "serve/engine.h"

using namespace generic;

namespace {

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  const std::size_t dims = quick ? 1024 : 2048;
  const std::size_t epochs = quick ? 5 : 10;
  const std::size_t requests =
      flags.positive_size("--requests", quick ? 2000 : 4000);
  const std::size_t rate_rps = flags.positive_size("--rate", 1200);
  const std::size_t shift_at =
      flags.size("--shift-at", quick ? 600 : 1000);
  const std::size_t canary_every = flags.positive_size("--canary-every", 2);
  const double severity = flags.real("--severity", 0.75);
  const std::uint64_t seed = flags.size("--seed", 0xD21F7);
  const std::size_t threads = flags.threads();
  const std::uint64_t retrain_cost_us =
      flags.positive_size("--retrain-cost-us", 30000);
  const double shadow_fault_rate = flags.real("--shadow-fault-rate", 0.0);
  const std::string ckpt_dir = flags.value("--ckpt-dir", "");
  const std::string out_path = flags.value("--out", "");
  const std::string lifecycle_out = flags.value("--lifecycle-out", "");
  const bench::RtraceOutputs rtrace(flags);
  obs::Session obs_session(flags.value("--trace", ""),
                           flags.value("--metrics", ""));
  bench::apply_kernel_backend(flags);
  flags.done();

  if (shift_at >= requests) {
    std::fprintf(stderr, "error: need --shift-at < --requests\n");
    return 2;
  }

  set_global_threads(threads);
  ThreadPool& pool = global_pool();

  // The concept-shift stream: one label space, two feature regimes.
  data::DriftStreamSpec dspec;
  dspec.severity = severity;
  dspec.seed = seed;
  data::DriftStream stream(dspec);

  // Train encoder + initial model on PRE-shift data only — the model the
  // shift will strand.
  const auto ds = stream.make_dataset(quick ? 600 : 1200, 200, false);
  enc::EncoderConfig ecfg;
  ecfg.dims = dims;
  enc::GenericEncoder encoder(ecfg);
  encoder.fit(ds.train_x);
  const auto train = model::encode_all(encoder, ds.train_x, pool);
  auto initial = std::make_shared<model::HdcClassifier>(dims, dspec.classes);
  initial->fit_parallel(train, ds.train_y, epochs, pool);

  // The serving trace: request i serves stream sample i — pre-shift regime
  // before --shift-at, post-shift after. Encoded up front so the engine's
  // query indices cover both regimes.
  std::vector<std::vector<float>> xs;
  std::vector<int> labels;
  xs.reserve(requests);
  labels.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    auto s = stream.sample(i, i >= shift_at);
    xs.push_back(std::move(s.x));
    labels.push_back(s.label);
  }
  const auto queries = model::encode_all(encoder, xs, pool);

  serve::ServeConfig cfg;
  cfg.seed = seed ^ 0x5EB7EULL;
  cfg.min_dims = dims / 4;  // ladder {D, D/2, D/4}

  lifecycle::LifecycleConfig lcfg;
  lcfg.replay_capacity = 256;
  lcfg.holdout = 96;
  lcfg.min_replay = 192;
  lcfg.min_fresh = 160;
  lcfg.retrain_epochs = 3;
  lcfg.retrain_cost_us = retrain_cost_us;
  lcfg.cooldown_us = 50000;
  lcfg.min_dims = cfg.min_dims;
  lcfg.threads = threads == 0 ? 1 : threads;
  lcfg.seed = seed ^ 0xC1F3ULL;
  lcfg.shadow_fault_rate = shadow_fault_rate;

  // --ckpt-dir both saves validated versions AND restarts from disk: when
  // the store already holds a checkpoint of matching geometry, boot serves
  // from it (corrupt files are quarantined, the walk falls back to older
  // versions) and version numbering continues where the last run stopped.
  std::unique_ptr<lifecycle::CheckpointStore> store;
  if (!ckpt_dir.empty()) {
    store = std::make_unique<lifecycle::CheckpointStore>(ckpt_dir, 4);
    if (auto loaded = store->load_latest(); loaded.has_value()) {
      if (loaded->model.dims() == dims &&
          loaded->model.num_classes() == dspec.classes) {
        initial = std::make_shared<model::HdcClassifier>(
            std::move(loaded->model));
        lcfg.initial_version = loaded->version;
        std::printf("booted from checkpoint version %llu (%llu corrupt "
                    "quarantined)\n",
                    static_cast<unsigned long long>(loaded->version),
                    static_cast<unsigned long long>(store->quarantined()));
      } else {
        std::fprintf(stderr,
                     "warning: checkpoint geometry mismatch "
                     "(D=%zu/%zu classes); using the fresh model\n",
                     loaded->model.dims(), loaded->model.num_classes());
      }
    }
  }

  lifecycle::Manager manager(initial, queries, labels, lcfg, store.get());
  serve::ServeEngine engine(*initial, queries, labels, cfg, pool, {},
                            &manager);

  // Seeded open-loop Poisson arrivals; every --canary-every'th request is a
  // labeled canary the lifecycle may learn from.
  Rng gen(seed ^ 0x0A11CE5ULL);
  const double mean_gap_us = 1e6 / static_cast<double>(rate_rps);
  std::uint64_t vt = 0;
  std::vector<serve::ResponseFuture> futures;
  futures.reserve(requests);
  for (std::size_t id = 0; id < requests; ++id) {
    const double gap = -std::log(1.0 - gen.uniform()) * mean_gap_us;
    vt += static_cast<std::uint64_t>(std::max<long long>(std::llround(gap), 1));
    serve::Request req;
    req.id = id;
    req.arrival_us = vt;
    req.deadline_us = vt + cfg.deadline_us;
    req.query = id;
    req.canary = (id % canary_every == 0);
    futures.push_back(engine.submit(req));
  }
  const serve::ServeReport report = engine.finish();
  const lifecycle::LifecycleReport lreport = manager.report();

  // Invariants the scenario stands on: every future resolved, and the
  // per-version tallies account for every served request exactly once.
  std::array<std::uint64_t, serve::kNumOutcomes> seen{};
  for (const auto& f : futures) {
    const auto r = f.try_get();
    if (!r.has_value()) {
      std::fprintf(stderr, "error: unresolved future after finish()\n");
      return 1;
    }
    ++seen[static_cast<std::size_t>(r->outcome)];
  }
  if (seen != report.outcomes) {
    std::fprintf(stderr, "error: future outcomes disagree with report\n");
    return 1;
  }
  std::uint64_t version_served = 0;
  for (const auto& v : report.versions) version_served += v.served;
  if (version_served != report.served) {
    std::fprintf(stderr, "error: per-version tallies do not sum to served\n");
    return 1;
  }

  std::printf("generic_lifecycle: D=%zu, %zu requests at %zu rps, shift at "
              "request %zu, canary every %zu, %zu threads\n",
              dims, requests, rate_rps, shift_at, canary_every, threads);
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
  if (store)
    std::printf("checkpoints: %llu saved, %llu pruned (dir %s)\n",
                static_cast<unsigned long long>(store->saved()),
                static_cast<unsigned long long>(store->pruned()),
                store->dir().c_str());

  obs_session.set_pool_stats(pool.stats());
  bench::write_output(out_path, "serve report",
                      serve::serve_report_to_json(report));
  bench::write_output(lifecycle_out, "lifecycle report",
                      lifecycle::lifecycle_report_to_json(lreport));
  rtrace.write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_tool(run, argc, argv); }
