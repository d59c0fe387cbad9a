// generic_serve — resilient serving demo over a trained HDC classifier
// (docs/serving.md).
//
//   generic_serve [--quick] [--dataset=FACE] [--requests=N] [--rate=RPS]
//                 [--servers=2] [--deadline-us=4000] [--slo-us=2000]
//                 [--max-attempts=3] [--min-dims=512]
//                 [--service-base-us=900] [--fault-rate=P]
//                 [--fault-bit-rate=P] [--dead-chunks=K] [--seed=S]
//                 [--encoder-fault-rate=P] [--encoder-fault-bit-rate=P]
//                 [--encoder-fault-at-us=T] [--scrub-every-us=T]
//                 [--encoder-repair=detect|mask|scrub]
//                 [--threads=N] [--checkpoint-dir=DIR] [--out=serve.json]
//                 [--trace=out.json] [--metrics=out.json]
//                 [--metrics-every=SECONDS] [--rtrace=out.json]
//                 [--rtrace-chrome=out.json] [--flight-dump=out.json]
//
// --rtrace / --rtrace-chrome write the request-level causal trace
// (generic.rtrace.v1 / Chrome trace events with per-request flow arrows);
// --flight-dump writes the last-N-events flight ring (generic.flight.v1).
// All three are on virtual time and byte-identical across --threads and
// kernel backends (docs/observability.md).
//
// Trains a classifier on a Table 1 benchmark clone in-process, then drives
// it through the ServeEngine with a seeded open-loop Poisson load: arrival
// times are VIRTUAL microseconds derived from the rng stream, never the
// wall clock, so the run — every admission, shed, retry, timeout and
// ladder move, and the whole generic.serve.v1 report — is byte-identical
// for a fixed (flags, seed) at any --threads value.
//
// Knobs for the acceptance scenario: --rate above the service capacity
// (servers * 1e6 / service-base-us) forces overload so the SLO ladder
// engages; --fault-rate injects per-attempt transient upsets (real bit
// flips at --fault-bit-rate, detected by parity and retried with backoff);
// --dead-chunks kills K dimension blocks in the model and serves around
// them through the masked prediction path.
//
// --checkpoint-dir restarts from disk: boot loads the newest checkpoint
// that verifies (corrupt files are quarantined and the walk falls back to
// the next-older version), skipping the training phase entirely; a cold
// store trains as usual and saves the fresh model for the next boot.
//
// --encoder-fault-rate > 0 schedules one encoder-memory burst at
// --encoder-fault-at-us: each level row (and the rotating id seed) is hit
// with that probability and corrupted at --encoder-fault-bit-rate per bit.
// Both timing flags default to 0 = auto-placed against the expected
// makespan, so the whole corrupt -> mask -> scrub arc fits in the run.
// The EncoderGuard scans on the --scrub-every-us virtual tick and repairs
// per --encoder-repair: "detect" reports and serves through the damage,
// "mask" re-encodes around the corrupted rows, "scrub" masks one tick and
// then rematerializes the rows from their seeds (CRC-verified, the
// docs/resilience.md self-healing path).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "chaos/encoder_chaos.h"
#include "common/thread_pool.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "lifecycle/checkpoint_store.h"
#include "model/hdc_classifier.h"
#include "obs/export.h"
#include "resilience/encoder_guard.h"
#include "resilience/fault_model.h"
#include "serve/engine.h"

using namespace generic;

namespace {

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  const std::string name = flags.value("--dataset", "FACE");
  const std::size_t dims = quick ? 2048 : 4096;
  const std::size_t epochs = quick ? 5 : 20;
  const std::size_t requests =
      flags.positive_size("--requests", quick ? 800 : 4000);
  const std::size_t rate_rps = flags.positive_size("--rate", 1800);

  serve::ServeConfig cfg;
  cfg.servers = flags.positive_size("--servers", cfg.servers);
  cfg.deadline_us = flags.positive_size("--deadline-us", cfg.deadline_us);
  cfg.slo_us = flags.positive_size("--slo-us", cfg.slo_us);
  cfg.max_attempts = static_cast<std::uint32_t>(
      flags.positive_size("--max-attempts", cfg.max_attempts));
  cfg.min_dims = flags.positive_size("--min-dims", cfg.min_dims);
  cfg.service_base_us =
      flags.positive_size("--service-base-us", cfg.service_base_us);
  cfg.fault_rate = flags.real("--fault-rate", cfg.fault_rate);
  cfg.fault_bit_rate = flags.real("--fault-bit-rate", cfg.fault_bit_rate);
  cfg.seed = flags.size("--seed", cfg.seed);

  const std::size_t dead_chunks = flags.size("--dead-chunks", 0);
  const double enc_fault_rate = flags.real("--encoder-fault-rate", 0.0);
  const double enc_fault_bit_rate =
      flags.real("--encoder-fault-bit-rate", 0.25);
  // 0 = auto-place against the expected makespan (requests / rate): the
  // burst lands ~2/5 in and the scrub period is ~1/5, so every phase of
  // the incident fits inside the run at any --requests/--rate sizing.
  const std::size_t horizon_us = requests * 1'000'000 / rate_rps;
  std::size_t enc_fault_at = flags.size("--encoder-fault-at-us", 0);
  if (enc_fault_at == 0) enc_fault_at = std::max<std::size_t>(1, horizon_us * 2 / 5);
  std::size_t scrub_every = flags.size("--scrub-every-us", 0);
  if (scrub_every == 0) scrub_every = std::max<std::size_t>(1, horizon_us / 5);
  const std::string repair_name = flags.value("--encoder-repair", "scrub");
  resilience::RepairPolicy encoder_repair = resilience::RepairPolicy::kScrub;
  try {
    encoder_repair = resilience::repair_policy_from_name(repair_name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--encoder-repair: %s\n", e.what());
    return 2;
  }
  const std::size_t threads = flags.threads();
  const std::string ckpt_dir = flags.value("--checkpoint-dir", "");
  const std::string out_path = flags.value("--out", "");
  const bench::RtraceOutputs rtrace(flags);
  const double metrics_every = flags.positive_real("--metrics-every", 0.0);
  obs::Session obs_session(flags.value("--trace", ""),
                           flags.value("--metrics", ""));
  obs_session.stream_metrics_every(metrics_every);
  bench::apply_kernel_backend(flags);
  flags.done();

  set_global_threads(threads);
  ThreadPool& pool = global_pool();

  const auto ds = data::make_benchmark(name);
  enc::EncoderConfig ecfg;
  ecfg.dims = dims;
  enc::GenericEncoder encoder(ecfg);
  encoder.fit(ds.train_x);
  const auto train = encoder.encode_batch(ds.train_x, pool);
  const auto test = encoder.encode_batch(ds.test_x, pool);
  model::HdcClassifier clf(dims, ds.num_classes);

  // Restart-from-checkpoint: boot from the newest verifying checkpoint
  // (corrupt files get quarantined, the walk falls back to older
  // versions); train fresh only when nothing on disk fits.
  std::unique_ptr<lifecycle::CheckpointStore> store;
  bool booted = false;
  if (!ckpt_dir.empty()) {
    store = std::make_unique<lifecycle::CheckpointStore>(ckpt_dir, 4);
    lifecycle::Boot boot = store->boot(dims, ds.num_classes);
    if (boot.fits) {
      clf = std::move(boot.latest->model);
      booted = true;
      std::printf("booted from checkpoint version %llu (%llu corrupt "
                  "quarantined)\n",
                  static_cast<unsigned long long>(boot.latest->version),
                  static_cast<unsigned long long>(store->quarantined()));
    } else if (boot.latest) {
      std::fprintf(stderr,
                   "warning: checkpoint geometry mismatch "
                   "(D=%zu/%zu classes); retraining\n",
                   boot.latest->model.dims(), boot.latest->model.num_classes());
    }
  }
  if (!booted) {
    clf.fit_parallel(train, ds.train_y, epochs, pool);
    if (store) {
      std::uint64_t next_version = 1;
      for (const auto& info : store->list())
        next_version = std::max(next_version, info.version + 1);
      store->save(clf, next_version, 0);
      std::printf("trained model checkpointed as version %llu\n",
                  static_cast<unsigned long long>(next_version));
    }
  }

  // Optional faulty-block scenario: actually kill the blocks in class
  // memory, then tell the engine which chunks to serve around — the
  // BlockGuard-style graceful-degradation path.
  std::vector<bool> chunk_ok;
  if (dead_chunks > 0) {
    if (dead_chunks >= clf.num_chunks()) {
      std::fprintf(stderr, "error: --dead-chunks must be < %zu\n",
                   clf.num_chunks());
      return 1;
    }
    chunk_ok.assign(clf.num_chunks(), true);
    Rng pick(cfg.seed ^ 0xDEADB10CULL);
    std::vector<std::size_t> dead;
    while (dead.size() < dead_chunks) {
      // Chunk 0 stays alive so every ladder rung keeps a healthy chunk.
      const auto k = static_cast<std::size_t>(
          1 + pick.below(clf.num_chunks() - 1));
      if (chunk_ok[k]) {
        chunk_ok[k] = false;
        dead.push_back(k);
      }
    }
    resilience::inject_dead_blocks(clf, dead);
  }

  // Optional encoder-memory incident: one scheduled burst, detected and
  // repaired on the scrub tick per --encoder-repair (chaos/encoder_chaos.h
  // precomputes the whole corrupt -> mask -> scrub timeline up front).
  std::unique_ptr<serve::ScriptedEncoderFaults> encoder_hook;
  if (enc_fault_rate > 0.0) {
    chaos::EncoderIncidentSpec espec;
    chaos::FaultBurst burst;
    burst.vt_us = enc_fault_at;
    burst.fault.kind = resilience::FaultKind::kTransient;
    burst.fault.rate = enc_fault_rate;
    burst.fault.burst_rate = enc_fault_bit_rate;
    espec.bursts.push_back(burst);
    espec.scrub_every_us = scrub_every;
    espec.policy = encoder_repair;
    espec.seed = cfg.seed ^ 0xE2C0DE5ULL;
    encoder_hook = std::make_unique<serve::ScriptedEncoderFaults>(
        chaos::script_encoder_incident(encoder, ds.test_x, test, espec,
                                       pool));
  }

  serve::ServeEngine engine(clf, test, ds.test_y, cfg, pool, chunk_ok,
                            nullptr, encoder_hook.get());

  // Seeded open-loop Poisson load over the test set.
  std::vector<serve::ResponseFuture> futures;
  futures.reserve(requests);
  for (const serve::Request& req : serve::poisson_trace(
           cfg.seed, requests, rate_rps, cfg.deadline_us, test.size()))
    futures.push_back(engine.submit(req));
  const serve::ServeReport report = engine.finish();

  if (!bench::futures_match_report(futures, report.outcomes)) return 1;

  std::printf("generic_serve: %s, D=%zu, %zu requests at %zu rps "
              "(capacity ~%.0f rps), %zu threads\n",
              name.c_str(), dims, requests, rate_rps,
              static_cast<double>(cfg.servers) * 1e6 /
                  static_cast<double>(cfg.service_base_us),
              threads);
  bench::print_rule(72);
  std::printf("%-10s %8s\n", "outcome", "count");
  for (std::size_t i = 0; i < serve::kNumOutcomes; ++i)
    std::printf("%-10s %8llu\n",
                std::string(serve::outcome_name(
                                static_cast<serve::Outcome>(i)))
                    .c_str(),
                static_cast<unsigned long long>(report.outcomes[i]));
  bench::print_rule(72);
  std::printf("served %llu/%llu, throughput %.1f rps (virtual), "
              "accuracy %.4f\n",
              static_cast<unsigned long long>(report.served),
              static_cast<unsigned long long>(report.requests),
              report.throughput_rps,
              report.served == 0 ? 0.0
                                 : static_cast<double>(report.correct) /
                                       static_cast<double>(report.served));
  std::printf("latency p50/p95/p99: %llu / %llu / %llu us (virtual)\n",
              static_cast<unsigned long long>(report.latency.percentile(0.5)),
              static_cast<unsigned long long>(report.latency.percentile(0.95)),
              static_cast<unsigned long long>(report.latency.percentile(0.99)));
  std::printf("ladder: %llu down / %llu up, final rung %zu\n",
              static_cast<unsigned long long>(report.steps_down),
              static_cast<unsigned long long>(report.steps_up),
              report.final_rung);
  for (const auto& r : report.rungs)
    std::printf("  rung D=%-5zu (%zu chunks): served %llu, accuracy %.4f\n",
                r.dims, r.active_chunks,
                static_cast<unsigned long long>(r.served),
                r.served == 0 ? 0.0
                              : static_cast<double>(r.correct) /
                                    static_cast<double>(r.served));
  if (!report.encoder_faults.empty()) {
    std::printf("encoder incident (%llu rows scrubbed total):\n",
                static_cast<unsigned long long>(report.scrubbed_rows));
    for (const auto& e : report.encoder_faults)
      std::printf("  vt=%-8llu %-7s faulty=%zu%s scrubbed=%zu%s%s\n",
                  static_cast<unsigned long long>(e.vt),
                  std::string(serve::encoder_phase_name(e.phase)).c_str(),
                  e.faulty_rows, e.id_seed_faulty ? " (incl id seed)" : "",
                  e.scrubbed_rows, e.scrub_verified ? " verified" : "",
                  e.stepped_ladder ? " [ladder stepped]" : "");
  }

  obs_session.set_pool_stats(pool.stats());
  bench::write_output(out_path, "report",
                      serve::serve_report_to_json(report));
  rtrace.write();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_tool(run, argc, argv); }
