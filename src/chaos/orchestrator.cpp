#include "chaos/orchestrator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ranges>
#include <stdexcept>
#include <utility>

#include "chaos/encoder_chaos.h"
#include "chaos/tenant_storm.h"
#include "common/thread_pool.h"
#include "data/drift.h"
#include "encoding/encoders.h"
#include "lifecycle/checkpoint_store.h"
#include "model/hdc_classifier.h"
#include "obs/json.h"

namespace generic::chaos {
namespace {

namespace fs = std::filesystem;

bool in_flash(const ScenarioSpec& spec, std::uint64_t vt) {
  return spec.flash_single_class && vt >= spec.load.flash_start_us &&
         vt < spec.load.flash_start_us + spec.load.flash_len_us;
}

/// Flip one mid-file byte: enough to break the checkpoint CRC.
void corrupt_file(const std::string& path) {
  const auto size = fs::file_size(path);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) throw std::runtime_error("cannot corrupt " + path);
  f.seekg(static_cast<std::streamoff>(size / 2));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(static_cast<std::streamoff>(size / 2));
  byte = static_cast<char>(byte ^ 0x5A);
  f.write(&byte, 1);
}

bool served_outcome(serve::Outcome o) {
  return o == serve::Outcome::kOk || o == serve::Outcome::kRetried ||
         o == serve::Outcome::kDegraded;
}

/// One edge deployment (serve engine + lifecycle) through the spec's
/// failure timeline.
ChaosReport run_edge(const ScenarioSpec& spec, const RunOptions& opt,
                     ThreadPool& pool) {
  ChaosReport report;
  report.scenario = spec.name;
  report.seed = opt.seed;
  report.requests = spec.requests;
  report.dims = spec.dims;

  // ---- The world: drift stream, encoder, initial classifier ----
  data::DriftStreamSpec dspec;
  dspec.severity = spec.severity;
  dspec.seed = opt.seed;
  data::DriftStream stream(dspec);

  const std::size_t epochs = spec.dims >= 1024 ? 8 : 5;
  const auto ds = stream.make_dataset(spec.train_samples, 200, false);
  enc::EncoderConfig ecfg;
  ecfg.dims = spec.dims;
  enc::GenericEncoder encoder(ecfg);
  encoder.fit(ds.train_x);
  const auto train = encoder.encode_batch(ds.train_x, pool);
  auto fresh = std::make_shared<model::HdcClassifier>(spec.dims,
                                                      dspec.classes);
  fresh->fit_parallel(train, ds.train_y, epochs, pool);

  // ---- Boot: fresh weights, or the newest checkpoint in a store ----
  std::shared_ptr<const model::HdcClassifier> serving = fresh;
  std::unique_ptr<lifecycle::CheckpointStore> store;
  if (spec.corrupt_boot) {
    const fs::path dir =
        opt.work_dir.empty()
            ? fs::temp_directory_path() / ("generic-chaos-" + spec.name +
                                           "-" + std::to_string(opt.seed))
            : fs::path(opt.work_dir);
    fs::remove_all(dir);
    store = std::make_unique<lifecycle::CheckpointStore>(dir.string(), 4);

    // Stage history: version 1 is the model we just fit; version 2 is a
    // further-trained "newer" snapshot — whose file we then corrupt, so
    // boot must quarantine it and fall back to version 1.
    store->save(*fresh, 1, 0);
    model::HdcClassifier newer = *fresh;
    newer.fit_parallel(train, ds.train_y, 2, pool);
    corrupt_file(store->save(newer, 2, 0));
    report.boot.store_versions_seeded = 2;
  } else if (!opt.store_dir.empty()) {
    store = std::make_unique<lifecycle::CheckpointStore>(opt.store_dir, 4);
  }
  if (store) {
    // Corrupt files are quarantined and the walk falls back to older ones.
    lifecycle::Boot boot = store->boot(spec.dims, dspec.classes);
    if (!boot.latest && spec.corrupt_boot)
      throw std::runtime_error("corrupt_boot: no checkpoint survived");
    if (boot.latest) report.boot.version = boot.latest->version;
    report.boot.from_checkpoint = boot.fits;
    if (boot.fits)
      serving = std::make_shared<model::HdcClassifier>(
          std::move(boot.latest->model));
    report.boot.quarantined = store->quarantined();
  }

  // ---- The serving trace: shaped arrivals over the drift stream ----
  Rng arrival_rng(opt.seed ^ 0x0A11CE5ULL);
  const auto arrivals =
      sample_arrivals(spec.load, spec.requests, arrival_rng);

  // Stream indices: sequential, except that flash-window requests draw the
  // next sample of the crowd's class (skipped indices are served later, so
  // every request keeps a distinct query).
  std::vector<std::uint64_t> stream_index(spec.requests);
  std::uint64_t next_index = 0;
  std::deque<std::uint64_t> leftovers;
  for (std::size_t i = 0; i < spec.requests; ++i) {
    if (in_flash(spec, arrivals[i])) {
      while (stream.label_at(next_index) != spec.flash_class)
        leftovers.push_back(next_index++);
      stream_index[i] = next_index++;
    } else if (!leftovers.empty()) {
      stream_index[i] = leftovers.front();
      leftovers.pop_front();
    } else {
      stream_index[i] = next_index++;
    }
  }

  std::vector<std::vector<float>> xs;
  std::vector<int> labels;
  xs.reserve(spec.requests);
  labels.reserve(spec.requests);
  for (std::size_t i = 0; i < spec.requests; ++i) {
    const bool post = spec.drift_enabled && i >= spec.shift_at;
    auto s = stream.sample(stream_index[i], post);
    xs.push_back(std::move(s.x));
    labels.push_back(s.label);
  }
  const auto queries = encoder.encode_batch(xs, pool);

  // ---- Lifecycle + chaos hook + engine ----
  serve::ServeConfig scfg;
  scfg.seed = opt.seed ^ 0x5EB7EULL;
  scfg.min_dims = spec.dims / 4;

  lifecycle::LifecycleConfig lcfg;
  lcfg.replay_capacity = 256;
  lcfg.replay_class_cap = spec.replay_class_cap;
  lcfg.holdout = 96;
  lcfg.min_replay = 192;
  lcfg.min_fresh = spec.min_fresh;
  lcfg.retrain_epochs = 3;
  lcfg.retrain_cost_us = spec.retrain_cost_us;
  lcfg.cooldown_us = 50000;
  lcfg.min_dims = scfg.min_dims;
  lcfg.initial_version = report.boot.version;
  lcfg.seed = opt.seed ^ 0xC1F3ULL;
  lcfg.shadow_fault_rate = spec.shadow_fault_rate;

  // Encoder-memory incidents: the whole corrupt -> mask -> scrub timeline
  // is precomputed against the clean query table before the engine starts
  // (encoder_chaos.h), so the run stays a pure function of (spec, seed).
  std::unique_ptr<serve::ScriptedEncoderFaults> encoder_faults;
  if (!spec.encoder_bursts.empty()) {
    EncoderIncidentSpec espec;
    espec.bursts = spec.encoder_bursts;
    espec.scrub_every_us = spec.scrub_every_us;
    espec.policy = spec.encoder_repair;
    espec.seed_available = spec.encoder_seed_available;
    espec.seed = opt.seed ^ 0xE2C0DE5ULL;
    encoder_faults = std::make_unique<serve::ScriptedEncoderFaults>(
        script_encoder_incident(encoder, xs, queries, espec, pool));
  }

  lifecycle::Manager manager(serving, queries, labels, lcfg, pool,
                             store.get());
  ChaosHook hook(&manager, serving, spec.bursts, opt.seed ^ 0xFA017ULL);
  serve::ServeEngine engine(*serving, queries, labels, scfg, pool, {},
                            &hook, encoder_faults.get());

  std::vector<serve::ResponseFuture> futures;
  futures.reserve(spec.requests);
  for (std::size_t id = 0; id < spec.requests; ++id) {
    serve::Request req;
    req.id = id;
    req.arrival_us = arrivals[id];
    req.deadline_us = arrivals[id] + scfg.deadline_us;
    req.query = id;
    req.canary = (id % spec.canary_every == 0);
    futures.push_back(engine.submit(req));
  }
  report.serve = engine.finish();
  report.lifecycle = manager.report();
  report.replay_class_histogram = manager.replay_class_histogram();
  report.bursts = hook.fired();

  // ---- Windowed timeline, binned by arrival ----
  const std::uint64_t span = arrivals.empty() ? 0 : arrivals.back() + 1;
  report.windows.assign((span + report.window_us - 1) / report.window_us,
                        WindowStats{});
  for (std::size_t w = 0; w < report.windows.size(); ++w)
    report.windows[w].t0_us = w * report.window_us;

  std::uint64_t unresolved = 0;
  std::array<std::uint64_t, serve::kNumOutcomes> seen{};
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto r = futures[i].try_get();
    if (!r.has_value()) {
      ++unresolved;
      continue;
    }
    ++seen[static_cast<std::size_t>(r->outcome)];
    WindowStats& w = report.windows[arrivals[i] / report.window_us];
    ++w.arrivals;
    switch (r->outcome) {
      case serve::Outcome::kOk:
      case serve::Outcome::kRetried:
      case serve::Outcome::kDegraded:
        ++w.served;
        break;
      case serve::Outcome::kShed:
        ++w.shed;
        break;
      case serve::Outcome::kTimeout:
        ++w.timeout;
        break;
      case serve::Outcome::kFailed:
        ++w.failed;
        break;
    }
    if (served_outcome(r->outcome) && (i % spec.canary_every == 0)) {
      ++w.canary_total;
      if (r->predicted == labels[i]) ++w.canary_correct;
    }
  }

  // ---- Invariants ----
  auto check = [&](const std::string& name, bool enabled, double value,
                   double bound, bool passed) {
    report.invariants.push_back(
        InvariantResult{name, enabled, !enabled || passed, value, bound});
  };

  // Canary accuracy over served requests with arrivals in [lo, hi).
  auto window_canary_acc = [&](std::uint64_t lo, std::uint64_t hi,
                               std::uint64_t& total_out) {
    std::uint64_t total = 0, correct = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      if (i % spec.canary_every != 0) continue;
      if (arrivals[i] < lo || arrivals[i] >= hi) continue;
      const auto r = futures[i].try_get();
      if (!r.has_value() || !served_outcome(r->outcome)) continue;
      ++total;
      if (r->predicted == labels[i]) ++correct;
    }
    total_out = total;
    return total == 0 ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(total);
  };

  check("futures_resolved", true, static_cast<double>(unresolved), 0.0,
        unresolved == 0);

  std::uint64_t outcome_mismatch = 0;
  for (std::size_t i = 0; i < serve::kNumOutcomes; ++i)
    if (seen[i] != report.serve.outcomes[i]) ++outcome_mismatch;
  check("outcome_accounting", true, static_cast<double>(outcome_mismatch),
        0.0, outcome_mismatch == 0);

  // Per-version tallies must account for every served request exactly once:
  // the externally visible face of the no-half-swapped-model guarantee.
  std::uint64_t version_served = 0;
  for (const auto& v : report.serve.versions) version_served += v.served;
  check("version_accounting", true, static_cast<double>(version_served),
        static_cast<double>(report.serve.served),
        version_served == report.serve.served);

  const std::uint64_t shed =
      report.serve.outcomes[static_cast<std::size_t>(serve::Outcome::kShed)];
  const double shed_frac =
      spec.requests == 0
          ? 0.0
          : static_cast<double>(shed) / static_cast<double>(spec.requests);
  check("shed_fraction", spec.invariants.max_shed_frac < 1.0, shed_frac,
        spec.invariants.max_shed_frac,
        shed_frac <= spec.invariants.max_shed_frac);

  std::uint64_t canary_total = 0, canary_correct = 0;
  for (const auto& w : report.windows) {
    canary_total += w.canary_total;
    canary_correct += w.canary_correct;
  }
  const double canary_acc =
      canary_total == 0 ? 0.0
                        : static_cast<double>(canary_correct) /
                              static_cast<double>(canary_total);
  check("canary_accuracy", spec.invariants.min_canary_accuracy > 0.0,
        canary_acc, spec.invariants.min_canary_accuracy,
        canary_acc >= spec.invariants.min_canary_accuracy);

  check("lifecycle_swaps", spec.invariants.min_swaps > 0,
        static_cast<double>(report.lifecycle.swapped),
        static_cast<double>(spec.invariants.min_swaps),
        report.lifecycle.swapped >= spec.invariants.min_swaps);

  if (spec.invariants.recovery_window_us > 0) {
    // Accuracy must recover after the LAST lifecycle (non-chaos) swap.
    std::uint64_t swap_vt = 0;
    bool have_swap = false;
    for (const auto& s : report.serve.swaps)
      if (!s.rollback && s.version < kChaosVersionBase) {
        swap_vt = s.vt;
        have_swap = true;
      }
    std::uint64_t total = 0;
    const double recovered =
        have_swap ? window_canary_acc(
                        swap_vt, swap_vt + spec.invariants.recovery_window_us,
                        total)
                  : 0.0;
    check("accuracy_recovery", true, recovered,
          spec.invariants.recovery_accuracy,
          have_swap && total > 0 &&
              recovered >= spec.invariants.recovery_accuracy);
  } else {
    check("accuracy_recovery", false, 0.0, 0.0, true);
  }

  check("checkpoint_quarantine", spec.invariants.expect_quarantine,
        static_cast<double>(report.boot.quarantined), 1.0,
        report.boot.from_checkpoint && report.boot.quarantined >= 1);

  // Sabotaged shadows must be caught by the holdout gate, not installed.
  check("rollbacks", spec.invariants.min_rollbacks > 0,
        static_cast<double>(report.lifecycle.rolled_back),
        static_cast<double>(spec.invariants.min_rollbacks),
        report.lifecycle.rolled_back >= spec.invariants.min_rollbacks);

  check("encoder_scrub", spec.invariants.min_scrubbed_rows > 0,
        static_cast<double>(report.serve.scrubbed_rows),
        static_cast<double>(spec.invariants.min_scrubbed_rows),
        report.serve.scrubbed_rows >= spec.invariants.min_scrubbed_rows);

  if (spec.invariants.masked_accuracy_below > 0.0) {
    // The masked interval [first mask, first scrub after it) must cost
    // measurable accuracy — otherwise the scenario is not demonstrating
    // the degradation the scrub later repairs.
    std::uint64_t m0 = 0, m1 = report.serve.makespan_us;
    bool have_mask = false;
    for (const auto& e : report.serve.encoder_faults) {
      if (!have_mask && e.phase == serve::EncoderUpdate::Phase::kMask) {
        m0 = e.vt;
        have_mask = true;
      } else if (have_mask &&
                 e.phase == serve::EncoderUpdate::Phase::kScrub) {
        m1 = e.vt;
        break;
      }
    }
    std::uint64_t total = 0;
    const double masked_acc =
        have_mask ? window_canary_acc(m0, m1, total) : 0.0;
    check("encoder_degraded", true, masked_acc,
          spec.invariants.masked_accuracy_below,
          have_mask && total > 0 &&
              masked_acc <= spec.invariants.masked_accuracy_below);
  } else {
    check("encoder_degraded", false, 0.0, 0.0, true);
  }

  if (spec.invariants.encoder_recovery_window_us > 0) {
    // Accuracy must fully recover after the LAST verified encoder scrub.
    std::uint64_t scrub_vt = 0;
    bool have_scrub = false;
    for (const auto& e : report.serve.encoder_faults)
      if (e.phase == serve::EncoderUpdate::Phase::kScrub &&
          e.scrub_verified) {
        scrub_vt = e.vt;
        have_scrub = true;
      }
    std::uint64_t total = 0;
    const double recovered =
        have_scrub
            ? window_canary_acc(
                  scrub_vt,
                  scrub_vt + spec.invariants.encoder_recovery_window_us,
                  total)
            : 0.0;
    check("encoder_recovery", true, recovered,
          spec.invariants.encoder_recovery_accuracy,
          have_scrub && total > 0 &&
              recovered >= spec.invariants.encoder_recovery_accuracy);
  } else {
    check("encoder_recovery", false, 0.0, 0.0, true);
  }

  report.passed = true;
  for (const auto& inv : report.invariants)
    if (!inv.passed) report.passed = false;
  return report;
}

}  // namespace

ChaosReport run_scenario(const ScenarioSpec& spec, const RunOptions& opt,
                         ThreadPool& pool) {
  // Arm the black box: every scenario records into the flight ring so an
  // invariant failure can be dumped post mortem; the full trace log is
  // opt-in (RunOptions::rtrace) because it keeps every event of the run.
  const bool prev_trace = obs::rtrace::trace_enabled();
  const bool prev_flight = obs::rtrace::flight_enabled();
  obs::rtrace::reset();
  obs::rtrace::set_flight(true);
  obs::rtrace::set_trace(opt.rtrace);

  ChaosReport report =
      spec.fleet ? run_tenant_storm(spec, opt, pool)
                 : run_edge(spec, opt, pool);

  report.rtrace = obs::rtrace::trace_log();
  report.flight = obs::rtrace::flight_log();
  obs::rtrace::set_trace(prev_trace);
  obs::rtrace::set_flight(prev_flight);
  return report;
}

namespace {

namespace json = obs::json;

/// `doc` is the open top-level object writing into `out`.
void append_edge_sections(std::string& out, json::Object& doc,
                          const ChaosReport& report) {
  doc.u64("requests", report.requests).u64("dims", report.dims);
  json::Object(doc.key("boot"))
      .boolean("from_checkpoint", report.boot.from_checkpoint)
      .u64("version", report.boot.version)
      .u64("quarantined", report.boot.quarantined)
      .u64("store_versions_seeded", report.boot.store_versions_seeded)
      .close();
  json::list(doc.key("bursts"), report.bursts, 4, [&](const BurstRecord& b) {
    json::Object o(out);
    o.u64("scheduled_vt_us", b.scheduled_vt_us)
        .u64("fired_vt_us", b.fired_vt_us)
        .u64("version", b.version)
        .str("kind", resilience::fault_kind_name(b.fault.kind))
        .dbl("rate", b.fault.rate)
        .dbl("burst_rate", b.fault.burst_rate);
    json::list(o.key("banks"), b.banks, 0,
               [&](std::size_t bank) { out += std::to_string(bank); });
    o.close();
  });

  const serve::ServeReport& s = report.serve;
  json::Object serve(doc.key("serve"), 4);
  serve.u64("requests", s.requests)
      .u64("makespan_us", s.makespan_us)
      .dbl("throughput_rps", s.throughput_rps);
  serve::append_outcomes_json(serve.key("outcomes"), s.outcomes);
  serve.u64("served", s.served)
      .u64("correct", s.correct)
      .dbl("accuracy", s.served == 0 ? 0.0
                                     : static_cast<double>(s.correct) /
                                           static_cast<double>(s.served))
      .u64("steps_down", s.steps_down)
      .u64("steps_up", s.steps_up)
      .u64("final_rung", s.final_rung);
  json::list(serve.key("slo_alerts"), s.slo_alerts, 0,
             [&](const serve::BurnAlert& a) {
               serve::append_alert_json(out, a);
             });
  json::list(serve.key("swaps"), s.swaps, 0, [&](const serve::SwapEvent& e) {
    json::Object(out)
        .u64("vt_us", e.vt)
        .u64("version", e.version)
        .boolean("rollback", e.rollback)
        .close();
  });
  json::list(serve.key("versions"), s.versions, 0,
             [&](const serve::VersionStats& v) {
               json::Object(out)
                   .u64("version", v.version)
                   .u64("served", v.served)
                   .u64("correct", v.correct)
                   .close();
             });
  json::list(serve.key("encoder_faults"), s.encoder_faults, 0,
             [&](const serve::EncoderFaultEvent& e) {
               serve::append_encoder_fault_json(out, e);
             });
  serve.u64("scrubbed_rows", s.scrubbed_rows);
  serve.close();

  const lifecycle::LifecycleReport& l = report.lifecycle;
  json::Object lifecycle(doc.key("lifecycle"));
  lifecycle.u64("alarms", l.alarms)
      .u64("triggered", l.triggered)
      .u64("swapped", l.swapped)
      .u64("rolled_back", l.rolled_back)
      .u64("replay_size", l.replay_size)
      .dbl("final_accuracy_ewma", l.final_accuracy_ewma);
  json::Object(lifecycle.key("checkpoints"))
      .u64("saved", l.checkpoints_saved)
      .u64("pruned", l.checkpoints_pruned)
      .u64("quarantined", l.checkpoints_quarantined)
      .close();
  lifecycle.close();

  json::list(doc.key("replay_class_histogram"), report.replay_class_histogram,
             0, [&](std::size_t n) { out += std::to_string(n); });
  doc.u64("window_us", report.window_us);
  json::list(doc.key("windows"), report.windows, 4, [&](const WindowStats& w) {
    json::Object(out)
        .u64("t0_us", w.t0_us)
        .u64("arrivals", w.arrivals)
        .u64("served", w.served)
        .u64("shed", w.shed)
        .u64("timeout", w.timeout)
        .u64("failed", w.failed)
        .u64("canary_total", w.canary_total)
        .u64("canary_correct", w.canary_correct)
        .close();
  });
}

void append_fleet_sections(std::string& out, json::Object& doc,
                           const ChaosReport& report) {
  const fleet::FleetReport& f = *report.fleet;
  doc.boolean("quick", report.quick)
      .str("flood_tenant", f.config.tenants.back().name)
      .u64("requests", f.requests)
      .u64("makespan_us", f.makespan_us);
  fleet::append_statuses_json(doc.key("statuses"), f.statuses);
  json::list(doc.key("tenants"),
             std::views::iota(std::size_t{0}, f.tenants.size()), 4,
             [&](std::size_t t) {
               json::Object o(out);
               o.str("name", f.config.tenants[t].name)
                   .str("priority", fleet::priority_name(
                                        f.config.tenants[t].priority));
               fleet::append_party_json(o.key("stats"), f.tenants[t]);
               o.close();
             });
}

}  // namespace

std::string chaos_report_to_json(const ChaosReport& report) {
  // Field order is part of the schema: equal reports render to equal
  // bytes. threads and filesystem paths are deliberately absent.
  std::string out;
  json::Object doc(out, 2);
  doc.str("schema", "generic.chaos.v1")
      .str("scenario", report.scenario)
      .u64("seed", report.seed);
  if (report.fleet)
    append_fleet_sections(out, doc, report);
  else
    append_edge_sections(out, doc, report);
  json::list(doc.key("invariants"), report.invariants, 4,
             [&](const InvariantResult& inv) {
               json::Object(out)
                   .str("name", inv.name)
                   .boolean("enabled", inv.enabled)
                   .boolean("passed", inv.passed)
                   .dbl("value", inv.value)
                   .dbl("bound", inv.bound)
                   .close();
             });
  doc.boolean("passed", report.passed);
  doc.close();
  out += '\n';
  return out;
}

}  // namespace generic::chaos
