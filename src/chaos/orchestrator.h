// Chaos campaign orchestrator (docs/chaos.md).
//
// run_scenario() assembles one complete edge-serving deployment — seeded
// drift stream, encoder, initial classifier, lifecycle::Manager (optionally
// booted from a CheckpointStore), ChaosHook, serve::ServeEngine — drives it
// through the scenario's failure timeline, and distills the run into one
// generic.chaos.v1 report: boot record, fired bursts, serve and lifecycle
// summaries, windowed timelines, and a verdict per invariant. Fleet
// campaigns (ScenarioSpec::fleet) run a multi-tenant fleet instead and
// report its tenant tallies in place of the edge sections.
//
// Determinism contract: the report is a pure function of (spec, seed) —
// byte-identical across RunOptions::threads and independent of work_dir
// (paths never appear in the report). That is what lets the golden fixtures
// under tests/chaos/golden/ pin every scenario end to end.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/chaos_hook.h"
#include "chaos/scenario.h"
#include "fleet/engine.h"
#include "lifecycle/manager.h"
#include "obs/rtrace.h"
#include "serve/engine.h"

namespace generic::chaos {

struct RunOptions {
  std::uint64_t seed = 0xC4A05;
  std::size_t threads = 0;  ///< worker lanes (0 = hardware); report-invariant
  /// Scratch directory for scenarios that need a checkpoint store. Created
  /// (and wiped) by the run; empty = a per-(scenario, seed) directory under
  /// the system temp dir. Never rendered into the report.
  std::string work_dir;
  /// Collect the full request-trace log (ChaosReport::rtrace) in addition
  /// to the always-on flight ring. Off by default: the full log is large.
  bool rtrace = false;
};

/// Outcome/accuracy tallies over one fixed virtual-time window, binned by
/// request ARRIVAL time.
struct WindowStats {
  std::uint64_t t0_us = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t timeout = 0;
  std::uint64_t failed = 0;
  std::uint64_t canary_total = 0;
  std::uint64_t canary_correct = 0;
};

/// How the run booted: fresh weights, or a checkpoint walk (with however
/// many corrupt files the walk quarantined on the way).
struct BootRecord {
  bool from_checkpoint = false;
  std::uint64_t version = 0;  ///< lifecycle initial_version
  std::uint64_t quarantined = 0;
  std::uint64_t store_versions_seeded = 0;  ///< checkpoints staged pre-boot
};

/// One invariant verdict. `enabled` is false when the scenario left the
/// bound at its neutral value; disabled checks never fail a run.
struct InvariantResult {
  std::string name;
  bool enabled = false;
  bool passed = true;
  double value = 0.0;  ///< what the run measured
  double bound = 0.0;  ///< what the scenario demanded
};

struct ChaosReport {
  std::string scenario;
  std::uint64_t seed = 0;
  bool quick = false;  ///< rendered by fleet campaigns only
  std::size_t requests = 0;
  std::size_t dims = 0;
  BootRecord boot;
  std::vector<BurstRecord> bursts;
  serve::ServeReport serve;
  lifecycle::LifecycleReport lifecycle;
  std::vector<std::size_t> replay_class_histogram;
  std::uint64_t window_us = 100'000;
  std::vector<WindowStats> windows;
  /// Fleet campaigns only: the whole fleet's tallies, which replace every
  /// edge section above in the rendered report. The flood is the last
  /// tenant.
  std::optional<fleet::FleetReport> fleet;
  std::vector<InvariantResult> invariants;
  bool passed = false;  ///< every enabled invariant held
  /// Observability captures, NOT rendered into generic.chaos.v1 (the report
  /// stays a pure summary): the full rtrace log (empty unless
  /// RunOptions::rtrace) and the flight-recorder ring, which the chaos tool
  /// auto-dumps as generic.flight.v1 when an invariant fails.
  obs::rtrace::TraceLog rtrace;
  obs::rtrace::FlightLog flight;
};

/// Run one scenario end to end. Throws std::runtime_error only on
/// infrastructure failures (unwritable work_dir); invariant violations are
/// reported, not thrown.
ChaosReport run_scenario(const ScenarioSpec& spec, const RunOptions& opt);

/// Render as schema `generic.chaos.v1`: fixed field order (obs/json.h), no
/// wall-clock, thread-count or filesystem-path fields.
std::string chaos_report_to_json(const ChaosReport& report);

}  // namespace generic::chaos
