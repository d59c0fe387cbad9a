// Declarative chaos scenarios (docs/chaos.md).
//
// A ScenarioSpec is a named, fully declarative timeline of everything that
// goes wrong in one end-to-end campaign run: the traffic shape, an optional
// concept shift in the query stream, scheduled class-memory fault bursts,
// and an optionally pre-corrupted checkpoint store at boot. Alongside the
// failure script it carries the invariant bounds the run must satisfy —
// the scenario is both the attack and the acceptance test.
//
// The registry (all_scenarios) ships the nine named campaigns:
//
//   diurnal                — day/night sine across the capacity line; the
//                            ladder must absorb the crest (bounded shed).
//   flash_crowd            — 6x single-class burst; admission control sheds
//                            predictably and the per-class replay quota
//                            keeps the flood from owning the replay buffer.
//   bank_faults            — a correlated class-memory bank burst corrupts
//                            the serving model mid-run; drift detection
//                            must notice and a clean retrain must heal it.
//   drift_under_overload   — concept shift while demand exceeds capacity;
//                            the lifecycle must still close its loop.
//   corrupt_checkpoint_boot— the newest checkpoint on disk is garbage; boot
//                            must quarantine it and serve from the older
//                            known-good version.
//   encoder_corruption     — a burst corrupts level/id encoder memory
//                            mid-run; the guard masks around the damage and
//                            the seed scrub must restore accuracy in full.
//   multi_burst            — repeated class-memory AND encoder bursts on a
//                            schedule; every repair loop must close, twice.
//   shadow_fault_under_load— every retrained shadow is corrupted before
//                            validation; the holdout gate must reject them
//                            all and roll back instead of swapping garbage.
//   tenant_storm           — the fleet campaign (chaos/tenant_storm.h): one
//                            tenant floods a multi-model fleet at ~10x its
//                            quota; admission must refuse it and protect
//                            the other tenants.
//
// Every spec is a pure value: (spec, seed) fully determines the run and its
// generic.chaos.v1 report, byte-identical across --threads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chaos/load_shape.h"
#include "fleet/types.h"
#include "resilience/encoder_guard.h"
#include "resilience/fault_model.h"

namespace generic::chaos {

/// One scheduled mid-run fault injection on the virtual timeline.
struct FaultBurst {
  std::uint64_t vt_us = 0;  ///< injected at the first poll at/after this vt
  resilience::FaultSpec fault;
};

/// Bounds the run must satisfy; violations fail the scenario (and the
/// generic_chaos exit code). A bound of 0 / false disables its check.
struct InvariantSpec {
  double max_shed_frac = 1.0;   ///< shed / requests ceiling
  double min_canary_accuracy = 0.0;  ///< whole-run canary accuracy floor
  std::size_t min_swaps = 0;    ///< validated lifecycle swaps required
  /// Accuracy recovery after the LAST lifecycle swap: windowed canary
  /// accuracy over [swap_vt, swap_vt + recovery_window_us] must reach
  /// recovery_accuracy. 0 disables.
  std::uint64_t recovery_window_us = 0;
  double recovery_accuracy = 0.0;
  bool expect_quarantine = false;  ///< boot must quarantine >= 1 checkpoint
  std::size_t min_rollbacks = 0;   ///< rejected-shadow rollbacks required
  std::size_t min_scrubbed_rows = 0;  ///< encoder rows the scrub must repair
  /// Degradation demonstration: windowed canary accuracy between the first
  /// encoder mask and the first scrub after it must stay BELOW this ceiling
  /// (the masked encodings measurably cost accuracy). 0 disables.
  double masked_accuracy_below = 0.0;
  /// Encoder recovery: windowed canary accuracy over [last scrub vt,
  /// last scrub vt + encoder_recovery_window_us] must reach
  /// encoder_recovery_accuracy. 0 disables.
  std::uint64_t encoder_recovery_window_us = 0;
  double encoder_recovery_accuracy = 0.0;
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  std::size_t requests = 2000;
  std::size_t dims = 1024;
  std::size_t train_samples = 1200;  ///< initial-fit training-set size
  std::size_t canary_every = 2;
  LoadShapeSpec load;

  // Concept shift in the query stream (data::DriftStream regimes).
  bool drift_enabled = false;
  std::size_t shift_at = 0;  ///< first post-shift request index
  double severity = 0.75;

  // Flash-crowd class skew: requests inside the flash window draw only
  // samples of flash_class (the "everyone asks the same question" crowd).
  bool flash_single_class = false;
  int flash_class = 0;

  // Scheduled mid-run fault bursts, injected through the ChaosHook.
  std::vector<FaultBurst> bursts;

  // Scheduled encoder-memory bursts (level rows + id seed), played through
  // the serve-side EncoderMemory seam with a periodic virtual-time
  // detect/scrub pass; see chaos/encoder_chaos.h for the timeline model.
  std::vector<FaultBurst> encoder_bursts;
  std::uint64_t scrub_every_us = 100000;
  resilience::RepairPolicy encoder_repair = resilience::RepairPolicy::kScrub;
  bool encoder_seed_available = true;

  // Shadow-model sabotage: corrupt every retrained shadow at this bit-flip
  // rate before validation (lifecycle's holdout gate must catch them).
  double shadow_fault_rate = 0.0;

  // Boot-time checkpoint corruption: the store is pre-seeded with two
  // checkpoints and the newest one's bytes are flipped before boot.
  bool corrupt_boot = false;

  // Lifecycle knobs the scenario needs (0 = keep the orchestrator default).
  std::size_t replay_class_cap = 0;
  std::uint64_t retrain_cost_us = 30000;
  std::size_t min_fresh = 160;

  InvariantSpec invariants;

  /// Sizing the registry built this spec at (all_scenarios(quick)).
  bool quick = false;
  /// Set for fleet campaigns, which attack this multi-tenant fleet instead
  /// of one edge deployment: run_scenario() hands them to
  /// run_tenant_storm() and reads none of the edge knobs above.
  std::optional<fleet::FleetConfig> fleet;
};

/// The nine named campaigns. `quick` shrinks requests/dims for tests and CI
/// smoke runs; golden fixtures are generated from the quick specs.
std::vector<ScenarioSpec> all_scenarios(bool quick);

/// Lookup by name; nullopt when unknown.
std::optional<ScenarioSpec> find_scenario(const std::string& name, bool quick);

}  // namespace generic::chaos
