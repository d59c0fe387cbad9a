#include "chaos/scenario.h"

#include <algorithm>

#include "chaos/tenant_storm.h"

namespace generic::chaos {
namespace {

/// Shared sizing: the engine's two 900 us service lanes saturate around
/// 2200 rps at full dimensions, ~4x that at the ladder floor (dims / 4).
/// Scenario rates are chosen against that capacity line.
ScenarioSpec base(bool quick) {
  ScenarioSpec s;
  s.requests = quick ? 1500 : 4000;
  s.dims = quick ? 512 : 1024;
  s.train_samples = quick ? 600 : 1200;
  s.canary_every = 2;
  s.quick = quick;
  return s;
}

ScenarioSpec diurnal(bool quick) {
  ScenarioSpec s = base(quick);
  s.name = "diurnal";
  s.description =
      "day/night sine whose crest crosses the capacity line; the "
      "degradation ladder must absorb the peak with bounded shedding";
  s.load.kind = LoadKind::kDiurnal;
  s.load.low_rps = 600.0;
  s.load.high_rps = 2600.0;
  s.load.period_us = quick ? 500'000 : 1'000'000;
  s.invariants.max_shed_frac = 0.10;
  s.invariants.min_canary_accuracy = 0.60;
  return s;
}

ScenarioSpec flash_crowd(bool quick) {
  ScenarioSpec s = base(quick);
  s.name = "flash_crowd";
  s.description =
      "6x single-class burst on a relaxed baseline; admission control "
      "sheds the overflow and the per-class replay quota keeps the flood "
      "from owning the canary replay buffer";
  s.load.kind = LoadKind::kFlash;
  s.load.base_rps = 900.0;
  s.load.flash_start_us = quick ? 300'000 : 800'000;
  s.load.flash_len_us = quick ? 250'000 : 500'000;
  s.load.flash_mult = 6.0;
  s.flash_single_class = true;
  s.flash_class = 2;
  s.replay_class_cap = 32;
  s.invariants.max_shed_frac = 0.45;
  s.invariants.min_canary_accuracy = 0.55;
  return s;
}

ScenarioSpec bank_faults(bool quick) {
  ScenarioSpec s = base(quick);
  s.name = "bank_faults";
  s.description =
      "a correlated class-memory bank burst corrupts the serving model "
      "mid-run; drift detection must notice the collapse and a clean "
      "retrain must hot-swap the damage away";
  s.load.kind = LoadKind::kPoisson;
  s.load.base_rps = 1200.0;
  FaultBurst burst;
  burst.vt_us = quick ? 400'000 : 1'000'000;
  burst.fault.kind = resilience::FaultKind::kBankCorrelated;
  burst.fault.rate = 0.5;
  burst.fault.burst_rate = 0.05;
  s.bursts.push_back(burst);
  s.min_fresh = quick ? 100 : 160;
  s.invariants.max_shed_frac = 0.05;
  s.invariants.min_swaps = 1;
  s.invariants.recovery_window_us = quick ? 400'000 : 800'000;
  s.invariants.recovery_accuracy = 0.60;
  return s;
}

ScenarioSpec drift_under_overload(bool quick) {
  ScenarioSpec s = base(quick);
  s.name = "drift_under_overload";
  s.description =
      "concept shift while demand exceeds capacity: the ladder defends "
      "the SLO, shedding stays bounded, and the lifecycle still closes "
      "its drift -> retrain -> validate -> swap loop";
  s.load.kind = LoadKind::kPoisson;
  s.load.base_rps = 2600.0;
  s.drift_enabled = true;
  s.shift_at = s.requests * 2 / 5;
  s.severity = 0.75;
  s.min_fresh = quick ? 100 : 160;
  s.invariants.max_shed_frac = 0.35;
  s.invariants.min_swaps = 1;
  s.invariants.recovery_window_us = quick ? 200'000 : 400'000;
  s.invariants.recovery_accuracy = 0.55;
  return s;
}

ScenarioSpec corrupt_checkpoint_boot(bool quick) {
  ScenarioSpec s = base(quick);
  s.name = "corrupt_checkpoint_boot";
  s.description =
      "the newest on-disk checkpoint is garbage at boot; the store must "
      "quarantine it, fall back to the older known-good version, and "
      "serving must proceed normally from it";
  s.requests = quick ? 1000 : 2500;
  s.load.kind = LoadKind::kPoisson;
  s.load.base_rps = 1000.0;
  s.corrupt_boot = true;
  s.invariants.max_shed_frac = 0.05;
  s.invariants.min_canary_accuracy = 0.60;
  s.invariants.expect_quarantine = true;
  return s;
}

ScenarioSpec encoder_corruption(bool quick) {
  ScenarioSpec s = base(quick);
  s.name = "encoder_corruption";
  s.description =
      "a burst corrupts level rows and the id seed of the encoder memory "
      "mid-run; the guard masks around the damage at the next scrub tick "
      "and the seed-rematerialization scrub must restore the clean "
      "encodings bit-identically, with accuracy recovering in full";
  s.load.kind = LoadKind::kPoisson;
  s.load.base_rps = 1200.0;
  FaultBurst burst;
  burst.vt_us = quick ? 400'000 : 1'000'000;
  burst.fault.kind = resilience::FaultKind::kTransient;
  burst.fault.rate = 0.35;        // per-row hit probability
  burst.fault.burst_rate = 0.30;  // per-bit flip rate inside a hit row
  s.encoder_bursts.push_back(burst);
  s.scrub_every_us = quick ? 150'000 : 300'000;
  s.encoder_repair = resilience::RepairPolicy::kScrub;
  s.invariants.max_shed_frac = 0.05;
  s.invariants.min_scrubbed_rows = 1;
  s.invariants.masked_accuracy_below = 0.85;
  s.invariants.encoder_recovery_window_us = quick ? 400'000 : 800'000;
  s.invariants.encoder_recovery_accuracy = 0.60;
  return s;
}

ScenarioSpec multi_burst(bool quick) {
  ScenarioSpec s = base(quick);
  s.name = "multi_burst";
  s.description =
      "repeated class-memory AND encoder-memory bursts on a schedule; the "
      "retrain loop must heal the class damage and the scrub loop the "
      "encoder damage, every time";
  s.requests = quick ? 2000 : 4500;
  s.load.kind = LoadKind::kPoisson;
  s.load.base_rps = 1200.0;
  FaultBurst bank1;
  bank1.vt_us = quick ? 250'000 : 600'000;
  bank1.fault.kind = resilience::FaultKind::kBankCorrelated;
  bank1.fault.rate = 0.5;
  bank1.fault.burst_rate = 0.05;
  FaultBurst bank2 = bank1;
  bank2.vt_us = quick ? 800'000 : 2'000'000;
  s.bursts = {bank1, bank2};
  FaultBurst enc1;
  enc1.vt_us = quick ? 400'000 : 1'000'000;
  enc1.fault.kind = resilience::FaultKind::kTransient;
  enc1.fault.rate = 0.3;
  enc1.fault.burst_rate = 0.25;
  FaultBurst enc2 = enc1;
  enc2.vt_us = quick ? 900'000 : 2'200'000;
  s.encoder_bursts = {enc1, enc2};
  s.scrub_every_us = quick ? 150'000 : 300'000;
  s.encoder_repair = resilience::RepairPolicy::kScrub;
  s.min_fresh = quick ? 100 : 160;
  s.invariants.max_shed_frac = 0.05;
  s.invariants.min_swaps = 1;
  s.invariants.min_scrubbed_rows = 1;
  s.invariants.encoder_recovery_window_us = quick ? 300'000 : 600'000;
  s.invariants.encoder_recovery_accuracy = 0.55;
  return s;
}

ScenarioSpec shadow_fault_under_load(bool quick) {
  ScenarioSpec s = base(quick);
  s.name = "shadow_fault_under_load";
  s.description =
      "concept shift under sustained load while every retrained shadow is "
      "corrupted before validation; the holdout gate must reject the "
      "faulty shadows and roll back instead of installing garbage";
  s.load.kind = LoadKind::kPoisson;
  s.load.base_rps = 2000.0;
  s.drift_enabled = true;
  s.shift_at = s.requests * 2 / 5;
  s.severity = 0.75;
  s.shadow_fault_rate = 0.25;
  s.min_fresh = quick ? 100 : 160;
  s.invariants.max_shed_frac = 0.35;
  s.invariants.min_rollbacks = 1;
  return s;
}

ScenarioSpec tenant_storm(bool quick) {
  ScenarioSpec s;
  s.name = "tenant_storm";
  s.description =
      "fleet campaign: one batch tenant floods at ~10x its quota; the "
      "admission pipeline must refuse the flood and protect the rest";
  s.quick = quick;
  s.fleet = tenant_storm_config(quick);
  // Sizing for --list: every client request, the widest model.
  s.requests = 0;
  for (const auto& t : s.fleet->tenants)
    s.requests += t.clients * t.requests_per_client;
  s.dims = 0;
  for (const auto& m : s.fleet->models) s.dims = std::max(s.dims, m.dims);
  return s;
}

}  // namespace

std::vector<ScenarioSpec> all_scenarios(bool quick) {
  return {diurnal(quick),
          flash_crowd(quick),
          bank_faults(quick),
          drift_under_overload(quick),
          corrupt_checkpoint_boot(quick),
          encoder_corruption(quick),
          multi_burst(quick),
          shadow_fault_under_load(quick),
          tenant_storm(quick)};
}

std::optional<ScenarioSpec> find_scenario(const std::string& name,
                                          bool quick) {
  for (auto& s : all_scenarios(quick))
    if (s.name == name) return s;
  return std::nullopt;
}

}  // namespace generic::chaos
