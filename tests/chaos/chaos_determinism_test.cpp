// The chaos campaigns' two load-bearing contracts:
//
//  1. Determinism — every scenario's generic.chaos.v1 report is a pure
//     function of (spec, seed): byte-identical across pool widths (1/2/7)
//     and pinned byte-for-byte by the golden fixtures under
//     tests/chaos/golden/ (tests/golden.h says how to regenerate them).
//
//  2. The scenarios actually tell their stories: every invariant passes,
//     the bank burst fires and is healed by a clean hot-swap, the
//     corrupt-checkpoint boot quarantines the bad file and falls back, and
//     a persistent store restarts a rerun where the last run stopped.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "chaos/orchestrator.h"
#include "golden.h"
#include "hdc/kernels.h"
#include "kernel_backends.h"
#include "lifecycle/checkpoint_store.h"
#include "serve/encoder_hook.h"

#ifndef GENERIC_GOLDEN_DIR
#error "GENERIC_GOLDEN_DIR must be defined by the build"
#endif

namespace generic::chaos {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 0xC4A05;

/// Scratch dir unique per (scenario, tag) so ctest -j cases never collide.
std::string scratch_dir(const std::string& scenario, const std::string& tag) {
  const fs::path dir = fs::path(testing::TempDir()) /
                       ("chaos-" + scenario + "-" + tag);
  fs::remove_all(dir);
  return dir.string();
}

ChaosReport run(const ScenarioSpec& spec, std::size_t threads,
                const std::string& tag) {
  RunOptions opt;
  opt.seed = kSeed;
  opt.work_dir = scratch_dir(spec.name, tag);
  ThreadPool pool(threads);
  return run_scenario(spec, opt, pool);
}

TEST(ChaosScenario, RegistryShipsTheNineCampaigns) {
  const auto scenarios = all_scenarios(true);
  ASSERT_EQ(scenarios.size(), 9u);
  const char* expected[] = {"diurnal", "flash_crowd", "bank_faults",
                            "drift_under_overload",
                            "corrupt_checkpoint_boot",
                            "encoder_corruption", "multi_burst",
                            "shadow_fault_under_load", "tenant_storm"};
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    EXPECT_EQ(scenarios[i].name, expected[i]);
  EXPECT_TRUE(find_scenario("bank_faults", true).has_value());
  EXPECT_FALSE(find_scenario("nope", true).has_value());
  // Quick and full specs are distinct sizings of the same campaign.
  EXPECT_LT(find_scenario("diurnal", true)->requests,
            find_scenario("diurnal", false)->requests);
  // Only the fleet campaign attacks the multi-tenant fleet.
  for (const auto& s : scenarios)
    EXPECT_EQ(s.fleet.has_value(), s.name == "tenant_storm") << s.name;
  EXPECT_LT(find_scenario("tenant_storm", true)->requests,
            find_scenario("tenant_storm", false)->requests);
}

TEST(ChaosDeterminism, ReportsByteIdenticalAcrossThreads) {
  for (const auto& spec : all_scenarios(true)) {
    const std::string t1 =
        chaos_report_to_json(run(spec, 1, "t1"));
    const std::string t2 =
        chaos_report_to_json(run(spec, 2, "t2"));
    const std::string t7 =
        chaos_report_to_json(run(spec, 7, "t7"));
    EXPECT_EQ(t1, t2) << spec.name << ": threads 1 vs 2";
    EXPECT_EQ(t1, t7) << spec.name << ": threads 1 vs 7";
  }
}

TEST(ChaosGolden, ReportsMatchCommittedFixtures) {
  for (const auto& spec : all_scenarios(true))
    golden::expect_golden(chaos_report_to_json(run(spec, 2, "golden")),
                          std::string(GENERIC_GOLDEN_DIR) + "/" + spec.name +
                              ".json");
  if (golden::updating()) GTEST_SKIP() << "fixtures regenerated";
}

// End-to-end backend invariance: forcing each available XOR+popcount
// kernel backend (hdc/kernels.h) must reproduce the committed golden
// fixture byte for byte — the SIMD paths may never be observable in a
// report.
void expect_golden_on_every_backend(const std::string& name) {
  if (golden::updating())
    GTEST_SKIP() << "fixture being regenerated by ChaosGolden";
  namespace k = hdc::kernels;
  const auto spec = find_scenario(name, true);
  ASSERT_TRUE(spec.has_value());
  const std::string want = golden::read_file(std::string(GENERIC_GOLDEN_DIR) +
                                             "/" + name + ".json");
  ASSERT_FALSE(want.empty()) << "missing " << name << " fixture";
  test::BackendGuard guard;
  for (k::Backend backend : test::available_backends()) {
    k::set_backend(backend);
    const std::string tag = "kb-" + std::string(k::to_string(backend));
    EXPECT_EQ(chaos_report_to_json(run(*spec, 2, tag)), want)
        << "backend " << k::to_string(backend)
        << " leaked into the chaos report";
  }
}

// bank_faults is the pointiest class-memory scenario: fault bursts,
// hot-swaps and degradation all ride the binary similarity kernels.
TEST(ChaosKernelInvariance, BankFaultsGoldenByteIdenticalOnEveryBackend) {
  expect_golden_on_every_backend("bank_faults");
}

// encoder_corruption additionally routes every replacement query table
// through encode/encode_masked, so the encoder-side kernels get pinned too.
TEST(ChaosKernelInvariance, EncoderCorruptionGoldenByteIdenticalOnEveryBackend) {
  expect_golden_on_every_backend("encoder_corruption");
}

TEST(ChaosScenario, EveryCampaignPassesItsInvariants) {
  for (const auto& spec : all_scenarios(true)) {
    const ChaosReport report = run(spec, 2, "inv");
    EXPECT_TRUE(report.passed) << spec.name;
    for (const auto& inv : report.invariants)
      EXPECT_TRUE(inv.passed)
          << spec.name << ": " << inv.name << " value=" << inv.value
          << " bound=" << inv.bound;
  }
}

TEST(ChaosScenario, BankBurstFiresCollapsesAndHeals) {
  const auto spec = find_scenario("bank_faults", true);
  ASSERT_TRUE(spec.has_value());
  const ChaosReport report = run(*spec, 2, "story");

  // The burst fired as a chaos-version install at its scheduled time.
  ASSERT_EQ(report.bursts.size(), 1u);
  const BurstRecord& burst = report.bursts[0];
  EXPECT_EQ(burst.version, kChaosVersionBase);
  EXPECT_GE(burst.fired_vt_us, burst.scheduled_vt_us);
  EXPECT_FALSE(burst.banks.empty());
  bool chaos_install = false, heal_swap = false;
  std::uint64_t chaos_vt = 0, heal_vt = 0;
  for (const auto& s : report.serve.swaps) {
    if (s.version >= kChaosVersionBase && !s.rollback) {
      chaos_install = true;
      chaos_vt = s.vt;
    }
    if (s.version < kChaosVersionBase && !s.rollback && !heal_swap) {
      heal_swap = true;
      heal_vt = s.vt;
    }
  }
  EXPECT_TRUE(chaos_install);
  ASSERT_TRUE(heal_swap) << "no clean retrain swap healed the burst";
  EXPECT_GT(heal_vt, chaos_vt);

  // The corrupted version measurably collapsed accuracy; the healed
  // versions won it back.
  double corrupted_acc = 1.0, healed_acc = 0.0;
  for (const auto& v : report.serve.versions) {
    const double acc = v.served == 0 ? 0.0
                                     : static_cast<double>(v.correct) /
                                           static_cast<double>(v.served);
    if (v.version >= kChaosVersionBase) corrupted_acc = acc;
    if (v.version > 0 && v.version < kChaosVersionBase) healed_acc = acc;
  }
  EXPECT_LT(corrupted_acc, 0.6);
  EXPECT_GT(healed_acc, 0.8);
  EXPECT_GE(report.lifecycle.swapped, 1u);
}

TEST(ChaosScenario, CorruptCheckpointBootQuarantinesAndFallsBack) {
  const auto spec = find_scenario("corrupt_checkpoint_boot", true);
  ASSERT_TRUE(spec.has_value());
  const ChaosReport report = run(*spec, 2, "story");

  EXPECT_TRUE(report.boot.from_checkpoint);
  EXPECT_EQ(report.boot.store_versions_seeded, 2u);
  EXPECT_EQ(report.boot.quarantined, 1u);
  // The newest (corrupted) version 2 was refused; boot fell back to 1.
  EXPECT_EQ(report.boot.version, 1u);
  // Lifecycle version numbering continues from the booted checkpoint.
  ASSERT_FALSE(report.lifecycle.versions.empty());
  EXPECT_EQ(report.lifecycle.versions[0].version, 1u);
  EXPECT_TRUE(report.passed);
  for (const auto& inv : report.invariants) EXPECT_TRUE(inv.passed) << inv.name;
}

TEST(ChaosScenario, EncoderCorruptionDegradesMaskedThenScrubRecovers) {
  const auto spec = find_scenario("encoder_corruption", true);
  ASSERT_TRUE(spec.has_value());
  const ChaosReport report = run(*spec, 2, "story");

  // The incident played all three acts in virtual-time order.
  ASSERT_EQ(report.serve.encoder_faults.size(), 3u);
  const auto& corrupt = report.serve.encoder_faults[0];
  const auto& mask = report.serve.encoder_faults[1];
  const auto& scrub = report.serve.encoder_faults[2];
  EXPECT_EQ(corrupt.phase, serve::EncoderUpdate::Phase::kCorrupt);
  EXPECT_EQ(mask.phase, serve::EncoderUpdate::Phase::kMask);
  EXPECT_EQ(scrub.phase, serve::EncoderUpdate::Phase::kScrub);
  EXPECT_LT(corrupt.vt, mask.vt);
  EXPECT_LT(mask.vt, scrub.vt);
  EXPECT_GE(corrupt.faulty_rows, 1u);
  EXPECT_FALSE(mask.stepped_ladder) << "seed available: no ladder step";
  EXPECT_GE(scrub.scrubbed_rows, 1u);
  EXPECT_TRUE(scrub.scrub_verified);
  EXPECT_EQ(report.serve.scrubbed_rows, scrub.scrubbed_rows);

  // Masked serving measurably costs accuracy; the scrub wins it back.
  double masked = -1.0, recovered = -1.0;
  for (const auto& inv : report.invariants) {
    if (inv.name == "encoder_degraded") {
      EXPECT_TRUE(inv.enabled);
      EXPECT_TRUE(inv.passed) << inv.value << " vs " << inv.bound;
      masked = inv.value;
    } else if (inv.name == "encoder_recovery") {
      EXPECT_TRUE(inv.enabled);
      EXPECT_TRUE(inv.passed) << inv.value << " vs " << inv.bound;
      recovered = inv.value;
    } else if (inv.name == "encoder_scrub") {
      EXPECT_TRUE(inv.enabled);
      EXPECT_TRUE(inv.passed);
    }
  }
  ASSERT_GE(masked, 0.0);
  ASSERT_GE(recovered, 0.0);
  EXPECT_GT(recovered, masked)
      << "scrub did not win back the accuracy masking cost";
  EXPECT_TRUE(report.passed);
}

TEST(ChaosScenario, ShadowFaultUnderLoadRejectsEveryFaultyShadow) {
  const auto spec = find_scenario("shadow_fault_under_load", true);
  ASSERT_TRUE(spec.has_value());
  ASSERT_GT(spec->shadow_fault_rate, 0.0);
  const ChaosReport report = run(*spec, 2, "story");

  // Every retrained shadow was sabotaged before validation, so the holdout
  // gate must reject every one: rollbacks fired, nothing got installed.
  EXPECT_GE(report.lifecycle.triggered, 1u);
  EXPECT_GE(report.lifecycle.rolled_back, 1u);
  EXPECT_EQ(report.lifecycle.swapped, 0u);
  for (const auto& v : report.lifecycle.versions) {
    if (v.from_retrain) {
      EXPECT_FALSE(v.installed)
          << "faulty shadow v" << v.version << " slipped past the gate";
    }
  }
  for (const auto& inv : report.invariants)
    if (inv.name == "rollbacks") {
      EXPECT_TRUE(inv.enabled);
      EXPECT_TRUE(inv.passed) << inv.value << " vs " << inv.bound;
    }
  EXPECT_TRUE(report.passed);
}

/// Quick drift run on a persistent store directory (never wiped).
ChaosReport run_on_store(const std::string& store_dir) {
  RunOptions opt;
  opt.seed = kSeed;
  opt.store_dir = store_dir;
  ThreadPool pool(2);
  return run_scenario(find_scenario("drift_under_overload", true).value(),
                      opt, pool);
}

/// Version of the first retrained shadow, or 0 when none was trained.
std::uint64_t first_retrain_version(const ChaosReport& report) {
  for (const auto& v : report.lifecycle.versions)
    if (v.from_retrain) return v.version;
  return 0;
}

TEST(ChaosStore, RerunBootsFromTheNewestSavedVersion) {
  const std::string dir = scratch_dir("store", "restart");
  const ChaosReport first = run_on_store(dir);
  EXPECT_FALSE(first.boot.from_checkpoint);
  ASSERT_GE(first.lifecycle.swapped, 1u);
  EXPECT_EQ(first.lifecycle.checkpoints_saved, first.lifecycle.swapped);
  std::uint64_t newest = 0;
  for (const auto& v : first.lifecycle.versions)
    if (v.from_retrain && v.installed) newest = std::max(newest, v.version);

  const ChaosReport second = run_on_store(dir);
  EXPECT_TRUE(second.boot.from_checkpoint);
  EXPECT_EQ(second.boot.version, newest);
  EXPECT_EQ(second.boot.quarantined, 0u);
  EXPECT_EQ(second.lifecycle.versions.at(0).version, newest);
  EXPECT_EQ(first_retrain_version(second), second.boot.version + 1);
  EXPECT_TRUE(first.passed);
  EXPECT_TRUE(second.passed);
}

TEST(ChaosStore, CheckpointOfOtherGeometryIsNotServed) {
  const std::string dir = scratch_dir("store", "geometry");
  {
    lifecycle::CheckpointStore store(dir, 4);
    store.save(model::HdcClassifier(256, 4), 7, 0);
  }
  const ChaosReport report = run_on_store(dir);
  EXPECT_FALSE(report.boot.from_checkpoint);
  // Numbering continues past the foreign file, so no save collides with it.
  EXPECT_EQ(report.boot.version, 7u);
  EXPECT_EQ(first_retrain_version(report), 8u);
  EXPECT_EQ(report.lifecycle.checkpoints_saved, report.lifecycle.swapped);
  EXPECT_TRUE(report.passed);

  // Until the first swap the fresh weights serve, exactly as in a run with
  // no store at all.
  const ChaosReport fresh =
      run(find_scenario("drift_under_overload", true).value(), 2, "nostore");
  ASSERT_FALSE(report.serve.swaps.empty());
  ASSERT_FALSE(fresh.serve.swaps.empty());
  const std::uint64_t until = std::min(report.serve.swaps[0].vt,
                                       fresh.serve.swaps[0].vt);
  std::size_t compared = 0;
  for (std::size_t w = 0; w < report.windows.size(); ++w) {
    if (report.windows[w].t0_us + report.window_us > until) break;
    EXPECT_EQ(report.windows[w].served, fresh.windows.at(w).served) << w;
    EXPECT_EQ(report.windows[w].canary_correct,
              fresh.windows.at(w).canary_correct)
        << w;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

}  // namespace
}  // namespace generic::chaos
