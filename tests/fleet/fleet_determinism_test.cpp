// The fleet's load-bearing contract (docs/fleet.md): the generic.fleet.v1
// report is a pure function of (FleetConfig, seed) — byte-identical across
// worker thread counts (1/2/7) and across XOR+popcount kernel backends,
// and pinned byte-for-byte by tests/fleet/golden/fleet_quick.json
// (tests/golden.h says how to regenerate it). The tenant_storm campaign on
// this fleet runs through the chaos registry; its generic.chaos.v1 fixture
// lives with the other scenarios' under tests/chaos/golden/ and is
// regenerated by ChaosGolden.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/orchestrator.h"
#include "common/thread_pool.h"
#include "fleet/engine.h"
#include "fleet/simulator.h"
#include "golden.h"
#include "hdc/kernels.h"
#include "kernel_backends.h"

#ifndef GENERIC_GOLDEN_DIR
#error "GENERIC_GOLDEN_DIR must be defined by the build"
#endif
#ifndef GENERIC_CHAOS_GOLDEN_DIR
#error "GENERIC_CHAOS_GOLDEN_DIR must be defined by the build"
#endif

namespace generic::fleet {
namespace {

constexpr std::uint64_t kSeed = 0xC4A05;

/// One full quick simulated run -> generic.fleet.v1 bytes.
std::string run_quick_fleet(std::size_t threads) {
  FleetConfig cfg = default_fleet_config(true);
  cfg.seed = kSeed;
  ThreadPool pool(threads);
  std::vector<ModelWorld> worlds;
  for (const ModelSpec& m : cfg.models) worlds.push_back(build_world(m, pool));
  FleetEngine fleet(cfg, std::move(worlds), pool);
  auto owned = make_sim_ports(cfg, fleet);
  std::vector<ClientPort*> ports;
  for (auto& p : owned) ports.push_back(p.get());
  run_closed_loop(fleet, ports);
  return fleet_report_to_json(fleet.finish());
}

/// The quick tenant_storm chaos campaign -> generic.chaos.v1 bytes.
std::string run_tenant_storm(std::size_t threads) {
  const auto spec = chaos::find_scenario("tenant_storm", true);
  if (!spec.has_value()) return {};
  chaos::RunOptions opt;
  opt.seed = kSeed;
  ThreadPool pool(threads);
  return chaos::chaos_report_to_json(chaos::run_scenario(*spec, opt, pool));
}

TEST(FleetDeterminism, ReportByteIdenticalAcrossThreads) {
  const std::string t1 = run_quick_fleet(1);
  EXPECT_EQ(t1, run_quick_fleet(2)) << "threads 1 vs 2";
  EXPECT_EQ(t1, run_quick_fleet(7)) << "threads 1 vs 7";
}

TEST(FleetDeterminism, StormReportByteIdenticalAcrossThreads) {
  const std::string t1 = run_tenant_storm(1);
  ASSERT_FALSE(t1.empty()) << "tenant_storm missing from the chaos registry";
  EXPECT_EQ(t1, run_tenant_storm(4)) << "threads 1 vs 4";
}

TEST(FleetGolden, QuickReportMatchesCommittedFixture) {
  golden::expect_golden(run_quick_fleet(2),
                        std::string(GENERIC_GOLDEN_DIR) + "/fleet_quick.json");
  if (golden::updating()) GTEST_SKIP() << "fixture regenerated";
}

// Read-only: ChaosGolden owns (and regenerates) tenant_storm.json.
TEST(FleetGolden, TenantStormMatchesCommittedFixture) {
  if (golden::updating())
    GTEST_SKIP() << "fixture being regenerated by ChaosGolden";
  const std::string want = golden::read_file(
      std::string(GENERIC_CHAOS_GOLDEN_DIR) + "/tenant_storm.json");
  ASSERT_FALSE(want.empty()) << "missing tenant_storm.json fixture";
  EXPECT_EQ(run_tenant_storm(2), want);
}

// End-to-end backend invariance: every compiled-and-available XOR+popcount
// kernel backend must reproduce the committed fleet fixture byte for byte —
// the SIMD paths may never be observable in a report.
TEST(FleetKernelInvariance, QuickGoldenByteIdenticalOnEveryBackend) {
  if (golden::updating())
    GTEST_SKIP() << "fixture being regenerated by FleetGolden";
  namespace k = hdc::kernels;
  const std::string want =
      golden::read_file(std::string(GENERIC_GOLDEN_DIR) + "/fleet_quick.json");
  ASSERT_FALSE(want.empty()) << "missing fleet_quick.json fixture";
  test::BackendGuard guard;
  for (k::Backend backend : test::available_backends()) {
    k::set_backend(backend);
    EXPECT_EQ(run_quick_fleet(2), want)
        << "backend " << k::to_string(backend)
        << " leaked into the fleet report";
  }
}

}  // namespace
}  // namespace generic::fleet
