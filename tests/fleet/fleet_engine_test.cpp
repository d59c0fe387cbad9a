// FleetEngine admission mechanics (src/fleet/engine.h): the exact integer
// token bucket, the priority-weighted shed gate, the tally cross-checks,
// and the tenant_storm chaos scenario's protection story.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "chaos/orchestrator.h"
#include "common/thread_pool.h"
#include "fleet/engine.h"
#include "fleet/simulator.h"
#include "fleet/types.h"

namespace generic::fleet {
namespace {

constexpr std::uint64_t kSeed = 0xC4A05;

/// Smallest fleet that exercises the gates: one tiny model, caller-provided
/// tenants. service_base_us=700 over 2 servers -> backlog cost 350us/admit.
FleetConfig tiny_config(std::vector<TenantSpec> tenants) {
  FleetConfig cfg;
  cfg.seed = kSeed;
  ModelSpec m;
  m.id = "tiny";
  m.dims = 256;
  m.classes = 3;
  m.features = 16;
  m.train_samples = 80;
  m.queries = 40;
  m.epochs = 2;
  m.world_seed = 0x71C0;
  m.serve.model_id = "tiny";
  m.serve.servers = 2;
  m.serve.service_base_us = 700;
  m.serve.min_dims = 128;
  m.serve.seed = kSeed;
  cfg.models.push_back(std::move(m));
  cfg.tenants = std::move(tenants);
  return cfg;
}

struct Fixture {
  ThreadPool pool;
  FleetConfig cfg;
  FleetEngine fleet;

  explicit Fixture(std::vector<TenantSpec> tenants)
      : pool(2),
        cfg(tiny_config(std::move(tenants))),
        fleet(cfg, {build_world(cfg.models[0], pool)}, pool) {}
};

Send make_send(std::uint64_t send_us, std::uint16_t tenant, std::uint64_t id) {
  Send s;
  s.send_us = send_us;
  s.tenant = tenant;
  s.model = 0;
  s.id = id;
  s.query = static_cast<std::uint32_t>(id % 40);
  s.deadline_rel_us = 4000;
  return s;
}

TEST(FleetEngineTest, TokenBucketIsExactIntegerMath) {
  TenantSpec t;
  t.name = "t";
  t.priority = PriorityClass::kStandard;
  t.quota_rps = 1000;  // exactly 1 token per 1000 virtual us
  t.quota_burst = 4;
  Fixture fx({t});

  std::vector<serve::ResponseFuture> futures;
  FleetResponse rej;
  std::uint64_t id = 0;

  // Full bucket at t=0: exactly quota_burst admits, then empty.
  for (int i = 0; i < 4; ++i) {
    auto f = fx.fleet.route(make_send(0, 0, id++), rej);
    EXPECT_TRUE(f.has_value()) << "burst admit " << i;
    if (f) futures.push_back(std::move(*f));
  }
  auto f5 = fx.fleet.route(make_send(0, 0, id++), rej);
  EXPECT_FALSE(f5.has_value());
  EXPECT_EQ(rej.status, FleetStatus::kQuotaRejected);
  EXPECT_EQ(rej.id, 4u);
  EXPECT_EQ(rej.finish_us, 0u);

  // 1000us later the refill is exactly one token: one admit, not two.
  auto f6 = fx.fleet.route(make_send(1000, 0, id++), rej);
  EXPECT_TRUE(f6.has_value());
  if (f6) futures.push_back(std::move(*f6));
  auto f7 = fx.fleet.route(make_send(1000, 0, id++), rej);
  EXPECT_FALSE(f7.has_value());
  EXPECT_EQ(rej.status, FleetStatus::kQuotaRejected);

  // Half a token (500us * 1000rps = 500000 micro-tokens) is NOT a token...
  auto f8 = fx.fleet.route(make_send(1500, 0, id++), rej);
  EXPECT_FALSE(f8.has_value());
  EXPECT_EQ(rej.status, FleetStatus::kQuotaRejected);
  // ...but the fractional balance carries: 500us more completes the token.
  auto f9 = fx.fleet.route(make_send(2000, 0, id++), rej);
  EXPECT_TRUE(f9.has_value());
  if (f9) futures.push_back(std::move(*f9));

  const FleetReport rep = fx.fleet.finish();
  EXPECT_EQ(rep.requests, 9u);
  EXPECT_EQ(rep.statuses[static_cast<std::size_t>(FleetStatus::kQuotaRejected)],
            3u);
}

TEST(FleetEngineTest, WeightedShedTurnsBatchAwayBeforeCritical) {
  TenantSpec critical;
  critical.name = "crit";
  critical.priority = PriorityClass::kCritical;
  critical.quota_rps = 100000;  // quota never the limiting gate here
  critical.quota_burst = 64;
  TenantSpec batch = critical;
  batch.name = "batch";
  batch.priority = PriorityClass::kBatch;
  Fixture fx({critical, batch});

  std::vector<serve::ResponseFuture> futures;
  FleetResponse rej;
  std::uint64_t id = 0;

  // Push the model's projected backlog past the 4000us batch budget but
  // far below the 64000us critical budget: 13 admits * 350us = 4550us.
  for (int i = 0; i < 13; ++i) {
    auto f = fx.fleet.route(make_send(0, 0, id++), rej);
    ASSERT_TRUE(f.has_value()) << "backlog admit " << i;
    futures.push_back(std::move(*f));
  }

  // Same instant, same backlog: batch is shed, critical sails through.
  auto fb = fx.fleet.route(make_send(0, 1, id++), rej);
  EXPECT_FALSE(fb.has_value());
  EXPECT_EQ(rej.status, FleetStatus::kPriorityShed);
  auto fc = fx.fleet.route(make_send(0, 0, id++), rej);
  EXPECT_TRUE(fc.has_value());
  if (fc) futures.push_back(std::move(*fc));

  // A shed consumes neither backlog nor tokens: batch is still refused.
  auto fb2 = fx.fleet.route(make_send(0, 1, id++), rej);
  EXPECT_FALSE(fb2.has_value());
  EXPECT_EQ(rej.status, FleetStatus::kPriorityShed);

  const FleetReport rep = fx.fleet.finish();
  const auto shed = static_cast<std::size_t>(FleetStatus::kPriorityShed);
  EXPECT_EQ(rep.tenants[0].statuses[shed], 0u);
  EXPECT_EQ(rep.tenants[1].statuses[shed], 2u);
}

TEST(FleetEngineTest, TalliesCrossCheckAcrossTenantsModelsAndTotals) {
  const FleetConfig cfg = default_fleet_config(true);
  ThreadPool pool(2);
  std::vector<ModelWorld> worlds;
  for (const ModelSpec& m : cfg.models) worlds.push_back(build_world(m, pool));
  FleetEngine fleet(cfg, std::move(worlds), pool);
  auto owned = make_sim_ports(cfg, fleet);
  std::vector<ClientPort*> ports;
  for (auto& p : owned) ports.push_back(p.get());
  const std::size_t delivered = run_closed_loop(fleet, ports);
  const FleetReport rep = fleet.finish();

  // Every configured request was sent and terminally answered.
  std::uint64_t expected = 0;
  for (const TenantSpec& t : cfg.tenants)
    expected += t.clients * t.requests_per_client;
  EXPECT_EQ(rep.requests, expected);
  EXPECT_EQ(delivered, expected);

  // The global status histogram is exactly the sum of the tenant view and
  // exactly the sum of the model view.
  for (std::size_t s = 0; s < kNumFleetStatuses; ++s) {
    std::uint64_t by_tenant = 0, by_model = 0;
    for (const PartyStats& t : rep.tenants) by_tenant += t.statuses[s];
    for (const PartyStats& m : rep.models) by_model += m.statuses[s];
    EXPECT_EQ(rep.statuses[s], by_tenant) << "status " << s;
    EXPECT_EQ(rep.statuses[s], by_model) << "status " << s;
  }
  std::uint64_t tenant_requests = 0;
  for (const PartyStats& t : rep.tenants) tenant_requests += t.requests;
  EXPECT_EQ(tenant_requests, expected);

  // Engine-admitted totals reconcile: whatever the fleet gates let through
  // is exactly what the per-model ServeEngines saw.
  std::uint64_t engine_requests = 0;
  for (const serve::ServeReport& sr : rep.model_reports)
    engine_requests += sr.requests;
  const std::uint64_t refused =
      rep.statuses[static_cast<std::size_t>(FleetStatus::kQuotaRejected)] +
      rep.statuses[static_cast<std::size_t>(FleetStatus::kPriorityShed)];
  EXPECT_EQ(engine_requests, expected - refused);
}

// The committed acceptance story for the tenant_storm chaos scenario:
// one batch tenant floods at >10x quota; BOTH refusal mechanisms engage
// (token bucket for the sustained rate, weighted shed for the burst), and
// weighted shedding keeps the high-priority tenants' service and accuracy
// untouched.
TEST(FleetEngineTest, TenantStormShedsTheFloodAndProtectsTheVictims) {
  const auto spec = chaos::find_scenario("tenant_storm", true);
  ASSERT_TRUE(spec.has_value());
  chaos::RunOptions opt;
  opt.seed = kSeed;
  ThreadPool pool(2);
  const chaos::ChaosReport rep = chaos::run_scenario(*spec, opt, pool);
  EXPECT_TRUE(rep.passed);
  for (const chaos::InvariantResult& inv : rep.invariants)
    EXPECT_TRUE(inv.passed) << inv.name << " value=" << inv.value
                            << " bound=" << inv.bound;

  ASSERT_TRUE(rep.fleet.has_value());
  const std::vector<PartyStats>& tenants = rep.fleet->tenants;
  const std::size_t flood_tenant = tenants.size() - 1;
  const PartyStats& flood = tenants[flood_tenant];
  EXPECT_GT(flood.statuses[static_cast<std::size_t>(
                FleetStatus::kQuotaRejected)],
            0u);
  EXPECT_GT(
      flood.statuses[static_cast<std::size_t>(FleetStatus::kPriorityShed)],
      0u);

  // Victims: every non-flood tenant keeps >= 90% service; the critical
  // tenant is never shed at all.
  for (std::size_t t = 0; t < flood_tenant; ++t) {
    const PartyStats& victim = tenants[t];
    EXPECT_GE(static_cast<double>(victim.served),
              0.9 * static_cast<double>(victim.requests))
        << rep.fleet->config.tenants[t].name;
  }
  const PartyStats& gold = tenants[0];
  EXPECT_EQ(
      gold.statuses[static_cast<std::size_t>(FleetStatus::kPriorityShed)], 0u);
  EXPECT_EQ(
      gold.statuses[static_cast<std::size_t>(FleetStatus::kQuotaRejected)],
      0u);
}

}  // namespace
}  // namespace generic::fleet
