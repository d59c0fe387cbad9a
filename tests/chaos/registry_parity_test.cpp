// Registry counters and report tallies are counted separately, at the same
// call sites. Run the quick scenarios that swap, roll back, alert and scrub
// on a freshly reset registry, and check that every serve and lifecycle
// counter equals its twin in the generic.serve.v1 / generic.lifecycle.v1
// sections of the reports.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

#include "chaos/orchestrator.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace generic::chaos {
namespace {

#if GENERIC_OBS_ENABLED
TEST(ChaosRegistry, CountersEqualReportTallies) {
  obs::Registry& reg = obs::Registry::instance();
  reg.reset();

  // Registry name -> the report tally it must equal, summed over the runs.
  std::map<std::string, std::uint64_t> want;
  std::uint64_t served = 0;
  ThreadPool pool(2);
  for (const char* name :
       {"multi_burst", "shadow_fault_under_load", "encoder_corruption"}) {
    const auto spec = find_scenario(name, true);
    ASSERT_TRUE(spec.has_value()) << name;
    RunOptions opt;
    opt.seed = 0xC4A05;
    const auto dir =
        std::filesystem::path(testing::TempDir()) / ("parity-" + spec->name);
    std::filesystem::remove_all(dir);
    opt.work_dir = dir.string();
    const ChaosReport rep = run_scenario(*spec, opt, pool);

    const serve::ServeReport& s = rep.serve;
    for (const serve::SwapEvent& e : s.swaps)
      ++want[e.rollback ? "serve.rollbacks" : "serve.swaps"];
    want["serve.requests"] += s.requests;
    want["serve.slo_alerts"] += s.slo_alerts.size();
    for (const serve::EncoderFaultEvent& e : s.encoder_faults) {
      if (e.phase == serve::EncoderUpdate::Phase::kCorrupt)
        ++want["serve.encoder_faults"];
      if (e.phase == serve::EncoderUpdate::Phase::kScrub)
        ++want["serve.encoder_scrubs"];
    }
    served += s.served;
    want["lifecycle.alarms"] += rep.lifecycle.alarms;
    want["lifecycle.retrains"] += rep.lifecycle.triggered;
    want["lifecycle.swaps"] += rep.lifecycle.swapped;
    want["lifecycle.rollbacks"] += rep.lifecycle.rolled_back;
  }

  // Between them the three scenarios move every counter.
  ASSERT_EQ(want.size(), 10u);
  for (const auto& [name, n] : want) {
    EXPECT_GT(n, 0u) << name;
    EXPECT_EQ(reg.counter(name).value(), n) << name;
  }
  EXPECT_EQ(reg.histogram("serve.latency_us").snapshot().count, served);
}
#endif  // GENERIC_OBS_ENABLED

}  // namespace
}  // namespace generic::chaos
