// The black-box story (docs/chaos.md, docs/observability.md): every chaos
// run records into the rtrace flight ring, and a failed invariant ships
// the ring with the verdict — the last-N decisions before the violation,
// fault injections and ladder moves included, without anyone having asked
// for tracing up front.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "chaos/orchestrator.h"
#include "obs/rtrace.h"

namespace generic::chaos {
namespace {

namespace fs = std::filesystem;
namespace rtrace = obs::rtrace;

std::string scratch_dir(const std::string& tag) {
  const fs::path dir = fs::path(testing::TempDir()) / ("flight-" + tag);
  fs::remove_all(dir);
  return dir.string();
}

ChaosReport run(const ScenarioSpec& spec, const std::string& tag) {
  RunOptions opt;
  opt.seed = 0xC4A05;
  opt.work_dir = scratch_dir(tag);
  ThreadPool pool(2);
  return run_scenario(spec, opt, pool);
}

std::size_t count_kind(const rtrace::FlightLog& log, rtrace::EventKind kind) {
  std::size_t n = 0;
  for (const auto& e : log.events)
    if (e.kind == kind) ++n;
  return n;
}

#if GENERIC_OBS_ENABLED

// Drive bank_faults into a guaranteed invariant failure (a swap quota no
// run can meet) and read the crash back out of the flight recorder: the
// chaos fault injection and the ladder's degrade steps must be in the
// ring, each stamped with virtual time and model version.
TEST(ChaosFlightRecorder, InvariantFailureShipsTheBlackBox) {
  auto spec = find_scenario("bank_faults", true);
  ASSERT_TRUE(spec.has_value());
  spec->name = "bank_faults_forced_fail";
  spec->invariants.min_swaps = 1000;  // unreachable: the run must fail

  const ChaosReport report = run(*spec, "forced");
  EXPECT_FALSE(report.passed);

  ASSERT_FALSE(report.flight.events.empty());
  EXPECT_GE(count_kind(report.flight, rtrace::EventKind::kFaultInject), 1u)
      << "the chaos burst should be on the black box";
  EXPECT_GE(count_kind(report.flight, rtrace::EventKind::kDegradeStep), 1u)
      << "the ladder's moves should be on the black box";
  // Ring bookkeeping: everything kept is the tail of one seq stream.
  EXPECT_EQ(report.flight.recorded,
            report.flight.dropped + report.flight.events.size());
  for (std::size_t i = 1; i < report.flight.events.size(); ++i)
    EXPECT_LT(report.flight.events[i - 1].seq, report.flight.events[i].seq);

  // The dump renders as a complete generic.flight.v1 document.
  const std::string json = rtrace::flight_to_json(report.flight);
  EXPECT_NE(json.find("\"schema\": \"generic.flight.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"fault_inject\""), std::string::npos);
}

// A passing run still records (the box is always armed), and the
// orchestrator restores whatever sink switches the caller had: running a
// campaign must not leave tracing on behind the tools' backs.
TEST(ChaosFlightRecorder, OrchestratorArmsAndRestoresSinks) {
  rtrace::set_trace(false);
  rtrace::set_flight(false);
  auto spec = find_scenario("diurnal", true);
  ASSERT_TRUE(spec.has_value());
  const ChaosReport report = run(*spec, "restore");
  EXPECT_TRUE(report.passed);
  EXPECT_GT(report.flight.recorded, 0u);
  EXPECT_FALSE(rtrace::trace_enabled());
  EXPECT_FALSE(rtrace::flight_enabled());
  // opt.rtrace was false, so the full log was not collected.
  EXPECT_TRUE(report.rtrace.events.empty());
}

// With opt.rtrace the full causal stream rides the report, and the serve
// block's burn alerts mirror the kSloAlert events in it.
TEST(ChaosFlightRecorder, RtraceOptionCapturesTheFullStream) {
  auto spec = find_scenario("drift_under_overload", true);
  ASSERT_TRUE(spec.has_value());
  RunOptions opt;
  opt.seed = 0xC4A05;
  opt.work_dir = scratch_dir("full");
  opt.rtrace = true;
  ThreadPool pool(2);
  const ChaosReport report = run_scenario(*spec, opt, pool);
  ASSERT_FALSE(report.rtrace.events.empty());
  std::size_t slo_events = 0;
  for (const auto& e : report.rtrace.events)
    if (e.kind == rtrace::EventKind::kSloAlert) ++slo_events;
  EXPECT_EQ(slo_events, report.serve.slo_alerts.size())
      << "report alerts and rtrace kSloAlert edges should agree";
  rtrace::set_trace(false);
}

#else  // GENERIC_OBS_ENABLED == 0

TEST(ChaosFlightRecorder, ObsOffRunsStillPassWithEmptyBox) {
  auto spec = find_scenario("diurnal", true);
  ASSERT_TRUE(spec.has_value());
  const ChaosReport report = run(*spec, "obsoff");
  EXPECT_TRUE(report.passed);
  EXPECT_TRUE(report.flight.events.empty());
  const std::string json = rtrace::flight_to_json(report.flight);
  EXPECT_NE(json.find("\"schema\": \"generic.flight.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"obs_enabled\": false"), std::string::npos);
}

#endif  // GENERIC_OBS_ENABLED

}  // namespace
}  // namespace generic::chaos
