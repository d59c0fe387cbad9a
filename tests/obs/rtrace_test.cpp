// Recorder-level tests for the request tracer (obs/rtrace.h): flight-ring
// wrap/dropped accounting, trace-log capture, switch gating, the
// empty-but-valid exporter contract that -DGENERIC_OBS=OFF builds (and
// runs without --rtrace) rely on, and the byte pin of the Chrome view.
#include "obs/rtrace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "golden.h"

namespace generic::obs::rtrace {
namespace {

class RtraceTest : public ::testing::Test {
 protected:
  void SetUp() override { wipe(); }
  void TearDown() override { wipe(); }
  static void wipe() {
    set_trace(false);
    set_flight(false);
    set_flight_capacity(kDefaultFlightCapacity);
    reset();
  }
};

void record_n(std::size_t n, std::uint64_t base_vt = 0) {
  for (std::size_t i = 0; i < n; ++i)
    record(EventKind::kPredict, base_vt + i, i, 1, 0,
           static_cast<std::int64_t>(i));
}

TEST_F(RtraceTest, EventKindNamesCoverTheSchema) {
  ASSERT_EQ(static_cast<std::size_t>(EventKind::kFleetShed) + 1,
            kNumEventKinds);
  EXPECT_EQ(event_kind_name(EventKind::kAdmit), "admit");
  EXPECT_EQ(event_kind_name(EventKind::kSloAlert), "slo_alert");
  EXPECT_EQ(event_kind_name(EventKind::kEncoderScrub), "encoder_scrub");
  EXPECT_EQ(event_kind_name(EventKind::kNetAccept), "net_accept");
  EXPECT_EQ(event_kind_name(EventKind::kFleetShed), "fleet_shed");
  for (std::size_t i = 0; i < kNumEventKinds; ++i)
    EXPECT_FALSE(event_kind_name(static_cast<EventKind>(i)).empty()) << i;
}

#if GENERIC_OBS_ENABLED

TEST_F(RtraceTest, SinksOffRecordsNothing) {
  record_n(10);
  EXPECT_TRUE(trace_log().events.empty());
  EXPECT_EQ(flight_log().recorded, 0u);
}

TEST_F(RtraceTest, TraceLogKeepsEverythingInOrder) {
  set_trace(true);
  record_n(100);
  const TraceLog log = trace_log();
  ASSERT_EQ(log.events.size(), 100u);
  EXPECT_EQ(log.dropped, 0u);
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    EXPECT_EQ(log.events[i].seq, i);
    EXPECT_EQ(log.events[i].vt_us, i);
    EXPECT_EQ(log.events[i].request, i);
  }
}

TEST_F(RtraceTest, FlightRingWrapsKeepsLastNAndCountsDrops) {
  set_flight_capacity(8);
  set_flight(true);
  record_n(8 + 5);  // capacity k, record k + m
  const FlightLog log = flight_log();
  EXPECT_EQ(log.capacity, 8u);
  EXPECT_EQ(log.recorded, 13u);
  EXPECT_EQ(log.dropped, 5u);  // the m oldest were overwritten
  ASSERT_EQ(log.events.size(), 8u);
  // Oldest first, and seq is the FULL-stream position (pre-wrap numbering).
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(log.events[i].seq, 5 + i) << "slot " << i;
}

TEST_F(RtraceTest, FlightRingBelowCapacityDropsNothing) {
  set_flight_capacity(16);
  set_flight(true);
  record_n(7);
  const FlightLog log = flight_log();
  EXPECT_EQ(log.recorded, 7u);
  EXPECT_EQ(log.dropped, 0u);
  ASSERT_EQ(log.events.size(), 7u);
  EXPECT_EQ(log.events.front().seq, 0u);
  EXPECT_EQ(log.events.back().seq, 6u);
}

TEST_F(RtraceTest, BothSinksShareOneSeqStream) {
  set_trace(true);
  set_flight_capacity(4);
  set_flight(true);
  record_n(10);
  const TraceLog t = trace_log();
  const FlightLog f = flight_log();
  ASSERT_EQ(t.events.size(), 10u);
  ASSERT_EQ(f.events.size(), 4u);
  // The ring's survivors are literally the tail of the trace log.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(f.events[i], t.events[6 + i]);
}

TEST_F(RtraceTest, SetFlightCapacityDropsContentsResetZeroesCounters) {
  set_flight_capacity(4);
  set_flight(true);
  record_n(6);
  set_flight_capacity(8);  // resize drops current contents
  EXPECT_EQ(flight_capacity(), 8u);
  EXPECT_TRUE(flight_log().events.empty());
  record_n(3, 100);
  reset();
  EXPECT_TRUE(flight_log().events.empty());
  EXPECT_EQ(flight_log().recorded, 0u);
  record_n(1);
  EXPECT_EQ(trace_log().events.size(), 0u);  // trace sink still off
  EXPECT_EQ(flight_log().events.front().seq, 0u);  // seq restarted
}

TEST_F(RtraceTest, RtraceJsonRendersEventsAndNullRequests) {
  set_trace(true);
  record(EventKind::kAdmit, 10, 7, 2, 1, 3);
  record(EventKind::kSwapInstall, 20, kNoRequest, 3, 0, 0);
  const std::string json = rtrace_to_json();
  EXPECT_NE(json.find("\"schema\": \"generic.rtrace.v1\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"obs_enabled\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"recorded\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\": \"admit\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"request\": 7"), std::string::npos) << json;
  // Engine-scoped events render an explicit null, not the sentinel value.
  EXPECT_NE(json.find("\"request\": null"), std::string::npos) << json;
  EXPECT_EQ(json.find("18446744073709551615"), std::string::npos) << json;
}

TEST_F(RtraceTest, ChromeJsonLinksMultiEventRequestsWithSpansAndFlows) {
  set_trace(true);
  record(EventKind::kAdmit, 10, 1, 1, 0, 0);
  record(EventKind::kEncode, 20, 1, 1, 0, 512);
  record(EventKind::kPredict, 30, 1, 1, 0, 2);
  record(EventKind::kDriftAlarm, 40);  // single, engine-scoped: no span
  const std::string json = rtrace_to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("generic.rtrace.chrome.v1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << json;
  // Async request span and the flow arrows stitching its three slices.
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos) << json;
}

TEST_F(RtraceTest, FlightJsonCarriesWrapAccounting) {
  set_flight_capacity(4);
  set_flight(true);
  record_n(6);
  const std::string json = flight_to_json();
  EXPECT_NE(json.find("\"schema\": \"generic.flight.v1\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"capacity\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"recorded\": 6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\": 2"), std::string::npos) << json;
}

#else  // GENERIC_OBS_ENABLED == 0

TEST_F(RtraceTest, ObsOffRecordIsInertButSwitchesStillWork) {
  set_trace(true);
  set_flight(true);
  record_n(10);
  EXPECT_TRUE(trace_log().events.empty());
  EXPECT_EQ(flight_log().recorded, 0u);
}

#endif  // GENERIC_OBS_ENABLED

TEST(RtraceChromeGolden, HandBuiltLogMatchesCommittedFixture) {
  // Every row shape the Chrome view has: an engine-scoped event, a
  // one-event request (a slice, no span or flow rows), a multi-event
  // request (the b/s/t/f/e phases, "bp": "e" on the last arrow), and a
  // nonzero dropped count.
  TraceLog log;
  log.events = {
      {0, 5, EventKind::kDriftAlarm, kNoRequest, 1, 0, 1250},
      {1, 10, EventKind::kAdmit, 1, 1, 0, 0},
      {2, 12, EventKind::kShed, 2, 1, 0, 0},
      {3, 20, EventKind::kEncode, 1, 1, 1, 2048},
      {4, 30, EventKind::kPredict, 1, 1, 1, 3},
      {5, 40, EventKind::kSwapInstall, kNoRequest, 2, 1, -1},
  };
  log.dropped = 7;
  std::string got = rtrace_to_chrome_json(log);
#if !GENERIC_OBS_ENABLED
  // The one byte that depends on the build: the fixture is rendered with
  // obs on.
  const std::string off = "\"obs_enabled\": false";
  got.replace(got.find(off), off.size(), "\"obs_enabled\": true");
#endif
  golden::expect_golden(
      got, std::string(GENERIC_GOLDEN_DIR) + "/rtrace_chrome.json");
  if (golden::updating()) GTEST_SKIP() << "fixture regenerated";
}

// Empty logs must still render complete, schema-stamped documents — this
// is what --rtrace/--flight-dump emit under -DGENERIC_OBS=OFF (and what
// any run that recorded nothing emits), so downstream parsers never see a
// missing file or truncated JSON.
TEST_F(RtraceTest, EmptyLogsExportValidDocuments) {
  const std::string r = rtrace_to_json();
  EXPECT_NE(r.find("\"schema\": \"generic.rtrace.v1\""), std::string::npos);
  EXPECT_NE(r.find("\"events\": []"), std::string::npos) << r;
  EXPECT_NE(r.find("\"recorded\": 0"), std::string::npos) << r;

  const std::string f = flight_to_json();
  EXPECT_NE(f.find("\"schema\": \"generic.flight.v1\""), std::string::npos);
  EXPECT_NE(f.find("\"events\": []"), std::string::npos) << f;

  const std::string c = rtrace_to_chrome_json();
  EXPECT_NE(c.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(c.find("generic.rtrace.chrome.v1"), std::string::npos);
  const bool says_on = r.find("\"obs_enabled\": true") != std::string::npos;
  EXPECT_EQ(says_on, GENERIC_OBS_ENABLED != 0);
}

}  // namespace
}  // namespace generic::obs::rtrace
