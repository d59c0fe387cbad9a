// Tests for the exporters (src/obs/export.h): the generic.metrics.v1 JSON
// field order, the Chrome trace-event shape, derived-throughput emission
// rules, and Session file writing / flag lifecycle.
#include "obs/export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace generic::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class ObsExport : public ::testing::Test {
 protected:
  void SetUp() override {
    set_tracing(false);
    set_metrics(false);
    Registry::instance().reset();
  }
  void TearDown() override {
    set_tracing(false);
    set_metrics(false);
    Registry::instance().reset();
  }
};

TEST_F(ObsExport, MetricsJsonHasStableSchemaAndFieldOrder) {
  MetricsSnapshot snap;
  snap.wall_time_s = 1.5;
  snap.peak_rss_bytes = 1024;
  snap.dropped_spans = 0;
  snap.counters = {{"encode.samples", 200}};
  snap.gauges = {{"pool.max_chunks_per_job", 4}};
  StageStats st;
  st.calls = 2;
  st.total_ns = 2'000'000'000ull;  // 2 s
  st.min_ns = 900'000'000ull;
  st.max_ns = 1'100'000'000ull;
  snap.stages = {{"encode.batch", st}};

  const std::string json = metrics_to_json(snap);
  const char* keys_in_order[] = {
      "\"schema\": \"generic.metrics.v1\"", "\"obs_enabled\"",
      "\"wall_time_s\"",                    "\"peak_rss_bytes\": 1024",
      "\"dropped_spans\": 0",               "\"counters\"",
      "\"encode.samples\": 200",            "\"gauges\"",
      "\"pool.max_chunks_per_job\": 4",     "\"stages\"",
      "\"encode.batch\"",                   "\"calls\": 2",
      "\"total_s\": 2",                     "\"mean_s\": 1",
      "\"min_s\": 0.9",                     "\"max_s\": 1.1",
      "\"derived\"",                        "\"thread_pool\"",
  };
  std::size_t pos = 0;
  for (const char* key : keys_in_order) {
    const std::size_t found = json.find(key, pos);
    ASSERT_NE(found, std::string::npos) << "missing or out of order: " << key
                                        << "\n" << json;
    pos = found;
  }
  // encode.samples counter + encode.batch stage present => derived rate.
  EXPECT_NE(json.find("\"encode.samples_per_s\": 100"), std::string::npos)
      << json;
  // No pool stats attached => explicit null, not an empty object.
  EXPECT_NE(json.find("\"thread_pool\": null"), std::string::npos) << json;
}

TEST_F(ObsExport, DerivedRatesOnlyEmittedWhenBothSidesPresent) {
  MetricsSnapshot snap;
  snap.counters = {{"predict.queries", 50}};  // counter without its stage
  StageStats st;
  st.calls = 1;
  st.total_ns = 1'000'000'000ull;
  snap.stages = {{"train.batch", st}};  // stage without its counter
  const std::string json = metrics_to_json(snap);
  EXPECT_EQ(json.find("per_s"), std::string::npos) << json;
}

TEST_F(ObsExport, PoolStatsBlockListsEveryLane) {
  MetricsSnapshot snap;
  PoolStats pool;
  pool.lanes = 2;
  pool.wall_ns = 3'000'000'000ull;
  pool.jobs = 5;
  pool.chunks = 10;
  pool.max_chunks_per_job = 2;
  pool.per_lane = {{1'000'000'000ull, 6}, {500'000'000ull, 4}};
  snap.pool = pool;
  const std::string json = metrics_to_json(snap);
  EXPECT_NE(json.find("\"lanes\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"jobs\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"chunks_executed\": 10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_chunks_per_job\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lane\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lane\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"busy_s\": 1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"busy_s\": 0.5,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"chunks\": 6"), std::string::npos) << json;
}

TEST_F(ObsExport, TraceJsonIsChromeTraceShaped) {
  Registry& reg = Registry::instance();
  set_tracing(true);
  set_current_thread_name("obs-export-test");
  reg.record_span("test.span", reg.now_ns(), reg.now_ns() + 1000);
  const std::string json = trace_to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"obs-export-test\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"test.span\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("generic.trace.v1"), std::string::npos) << json;
}

TEST_F(ObsExport, TraceJsonRendersSpanArgsInRecordedOrder) {
  Registry& reg = Registry::instance();
  set_tracing(true);
  const std::uint64_t t0 = reg.now_ns();
  reg.record_span("swap.span", t0, t0 + 1000, {{"version", 3}, {"rung", 2}});
  const std::string json = trace_to_json();
  EXPECT_NE(json.find("\"name\": \"swap.span\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\": {\"version\": 3, \"rung\": 2}"),
            std::string::npos)
      << json;
}

TEST_F(ObsExport, SpanWithoutArgsRendersNoArgsObject) {
  Registry& reg = Registry::instance();
  set_tracing(true);
  const std::uint64_t t0 = reg.now_ns();
  reg.record_span("plain.span", t0, t0 + 1000);
  const std::string json = trace_to_json();
  const std::size_t at = json.find("\"name\": \"plain.span\"");
  ASSERT_NE(at, std::string::npos) << json;
  // The rest of this trace event (up to its closing brace) has no "args"
  // object; only metadata events carry one.
  const std::string event = json.substr(at, json.find('}', at) - at);
  EXPECT_EQ(event.find("\"args\""), std::string::npos) << json;
}

TEST_F(ObsExport, SpanArgsBeyondMaxAreDroppedAtRecordTime) {
  Registry& reg = Registry::instance();
  set_tracing(true);
  const SpanArg many[] = {{"a0", 0}, {"a1", 1}, {"a2", 2},
                          {"a3", 3}, {"a4", 4}, {"a5", 5}};
  const std::uint64_t t0 = reg.now_ns();
  reg.record_span("many.span", t0, t0 + 1000, many, 6);
  const std::string json = trace_to_json();
  EXPECT_NE(json.find("\"a3\": 3"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"a4\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"a5\""), std::string::npos) << json;
}

TEST_F(ObsExport, ScopedSpanMacroAttachesArgs) {
  set_tracing(true);
  {
    GENERIC_SPAN_ARGS("test.macro_span", {"batch", 7}, {"epoch", 1});
  }
  const std::string json = trace_to_json();
#if GENERIC_OBS_ENABLED
  EXPECT_NE(json.find("\"name\": \"test.macro_span\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\": {\"batch\": 7, \"epoch\": 1}"),
            std::string::npos)
      << json;
#else
  EXPECT_EQ(json.find("test.macro_span"), std::string::npos) << json;
#endif
}

TEST_F(ObsExport, SessionEnablesCollectsAndWritesFiles) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/obs_session_trace.json";
  const std::string metrics_path = dir + "/obs_session_metrics.json";
  {
    Session session(trace_path, metrics_path);
#if GENERIC_OBS_ENABLED
    EXPECT_TRUE(tracing_enabled());
    EXPECT_TRUE(metrics_enabled());
#endif
    GENERIC_SPAN("test.session_span");
    GENERIC_COUNTER_ADD("test.session_counter", 1);
  }
  EXPECT_FALSE(tracing_enabled());
  EXPECT_FALSE(metrics_enabled());

  const std::string trace = slurp(trace_path);
  const std::string metrics = slurp(metrics_path);
  ASSERT_FALSE(trace.empty());
  ASSERT_FALSE(metrics.empty());
  EXPECT_NE(metrics.find("\"schema\": \"generic.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
#if GENERIC_OBS_ENABLED
  EXPECT_NE(trace.find("test.session_span"), std::string::npos);
  EXPECT_NE(metrics.find("\"test.session_counter\": 1"), std::string::npos);
  EXPECT_NE(metrics.find("\"obs_enabled\": true"), std::string::npos);
#else
  EXPECT_NE(metrics.find("\"obs_enabled\": false"), std::string::npos);
#endif
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST_F(ObsExport, SessionWithoutPathsWritesNothingAndStaysOff) {
  { Session session("", ""); }
  EXPECT_FALSE(tracing_enabled());
  EXPECT_FALSE(metrics_enabled());
  EXPECT_TRUE(Registry::instance().trace_events().empty());
}

TEST_F(ObsExport, HistogramsRenderSummaryAndSparseBuckets) {
  MetricsSnapshot snap;
  HistogramSnapshot h;
  h.count = 3;
  h.sum = 1102;
  h.buckets[7] = 2;    // two values near 100
  h.buckets[10] = 1;   // one near 1000
  snap.histograms = {{"serve.latency_us", h}};
  const std::string json = metrics_to_json(snap);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"serve.latency_us\": {\"count\": 3, \"sum\": 1102, "
                      "\"p50\": 127, \"p95\": 1023, \"p99\": 1023, "
                      "\"buckets\": {\"7\": 2, \"10\": 1}}"),
            std::string::npos)
      << json;
  // Histograms sit between gauges and stages in the fixed field order.
  EXPECT_LT(json.find("\"gauges\""), json.find("\"histograms\""));
  EXPECT_LT(json.find("\"histograms\""), json.find("\"stages\""));
}

TEST_F(ObsExport, HardwareBlockNullUnlessInjected) {
  MetricsSnapshot snap;
  EXPECT_NE(metrics_to_json(snap).find("\"hardware\": null"),
            std::string::npos);
  HardwareStats hw;
  hw.energy_j = 0.25;
  hw.elapsed_s = 1.5;
  hw.cycles = 123456;
  snap.hardware = hw;
  const std::string json = metrics_to_json(snap);
  EXPECT_NE(json.find("\"hardware\": {\"energy_j\": 0.25, \"elapsed_s\": 1.5, "
                      "\"cycles\": 123456}"),
            std::string::npos)
      << json;
  // hardware renders after thread_pool, closing the document.
  EXPECT_LT(json.find("\"thread_pool\""), json.find("\"hardware\""));
}

TEST_F(ObsExport, JsonLineIsOneCompactLine) {
  MetricsSnapshot snap;
  snap.counters = {{"a", 1}, {"b", 2}};
  const std::string line = metrics_to_json_line(snap);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1);  // exactly one newline
  EXPECT_NE(line.find("\"schema\": \"generic.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(line.find("\"a\": 1"), std::string::npos);
}

TEST_F(ObsExport, SessionStreamsPeriodicSnapshotLines) {
  const std::string path = "obs_stream_test_metrics.jsonl";
  {
    Session session("", path);
    session.stream_metrics_every(0.02);
    GENERIC_COUNTER_ADD("test.stream_counter", 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  }
  const std::string content = slurp(path);
  std::size_t lines = 0;
  std::istringstream in(content);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    // Every line is a complete one-line generic.metrics.v1 document.
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_EQ(line.rfind("{\"schema\": \"generic.metrics.v1\"", 0), 0u)
        << line;
    EXPECT_EQ(line.back(), '}') << line;
  }
  // At least one periodic line plus the final snapshot at destruction.
  EXPECT_GE(lines, 2u);
#if GENERIC_OBS_ENABLED
  EXPECT_NE(content.find("\"test.stream_counter\": 3"), std::string::npos);
#endif
  std::remove(path.c_str());
}

TEST_F(ObsExport, StreamingIgnoredWithoutMetricsPath) {
  Session session("", "");
  session.stream_metrics_every(0.01);  // must be a harmless no-op
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "\"plain\"");
  EXPECT_EQ(json_escape("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_escape("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_escape("line\nbreak\ttab\rret"),
            "\"line\\nbreak\\ttab\\rret\"");
  EXPECT_EQ(json_escape(std::string("bell\x07") + "\x1f"),
            "\"bell\\u0007\\u001f\"");
  EXPECT_EQ(json_escape("\b\f"), "\"\\b\\f\"");
}

TEST(JsonEscape, HighBytesDoNotSignExtend) {
  // A 0x80..0xff byte run through a signed char used to sign-extend into
  // an 8-hex-digit escape ending in ffXX; it must stay either literal
  // (valid UTF-8 continuation bytes pass through) or a 4-digit escape.
  std::string s;
  s.push_back(static_cast<char>(0xff));
  const std::string out = json_escape(s);
  EXPECT_EQ(out.find("ffffff"), std::string::npos) << out;
}

TEST(JsonEscape, AppendVariantAppendsWithoutQuotes) {
  std::string out = "prefix:";
  append_json_escaped(out, "a\"b");
  EXPECT_EQ(out, "prefix:a\\\"b");
}

TEST(JsonWriter, BlockAndInlineLayouts) {
  std::string out;
  json::Object doc(out, 2);
  doc.str("name", "a\"b").u64("n", 7).dbl("x", 0.1).boolean("ok", true);
  json::list(doc.key("empty"), std::vector<int>{}, 4, [](int) {});
  json::list(doc.key("rows"), std::vector<int>{1, 2}, 4, [&](int v) {
    json::Object(out).u64("v", static_cast<std::uint64_t>(v)).close();
  });
  json::list(doc.key("flat"), std::vector<int>{3, 4}, 0,
             [&](int v) { out += std::to_string(v); });
  json::Object wrapped(doc.key("wrapped"));
  wrapped.u64("a", 1).wrap(3).u64("b", 2).close();
  doc.close();
  EXPECT_EQ(out,
            "{\n"
            "  \"name\": \"a\\\"b\",\n"
            "  \"n\": 7,\n"
            "  \"x\": 0.1,\n"
            "  \"ok\": true,\n"
            "  \"empty\": [],\n"
            "  \"rows\": [\n"
            "    {\"v\": 1},\n"
            "    {\"v\": 2}\n"
            "  ],\n"
            "  \"flat\": [3, 4],\n"
            "  \"wrapped\": {\"a\": 1,\n"
            "   \"b\": 2}\n"
            "}");
}

TEST(JsonWriter, DoublesUseNineSignificantDigits) {
  std::string out;
  json::append_double(out, 1.0 / 3.0);
  out += ' ';
  json::append_double(out, 1e-12);
  out += ' ';
  json::append_double(out, 4095.0);
  EXPECT_EQ(out, "0.333333333 1e-12 4095");
}

TEST(WriteFile, ReplacesTheFileWithTheExactBytes) {
  const std::string path = testing::TempDir() + "obs_write_file_test.json";
  write_file(path, "a much longer first document\n");
  write_file(path, std::string("{}\n\0x", 5));
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), std::string("{}\n\0x", 5));
  std::remove(path.c_str());
}

TEST(WriteFile, FullDeviceIsAnErrorEvenForSmallDocuments) {
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "no /dev/full on this system";
  // Far below the stream buffer size: every byte is accepted into the
  // buffer and the device refuses them only at the final flush.
  EXPECT_THROW(write_file("/dev/full", std::string(512, 'x')),
               std::runtime_error);
}

TEST(WriteFile, UnopenablePathIsAnError) {
  EXPECT_THROW(write_file(testing::TempDir() + "no/such/dir/x.json", "{}"),
               std::runtime_error);
}

TEST_F(ObsExport, CollectMetricsReportsProcessFacts) {
  set_metrics(true);
  GENERIC_COUNTER_ADD("test.collect", 2);
  const MetricsSnapshot snap = collect_metrics();
  EXPECT_EQ(snap.enabled, GENERIC_OBS_ENABLED != 0);
  EXPECT_GT(snap.peak_rss_bytes, 0u);
#if GENERIC_OBS_ENABLED
  bool found = false;
  for (const auto& [name, v] : snap.counters)
    if (name == "test.collect") {
      found = true;
      EXPECT_EQ(v, 2u);
    }
  EXPECT_TRUE(found);
#endif
}

}  // namespace
}  // namespace generic::obs
