#include "obs/export.h"

#include <cstdio>
#include <map>
#include <ranges>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace generic::obs {
namespace {

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB
#endif
#else
  return 0;
#endif
}

const StageStats* find_stage(const MetricsSnapshot& snap,
                             std::string_view name) {
  for (const auto& [n, s] : snap.stages)
    if (n == name) return &s;
  return nullptr;
}

std::uint64_t find_counter(const MetricsSnapshot& snap,
                           std::string_view name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

/// Nanoseconds as the trace format's microseconds, three decimals.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) * 1e-3);
  out += buf;
}

}  // namespace

MetricsSnapshot collect_metrics() {
  Registry& reg = Registry::instance();
  MetricsSnapshot snap;
  snap.wall_time_s = ns_to_s(reg.now_ns());
  snap.peak_rss_bytes = peak_rss_bytes();
  snap.dropped_spans = reg.dropped_spans();
  snap.counters = reg.counter_values();
  snap.gauges = reg.gauge_values();
  snap.histograms = reg.histogram_values();
  snap.stages = reg.stage_stats();
  return snap;
}

std::string metrics_to_json(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(2048);
  json::Object doc(out, 2);
  doc.str("schema", "generic.metrics.v1")
      .boolean("obs_enabled", snap.enabled)
      .dbl("wall_time_s", snap.wall_time_s)
      .u64("peak_rss_bytes", snap.peak_rss_bytes)
      .u64("dropped_spans", snap.dropped_spans);
  auto u64_map = [&](std::string_view key, const auto& values) {
    json::Object map(doc.key(key), 4);
    for (const auto& [name, v] : values) map.u64(name, v);
    map.close();
  };
  u64_map("counters", snap.counters);
  u64_map("gauges", snap.gauges);

  // Histograms render their summary first (count/sum/percentiles) and then
  // only the occupied buckets as {"bit_width": count}, so sparse
  // distributions stay compact while the full shape remains recoverable.
  json::Object histograms(doc.key("histograms"), 4);
  for (const auto& [name, h] : snap.histograms)
    json::histogram(histograms.key(name), h);
  histograms.close();

  json::list(doc.key("stages"), snap.stages, 4, [&](const auto& stage) {
    const auto& [name, s] = stage;
    json::Object(out)
        .str("name", name)
        .u64("calls", s.calls)
        .dbl("total_s", ns_to_s(s.total_ns))
        .dbl("mean_s", s.calls == 0 ? 0.0
                                    : ns_to_s(s.total_ns) /
                                          static_cast<double>(s.calls))
        .dbl("min_s", ns_to_s(s.min_ns))
        .dbl("max_s", ns_to_s(s.max_ns))
        .close();
  });

  // Derived throughput: emitted only when both the counter and the stage
  // that times it are present, so consumers can rely on presence == valid.
  struct Derived {
    const char* key;
    const char* counter;
    const char* stage;
  };
  static constexpr Derived kDerived[] = {
      {"encode.samples_per_s", "encode.samples", "encode.batch"},
      {"predict.queries_per_s", "predict.queries", "predict.batch"},
      {"train.samples_per_s", "train.samples", "train.batch"},
      {"campaign.trials_per_s", "campaign.trials", "campaign.trial"},
  };
  json::Object derived(doc.key("derived"), 4);
  for (const auto& d : kDerived) {
    const StageStats* s = find_stage(snap, d.stage);
    const std::uint64_t c = find_counter(snap, d.counter);
    if (s == nullptr || s->total_ns == 0 || c == 0) continue;
    derived.dbl(d.key, static_cast<double>(c) / ns_to_s(s->total_ns));
  }
  derived.close();

  if (!snap.pool.has_value()) {
    doc.key("thread_pool") += "null";
  } else {
    const PoolStats& p = *snap.pool;
    json::Object pool(doc.key("thread_pool"), 4);
    pool.u64("lanes", p.lanes)
        .dbl("wall_s", ns_to_s(p.wall_ns))
        .u64("jobs", p.jobs)
        .u64("chunks_executed", p.chunks)
        .u64("max_chunks_per_job", p.max_chunks_per_job);
    json::list(pool.key("workers"),
               std::views::iota(std::size_t{0}, p.per_lane.size()), 6,
               [&](std::size_t i) {
                 const auto& lane = p.per_lane[i];
                 json::Object(out)
                     .u64("lane", i)
                     .dbl("busy_s", ns_to_s(lane.busy_ns))
                     .dbl("idle_s", ns_to_s(p.wall_ns > lane.busy_ns
                                                ? p.wall_ns - lane.busy_ns
                                                : 0))
                     .u64("chunks", lane.chunks)
                     .close();
               });
    pool.close();
  }

  if (!snap.hardware.has_value()) {
    doc.key("hardware") += "null";
  } else {
    json::Object(doc.key("hardware"))
        .dbl("energy_j", snap.hardware->energy_j)
        .dbl("elapsed_s", snap.hardware->elapsed_s)
        .u64("cycles", snap.hardware->cycles)
        .close();
  }
  doc.close();
  out += '\n';
  return out;
}

std::string metrics_to_json_line(const MetricsSnapshot& snapshot) {
  // The pretty renderer escapes newlines inside strings, so every literal
  // '\n' in its output is structural whitespace: dropping it together with
  // the indentation that follows compacts without a JSON parser.
  const std::string pretty = metrics_to_json(snapshot);
  std::string out;
  out.reserve(pretty.size());
  std::size_t i = 0;
  while (i < pretty.size()) {
    const char c = pretty[i];
    if (c == '\n') {
      ++i;
      while (i < pretty.size() && pretty[i] == ' ') ++i;
      continue;
    }
    out += c;
    ++i;
  }
  out += '\n';
  return out;
}

std::string trace_to_json() {
  Registry& reg = Registry::instance();
  const auto events = reg.trace_events();
  std::string out;
  out.reserve(256 + events.size() * 96);
  json::ChromeTrace doc(out);
  // Only tracks that carry a span appear, numbered densely in track order,
  // so the document does not depend on which threads the process ran
  // before (idle pool workers, earlier tests). Events come sorted by track.
  std::vector<std::uint32_t> tids;  // dense tid -> registry track
  for (const auto& e : events)
    if (tids.empty() || tids.back() != e.track) tids.push_back(e.track);
  const auto named = reg.track_names();
  std::map<std::uint32_t, std::string> names(named.begin(), named.end());
  for (std::size_t t = 0; t < tids.size(); ++t)
    doc.thread_name(t, names[tids[t]]);
  std::size_t tid = 0;
  for (const auto& e : events) {
    while (tids[tid] != e.track) ++tid;
    json::Object o(doc.row());
    o.str("ph", "X")
        .u64("pid", 1)
        .u64("tid", tid)
        .str("name", e.name)
        .str("cat", "generic");
    append_us(o.key("ts"), e.start_ns);
    append_us(o.key("dur"), e.end_ns - e.start_ns);
    if (e.num_args > 0) {
      json::Object args(o.key("args"));
      for (std::uint32_t i = 0; i < e.num_args; ++i)
        args.key(e.args[i].key) += std::to_string(e.args[i].value);
      args.close();
    }
    o.close();
  }
  json::Object(doc.other_data())
      .str("schema", "generic.trace.v1")
      .u64("dropped_spans", reg.dropped_spans())
      .close();
  doc.close();
  return out;
}

Session::Session(std::string trace_path, std::string metrics_path)
    : trace_path_(std::move(trace_path)),
      metrics_path_(std::move(metrics_path)) {
  if (!trace_path_.empty() || !metrics_path_.empty())
    set_current_thread_name("main");
  if (!trace_path_.empty()) set_tracing(true);
  if (!metrics_path_.empty()) set_metrics(true);
}

void Session::stream_metrics_every(double period_s) {
  if (metrics_path_.empty() || period_s <= 0.0 || streaming_) return;
  // Truncate once so the stream starts clean; the periodic thread and the
  // final write both append.
  try {
    write_file(metrics_path_, "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs: cannot open metrics stream: %s\n", e.what());
    return;
  }
  streaming_ = true;
  streamer_ = std::thread([this, period_s] {
    set_current_thread_name("obs-metrics-stream");
    periodic_loop(period_s);
  });
}

void Session::periodic_loop(double period_s) {
  const auto period = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(period_s));
  std::unique_lock<std::mutex> lock(stream_mu_);
  while (!stream_stop_) {
    if (stream_cv_.wait_for(lock, period, [this] { return stream_stop_; }))
      break;
    lock.unlock();
    try {
      append_file(metrics_path_, metrics_to_json_line(collect_metrics()));
    } catch (const std::exception&) {
      // Keep streaming; the final snapshot still reports at destruction.
    }
    lock.lock();
  }
}

Session::~Session() {
  if (streamer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(stream_mu_);
      stream_stop_ = true;
    }
    stream_cv_.notify_all();
    streamer_.join();
  }
  try {
    if (!trace_path_.empty()) {
      write_file(trace_path_, trace_to_json());
      std::fprintf(stderr, "trace written to %s\n", trace_path_.c_str());
    }
    if (!metrics_path_.empty()) {
      MetricsSnapshot snap = collect_metrics();
      snap.pool = std::move(pool_);
      snap.hardware = hardware_;
      if (streaming_) {
        // In streaming mode the file is a JSONL stream: append the final
        // snapshot as one more line instead of replacing it with the
        // pretty single-object document.
        append_file(metrics_path_, metrics_to_json_line(snap));
      } else {
        write_file(metrics_path_, metrics_to_json(snap));
      }
      std::fprintf(stderr, "metrics written to %s\n", metrics_path_.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs: export failed: %s\n", e.what());
  }
  set_tracing(false);
  set_metrics(false);
}

}  // namespace generic::obs
