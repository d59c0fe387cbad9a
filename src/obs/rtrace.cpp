#include "obs/rtrace.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/json.h"

namespace generic::obs::rtrace {

std::string_view event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kAdmit: return "admit";
    case EventKind::kEnqueue: return "enqueue";
    case EventKind::kDequeue: return "dequeue";
    case EventKind::kShed: return "shed";
    case EventKind::kEncode: return "encode";
    case EventKind::kRetryAttempt: return "retry_attempt";
    case EventKind::kUpset: return "upset";
    case EventKind::kTimeout: return "timeout";
    case EventKind::kFailed: return "failed";
    case EventKind::kPredict: return "predict";
    case EventKind::kDegradeStep: return "degrade_step";
    case EventKind::kSwapFlush: return "swap_flush";
    case EventKind::kSwapInstall: return "swap_install";
    case EventKind::kRollback: return "rollback";
    case EventKind::kDriftAlarm: return "drift_alarm";
    case EventKind::kRetrainStart: return "retrain_start";
    case EventKind::kCheckpointSave: return "checkpoint_save";
    case EventKind::kFaultInject: return "fault_inject";
    case EventKind::kSloAlert: return "slo_alert";
    case EventKind::kEncoderFault: return "encoder_fault";
    case EventKind::kEncoderDetect: return "encoder_detect";
    case EventKind::kEncoderMask: return "encoder_mask";
    case EventKind::kEncoderScrub: return "encoder_scrub";
    case EventKind::kNetAccept: return "net_accept";
    case EventKind::kNetClose: return "net_close";
    case EventKind::kNetError: return "net_error";
    case EventKind::kFleetRoute: return "fleet_route";
    case EventKind::kFleetQuota: return "fleet_quota";
    case EventKind::kFleetShed: return "fleet_shed";
  }
  return "unknown";
}

namespace {

constexpr std::uint32_t kTraceBit = 1u;
constexpr std::uint32_t kFlightBit = 2u;

/// Everything behind the fast-path mask. One process-wide instance,
/// intentionally leaked like the obs Registry (tool teardown order is not
/// worth reasoning about for a diagnostics buffer).
struct State {
  std::mutex mu;
  std::uint64_t next_seq = 0;
  // Trace log.
  std::vector<Event> log;
  std::uint64_t log_dropped = 0;
  // Flight ring: `ring` is a circular buffer once full; the write cursor is
  // ring_recorded % capacity.
  std::vector<Event> ring;
  std::size_t capacity = kDefaultFlightCapacity;
  std::uint64_t ring_recorded = 0;
};

State& state() {
  static State* s = new State();
  return *s;
}

#if GENERIC_OBS_ENABLED
void set_bit(std::uint32_t bit, bool on) {
  if (on)
    detail::g_sink_mask.fetch_or(bit, std::memory_order_relaxed);
  else
    detail::g_sink_mask.fetch_and(~bit, std::memory_order_relaxed);
}
std::uint32_t mask() {
  return detail::g_sink_mask.load(std::memory_order_relaxed);
}
#else
std::uint32_t g_mask_off = 0;  // switches still "work" so flags stay valid
void set_bit(std::uint32_t bit, bool on) {
  if (on)
    g_mask_off |= bit;
  else
    g_mask_off &= ~bit;
}
std::uint32_t mask() { return g_mask_off; }
#endif

}  // namespace

#if GENERIC_OBS_ENABLED
namespace detail {

std::atomic<std::uint32_t> g_sink_mask{0};

void record_slow(EventKind kind, std::uint64_t vt_us, std::uint64_t request,
                 std::uint64_t version, std::uint32_t rung,
                 std::int64_t detail) {
  State& s = state();
  const std::uint32_t m = g_sink_mask.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(s.mu);
  Event e{s.next_seq++, vt_us, kind, request, version, rung, detail};
  if (m & kTraceBit) {
    if (s.log.size() < kMaxTraceEvents)
      s.log.push_back(e);
    else
      ++s.log_dropped;
  }
  if (m & kFlightBit) {
    if (s.ring.size() < s.capacity)
      s.ring.push_back(e);
    else
      s.ring[s.ring_recorded % s.capacity] = e;
    ++s.ring_recorded;
  }
}

}  // namespace detail
#endif  // GENERIC_OBS_ENABLED

bool trace_enabled() { return (mask() & kTraceBit) != 0; }
void set_trace(bool on) { set_bit(kTraceBit, on); }
bool flight_enabled() { return (mask() & kFlightBit) != 0; }
void set_flight(bool on) { set_bit(kFlightBit, on); }

void set_flight_capacity(std::size_t capacity) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.capacity = capacity == 0 ? 1 : capacity;
  s.ring.clear();
  s.ring.shrink_to_fit();
  s.ring_recorded = 0;
}

std::size_t flight_capacity() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.capacity;
}

void reset() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.next_seq = 0;
  s.log.clear();
  s.log_dropped = 0;
  s.ring.clear();
  s.ring_recorded = 0;
}

TraceLog trace_log() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return TraceLog{s.log, s.log_dropped};
}

FlightLog flight_log() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  FlightLog out;
  out.capacity = s.capacity;
  out.recorded = s.ring_recorded;
  out.dropped = s.ring_recorded > s.ring.size()
                    ? s.ring_recorded - s.ring.size()
                    : 0;
  out.events.reserve(s.ring.size());
  if (s.ring.size() < s.capacity) {
    out.events = s.ring;
  } else {
    // Full ring: the oldest surviving event sits at the write cursor.
    const std::size_t head =
        static_cast<std::size_t>(s.ring_recorded % s.capacity);
    for (std::size_t i = 0; i < s.ring.size(); ++i)
      out.events.push_back(s.ring[(head + i) % s.ring.size()]);
  }
  return out;
}

// ---- Exporters ------------------------------------------------------------

namespace {

constexpr bool kObsEnabled = GENERIC_OBS_ENABLED != 0;

namespace json = obs::json;

void append_events(json::Object& doc, const std::vector<Event>& events) {
  std::string& out = doc.key("events");
  json::list(out, events, 4, [&](const Event& e) {
    json::Object o(out);
    o.u64("seq", e.seq)
        .u64("vt_us", e.vt_us)
        .str("kind", event_kind_name(e.kind));
    if (e.request == kNoRequest)
      o.key("request") += "null";
    else
      o.u64("request", e.request);
    o.u64("version", e.version).u64("rung", e.rung);
    o.key("detail") += std::to_string(e.detail);
    o.close();
  });
}

}  // namespace

std::string rtrace_to_json(const TraceLog& log) {
  std::string out;
  out.reserve(128 + log.events.size() * 112);
  json::Object doc(out, 2);
  doc.str("schema", "generic.rtrace.v1")
      .boolean("obs_enabled", kObsEnabled)
      .u64("recorded", log.events.size())
      .u64("dropped", log.dropped);
  append_events(doc, log.events);
  doc.close();
  out += '\n';
  return out;
}

std::string rtrace_to_json() { return rtrace_to_json(trace_log()); }

std::string flight_to_json(const FlightLog& log) {
  std::string out;
  out.reserve(160 + log.events.size() * 112);
  json::Object doc(out, 2);
  doc.str("schema", "generic.flight.v1")
      .boolean("obs_enabled", kObsEnabled)
      .u64("capacity", log.capacity)
      .u64("recorded", log.recorded)
      .u64("dropped", log.dropped);
  append_events(doc, log.events);
  doc.close();
  out += '\n';
  return out;
}

std::string flight_to_json() { return flight_to_json(flight_log()); }

std::string rtrace_to_chrome_json(const TraceLog& log) {
  // Track layout: one named track per event kind (tid == enum value), so a
  // request's life reads as a staircase across queue/encode/predict/swap
  // tracks; the flow arrows stitch the staircase together. Timestamps are
  // VIRTUAL microseconds — the document is deterministic by construction.
  std::string out;
  out.reserve(512 + log.events.size() * 224);
  json::ChromeTrace doc(out);
  for (std::size_t k = 0; k < kNumEventKinds; ++k)
    doc.thread_name(k, "rtrace." + std::string(event_kind_name(
                                       static_cast<EventKind>(k))));

  // First/last seq per request: the async request span and the flow arrow
  // phases (s = first, t = middle, f = last) hang off them.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      bounds;
  for (const Event& e : log.events) {
    if (e.request == kNoRequest) continue;
    auto [it, inserted] = bounds.try_emplace(e.request, e.seq, e.seq);
    if (!inserted) {
      it->second.first = std::min(it->second.first, e.seq);
      it->second.second = std::max(it->second.second, e.seq);
    }
  }

  for (const Event& e : log.events) {
    const auto tid = static_cast<std::uint64_t>(e.kind);
    json::Object o(doc.row());
    o.str("ph", "X")
        .u64("pid", 1)
        .u64("tid", tid)
        .str("name", event_kind_name(e.kind))
        .str("cat", "rtrace")
        .u64("ts", e.vt_us)
        .u64("dur", 1);
    json::Object args(o.key("args"));
    args.u64("seq", e.seq);
    if (e.request != kNoRequest) args.u64("request", e.request);
    args.u64("version", e.version).u64("rung", e.rung);
    args.key("detail") += std::to_string(e.detail);
    args.close();
    o.close();

    if (e.request == kNoRequest) continue;
    const auto& [first_seq, last_seq] = bounds.at(e.request);
    if (first_seq == last_seq) continue;
    auto request_row = [&](std::string_view ph, std::string_view cat) {
      json::Object row(doc.row());
      row.str("ph", ph)
          .u64("pid", 1)
          .u64("tid", tid)
          .str("name", "request")
          .str("cat", cat)
          .u64("id", e.request)
          .u64("ts", e.vt_us);
      return row;
    };
    if (e.seq == first_seq) {
      request_row("b", "rtrace.request").close();
      request_row("s", "rtrace.flow").close();
    } else if (e.seq == last_seq) {
      request_row("f", "rtrace.flow").str("bp", "e").close();
      request_row("e", "rtrace.request").close();
    } else {
      request_row("t", "rtrace.flow").close();
    }
  }
  json::Object(doc.other_data())
      .str("schema", "generic.rtrace.chrome.v1")
      .boolean("obs_enabled", kObsEnabled)
      .u64("dropped", log.dropped)
      .close();
  doc.close();
  return out;
}

std::string rtrace_to_chrome_json() {
  return rtrace_to_chrome_json(trace_log());
}

}  // namespace generic::obs::rtrace
