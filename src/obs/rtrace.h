// Request-level causal tracing (docs/observability.md): typed lifecycle
// events stamped with virtual time, request id, model version and ladder
// rung, recorded by the serving stack at every decision point ON THE
// CONTROL THREAD. Because every emission site sits on the deterministic
// virtual-time path (serve::ServeEngine's control loop, lifecycle::Manager
// observe/poll, chaos::ChaosHook poll), the event stream — seq numbers
// included — is byte-identical across --threads and kernel backends, which
// is what makes generic.rtrace.v1 documents golden-testable artifacts.
//
// Two sinks hang off one record() call:
//  * the TRACE LOG — everything since the last reset(), up to
//    kMaxTraceEvents (overflow counts as dropped, never grows unbounded);
//    exported as generic.rtrace.v1 (--rtrace) or as a Chrome trace with
//    per-kind tracks and flow arrows linking each request across
//    queue -> encode -> predict -> retry -> swap (--rtrace-chrome).
//  * the FLIGHT RECORDER — a fixed-capacity ring keeping the LAST
//    flight_capacity() events with wrap/dropped accounting; dumped on
//    demand (--flight-dump) and automatically by the chaos orchestrator
//    when an invariant fails, exported as generic.flight.v1.
//
// Cost model (bench/obs_overhead): with both sinks off, record() is one
// relaxed atomic load and a branch. With a sink on it is a mutex-guarded
// append (the recording path is single-threaded by design, so the mutex is
// uncontended; it exists so misuse is safe, not slow-path-correct-only).
// Under -DGENERIC_OBS=OFF record() compiles to nothing and every exporter
// still emits an empty-but-valid document with "obs_enabled": false.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#ifndef GENERIC_OBS_ENABLED
#define GENERIC_OBS_ENABLED 1
#endif

namespace generic::obs::rtrace {

/// Typed lifecycle events. Order is part of the generic.rtrace.v1 schema
/// (the Chrome exporter uses the enum value as the track id); append new
/// kinds at the end.
enum class EventKind : std::uint8_t {
  kAdmit,          ///< request entered the engine (detail: pending depth)
  kEnqueue,        ///< parked in the pending queue (detail: queue depth)
  kDequeue,        ///< pulled from the pending queue (detail: queue depth)
  kShed,           ///< refused at admission (high-water)
  kEncode,         ///< service attempt began: modeled encode stage
                   ///< (detail: rung dims)
  kRetryAttempt,   ///< service attempt beyond the first (detail: attempt #)
  kUpset,          ///< transient fault corrupted the attempt (detail: attempt #)
  kTimeout,        ///< deadline expired (detail: attempt count)
  kFailed,         ///< faults persisted through every retry
  kPredict,        ///< scored in a flushed batch (detail: predicted class)
  kDegradeStep,    ///< ladder moved (detail: signed rung delta)
  kSwapFlush,      ///< pre-install flush of all deferred batches
                   ///< (detail: requests flushed)
  kSwapInstall,    ///< new model version installed
  kRollback,       ///< rejected shadow recorded, nothing installed
  kDriftAlarm,     ///< drift detector alarm edge (detail: milli drift score)
  kRetrainStart,   ///< background retrain triggered (detail: milli score)
  kCheckpointSave, ///< validated version checkpointed
  kFaultInject,    ///< chaos burst corrupted the serving model
                   ///< (detail: burst index)
  kSloAlert,       ///< burn-rate alert edge (detail: milli fast burn;
                   ///< rung field carries fired=1 / cleared=0)
  kEncoderFault,   ///< burst corrupted encoder item/level memory
                   ///< (detail: faulty rows incl. id seed)
  kEncoderDetect,  ///< guard scan flagged corrupted encoder rows
                   ///< (detail: faulty rows incl. id seed)
  kEncoderMask,    ///< serving switched to masked encodings
                   ///< (detail: faulty rows masked around)
  kEncoderScrub,   ///< corrupted rows rematerialized from seed
                   ///< (detail: rows scrubbed; rung carries verified=1/0)
  kNetAccept,      ///< ingress connection accepted (request: conn id)
  kNetClose,       ///< ingress connection closed (request: conn id;
                   ///< detail: frames parsed on the connection)
  kNetError,       ///< framed-protocol violation closed the connection
                   ///< (request: conn id; detail: ProtoError code)
  kFleetRoute,     ///< fleet admitted a request to a model engine
                   ///< (rung: priority class; detail: model index)
  kFleetQuota,     ///< fleet refused a request: tenant quota exhausted
                   ///< (rung: priority class; detail: tenant id)
  kFleetShed,      ///< fleet shed a request: weighted priority shedding
                   ///< (rung: priority class; detail: model index)
};

inline constexpr std::size_t kNumEventKinds = 29;

/// Stable short name used in generic.rtrace.v1 ("admit", "enqueue", ...).
std::string_view event_kind_name(EventKind kind);

/// Sentinel request id for engine-scoped events (swaps, alarms, alerts).
inline constexpr std::uint64_t kNoRequest = ~0ull;

/// One recorded event. `seq` is assigned at record time and counts every
/// record() call since reset() — a flight-ring entry's seq is therefore its
/// position in the full stream, even after wrap.
struct Event {
  std::uint64_t seq = 0;
  std::uint64_t vt_us = 0;           ///< virtual time of the decision
  EventKind kind = EventKind::kAdmit;
  std::uint64_t request = kNoRequest;  ///< request id, or kNoRequest
  std::uint64_t version = 0;         ///< serving model version at the event
  std::uint32_t rung = 0;            ///< ladder rung at the event
  std::int64_t detail = 0;           ///< kind-specific payload, see EventKind

  bool operator==(const Event&) const = default;
};

// ---- Runtime switches -----------------------------------------------------

/// Full-log collection for --rtrace / --rtrace-chrome.
bool trace_enabled();
void set_trace(bool on);

/// Flight-recorder ring collection for --flight-dump and chaos auto-dumps.
bool flight_enabled();
void set_flight(bool on);

/// Resize the flight ring (drops its current contents). Capacity is
/// clamped to >= 1; the default is kDefaultFlightCapacity.
void set_flight_capacity(std::size_t capacity);
std::size_t flight_capacity();

inline constexpr std::size_t kDefaultFlightCapacity = 4096;

/// Hard cap on the full trace log; overflow counts as dropped.
inline constexpr std::size_t kMaxTraceEvents = 1u << 20;

/// Drop all recorded events and zero seq/dropped counters. Switches and
/// the flight capacity are left as set.
void reset();

// ---- Recording ------------------------------------------------------------

#if GENERIC_OBS_ENABLED

namespace detail {
/// Bit 0: trace log on; bit 1: flight ring on.
extern std::atomic<std::uint32_t> g_sink_mask;
void record_slow(EventKind kind, std::uint64_t vt_us, std::uint64_t request,
                 std::uint64_t version, std::uint32_t rung,
                 std::int64_t detail);
}  // namespace detail

/// Record one event into every enabled sink. With both sinks off this is
/// one relaxed load and a branch.
inline void record(EventKind kind, std::uint64_t vt_us,
                   std::uint64_t request = kNoRequest,
                   std::uint64_t version = 0, std::uint32_t rung = 0,
                   std::int64_t detail = 0) {
  if (detail::g_sink_mask.load(std::memory_order_relaxed) == 0) return;
  detail::record_slow(kind, vt_us, request, version, rung, detail);
}

#else  // GENERIC_OBS_ENABLED == 0

inline void record(EventKind, std::uint64_t, std::uint64_t = kNoRequest,
                   std::uint64_t = 0, std::uint32_t = 0, std::int64_t = 0) {}

#endif  // GENERIC_OBS_ENABLED

// ---- Snapshots ------------------------------------------------------------

/// Point-in-time copy of the trace log.
struct TraceLog {
  std::vector<Event> events;
  std::uint64_t dropped = 0;  ///< record() calls past kMaxTraceEvents
};

/// Point-in-time copy of the flight ring, oldest event first.
struct FlightLog {
  std::vector<Event> events;   ///< at most `capacity`, oldest first
  std::size_t capacity = 0;
  std::uint64_t recorded = 0;  ///< events ever offered to the ring
  std::uint64_t dropped = 0;   ///< overwritten by wrap (recorded - kept)
};

TraceLog trace_log();
FlightLog flight_log();

// ---- Exporters ------------------------------------------------------------
//
// All exporters are pure functions of their snapshot: fixed field order,
// virtual-time timestamps only — equal logs render to equal bytes. The
// no-argument forms snapshot the live recorder.

/// Schema `generic.rtrace.v1`.
std::string rtrace_to_json(const TraceLog& log);
std::string rtrace_to_json();

/// Chrome trace-event JSON: one "X" slice per event on a per-kind track,
/// async "b"/"e" spans bracketing each request's lifetime, and "s"/"t"/"f"
/// flow arrows linking a request's events across tracks. Loadable in
/// Perfetto; otherData carries schema generic.rtrace.chrome.v1.
std::string rtrace_to_chrome_json(const TraceLog& log);
std::string rtrace_to_chrome_json();

/// Schema `generic.flight.v1`, events oldest first.
std::string flight_to_json(const FlightLog& log);
std::string flight_to_json();

}  // namespace generic::obs::rtrace
