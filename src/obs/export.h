// Exporters over the obs Registry: Chrome trace-event JSON (--trace,
// loadable in Perfetto / chrome://tracing) and the stable
// generic.metrics.v1 snapshot (--metrics). See docs/observability.md for
// the schema reference and span taxonomy.
#pragma once

#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "obs/json.h"
#include "obs/obs.h"

namespace generic::obs {

/// Hardware-model accounting (arch::GenericAsic) attached by harnesses that
/// drive the ASIC model, so hardware and software runs share one metrics
/// schema / dashboard.
struct HardwareStats {
  double energy_j = 0.0;   ///< GenericAsic::energy_j() total
  double elapsed_s = 0.0;  ///< modeled wall time at the ASIC clock
  std::uint64_t cycles = 0;  ///< AccessCounts.cycles total
};

/// Everything the metrics exporter reports, gathered at one instant.
struct MetricsSnapshot {
  double wall_time_s = 0.0;        ///< process wall time (registry epoch)
  std::uint64_t peak_rss_bytes = 0;  ///< getrusage high-water mark
  bool enabled = GENERIC_OBS_ENABLED != 0;
  std::uint64_t dropped_spans = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  std::vector<std::pair<std::string, StageStats>> stages;
  /// Detailed per-lane stats of one pool (ThreadPool::stats()), when the
  /// harness injected them; the aggregate pool.* counters are always there.
  std::optional<PoolStats> pool;
  /// ASIC-model accounting, when the harness injected it.
  std::optional<HardwareStats> hardware;
};

/// Collect a snapshot from the process-wide registry.
MetricsSnapshot collect_metrics();

/// Render the snapshot as schema `generic.metrics.v1` JSON. Field order is
/// fixed and numeric formatting locale-independent: the same snapshot
/// always renders to the same bytes.
std::string metrics_to_json(const MetricsSnapshot& snapshot);

/// Same document compacted onto a single line (newlines and indentation
/// stripped; string values are escape-encoded so this is structural, not
/// lexical). One snapshot per line is the --metrics-every stream format.
std::string metrics_to_json_line(const MetricsSnapshot& snapshot);

/// Render every recorded span as a Chrome trace-event JSON document with
/// one track per recording thread.
std::string trace_to_json();

void write_metrics_json(const std::string& path,
                        const MetricsSnapshot& snapshot);
void write_trace_json(const std::string& path);

/// RAII harness hook: construction turns collection on for the outputs that
/// were requested (empty path == not requested); destruction writes the
/// files. Usage:
///
///   obs::Session session(flags.value("--trace", ""),
///                        flags.value("--metrics", ""));
///   ...
///   session.set_pool_stats(pool.stats());   // optional detail
///
/// Write errors are reported on stderr, never thrown (the measurement must
/// not take the run down with it).
/// A long-running serving process additionally streams one complete
/// generic.metrics.v1 object per line with stream_metrics_every():
///
///   obs::Session session("", "serve_metrics.jsonl");
///   session.stream_metrics_every(2.0);   // --metrics-every=2
///
/// which turns the metrics file into a JSONL stream: a snapshot line every
/// period, plus the final snapshot as the last line at destruction (the
/// pretty single-object write is skipped in streaming mode).
class Session {
 public:
  Session(std::string trace_path, std::string metrics_path);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  void set_pool_stats(PoolStats stats) { pool_ = std::move(stats); }
  void set_hardware(HardwareStats hw) { hardware_ = hw; }

  /// Start periodic snapshot streaming to the metrics path (requires a
  /// non-empty metrics path; ignored otherwise). period_s <= 0 is ignored.
  /// Call at most once, before the work being measured.
  void stream_metrics_every(double period_s);

 private:
  void periodic_loop(double period_s);

  std::string trace_path_;
  std::string metrics_path_;
  std::optional<PoolStats> pool_;
  std::optional<HardwareStats> hardware_;

  std::thread streamer_;
  std::mutex stream_mu_;
  std::condition_variable stream_cv_;
  bool stream_stop_ = false;
  bool streaming_ = false;
};

}  // namespace generic::obs
