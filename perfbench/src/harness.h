// Shared pieces of the wall-clock benchmark: options, the wall clock, the
// span recorder used by traced runs, percentiles, host readings and the
// result line every workload prints.
//
// Every timing here is taken from outside the program, around calls into
// its public functions; nothing inside src/ is instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "encoding/encoders.h"
#include "model/hdc_classifier.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Short run for the smoke test: one set-up instead of repeated ones.
  bool smoke = false;
  /// Corrupt one reference value before the correctness gate runs, so a
  /// test can prove the gate fails the run.
  bool tamper = false;
  /// Span dumps and checkpoints, relative to the repository root the
  /// harness runs from.
  std::string work_dir = ".bench_build/perfbench-runs";
};

using Clock = std::chrono::steady_clock;

inline double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Process-relative wall clock in microseconds.
double now_us();

/// One span: a layer boundary crossed by the benchmark.
struct SpanRec {
  const char* layer = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::int32_t parent = -1;  ///< index into the same recorder, -1 = root
  std::uint64_t op = 0;
};

/// In-memory span recorder for one thread. Disabled recorders cost one
/// branch per span. Spans nest through a stack: a span's parent is the
/// innermost span still open on this recorder.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  std::int32_t begin(const char* layer, std::uint64_t op);
  void end(std::int32_t index);

  const std::vector<SpanRec>& spans() const { return spans_; }

  /// Durations of the spans of one layer, in recording order, microseconds.
  std::vector<double> durations(const std::string& layer) const;

  /// Self time per layer: each span's duration minus the part its child
  /// spans cover, summed by layer name, in microseconds.
  std::map<std::string, double> self_us() const;

  /// Write every span as TSV (layer, start, end, parent, op).
  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<SpanRec> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span over a Tracer.
class Span {
 public:
  Span(Tracer& t, const char* layer, std::uint64_t op)
      : t_(t), index_(t.enabled() ? t.begin(layer, op) : -1) {}
  ~Span() {
    if (index_ >= 0) t_.end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  std::int32_t index_;
};

/// Wall times of a phase's timed units (a pass, a replay or a round), split by whether tracing was on for the unit, and the host
/// probe's time after each unit.
struct Units {
  std::vector<double> plain_us;
  std::vector<double> traced_us;
  std::vector<double> probe_cpu_us;
  std::vector<double> probe_mem_us;
  std::size_t count() const { return plain_us.size() + traced_us.size(); }
};

/// Wall times of two fixed reference loops that are none of the program's
/// work, each under a millisecond: a dependent 64-bit multiply chain that
/// touches no memory (`cpu`), and a dependent chase through 8 MiB of cache
/// lines (`mem`), more than a core's L2, so it reads the shared cache or
/// memory. Only the host moves them: `cpu` with the core's speed, `mem` with
/// contention for the shared cache and memory. A run (or a stretch of
/// units) measured while a shared host ran slow can so be told apart from a
/// change in the program.
struct HostProbe {
  double cpu_us = 0.0;
  double mem_us = 0.0;
};
HostProbe host_probe();

/// Run `unit` (which returns its wall time in microseconds) until `seconds`
/// have passed, at least once, each on the next CPU (pin_next_cpu), timing
/// the host probe after every unit. With
/// `alternate`, tracing is on for every second unit (at least one of each),
/// so traced and untraced units see the same host conditions and the ratio
/// of their medians is the tracing overhead.
Units run_units(double seconds, Tracer& tracer, bool alternate,
                const std::function<double()>& unit);

double median(std::vector<double> v);

/// Closed-loop op latencies, summarized block by block so that the
/// harness's own memory does not grow with the run (peak RSS is a metric):
/// each full block of `block` consecutive samples keeps only its median and
/// its tail, the highest nearest-rank percentile with at least 10 samples
/// beyond it (the 11th largest). The reported p50 and tail are the medians
/// of those over the blocks, so one slow stretch of a shared host moves one
/// block, not the figure. With fewer samples than one block, both come from
/// the samples there are.
class BlockStats {
 public:
  explicit BlockStats(std::size_t block) : block_(block) {}
  void add(double us);
  double p50() const;
  double tail() const;
  /// Context note stating the tail percentile, its block and sample count.
  std::string note() const;

 private:
  std::size_t block_;
  std::size_t samples_ = 0;
  std::vector<double> open_;  ///< the block being filled
  std::vector<double> medians_, tails_;
};

/// CPU counters from /proc/stat, for the steal share of an interval.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();
double steal_share(const CpuTimes& a, const CpuTimes& b);
double loadavg1();

/// Peak resident set size of this process, MiB, less the memory probe's
/// buffer, which main() makes resident before anything else runs.
double peak_rss_mb();

/// Restrict the calling thread, and every thread it creates from now on,
/// to one CPU: the next, round robin, of the CPUs the process started with.
/// run_units and setup_seconds call it before every unit and set-up, so
/// each runs on one CPU and a run spreads its units evenly over all of
/// them. On one CPU a thread handoff costs the program's own context
/// switch; across CPUs it cost a virtual machine's cross-CPU wake-up, which
/// moved runs by up to 2x. Rotating matters because a shared host runs
/// each virtual CPU at its own, changing speed: runs pinned to a single CPU
/// moved by up to 40% with the CPU they started on. Returns the CPU, or -1
/// if pinning failed.
int pin_next_cpu();

/// Keep freed memory in the process, in one allocator arena. Only
/// serve_replay calls it: it starts a fresh engine, and so a fresh control
/// thread, per replay. With glibc's defaults each new thread could get an
/// arena of its own, trimmed as it drained, so every replay re-faulted ~18k
/// pages: the largest and most variable part of its time, and an artifact
/// of replaying rather than of serving. It also made peak RSS depend on how
/// many arenas a run happened to create. Call before any thread starts.
void keep_freed_memory();

/// Pool work between two ThreadPool::stats() snapshots; deltas of several
/// intervals add up.
struct PoolDelta {
  double busy_ns = 0.0;  ///< busy time summed over the lanes
  double lane_ns = 0.0;  ///< lanes x wall time
  double jobs = 0.0;
  double busy_share() const { return lane_ns > 0.0 ? busy_ns / lane_ns : 0.0; }
  PoolDelta& operator+=(const PoolDelta& o) {
    busy_ns += o.busy_ns;
    lane_ns += o.lane_ns;
    jobs += o.jobs;
    return *this;
  }
};
PoolDelta pool_delta(const generic::obs::PoolStats& a,
                     const generic::obs::PoolStats& b);

/// The run's outcome: what the driver reads as the last stdout line, plus
/// the context line printed just before it.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Context printed on the line before the result: tail percentile and
  /// its sample count, gate checks run, host load and probe.
  std::vector<std::pair<std::string, std::string>> info;
  /// Per-layer metrics that are derived or computed, and how; printed in
  /// the context line under "derived".
  std::vector<std::pair<std::string, std::string>> derivations;
  std::uint64_t gate_checks = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& json_value) {
    info.push_back({key, json_value});
  }
  /// Name a per-layer metric that is derived from other measurements
  /// rather than timed around its own calls, and say how.
  void derived(const std::string& metric, const std::string& how) {
    derivations.push_back({metric, how});
  }
  /// Record one correctness comparison; a mismatch fails the run.
  void gate(bool ok) {
    ++gate_checks;
    if (!ok) correct = false;
  }
};

/// Run the set-up `fn` at least 5 times and until a second has passed, at
/// most 25 times (once in a smoke run), each on the next CPU, and return the
/// median wall time in seconds.
double setup_seconds(const Options& opt, const std::function<void()>& fn);

/// Adds each layer's self time per op (self.<layer>_us_per_op) from `self`,
/// Tracer::self_us() or a split of it that the workload derived
/// (Result::derived); the "op" entry is the op spans' own time, reported as
/// unattributed. Also adds the share of op-span time the layers cover.
void add_self_times(Result& r, const Tracer& tracer,
                    const std::map<std::string, double>& self, double ops);

/// Adds the host probes' spread over the run to the context line, and
/// their medians as host.probe_cpu_us and host.probe_mem_us to a traced
/// run's metrics.
void add_probe(Result& r, const Units& u, bool traced);

std::string fmt_num(double v);

/// The paper's edge model: GENERIC encoder with stored item/level memories
/// over the ISOLET clone (128 features, 26 classes), D = 4096.
constexpr std::size_t kIsoletDims = 4096;
constexpr std::size_t kIsoletEpochs = 10;

struct IsoletModel {
  std::unique_ptr<generic::enc::GenericEncoder> encoder;
  std::unique_ptr<generic::model::HdcClassifier> clf;
};

/// The ISOLET clone generated from the workload seed: the benchmark's own
/// input work, never counted as set-up.
generic::data::Dataset isolet_inputs(std::uint64_t seed);

/// The program's set-up for that model: build the encoder memories, fit the
/// quantizer, encode the training set and train (one-shot + retraining).
IsoletModel train_isolet(const generic::data::Dataset& ds, std::uint64_t seed,
                         generic::ThreadPool& pool);

/// Per-workload entry points. Each fills a Result: end-to-end metrics when
/// opt.trace is false, per-layer metrics when it is true.
Result run_edge_infer(const Options& opt);
Result run_serve_replay(const Options& opt);
Result run_learn_rounds(const Options& opt);

}  // namespace perfbench
