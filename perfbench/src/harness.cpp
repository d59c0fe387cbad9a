#include "harness.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "data/benchmarks.h"

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
/// Keeps the host probe's result alive, so its loops are not optimized out.
volatile std::uint64_t probe_sink = 0;
}  // namespace

double now_us() { return us_since(kProcessStart); }

std::int32_t Tracer::begin(const char* layer, std::uint64_t op) {
  SpanRec s;
  s.layer = layer;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op;
  s.start_us = now_us();
  spans_.push_back(s);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::end(std::int32_t index) {
  // Span objects nest by scope, so `index` is the innermost open span.
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  open_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& layer) const {
  std::vector<double> out;
  for (const SpanRec& s : spans_)
    if (layer == s.layer) out.push_back(s.end_us - s.start_us);
  return out;
}

std::map<std::string, double> Tracer::self_us() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const SpanRec& s : spans_)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_layer[spans_[i].layer] +=
        spans_[i].end_us - spans_[i].start_us - child[i];
  return by_layer;
}

void Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write span dump " + path);
  f << "layer\tstart_us\tend_us\tparent\top\n";
  for (const SpanRec& s : spans_)
    f << s.layer << '\t' << fmt_num(s.start_us) << '\t' << fmt_num(s.end_us)
      << '\t' << s.parent << '\t' << s.op << '\n';
}

namespace {
/// The memory probe's 8 MiB of 64-byte lines, linked into one cycle by a
/// full-period LCG over the line indices (a = 1 mod 4, c odd), whose
/// irregular strides the hardware prefetchers do not follow.
constexpr std::size_t kProbeLines = (8u << 20) / 64;
const std::vector<std::uint64_t>& probe_chain() {
  static const std::vector<std::uint64_t> chain = [] {
    std::vector<std::uint64_t> c(kProbeLines * 8, 0);
    for (std::size_t i = 0; i < kProbeLines; ++i)
      c[i * 8] = ((i * 0x5851F42DULL + 0x3C6EF35FULL) % kProbeLines) * 8;
    return c;
  }();
  return chain;
}
}  // namespace

HostProbe host_probe() {
  const std::vector<std::uint64_t>& chain = probe_chain();
  HostProbe p;
  auto t0 = Clock::now();
  std::uint64_t x = 1;
  for (int i = 0; i < (1 << 17); ++i) x = x * 6364136223846793005ULL + (x >> 29);
  p.cpu_us = us_since(t0);
  t0 = Clock::now();
  std::uint64_t at = 0;
  for (int i = 0; i < (1 << 12); ++i) at = chain[at];
  p.mem_us = us_since(t0);
  probe_sink = x + at;
  return p;
}

Units run_units(double seconds, Tracer& tracer, bool alternate,
                const std::function<double()>& unit) {
  Units u;
  const auto t0 = Clock::now();
  do {
    pin_next_cpu();
    const bool traced = alternate && u.count() % 2 == 1;
    tracer.set_enabled(traced);
    const double us = unit();
    (traced ? u.traced_us : u.plain_us).push_back(us);
    const HostProbe p = host_probe();
    u.probe_cpu_us.push_back(p.cpu_us);
    u.probe_mem_us.push_back(p.mem_us);
  } while (us_since(t0) < seconds * 1e6 ||
           (alternate && u.traced_us.empty()));
  tracer.set_enabled(false);
  return u;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
/// The highest nearest-rank percentile with at least 10 samples beyond it.
double tail_10_beyond(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() > 10 ? v.size() - 11 : v.size() - 1];
}
}  // namespace

void BlockStats::add(double us) {
  ++samples_;
  open_.push_back(us);
  if (open_.size() < block_) return;
  medians_.push_back(median(open_));
  tails_.push_back(tail_10_beyond(open_));
  open_.clear();
}

double BlockStats::p50() const {
  return medians_.empty() ? median(open_) : median(medians_);
}

double BlockStats::tail() const {
  return tails_.empty() ? tail_10_beyond(open_) : median(tails_);
}

std::string BlockStats::note() const {
  const std::size_t n = std::min(block_, samples_);
  const double pct = n > 10 ? 100.0 * static_cast<double>(n - 10) /
                                  static_cast<double>(n)
                            : 100.0;
  const char* reported =
      medians_.empty() ? "over all samples" : "median over blocks";
  return "{\"percentile\": " + fmt_num(pct) +
         ", \"block\": " + std::to_string(block_) +
         ", \"samples\": " + std::to_string(samples_) +
         ", \"blocks\": " + std::to_string(medians_.size()) +
         ", \"reported\": \"" + reported + "\"}";
}

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  if (!(f >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already counted in user/nice).
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(f >> v)) return CpuTimes{};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double loadavg1() {
  std::ifstream f("/proc/loadavg");
  double v = -1.0;
  f >> v;
  return v;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double probe_kib =
      static_cast<double>(probe_chain().size() * sizeof(std::uint64_t)) / 1024;
  return (static_cast<double>(ru.ru_maxrss) - probe_kib) / 1024.0;  // KiB
}

void keep_freed_memory() {
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
}

int pin_next_cpu() {
  // The CPUs the process started with, read before the first pin narrows
  // the mask.
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) v.push_back(c);
    return v;
  }();
  static std::size_t next = 0;
  if (cpus.empty()) return -1;
  const int cpu = cpus[next++ % cpus.size()];
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

PoolDelta pool_delta(const generic::obs::PoolStats& a,
                     const generic::obs::PoolStats& b) {
  PoolDelta d;
  double busy = 0.0;
  for (std::size_t i = 0; i < b.per_lane.size(); ++i)
    busy += static_cast<double>(b.per_lane[i].busy_ns -
                                (i < a.per_lane.size() ? a.per_lane[i].busy_ns
                                                       : 0));
  d.busy_ns = busy;
  d.lane_ns = static_cast<double>(b.wall_ns - a.wall_ns) *
              static_cast<double>(std::max<std::size_t>(b.lanes, 1));
  d.jobs = static_cast<double>(b.jobs - a.jobs);
  return d;
}

double setup_seconds(const Options& opt, const std::function<void()>& fn) {
  std::vector<double> s;
  const auto t0 = Clock::now();
  do {
    pin_next_cpu();
    const auto t = Clock::now();
    fn();
    s.push_back(us_since(t) / 1e6);
  } while (!opt.smoke && s.size() < 25 &&
           (s.size() < 5 || us_since(t0) < 1e6));
  return median(s);
}

void add_self_times(Result& r, const Tracer& tracer,
                    const std::map<std::string, double>& self, double ops) {
  double root_total = 0.0;
  for (const SpanRec& s : tracer.spans())
    if (s.parent < 0) root_total += s.end_us - s.start_us;
  double attributed = 0.0, own = 0.0;
  for (const auto& [layer, us] : self) {
    if (layer == "op") {
      own = us;
      continue;
    }
    r.metric("self." + layer + "_us_per_op", ops > 0 ? us / ops : 0.0, "us");
    attributed += us;
  }
  r.metric("self.unattributed_us_per_op", ops > 0 ? own / ops : 0.0, "us");
  r.metric("trace.attributed_share",
           root_total > 0 ? attributed / root_total : 0.0, "ratio");
}

void add_probe(Result& r, const Units& u, bool traced) {
  auto spread = [](const std::vector<double>& v) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return "{\"median\": " + fmt_num(median(v)) + ", \"min\": " +
           fmt_num(*lo) + ", \"max\": " + fmt_num(*hi) + "}";
  };
  r.note("host_probe_us", "{\"cpu\": " + spread(u.probe_cpu_us) +
                              ", \"mem\": " + spread(u.probe_mem_us) +
                              ", \"count\": " +
                              std::to_string(u.probe_cpu_us.size()) + "}");
  if (!traced) return;
  r.metric("host.probe_cpu_us", median(u.probe_cpu_us), "us");
  r.metric("host.probe_mem_us", median(u.probe_mem_us), "us");
}

generic::data::Dataset isolet_inputs(std::uint64_t seed) {
  return generic::data::make_benchmark("ISOLET", seed);
}

IsoletModel train_isolet(const generic::data::Dataset& ds, std::uint64_t seed,
                         generic::ThreadPool& pool) {
  generic::enc::EncoderConfig ecfg;  // stored memories
  ecfg.dims = kIsoletDims;
  ecfg.seed = seed ^ 0x15013E7ULL;
  IsoletModel m;
  m.encoder = std::make_unique<generic::enc::GenericEncoder>(ecfg);
  m.encoder->fit(ds.train_x);
  const auto train = m.encoder->encode_batch(ds.train_x, pool);
  m.clf = std::make_unique<generic::model::HdcClassifier>(kIsoletDims,
                                                          ds.num_classes);
  m.clf->fit_parallel(train, ds.train_y, kIsoletEpochs, pool);
  return m;
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
