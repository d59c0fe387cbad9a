// perfbench — wall-clock benchmark of the GENERIC stack
// (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//             [--tamper]
//
// Workloads: edge_infer, serve_replay, learn_rounds. The
// inputs are generated from --seed; the timed phase lasts --seconds after a
// warm-up pass. --trace 0 prints the end-to-end metrics; --trace 1 runs an
// untraced and a traced half, and prints the per-layer metrics plus the
// tracing overhead. The last stdout line is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the metrics the workload measured, and the line before it carries
// the run's context (tail percentile and sample count, gate checks, CPU
// steal share, loadavg, host probe, derived metrics). perfbench/run.py
// holds the metrics to BENCHMARK.json.
//
// Exit code 0 when every correctness gate passed, 1 otherwise, 2 on a bad
// command line.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "harness.h"

using namespace perfbench;

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--tamper]\n",
               msg);
  return 2;
}

std::string json_str(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (!seen.insert(a).second) return usage(("duplicate flag " + a).c_str());
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--smoke") {
        opt.smoke = true;
      } else if (a == "--tamper") {
        opt.tamper = true;
      } else {
        return usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  using Runner = Result (*)(const Options&);
  const std::map<std::string, Runner> runners = {
      {"edge_infer", run_edge_infer},
      {"serve_replay", run_serve_replay},
      {"learn_rounds", run_learn_rounds},
  };
  const auto runner = runners.find(opt.workload);
  if (runner == runners.end()) return usage("unknown --workload");

  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s\n", opt.work_dir.c_str());
    return 1;
  }

  // Makes the probe's buffer resident before the program runs, so that
  // peak_rss_mb can leave exactly that buffer out.
  host_probe();
  const CpuTimes cpu0 = read_cpu_times();
  const double load0 = loadavg1();
  Result r;
  try {
    r = runner->second(opt);
    const double steal = steal_share(cpu0, read_cpu_times());
    r.note("host", "{\"steal_share\": " + fmt_num(steal) +
                       ", \"loadavg1\": " + fmt_num(load0) + "}");
    if (opt.trace) {
      // Counted from the workload's shape and operand widths, not timed.
      r.derived("model.dot_ops_per_query", "computed: classes x active dims");
      r.derived("model.bytes_per_query",
                "computed: int32 operands the active dims read");
      r.metric("host.steal_share", steal, "ratio");
      r.metric("host.loadavg1", load0, "load");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: error: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  std::string info = "{\"perfbench\": {\"workload\": " +
                     json_str(opt.workload) +
                     ", \"seed\": " + std::to_string(opt.seed) +
                     ", \"trace\": " + (opt.trace ? "1" : "0") +
                     ", \"gate_checks\": " + std::to_string(r.gate_checks);
  for (const auto& [k, v] : r.info) info += ", " + json_str(k) + ": " + v;
  if (!r.derivations.empty()) {
    info += ", \"derived\": {";
    for (std::size_t i = 0; i < r.derivations.size(); ++i)
      info += (i ? ", " : "") + json_str(r.derivations[i].first) + ": " +
              json_str(r.derivations[i].second);
    info += "}";
  }
  info += "}}";
  std::printf("%s\n", info.c_str());

  std::string out = std::string("{\"correct\": ") +
                    (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& [name, vu] = r.metrics[i];
    out += (i ? ", " : "") + json_str(name) + ": {\"value\": " +
           fmt_num(vu.first) + ", \"unit\": " + json_str(vu.second) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
