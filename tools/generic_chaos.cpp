// generic_chaos — named end-to-end chaos campaigns (docs/chaos.md).
//
// Runs one (or every) registered scenario through the chaos orchestrator:
// shaped traffic, concept shifts, correlated class-memory fault bursts,
// corrupted checkpoints and a tenant flood on the multi-model fleet, all
// seeded and on virtual time, with a generic.chaos.v1 report per scenario
// and a per-invariant verdict.
//
//   generic_chaos [--scenario=all|NAME] [--quick] [--seed=S] [--threads=N]
//                 [--out=DIR] [--work-dir=DIR] [--list] [--rtrace=DIR]
//                 [--flight-dump=DIR]
//
// Every registered scenario, the fleet campaign tenant_storm included, runs
// through the same loop. --out writes <DIR>/<scenario>.json per scenario.
// --list prints the registry and exits. Exit code: 0 when every run passed
// its invariants, 1 otherwise (an unwritable output path included).
//
// Black box: every scenario records into the rtrace flight ring. A failed
// invariant auto-dumps the ring as <scenario>.flight.json (into
// --flight-dump, else --out, else the working directory) so the decisions
// that led to the violation can be read post mortem; --flight-dump also
// dumps passing runs. --rtrace additionally writes the FULL causal trace
// per scenario as <scenario>.rtrace.json plus a Chrome/Perfetto view
// <scenario>.rtrace.chrome.json.
//
// Determinism: every report is a pure function of (scenario, --quick,
// --seed). --threads only changes wall-clock speed — the CI chaos job
// cmp's reports across thread counts.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "chaos/orchestrator.h"

using namespace generic;

namespace {

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  const bool list = flags.has("--list");
  const std::string which = flags.value("--scenario", "all");
  const std::uint64_t seed = flags.size("--seed", 0xC4A05);
  const std::size_t threads = flags.threads();
  const std::string out_dir = flags.value("--out", "");
  const std::string work_dir = flags.value("--work-dir", "");
  const std::string rtrace_dir = flags.value("--rtrace", "");
  const std::string flight_dir = flags.value("--flight-dump", "");
  bench::apply_kernel_backend(flags);
  flags.done();

  if (list) {
    for (const auto& s : chaos::all_scenarios(quick))
      std::printf("%-24s %zu requests, D=%zu — %s\n", s.name.c_str(),
                  s.requests, s.dims, s.description.c_str());
    return 0;
  }

  std::vector<chaos::ScenarioSpec> specs;
  if (which == "all") {
    specs = chaos::all_scenarios(quick);
  } else {
    auto s = chaos::find_scenario(which, quick);
    if (!s.has_value()) {
      std::fprintf(stderr, "error: unknown scenario '%s' (try --list)\n",
                   which.c_str());
      return 1;
    }
    specs.push_back(std::move(*s));
  }

  set_global_threads(threads);
  if (!out_dir.empty()) std::filesystem::create_directories(out_dir);
  if (!rtrace_dir.empty()) std::filesystem::create_directories(rtrace_dir);
  if (!flight_dir.empty()) std::filesystem::create_directories(flight_dir);

  bool all_passed = true;
  for (const auto& spec : specs) {
    chaos::RunOptions opt;
    opt.seed = seed;
    opt.work_dir = work_dir.empty() ? "" : work_dir + "/" + spec.name;
    opt.rtrace = !rtrace_dir.empty();

    const chaos::ChaosReport report =
        chaos::run_scenario(spec, opt, global_pool());
    all_passed = all_passed && report.passed;

    std::printf("%-24s %s  (%zu requests", spec.name.c_str(),
                report.passed ? "PASS" : "FAIL", report.requests);
    if (report.boot.from_checkpoint)
      std::printf(", booted v%llu, %llu quarantined",
                  static_cast<unsigned long long>(report.boot.version),
                  static_cast<unsigned long long>(report.boot.quarantined));
    std::printf(")\n");
    for (const auto& inv : report.invariants) {
      if (!inv.enabled) continue;
      std::printf("  %-22s %s  value=%.4g bound=%.4g\n", inv.name.c_str(),
                  inv.passed ? "ok" : "VIOLATED", inv.value, inv.bound);
    }

    if (!out_dir.empty())
      bench::write_output(out_dir + "/" + spec.name + ".json", "report",
                          chaos::chaos_report_to_json(report));
    if (!rtrace_dir.empty()) {
      const std::string base = rtrace_dir + "/" + spec.name;
      bench::write_output(base + ".rtrace.json", "rtrace",
                          obs::rtrace::rtrace_to_json(report.rtrace));
      bench::write_output(base + ".rtrace.chrome.json", "rtrace chrome trace",
                          obs::rtrace::rtrace_to_chrome_json(report.rtrace));
    }
    // The black box: always dumped on demand, and automatically on any
    // invariant failure so the postmortem ships with the verdict.
    if (!flight_dir.empty() || !report.passed) {
      const std::string dir = !flight_dir.empty() ? flight_dir
                              : !out_dir.empty()  ? out_dir
                                                  : std::string(".");
      bench::write_output(dir + "/" + spec.name + ".flight.json",
                          "flight recorder",
                          obs::rtrace::flight_to_json(report.flight));
    }
  }
  return all_passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_tool(run, argc, argv); }
