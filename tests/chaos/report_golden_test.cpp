// Byte pins for generic.serve.v1 and generic.lifecycle.v1. A chaos run
// carries one full serve report and one full lifecycle report; the three
// quick runs below, plus the default-constructed reports, render every
// array of both schemas both empty and non-empty:
//
//   corrupt_checkpoint_boot — no slo_alerts, swaps, encoder_faults or
//                             lifecycle events; a version without rungs
//   diurnal                 — an slo alert, a swap, lifecycle events and
//                             validated rungs
//   encoder_corruption      — the encoder_faults incident
//   empty                   — no rungs and no versions, which no run has
//
// Fixtures live beside the chaos reports as <run>.serve.json and
// <run>.lifecycle.json (see tests/golden.h to regenerate).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "chaos/orchestrator.h"
#include "golden.h"

#ifndef GENERIC_GOLDEN_DIR
#error "GENERIC_GOLDEN_DIR must be defined by the build"
#endif

namespace generic::chaos {
namespace {

namespace fs = std::filesystem;

const char* const kRuns[] = {"corrupt_checkpoint_boot", "diurnal",
                             "encoder_corruption"};

/// `tag` keeps the checkpoint scratch dirs of tests run in parallel apart.
ChaosReport run(const std::string& name, const std::string& tag) {
  RunOptions opt;
  opt.threads = 2;
  opt.work_dir = (fs::path(testing::TempDir()) /
                  ("report-" + tag + "-" + name))
                     .string();
  fs::remove_all(opt.work_dir);
  return run_scenario(find_scenario(name, true).value(), opt);
}

std::string fixture(const std::string& run, const char* schema) {
  return std::string(GENERIC_GOLDEN_DIR) + "/" + run + "." + schema + ".json";
}

TEST(ReportGolden, ServeReportsMatchCommittedFixtures) {
  for (const char* name : kRuns)
    golden::expect_golden(
        serve::serve_report_to_json(run(name, "serve").serve),
        fixture(name, "serve"));
  golden::expect_golden(serve::serve_report_to_json(serve::ServeReport{}),
                        fixture("empty", "serve"));
  if (golden::updating()) GTEST_SKIP() << "fixtures regenerated";
}

TEST(ReportGolden, LifecycleReportsMatchCommittedFixtures) {
  for (const char* name : kRuns)
    golden::expect_golden(
        lifecycle::lifecycle_report_to_json(
            run(name, "lifecycle").lifecycle),
        fixture(name, "lifecycle"));
  golden::expect_golden(
      lifecycle::lifecycle_report_to_json(lifecycle::LifecycleReport{}),
      fixture("empty", "lifecycle"));
  if (golden::updating()) GTEST_SKIP() << "fixtures regenerated";
}

}  // namespace
}  // namespace generic::chaos
