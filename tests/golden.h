// Golden-fixture check shared by the suites that pin report bytes.
//
// expect_golden(got, path) compares a rendered document with its committed
// fixture byte for byte. With GENERIC_UPDATE_GOLDEN set in the environment
// it rewrites the fixture instead; the calling test then ends with
//   if (golden::updating()) GTEST_SKIP() << "fixtures regenerated";
// so a regeneration run never reports a pass. To regenerate after an
// INTENTIONAL change, run the owning suite with GENERIC_UPDATE_GOLDEN=1,
// commit the fixtures and call the change out in the PR.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace generic::golden {

inline bool updating() {
  return std::getenv("GENERIC_UPDATE_GOLDEN") != nullptr;
}

/// Whole file as bytes; empty when it cannot be opened.
inline std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return {};
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

inline void expect_golden(const std::string& got, const std::string& path) {
  if (updating()) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << got;
    f.close();
    ASSERT_TRUE(f) << "cannot write fixture " << path;
    return;
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty())
      << "missing fixture " << path
      << " — run with GENERIC_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(got, want)
      << path
      << " diverged from its committed fixture; if the change is "
         "intentional, regenerate with GENERIC_UPDATE_GOLDEN=1";
}

}  // namespace generic::golden
