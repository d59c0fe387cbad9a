// Strict flag parsing (bench/bench_util.h): the zero/negative-interval
// flags that used to be accepted silently (and then divided by zero or
// spun forever downstream) must exit 2 with a pointed message —
// --metrics-every=0, --rate=0, --fault-rate=nonsense and friends all die
// at parse time, before any work runs.
#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace generic::bench {
namespace {

/// Build a Flags over the given tokens (argv[0] supplied).
Flags make_flags(std::vector<std::string> tokens) {
  static std::vector<std::string> storage;  // keeps c_str()s alive
  storage = std::move(tokens);
  storage.insert(storage.begin(), "flags_test");
  std::vector<char*> argv;
  for (auto& t : storage) argv.push_back(t.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

using FlagsDeathTest = ::testing::Test;

TEST(FlagsDeathTest, PositiveSizeRejectsZero) {
  EXPECT_EXIT(
      {
        Flags f = make_flags({"--rate=0"});
        (void)f.positive_size("--rate", 1800);
      },
      ::testing::ExitedWithCode(2), "must be a positive integer");
}

TEST(FlagsDeathTest, PositiveSizeRejectsNonNumeric) {
  EXPECT_EXIT(
      {
        Flags f = make_flags({"--requests=many"});
        (void)f.positive_size("--requests", 100);
      },
      ::testing::ExitedWithCode(2), "needs an integer");
}

TEST(FlagsDeathTest, PositiveRealRejectsZeroInterval) {
  // The headline case: --metrics-every=0 used to silently disable (or
  // worse, busy-loop) the streamer; now it is a usage error.
  EXPECT_EXIT(
      {
        Flags f = make_flags({"--metrics-every=0"});
        (void)f.positive_real("--metrics-every", 0.0);
      },
      ::testing::ExitedWithCode(2), "must be > 0");
}

TEST(FlagsDeathTest, PositiveRealRejectsNegative) {
  EXPECT_EXIT(
      {
        Flags f = make_flags({"--metrics-every=-1.5"});
        (void)f.positive_real("--metrics-every", 0.0);
      },
      ::testing::ExitedWithCode(2), "must be > 0");
}

TEST(FlagsDeathTest, RealRejectsTrailingGarbage) {
  EXPECT_EXIT(
      {
        Flags f = make_flags({"--fault-rate=0.5x"});
        (void)f.real("--fault-rate", 0.0);
      },
      ::testing::ExitedWithCode(2), "needs a number");
}

TEST(FlagsDeathTest, UnknownFlagStillDiesAtDone) {
  EXPECT_EXIT(
      {
        Flags f = make_flags({"--no-such-flag=1"});
        f.done();
      },
      ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(FlagsDeathTest, ColumnRejectsWhatIsNotAColumn) {
  // --label-col used to go through real() and a cast: 6.9 read column 6,
  // -7 the last column, and 1e12 overflowed the int.
  for (const char* v : {"6.9", "-7", "1e12", "2147483648", "-0", "x"}) {
    EXPECT_EXIT(
        {
          Flags f = make_flags({std::string("--label-col=") + v});
          (void)f.column("--label-col");
        },
        ::testing::ExitedWithCode(2), "needs -1 or a column index")
        << v;
  }
}

TEST(FlagsTest, ColumnTakesMinusOneAndIndices) {
  EXPECT_EQ(make_flags({}).column("--label-col"), -1);
  EXPECT_EQ(make_flags({"--label-col=-1"}).column("--label-col"), -1);
  EXPECT_EQ(make_flags({"--label-col=0"}).column("--label-col"), 0);
  EXPECT_EQ(make_flags({"--label-col=2147483647"}).column("--label-col"),
            2147483647);
}

TEST(FlagsTest, AccessorsPassThroughValidValues) {
  Flags f = make_flags({"--rate=250", "--metrics-every=0.5",
                        "--fault-rate=-0.25", "--severity=1e-3"});
  EXPECT_EQ(f.positive_size("--rate", 1800), 250u);
  EXPECT_DOUBLE_EQ(f.positive_real("--metrics-every", 0.0), 0.5);
  // real() (unlike positive_real) admits negatives — rates that mean
  // "disabled" stay expressible.
  EXPECT_DOUBLE_EQ(f.real("--fault-rate", 0.0), -0.25);
  EXPECT_DOUBLE_EQ(f.real("--severity", 0.0), 1e-3);
  f.done();
}

TEST(FlagsTest, AbsentFlagsFallBack) {
  Flags f = make_flags({});
  EXPECT_EQ(f.positive_size("--rate", 1800), 1800u);
  EXPECT_DOUBLE_EQ(f.positive_real("--metrics-every", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(f.real("--fault-rate", 0.125), 0.125);
  f.done();
}

}  // namespace
}  // namespace generic::bench
