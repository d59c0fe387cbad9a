#include "data/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

namespace generic::data {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string path(const char* name) {
    return (std::filesystem::temp_directory_path() / name).string();
  }
  void write(const std::string& p, const char* content) {
    std::ofstream f(p, std::ios::trunc);
    f << content;
  }
  void TearDown() override {
    for (const auto& p : created_) std::remove(p.c_str());
  }
  std::string make(const char* name, const char* content) {
    const auto p = path(name);
    write(p, content);
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

TEST_F(CsvTest, LoadLabeledBasic) {
  const auto p = make("t1.csv", "1.0,2.0,0\n3.0,4.0,1\n5.5,6.5,1\n");
  const auto s = load_labeled_csv(p);
  ASSERT_EQ(s.x.size(), 3u);
  EXPECT_EQ(s.x[0], (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(s.y, (std::vector<int>{0, 1, 1}));
  EXPECT_EQ(s.num_classes, 2u);
}

TEST_F(CsvTest, HeaderAutoSkipped) {
  const auto p = make("t2.csv", "feat_a,feat_b,label\n1,2,0\n3,4,1\n");
  const auto s = load_labeled_csv(p);
  EXPECT_EQ(s.x.size(), 2u);
}

TEST_F(CsvTest, ExplicitLabelColumn) {
  const auto p = make("t3.csv", "2,1.5,2.5\n0,3.5,4.5\n");
  const auto s = load_labeled_csv(p, 0);
  EXPECT_EQ(s.y, (std::vector<int>{2, 0}));
  EXPECT_EQ(s.x[0], (std::vector<float>{1.5f, 2.5f}));
  EXPECT_EQ(s.num_classes, 3u);
}

TEST_F(CsvTest, MalformedContentRejected) {
  EXPECT_THROW(load_labeled_csv(make("r1.csv", "1,2,0\n3,4\n")),
               std::invalid_argument);  // ragged
  EXPECT_THROW(load_labeled_csv(make("r2.csv", "1,abc,0\n")),
               std::invalid_argument);  // non-numeric
  EXPECT_THROW(load_labeled_csv(make("r3.csv", "1,2,-1\n")),
               std::invalid_argument);  // negative label
  EXPECT_THROW(load_labeled_csv(make("r4.csv", "1,2,0.5\n")),
               std::invalid_argument);  // fractional label
  EXPECT_THROW(load_labeled_csv(make("r7.csv", "1,2,3e9\n")),
               std::invalid_argument);  // label beyond int's range
  EXPECT_THROW(load_labeled_csv(make("r8.csv", "1,2,-3e9\n")),
               std::invalid_argument);  // label below int's range
  EXPECT_THROW(load_labeled_csv(make("r9.csv", "1,2,32\n")),
               std::invalid_argument);  // one past the 32 class rows
  EXPECT_THROW(load_labeled_csv(make("r10.csv", "1,2,1e9\n")),
               std::invalid_argument);  // would size 10^9 classes
  EXPECT_EQ(load_labeled_csv(make("r11.csv", "1,2,31\n")).num_classes,
            32u);  // the last class row is still a class
  EXPECT_THROW(load_labeled_csv(make("r5.csv", "5\n")),
               std::invalid_argument);  // single column
  EXPECT_THROW(load_labeled_csv(make("r6.csv", "a,b,c\n")),
               std::invalid_argument);  // header only
  EXPECT_THROW(load_labeled_csv(path("missing_file.csv")),
               std::runtime_error);
}

TEST_F(CsvTest, EveryBitFlipAndTruncationIsATypedError) {
  // A file cut short or with one flipped bit either still parses or is
  // rejected with a typed error: never a crash, never undefined behaviour
  // (the sanitize build runs this sweep under ASan/UBSan).
  const std::string good = "f0,f1,label\n0.5,1.25,0\n2,3e1,1\n-4.5,6,2\n";
  ASSERT_EQ(load_labeled_csv(make("sweep_good.csv", good.c_str())).y.size(),
            3u);
  const std::string p = path("sweep_variant.csv");
  created_.push_back(p);
  auto expect_typed = [&](const std::string& bytes, const std::string& what) {
    std::ofstream(p, std::ios::binary | std::ios::trunc) << bytes;
    try {
      (void)load_labeled_csv(p);
    } catch (const std::invalid_argument&) {
    } catch (const std::runtime_error&) {
    } catch (...) {
      ADD_FAILURE() << what << ": untyped exception";
    }
  };
  for (std::size_t n = 0; n < good.size(); ++n)
    expect_typed(good.substr(0, n), "truncated to " + std::to_string(n));
  for (std::size_t i = 0; i < good.size(); ++i)
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = good;
      bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
      expect_typed(bad, "byte " + std::to_string(i) + " bit " +
                            std::to_string(bit));
    }
}

TEST_F(CsvTest, NonFiniteValuesRejected) {
  EXPECT_THROW(load_labeled_csv(make("n1.csv", "1,nan,0\n")),
               std::invalid_argument);
  EXPECT_THROW(load_labeled_csv(make("n2.csv", "1,inf,0\n")),
               std::invalid_argument);
  EXPECT_THROW(load_labeled_csv(make("n3.csv", "1,-inf,0\n")),
               std::invalid_argument);
  EXPECT_THROW(load_labeled_csv(make("n4.csv", "1,1e40,0\n")),
               std::invalid_argument);  // overflows float to +inf
  EXPECT_THROW(load_unlabeled_csv(make("n5.csv", "1,nan\n")),
               std::invalid_argument);
}

TEST_F(CsvTest, ErrorsCarryFileLineNumbers) {
  try {
    load_labeled_csv(make("e1.csv", "a,b,c\n1,2,0\n3,nan,1\n"));
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    // Line 3 of the file (header counts), column 2.
    EXPECT_NE(std::string(e.what()).find("line 3, column 2"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
  }
  try {
    load_labeled_csv(make("e2.csv", "1,2,0\n\n3,x,1\n"));
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    // Blank line 2 is skipped but still counted.
    EXPECT_NE(std::string(e.what()).find("line 3, column 2"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("non-numeric"), std::string::npos);
  }
  try {
    load_labeled_csv(make("e3.csv", "1,2,-1\n"));
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
  try {
    load_labeled_csv(make("e4.csv", "1,2,0\n3,4,1000000000\n"));
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[0, 32) (line 2)"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(CsvTest, FieldCountFixedByHeader) {
  // The header has 3 fields, so a 4-field data row is ragged even though
  // all data rows agree with each other.
  try {
    load_labeled_csv(make("f1.csv", "a,b,c\n1,2,3,0\n4,5,6,1\n"));
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("has 4 fields, expected 3"),
              std::string::npos)
        << e.what();
  }
  // Without a header the first data row fixes the count.
  EXPECT_THROW(load_labeled_csv(make("f2.csv", "1,2,0\n1,2,3,0\n")),
               std::invalid_argument);
  EXPECT_THROW(load_unlabeled_csv(make("f3.csv", "1,2\n1\n")),
               std::invalid_argument);
}

TEST_F(CsvTest, UnlabeledRoundTrip) {
  const auto p = make("u1.csv", "1.5, 2.5\n3.5,4.5\n");
  const auto xs = load_unlabeled_csv(p);
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_EQ(xs[1], (std::vector<float>{3.5f, 4.5f}));
}

TEST_F(CsvTest, SaveLoadRoundTrip) {
  const std::vector<std::vector<float>> x{{1.25f, -2.0f}, {0.0f, 3.5f}};
  const std::vector<int> y{1, 0};
  const auto p = path("rt.csv");
  created_.push_back(p);
  save_labeled_csv(p, x, y);
  const auto s = load_labeled_csv(p);
  EXPECT_EQ(s.x, x);
  EXPECT_EQ(s.y, y);
}

TEST_F(CsvTest, ToDatasetStratifies) {
  LabeledSamples s;
  for (int c = 0; c < 2; ++c)
    for (int i = 0; i < 40; ++i) {
      s.x.push_back({static_cast<float>(c), static_cast<float>(i)});
      s.y.push_back(c);
    }
  s.num_classes = 2;
  const auto ds = to_dataset("t", std::move(s), 0.75);
  EXPECT_EQ(ds.train_size(), 60u);
  EXPECT_EQ(ds.test_size(), 20u);
}

}  // namespace
}  // namespace generic::data
