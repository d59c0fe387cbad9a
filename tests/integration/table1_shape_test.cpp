// End-to-end integration test pinning the *shape* of Table 1 — the paper's
// headline claims — at reduced scale (D = 1024, 5 retrain epochs, six
// representative benchmarks) so the full pipeline is exercised in seconds:
//   * GENERIC has the highest mean accuracy of the five encodings;
//   * GENERIC has the lowest cross-dataset standard deviation;
//   * RP collapses on the zero-mean and symbolic tasks (EEG, LANG);
//   * ngram collapses on the positional tasks (MNIST, ISOLET);
//   * only subsequence encoders reach the mid-90s on LANG.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/stats.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "model/pipeline.h"

namespace generic {
namespace {

class Table1Shape : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    results_ = new std::map<std::string, std::map<std::string, double>>();
    const std::vector<std::string> datasets{"EEG",  "EMG",    "LANG",
                                            "MNIST", "ISOLET", "PAGE"};
    const std::vector<enc::EncoderKind> kinds{
        enc::EncoderKind::kRp, enc::EncoderKind::kLevelId,
        enc::EncoderKind::kNgram, enc::EncoderKind::kPermutation,
        enc::EncoderKind::kGeneric};
    for (const auto& name : datasets) {
      const auto ds = data::make_benchmark(name);
      for (auto kind : kinds) {
        enc::EncoderConfig cfg;
        cfg.dims = 1024;
        const auto g = data::generic_config_for(name);
        cfg.window = g.window;
        if (kind == enc::EncoderKind::kGeneric) cfg.use_ids = g.use_ids;
        auto encoder = enc::make_encoder(kind, cfg);
        (*results_)[std::string(enc::to_string(kind))][name] =
            model::run_hdc_classification(*encoder, ds, 5, global_pool())
                .test_accuracy;
      }
    }
  }
  static void TearDownTestSuite() {
    delete results_;
    results_ = nullptr;
  }

  static double acc(const std::string& encoder, const std::string& dataset) {
    return results_->at(encoder).at(dataset);
  }
  static std::vector<double> column(const std::string& encoder) {
    std::vector<double> out;
    for (const auto& [name, a] : results_->at(encoder)) out.push_back(a);
    return out;
  }

  static std::map<std::string, std::map<std::string, double>>* results_;
};

std::map<std::string, std::map<std::string, double>>* Table1Shape::results_ =
    nullptr;

TEST_F(Table1Shape, GenericHasHighestMean) {
  const double generic_mean = mean(column("generic"));
  for (const char* other : {"rp", "level-id", "ngram", "permute"})
    EXPECT_GT(generic_mean, mean(column(other))) << other;
}

TEST_F(Table1Shape, GenericHasLowestSpread) {
  const double generic_sd = stddev(column("generic"));
  for (const char* other : {"rp", "level-id", "ngram"})
    EXPECT_LT(generic_sd, stddev(column(other))) << other;
}

TEST_F(Table1Shape, RpFailsWhereLinearSignalIsAbsent) {
  EXPECT_LT(acc("rp", "EEG"), 0.65);   // ~chance on the zero-mean task
  EXPECT_LT(acc("rp", "LANG"), 0.30);  // symbol codes are not linear
  EXPECT_GT(acc("generic", "EEG"), acc("rp", "EEG") + 0.10);
}

TEST_F(Table1Shape, NgramFailsOnPositionalTasks) {
  EXPECT_LT(acc("ngram", "MNIST"), 0.60);
  EXPECT_LT(acc("ngram", "ISOLET"), 0.60);
  EXPECT_GT(acc("generic", "MNIST"), acc("ngram", "MNIST") + 0.25);
}

TEST_F(Table1Shape, OnlySubsequenceEncodersSolveLang) {
  EXPECT_GT(acc("ngram", "LANG"), 0.85);
  EXPECT_GT(acc("generic", "LANG"), 0.85);
  EXPECT_LT(acc("permute", "LANG"), 0.70);
  EXPECT_LT(acc("level-id", "LANG"), 0.70);
}

TEST_F(Table1Shape, EveryEncoderBeatsChanceSomewhere) {
  // Sanity: no encoder is globally broken.
  for (const char* encoder : {"rp", "level-id", "ngram", "permute", "generic"})
    EXPECT_GT(max_of(column(encoder)), 0.8) << encoder;
}

}  // namespace
}  // namespace generic
