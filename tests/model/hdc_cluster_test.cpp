#include "model/hdc_cluster.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/fcps.h"
#include "encoding/encoders.h"
#include "ml/metrics.h"

namespace generic::model {
namespace {

std::vector<hdc::IntHV> blob_encodings(std::size_t dims, std::size_t k,
                                       std::size_t per_cluster, double noise,
                                       std::vector<int>& truth,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<hdc::BinaryHV> protos;
  for (std::size_t c = 0; c < k; ++c)
    protos.push_back(hdc::BinaryHV::random(dims, rng));
  std::vector<hdc::IntHV> out;
  // Interleave clusters so the first-k seeding sees distinct clusters.
  for (std::size_t i = 0; i < per_cluster; ++i)
    for (std::size_t c = 0; c < k; ++c) {
      hdc::BinaryHV hv = protos[c];
      for (std::size_t j = 0; j < dims; ++j)
        if (rng.bernoulli(noise)) hv.flip(j);
      out.push_back(hv.to_int());
      truth.push_back(static_cast<int>(c));
    }
  return out;
}

TEST(HdcCluster, ConstructorValidation) {
  EXPECT_THROW(HdcCluster(0, 2), std::invalid_argument);
  EXPECT_THROW(HdcCluster(128, 0), std::invalid_argument);
}

TEST(HdcCluster, FitRequiresAtLeastKPoints) {
  HdcCluster hc(128, 5);
  std::vector<hdc::IntHV> pts(3, hdc::IntHV(128, 0));
  EXPECT_THROW(hc.fit(pts, 20, global_pool()), std::invalid_argument);
}

// An unfit model has no centroids to score against: every accessor throws
// instead of answering cluster 0.
TEST(HdcCluster, UsingBeforeFitThrows) {
  HdcCluster hc(128, 3);
  const std::vector<hdc::IntHV> pts(4, hdc::IntHV(128, 1));
  EXPECT_THROW(hc.assign(pts[0]), std::logic_error);
  EXPECT_THROW(hc.labels(pts, global_pool()), std::logic_error);
  EXPECT_THROW(hc.centroid(0), std::logic_error);
  // A fit that throws leaves the model unfit.
  EXPECT_THROW(hc.fit({pts.data(), 2}, 20, global_pool()),
               std::invalid_argument);
  EXPECT_THROW(hc.assign(pts[0]), std::logic_error);
  hc.fit(pts, 20, global_pool());
  EXPECT_EQ(hc.assign(pts[0]), hc.labels(pts, global_pool())[0]);
}

TEST(HdcCluster, RecoversHypervectorBlobs) {
  std::vector<int> truth;
  const auto pts = blob_encodings(2048, 4, 40, 0.15, truth, 41);
  HdcCluster hc(2048, 4);
  const std::size_t epochs = hc.fit(pts, 20, global_pool());
  EXPECT_GT(epochs, 0u);
  const auto labels = hc.labels(pts, global_pool());
  EXPECT_GT(ml::normalized_mutual_information(truth, labels), 0.95);
}

TEST(HdcCluster, StopsWhenAssignmentsStabilize) {
  std::vector<int> truth;
  const auto pts = blob_encodings(1024, 3, 30, 0.1, truth, 43);
  HdcCluster hc(1024, 3);
  const std::size_t epochs = hc.fit(pts, 50, global_pool());
  EXPECT_LT(epochs, 50u);  // easy blobs converge quickly
}

TEST(HdcCluster, AssignConsistentWithLabels) {
  std::vector<int> truth;
  const auto pts = blob_encodings(1024, 3, 20, 0.2, truth, 45);
  HdcCluster hc(1024, 3);
  hc.fit(pts, 20, global_pool());
  const auto labels = hc.labels(pts, global_pool());
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_EQ(labels[i], hc.assign(pts[i]));
}

TEST(HdcCluster, CentroidCountStable) {
  std::vector<int> truth;
  const auto pts = blob_encodings(512, 5, 15, 0.25, truth, 47);
  HdcCluster hc(512, 5);
  hc.fit(pts, 20, global_pool());
  ASSERT_EQ(hc.k(), 5u);
  for (std::size_t c = 0; c < hc.k(); ++c)
    EXPECT_EQ(hc.centroid(c).size(), 512u);
}

TEST(HdcCluster, EndToEndFcpsHeptaMatchesGroundTruth) {
  // Table 2 anchor: HDC clustering on Hepta scores ~0.9 NMI in the paper.
  const auto ds = data::make_fcps("Hepta");
  enc::EncoderConfig cfg;
  cfg.dims = 2048;
  enc::GenericEncoder encoder(cfg);
  encoder.fit(ds.points);
  const auto encoded = encoder.encode_batch(ds.points);
  HdcCluster hc(2048, ds.num_clusters);
  hc.fit(encoded, 20, global_pool());
  const double nmi = ml::normalized_mutual_information(
      ds.labels, hc.labels(encoded, global_pool()));
  EXPECT_GT(nmi, 0.7);
}

}  // namespace
}  // namespace generic::model
