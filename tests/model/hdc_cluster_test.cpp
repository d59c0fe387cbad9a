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
  EXPECT_THROW(hc.fit(pts), std::invalid_argument);
}

TEST(HdcCluster, RecoversHypervectorBlobs) {
  std::vector<int> truth;
  const auto pts = blob_encodings(2048, 4, 40, 0.15, truth, 41);
  HdcCluster hc(2048, 4);
  const std::size_t epochs = hc.fit(pts);
  EXPECT_GT(epochs, 0u);
  const auto labels = hc.labels(pts);
  EXPECT_GT(ml::normalized_mutual_information(truth, labels), 0.95);
}

TEST(HdcCluster, StopsWhenAssignmentsStabilize) {
  std::vector<int> truth;
  const auto pts = blob_encodings(1024, 3, 30, 0.1, truth, 43);
  HdcCluster hc(1024, 3);
  const std::size_t epochs = hc.fit(pts, 50);
  EXPECT_LT(epochs, 50u);  // easy blobs converge quickly
}

TEST(HdcCluster, AssignConsistentWithLabels) {
  std::vector<int> truth;
  const auto pts = blob_encodings(1024, 3, 20, 0.2, truth, 45);
  HdcCluster hc(1024, 3);
  hc.fit(pts);
  const auto labels = hc.labels(pts);
  for (std::size_t i = 0; i < pts.size(); ++i)
    EXPECT_EQ(labels[i], hc.assign(pts[i]));
}

TEST(HdcCluster, CentroidCountStable) {
  std::vector<int> truth;
  const auto pts = blob_encodings(512, 5, 15, 0.25, truth, 47);
  HdcCluster hc(512, 5);
  hc.fit(pts);
  EXPECT_EQ(hc.centroids().size(), 5u);
  for (const auto& c : hc.centroids()) EXPECT_EQ(c.size(), 512u);
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
  hc.fit(encoded);
  const double nmi =
      ml::normalized_mutual_information(ds.labels, hc.labels(encoded));
  EXPECT_GT(nmi, 0.7);
}

}  // namespace
}  // namespace generic::model
