// Unsupervised learning on edge: HDC clustering (paper §2.1/§4.2.3) on the
// FCPS suite (Table 2's five plus Lsun/Chainlink/Atom), side by side with
// k-means, scored by normalized mutual information against ground truth.
//
//   $ ./build/examples/clustering_demo
#include <cstdio>

#include "data/fcps.h"
#include "encoding/encoders.h"
#include "ml/kmeans.h"
#include "ml/metrics.h"
#include "model/hdc_cluster.h"

using namespace generic;

int main() {
  std::printf("%-14s %8s %10s %10s %8s\n", "dataset", "k", "k-means",
              "HDC", "epochs");
  for (const auto& name : data::fcps_extended_names()) {
    const data::ClusterDataset ds = data::make_fcps(name);

    // Baseline: Lloyd's k-means with k-means++ seeding on raw features.
    ml::KMeansConfig kcfg;
    kcfg.k = ds.num_clusters;
    const auto km = ml::kmeans(ds.points, kcfg);

    // HDC: encode every point into hyperspace, then cluster by cosine
    // similarity with copy-model epochs — exactly what the ASIC runs.
    enc::EncoderConfig cfg;
    cfg.dims = 4096;
    cfg.window = std::min<std::size_t>(3, ds.num_features());
    enc::GenericEncoder encoder(cfg);
    encoder.fit(ds.points);
    const auto encoded = encoder.encode_batch(ds.points);
    ThreadPool& pool = global_pool();
    model::HdcCluster hc(cfg.dims, ds.num_clusters);
    const std::size_t epochs = hc.fit(encoded, /*max_epochs=*/20, pool);

    std::printf("%-14s %8zu %10.3f %10.3f %8zu\n", ds.name.c_str(),
                ds.num_clusters,
                ml::normalized_mutual_information(ds.labels, km.labels),
                ml::normalized_mutual_information(ds.labels,
                                                  hc.labels(encoded, pool)),
                epochs);
  }
  std::printf("\nHDC clusters in hyperspace with add/XOR/popcount only —\n"
              "no multiply-heavy distance kernels — which is what makes the\n"
              "ASIC's 0.05-0.1 uJ/input possible (Figure 10).\n");
  return 0;
}
