// Reproduces Table 2: normalized mutual information of K-means and HDC
// clustering on the FCPS suite (Hepta, Tetra, TwoDiamonds, WingNut) and
// Iris.
//
// Expected shape: K-means slightly ahead on average (paper: +0.031), HDC
// within a few hundredths everywhere, both near 1.0 on Hepta/TwoDiamonds.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/stats.h"
#include "data/fcps.h"
#include "encoding/encoders.h"
#include "ml/kmeans.h"
#include "ml/metrics.h"
#include "model/hdc_cluster.h"

using namespace generic;

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  flags.done();
  const std::size_t dims = quick ? 2048 : 4096;

  std::printf("Table 2: mutual information score of K-means and HDC\n");
  std::printf("%-14s %9s %9s\n", "Dataset", "K-means", "HDC");
  bench::print_rule(36);

  std::vector<double> km_scores, hdc_scores;
  for (const auto& name : data::fcps_names()) {
    const auto ds = data::make_fcps(name);

    ml::KMeansConfig kcfg;
    kcfg.k = ds.num_clusters;
    const auto km = ml::kmeans(ds.points, kcfg);
    const double km_nmi =
        ml::normalized_mutual_information(ds.labels, km.labels);

    enc::EncoderConfig cfg;
    cfg.dims = dims;
    // Window length is capped by the feature count (2-4 on FCPS): this is
    // the §5.3 remark that windows lose their edge on few-feature data.
    cfg.window = std::min<std::size_t>(3, ds.num_features());
    enc::GenericEncoder encoder(cfg);
    encoder.fit(ds.points);
    const auto encoded = encoder.encode_batch(ds.points);
    model::HdcCluster hc(dims, ds.num_clusters);
    hc.fit(encoded, /*max_epochs=*/20, global_pool());
    const double hdc_nmi = ml::normalized_mutual_information(
        ds.labels, hc.labels(encoded, global_pool()));

    km_scores.push_back(km_nmi);
    hdc_scores.push_back(hdc_nmi);
    std::printf("%-14s %9.3f %9.3f\n", name.c_str(), km_nmi, hdc_nmi);
  }
  std::printf("%-14s %9.3f %9.3f   (paper: K-means +0.031 on average)\n",
              "Mean", mean(km_scores), mean(hdc_scores));
  return 0;
}
