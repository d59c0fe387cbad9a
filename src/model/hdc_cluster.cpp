#include "model/hdc_cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "hdc/kernels.h"

namespace generic::model {

HdcCluster::HdcCluster(std::size_t dims, std::size_t k) : dims_(dims), k_(k) {
  if (dims == 0 || k == 0)
    throw std::invalid_argument("HdcCluster: zero-sized parameter");
}

void HdcCluster::refresh_norms() {
  centroid_norms_.resize(centroids_.size());
  for (std::size_t c = 0; c < centroids_.size(); ++c)
    centroid_norms_[c] = static_cast<double>(hdc::norm2(centroids_[c]));
}

int HdcCluster::assign(const hdc::IntHV& query) const {
  if (query.size() != dims_)
    throw std::invalid_argument("HdcCluster::assign: dimension mismatch");
  // Every centroid's dot from one tile over all dims.
  const std::size_t k = centroids_.size();
  std::vector<const std::int32_t*> rows(k);
  for (std::size_t c = 0; c < k; ++c) rows[c] = centroids_[c].data();
  std::vector<std::int64_t> dots(k);
  const std::int32_t* q = query.data();
  const hdc::kernels::DimRun all{0, dims_};
  hdc::kernels::active().dot_tile(&q, 1, {rows.data(), k}, &all, 1,
                                  dots.data());
  int best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < k; ++c) {
    const double n2 = centroid_norms_[c];
    double s;
    if (n2 == 0.0) {
      s = -std::numeric_limits<double>::infinity();
    } else {
      const auto d = static_cast<double>(dots[c]);
      s = d * std::abs(d) / n2;  // signed squared cosine numerator
    }
    if (s > best_score) {
      best_score = s;
      best = static_cast<int>(c);
    }
  }
  return best;
}

std::size_t HdcCluster::fit(std::span<const hdc::IntHV> encoded,
                            std::size_t max_epochs) {
  if (encoded.size() < k_)
    throw std::invalid_argument("HdcCluster::fit: fewer points than clusters");
  // Seed: the first k encoded inputs (paper §4.2.3).
  centroids_.assign(encoded.begin(), encoded.begin() + static_cast<std::ptrdiff_t>(k_));
  refresh_norms();

  std::vector<int> prev(encoded.size(), -1);
  std::size_t epoch = 0;
  for (; epoch < max_epochs; ++epoch) {
    std::vector<hdc::IntHV> copy(k_, hdc::IntHV(dims_, 0));
    std::vector<std::size_t> members(k_, 0);
    bool changed = false;
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      const int c = assign(encoded[i]);
      if (c != prev[i]) changed = true;
      prev[i] = c;
      hdc::add_into(copy[static_cast<std::size_t>(c)], encoded[i]);
      members[static_cast<std::size_t>(c)]++;
    }
    if (!changed) break;
    // The copy replaces the model; empty clusters keep their old centroid
    // so k never silently collapses.
    for (std::size_t c = 0; c < k_; ++c)
      if (members[c] != 0) centroids_[c] = std::move(copy[c]);
    refresh_norms();
  }
  return epoch;
}

std::vector<int> HdcCluster::labels(
    std::span<const hdc::IntHV> encoded) const {
  std::vector<int> out(encoded.size());
  for (std::size_t i = 0; i < encoded.size(); ++i) out[i] = assign(encoded[i]);
  return out;
}

}  // namespace generic::model
