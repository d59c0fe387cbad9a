#include "model/hdc_cluster.h"

#include <stdexcept>
#include <utility>

namespace generic::model {

HdcCluster::HdcCluster(std::size_t dims, std::size_t k) : dims_(dims), k_(k) {
  if (dims == 0 || k == 0)
    throw std::invalid_argument("HdcCluster: zero-sized parameter");
}

const HdcClassifier& HdcCluster::require_fit() const {
  if (!centroids_) throw std::logic_error("HdcCluster: not fitted");
  return *centroids_;
}

int HdcCluster::assign(const hdc::IntHV& query) const {
  return require_fit().predict(query);
}

std::size_t HdcCluster::fit(std::span<const hdc::IntHV> encoded,
                            std::size_t max_epochs, ThreadPool& pool) {
  if (encoded.size() < k_)
    throw std::invalid_argument("HdcCluster::fit: fewer points than clusters");
  // Seed: the first k encoded inputs (paper §4.2.3).
  HdcClassifier model(dims_, k_, /*chunk=*/dims_);
  for (std::size_t c = 0; c < k_; ++c) model.set_class_vector(c, encoded[c]);
  model.recompute_norms();

  std::vector<int> prev;
  std::size_t epoch = 0;
  for (; epoch < max_epochs; ++epoch) {
    std::vector<int> assigned = model.predict_batch(encoded, pool);
    if (assigned == prev) break;
    prev = std::move(assigned);
    std::vector<hdc::IntHV> copy(k_, hdc::IntHV(dims_, 0));
    std::vector<std::size_t> members(k_, 0);
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      const auto c = static_cast<std::size_t>(prev[i]);
      hdc::add_into(copy[c], encoded[i]);
      members[c]++;
    }
    // The copy replaces the model; empty clusters keep their old centroid
    // so k never silently collapses.
    for (std::size_t c = 0; c < k_; ++c)
      if (members[c] != 0) model.set_class_vector(c, std::move(copy[c]));
    model.recompute_norms();
  }
  centroids_ = std::move(model);
  return epoch;
}

std::vector<int> HdcCluster::labels(std::span<const hdc::IntHV> encoded,
                                    ThreadPool& pool) const {
  return require_fit().predict_batch(encoded, pool);
}

}  // namespace generic::model
