// HDC clustering (paper §2.1, §4.2.3), the HDCluster-style algorithm the
// GENERIC ASIC runs for unsupervised learning on edge:
//   * the first k encoded inputs seed the centroid hypervectors;
//   * each epoch assigns every encoding to its most-similar centroid
//     (cosine) while accumulating a *copy* model from the assignments;
//   * the copy replaces the centroids for the next epoch (the live model
//     stays fixed within an epoch, unlike classification retraining).
//
// The ASIC clusters with the same search unit it classifies with, and so
// does this model: the centroids are the class rows of an HdcClassifier
// with one chunk, and every assignment is its similarity search (the same
// d|d| / |C|^2 score, first maximum wins). An epoch's assignments are one
// predict_batch() over the fixed model, fanned out across the caller's
// pool; the copy accumulation then runs in point order, so the result is
// the same for any lane count.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "hdc/hypervector.h"
#include "model/hdc_classifier.h"

namespace generic::model {

class HdcCluster {
 public:
  HdcCluster(std::size_t dims, std::size_t k);

  std::size_t dims() const { return dims_; }
  std::size_t k() const { return k_; }

  /// Run the full algorithm; returns the number of epochs executed (stops
  /// early once assignments stop changing, at most `max_epochs`).
  std::size_t fit(std::span<const hdc::IntHV> encoded, std::size_t max_epochs,
                  ThreadPool& pool);

  /// Index of the most similar centroid. Throws std::logic_error before
  /// fit(), like every accessor below.
  int assign(const hdc::IntHV& query) const;

  /// Assignments for a whole set: out[i] == assign(encoded[i]).
  std::vector<int> labels(std::span<const hdc::IntHV> encoded,
                          ThreadPool& pool) const;

  /// Centroid `c`, dims() values.
  const hdc::IntHV& centroid(std::size_t c) const {
    return require_fit().class_vector(c);
  }

 private:
  const HdcClassifier& require_fit() const;

  std::size_t dims_;
  std::size_t k_;
  std::optional<HdcClassifier> centroids_;  ///< set by fit()
};

}  // namespace generic::model
