// Shared fixture for the serve suites: a small deterministic classifier
// (512 dims, 4 chunks, 3 classes) plus a labelled query set the model
// classifies well, so accuracy assertions have signal.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "hdc/hypervector.h"
#include "model/hdc_classifier.h"

namespace generic::serve::test {

struct TinyWorkload {
  model::HdcClassifier clf{512, 3, 128};
  std::vector<hdc::IntHV> queries;
  std::vector<int> labels;
};

inline TinyWorkload make_workload(std::size_t n_queries = 64) {
  TinyWorkload w;
  Rng rng(0x5EEDF00Dull);
  const std::size_t dims = 512;
  const int classes = 3;
  std::vector<hdc::IntHV> base(classes, hdc::IntHV(dims));
  for (auto& b : base)
    for (auto& v : b) v = rng.bernoulli(0.5) ? 1 : -1;
  std::vector<hdc::IntHV> train;
  std::vector<int> train_y;
  for (int c = 0; c < classes; ++c) {
    for (int i = 0; i < 20; ++i) {
      hdc::IntHV h = base[static_cast<std::size_t>(c)];
      for (auto& v : h)
        if (rng.bernoulli(0.05)) v = -v;
      train.push_back(h);
      train_y.push_back(c);
    }
  }
  w.clf.train_batch(train, train_y, global_pool());
  for (std::size_t i = 0; i < n_queries; ++i) {
    const int c = static_cast<int>(i % classes);
    hdc::IntHV h = base[static_cast<std::size_t>(c)];
    for (auto& v : h)
      if (rng.bernoulli(0.05)) v = -v;
    w.queries.push_back(h);
    w.labels.push_back(c);
  }
  return w;
}

}  // namespace generic::serve::test
