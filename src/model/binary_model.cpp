#include "model/binary_model.h"

#include "hdc/ops.h"

#include <stdexcept>

namespace generic::model {

BinaryModel::BinaryModel(const HdcClassifier& classifier)
    : dims_(classifier.dims()) {
  classes_.reserve(classifier.num_classes());
  for (std::size_t c = 0; c < classifier.num_classes(); ++c)
    classes_.push_back(binarize(classifier.class_vector(c)));
}

hdc::BinaryHV BinaryModel::binarize(const hdc::IntHV& v) {
  return hdc::threshold(v, 0);
}

int BinaryModel::predict_packed(const hdc::BinaryHV& query) const {
  if (query.dims() != dims_)
    throw std::invalid_argument("BinaryModel: query dimension mismatch");
  // max dot == min hamming for bipolar vectors of equal norm; ties resolve
  // to the lowest class index in both formulations.
  return static_cast<int>(hdc::nearest_hamming(query, classes_));
}

int BinaryModel::predict(const hdc::IntHV& query) const {
  return predict_packed(binarize(query));
}

}  // namespace generic::model
