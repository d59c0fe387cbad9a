#include "resilience/block_guard.h"

#include <algorithm>
#include <stdexcept>

namespace generic::resilience {
namespace {

std::uint32_t chunk_crc(const hdc::IntHV& vec, std::size_t chunk_index,
                        std::size_t chunk) {
  const auto* bytes =
      reinterpret_cast<const std::uint8_t*>(vec.data() + chunk_index * chunk);
  return model::crc32(bytes, chunk * sizeof(std::int32_t));
}

std::int64_t chunk_norm2(const hdc::IntHV& vec, std::size_t chunk_index,
                         std::size_t chunk) {
  std::int64_t acc = 0;
  for (std::size_t j = chunk_index * chunk; j < (chunk_index + 1) * chunk; ++j)
    acc += static_cast<std::int64_t>(vec[j]) * vec[j];
  return acc;
}

}  // namespace

BlockGuard BlockGuard::commission(const model::HdcClassifier& clf) {
  BlockGuard g;
  g.dims_ = clf.dims();
  g.num_classes_ = clf.num_classes();
  g.num_chunks_ = clf.num_chunks();
  g.chunk_ = clf.dims() / clf.num_chunks();
  g.crcs_.resize(g.num_classes_ * g.num_chunks_);
  for (std::size_t c = 0; c < g.num_classes_; ++c)
    for (std::size_t k = 0; k < g.num_chunks_; ++k)
      g.crcs_[c * g.num_chunks_ + k] =
          chunk_crc(clf.class_vector(c), k, g.chunk_);
  return g;
}

std::vector<bool> BlockGuard::scan(const model::HdcClassifier& clf) const {
  if (clf.dims() != dims_ || clf.num_classes() != num_classes_ ||
      clf.num_chunks() != num_chunks_)
    throw std::invalid_argument("BlockGuard::scan: geometry mismatch");
  std::vector<bool> ok(num_chunks_, true);
  for (std::size_t k = 0; k < num_chunks_; ++k) {
    for (std::size_t c = 0; c < num_classes_ && ok[k]; ++c) {
      const auto& vec = clf.class_vector(c);
      if (chunk_crc(vec, k, chunk_) != crcs_[c * num_chunks_ + k] ||
          chunk_norm2(vec, k, chunk_) != clf.chunk_norm(c, k))
        ok[k] = false;
    }
  }
  return ok;
}

std::size_t BlockGuard::count_faulty(const model::HdcClassifier& clf) const {
  std::size_t n = 0;
  for (bool ok : scan(clf))
    if (!ok) ++n;
  return n;
}

std::size_t BlockGuard::scrub(model::HdcClassifier& clf,
                              const model::HdcClassifier& golden) const {
  if (golden.dims() != dims_ || golden.num_classes() != num_classes_ ||
      golden.num_chunks() != num_chunks_)
    throw std::invalid_argument("BlockGuard::scrub: golden geometry mismatch");
  const auto ok = scan(clf);
  const auto repaired = static_cast<std::size_t>(
      std::count(ok.begin(), ok.end(), false));
  if (repaired == 0) return 0;
  for (std::size_t c = 0; c < num_classes_; ++c) {
    const auto& gold = golden.class_vector(c);
    clf.edit_class_vector(c, [&](std::span<std::int32_t> row) {
      for (std::size_t k = 0; k < num_chunks_; ++k) {
        if (ok[k]) continue;
        const auto at = static_cast<std::ptrdiff_t>(k * chunk_);
        std::copy_n(gold.begin() + at, chunk_, row.begin() + at);
      }
    });
    clf.recompute_norms(c);
  }
  return repaired;
}

std::size_t BlockGuard::scrub_from_blob(
    model::HdcClassifier& clf, const std::vector<std::uint8_t>& blob) const {
  const model::SavedModel golden = model::deserialize_model(blob);
  return scrub(clf, golden.classifier);
}

}  // namespace generic::resilience
