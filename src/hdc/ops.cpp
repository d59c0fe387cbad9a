#include "hdc/ops.h"

#include <algorithm>
#include <stdexcept>

#include "hdc/kernels.h"
#include "obs/obs.h"

namespace generic::hdc {

BinaryHV threshold(const IntHV& v, std::int32_t thresh) {
  BinaryHV out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    if (v[i] >= thresh) out.set(i, true);
  return out;
}

BinaryHV majority(std::span<const BinaryHV> members) {
  if (members.empty()) throw std::invalid_argument("majority: empty set");
  IntHV acc(members.front().dims(), 0);
  for (const auto& m : members) m.accumulate_into(acc);
  return threshold(acc, 0);
}

void weighted_accumulate(IntHV& acc, const BinaryHV& hv, std::int32_t weight) {
  if (acc.size() != hv.dims())
    throw std::invalid_argument("weighted_accumulate: dimension mismatch");
  if (weight == 0) return;
  for (std::size_t i = 0; i < acc.size(); ++i)
    acc[i] += weight * hv.bipolar(i);
}

double hamming_similarity(const BinaryHV& a, const BinaryHV& b) {
  if (a.dims() == 0) throw std::invalid_argument("hamming_similarity: empty");
  return 1.0 - 2.0 * static_cast<double>(a.hamming(b)) /
                   static_cast<double>(a.dims());
}

BinaryHV bind_sequence(std::span<const BinaryHV> symbols) {
  if (symbols.empty()) throw std::invalid_argument("bind_sequence: empty");
  const std::size_t n = symbols.size();
  BinaryHV out = symbols[n - 1];
  for (std::size_t i = n - 1; i-- > 0;)
    out ^= symbols[i].rotated(n - 1 - i);
  return out;
}

std::vector<std::size_t> hamming_many(const BinaryHV& query,
                                      std::span<const BinaryHV> refs) {
  // Validate before touching any row: a mismatched ref list must throw up
  // front, never return a partial (or, for an empty query, all-zero) result.
  for (const auto& ref : refs)
    if (ref.dims() != query.dims())
      throw std::invalid_argument("hamming_many: dimension mismatch");
  GENERIC_COUNTER_ADD("ops.hamming.calls", 1);
  GENERIC_COUNTER_ADD("ops.hamming.rows", refs.size());
  std::vector<std::size_t> out(refs.size(), 0);
  if (refs.empty() || query.words().empty()) return out;
  const kernels::Kernels& k = kernels::active();
  const auto qw = query.words();
  std::vector<const std::uint64_t*> rows(refs.size());
  // Tile-major: one query tile is streamed against every row before the
  // next tile is touched, so the query words stay cache-resident even when
  // refs holds thousands of rows.
  for (std::size_t t = 0; t < qw.size(); t += kHammingTileWords) {
    const std::size_t len = std::min(kHammingTileWords, qw.size() - t);
    for (std::size_t r = 0; r < refs.size(); ++r)
      rows[r] = refs[r].words().data() + t;
    k.xor_popcount_many(qw.data() + t, rows.data(), rows.size(), len,
                        out.data());
  }
  return out;
}

std::size_t nearest_hamming(const BinaryHV& query,
                            std::span<const BinaryHV> refs) {
  if (refs.empty()) throw std::invalid_argument("nearest_hamming: empty");
  GENERIC_COUNTER_ADD("ops.nearest.calls", 1);
  const auto dists = hamming_many(query, refs);
  std::size_t best = 0;
  for (std::size_t r = 1; r < dists.size(); ++r)
    if (dists[r] < dists[best]) best = r;
  return best;
}

}  // namespace generic::hdc
