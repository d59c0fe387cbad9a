#include "model/hdc_classifier.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <stdexcept>

#include "hdc/kernels.h"
#include "obs/obs.h"

namespace generic::model {
namespace {

/// Signed squared-cosine numerator of one class, sign(H.C) * (H.C)^2 /
/// ||C||^2 over the chunks read; 0 for a class whose read chunks are all
/// zero.
double signed_square_score(std::int64_t dot, std::int64_t n2) {
  if (n2 == 0) return 0.0;
  const double num =
      static_cast<double>(dot) * static_cast<double>(std::abs(dot));
  return num / static_cast<double>(n2);
}

std::vector<const hdc::IntHV*> row_pointers(
    std::span<const hdc::IntHV> queries) {
  std::vector<const hdc::IntHV*> rows(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) rows[i] = &queries[i];
  return rows;
}

/// The one fixed-order argmax (first maximum wins) with runner-up
/// tracking every similarity search ends in. The margin is
/// NORMALIZED: (best - second) / (|best| + |second|), which lands in
/// [0, 1] regardless of dims, bit width or norm magnitudes — so
/// downstream consumers (the lifecycle drift detector) can use scale-free
/// thresholds. 0 with fewer than two classes or two zero scores.
template <typename Scorer>
Prediction argmax_with_margin(std::size_t num_classes, Scorer&& scorer) {
  Prediction p;
  double best = -std::numeric_limits<double>::infinity();
  double second = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < num_classes; ++c) {
    const double s = scorer(c);
    if (s > best) {
      second = best;
      best = s;
      p.cls = static_cast<int>(c);
    } else if (s > second) {
      second = s;
    }
  }
  if (num_classes >= 2) {
    const double denom = std::abs(best) + std::abs(second);
    p.margin = denom > 0.0 ? (best - second) / denom : 0.0;
  }
  return p;
}

}  // namespace

HdcClassifier::HdcClassifier(std::size_t dims, std::size_t num_classes,
                             std::size_t chunk)
    : dims_(dims), num_classes_(num_classes), chunk_(chunk) {
  if (dims == 0 || num_classes == 0 || chunk == 0)
    throw std::invalid_argument("HdcClassifier: zero-sized parameter");
  if (dims % chunk != 0)
    throw std::invalid_argument("HdcClassifier: dims must be a chunk multiple");
  num_chunks_ = dims / chunk;
  classes_.assign(num_classes, hdc::IntHV(dims, 0));
  narrow_.assign(num_classes * dims, 0);
  narrow_max_.assign(num_classes, 0);
  chunk_norms_.assign(num_classes, std::vector<std::int64_t>(num_chunks_, 0));
}

void HdcClassifier::move_sample(const hdc::IntHV& encoded, int from, int to) {
  const auto f = static_cast<std::size_t>(from);
  const auto t = static_cast<std::size_t>(to);
  hdc::add_into(classes_.at(f), encoded, -1);
  hdc::add_into(classes_.at(t), encoded, +1);
  // Only the two touched classes need their norms and copies refreshed.
  for (std::size_t c : {f, t}) {
    recompute_norms(c);
    refresh_narrow(c);
  }
}

bool HdcClassifier::online_update(const hdc::IntHV& encoded, int label) {
  if (label < 0 || static_cast<std::size_t>(label) >= num_classes_)
    throw std::invalid_argument("online_update: label out of range");
  const int pred = predict(encoded);
  if (pred == label) return false;
  move_sample(encoded, pred, label);
  return true;
}

bool HdcClassifier::online_update_adaptive(const hdc::IntHV& encoded,
                                           int label) {
  if (label < 0 || static_cast<std::size_t>(label) >= num_classes_)
    throw std::invalid_argument("online_update_adaptive: label out of range");
  const int pred = predict(encoded);
  if (pred == label) return false;
  const auto right_c = static_cast<std::size_t>(label);
  const auto wrong_c = static_cast<std::size_t>(pred);
  // Both dots from one tile; each norm2 is computed fresh from the row, not
  // read from the chunk norms (which fault injection may have left stale).
  const std::int32_t* query = encoded.data();
  const std::int32_t* rows[2] = {classes_[right_c].data(),
                                 classes_[wrong_c].data()};
  const hdc::kernels::DimRun all{0, dims_};
  std::int64_t dots[2];
  hdc::kernels::active().dot_tile(&query, 1, {rows, 2}, &all, 1, dots);
  auto cos_to = [&](std::size_t c, std::int64_t dot) {
    const std::int64_t n2 = hdc::norm2(classes_[c]);
    if (n2 == 0) return 0.0;
    return static_cast<double>(dot) /
           (std::sqrt(static_cast<double>(hdc::norm2(encoded))) *
            std::sqrt(static_cast<double>(n2)));
  };
  const double w_in = std::clamp(1.0 - cos_to(right_c, dots[0]), 0.0, 2.0);
  const double w_out =
      std::clamp(0.5 * (1.0 + cos_to(wrong_c, dots[1])), 0.0, 1.0);
  auto& right = classes_[right_c];
  auto& wrong = classes_[wrong_c];
  for (std::size_t j = 0; j < dims_; ++j) {
    right[j] += static_cast<std::int32_t>(std::lround(w_in * encoded[j]));
    wrong[j] -= static_cast<std::int32_t>(std::lround(w_out * encoded[j]));
  }
  for (std::size_t c : {right_c, wrong_c}) {
    recompute_norms(c);
    refresh_narrow(c);
  }
  return true;
}

void HdcClassifier::train_batch(std::span<const hdc::IntHV> encoded,
                                std::span<const int> labels,
                                ThreadPool& pool) {
  GENERIC_SPAN("train.batch");
  check_samples(encoded, labels, "train_batch");
  GENERIC_COUNTER_ADD("train.samples", encoded.size());
  const auto grid = ThreadPool::chunk_grid(encoded.size(), pool.lanes());
  // One private set of class accumulators per chunk; parallel_for hands
  // chunk c exactly grid[c], so partials[c] is written by a single lane.
  std::vector<std::vector<hdc::IntHV>> partials(
      grid.size(), std::vector<hdc::IntHV>(num_classes_, hdc::IntHV(dims_, 0)));
  pool.parallel_for(encoded.size(),
                    [&](std::size_t begin, std::size_t end, std::size_t c) {
                      GENERIC_SPAN("train.batch.chunk");
                      auto& local = partials[c];
                      for (std::size_t i = begin; i < end; ++i)
                        hdc::add_into(
                            local[static_cast<std::size_t>(labels[i])],
                            encoded[i]);
                    });
  for (auto& cls : classes_) std::fill(cls.begin(), cls.end(), 0);
  // Fixed chunk-index merge order; integer addition makes the result
  // independent of the split anyway.
  for (const auto& local : partials)
    for (std::size_t c = 0; c < num_classes_; ++c)
      hdc::add_into(classes_[c], local[c]);
  recompute_norms();
  refresh_narrow();
}

std::size_t HdcClassifier::retrain_epoch_parallel(
    std::span<const hdc::IntHV> encoded, std::span<const int> labels,
    ThreadPool& pool) {
  GENERIC_SPAN("train.epoch");
  check_samples(encoded, labels, "retrain_epoch_parallel");
  const ChunkSet all{num_chunks_};
  std::size_t updates = 0;
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    // Each update feeds the next prediction, so samples stay sequential,
    // and one sample is a single-query dot tile: too little work to split.
    // It runs as a one-chunk job, which the pool executes inline on the
    // caller, so the pool's job accounting is one job per sample for any
    // lane count. The scan is predict()'s.
    int pred = 0;
    pool.parallel_for(1, [&](std::size_t, std::size_t, std::size_t) {
      pred = scan(encoded[i], all).cls;
    });
    if (pred == labels[i]) continue;
    ++updates;
    move_sample(encoded[i], pred, labels[i]);
  }
  GENERIC_COUNTER_ADD("train.updates", updates);
  return updates;
}

void HdcClassifier::fit_parallel(std::span<const hdc::IntHV> encoded,
                                 std::span<const int> labels,
                                 std::size_t epochs, ThreadPool& pool) {
  GENERIC_SPAN("train.fit");
  train_batch(encoded, labels, pool);
  for (std::size_t e = 0; e < epochs; ++e)
    if (retrain_epoch_parallel(encoded, labels, pool) == 0) break;
}

std::vector<int> HdcClassifier::predict_batch(
    std::span<const hdc::IntHV> queries, ThreadPool& pool) const {
  const std::vector<Prediction> preds =
      scan_batch(row_pointers(queries), ChunkSet{num_chunks_}, pool);
  std::vector<int> out(preds.size(), 0);
  for (std::size_t i = 0; i < preds.size(); ++i) out[i] = preds[i].cls;
  return out;
}

std::vector<Prediction> HdcClassifier::predict_masked_margin_batch(
    std::span<const hdc::IntHV> queries, const std::vector<bool>& chunk_ok,
    ThreadPool& pool) const {
  return predict_masked_margin_batch(row_pointers(queries), chunk_ok, pool);
}

std::vector<Prediction> HdcClassifier::predict_masked_margin_batch(
    std::span<const hdc::IntHV* const> queries,
    const std::vector<bool>& chunk_ok, ThreadPool& pool) const {
  return scan_batch(queries, masked_chunks(chunk_ok), pool);
}

void HdcClassifier::set_class_vector(std::size_t c, hdc::IntHV row) {
  if (row.size() != dims_)
    throw std::invalid_argument("set_class_vector: dimension mismatch");
  classes_.at(c) = std::move(row);
  refresh_narrow(c);
}

std::int64_t HdcClassifier::class_max_abs() const {
  return *std::max_element(narrow_max_.begin(), narrow_max_.end());
}

void HdcClassifier::refresh_narrow() {
  for (std::size_t c = 0; c < num_classes_; ++c) refresh_narrow(c);
}

void HdcClassifier::refresh_narrow(std::size_t c) {
  const std::int32_t* row = classes_[c].data();
  std::int16_t* dst = narrow_.data() + c * dims_;
  std::int32_t lo = 0;
  std::int32_t hi = 0;
  for (std::size_t j = 0; j < dims_; ++j) {
    lo = std::min(lo, row[j]);
    hi = std::max(hi, row[j]);
    dst[j] = static_cast<std::int16_t>(row[j]);
  }
  narrow_max_[c] = std::max(-static_cast<std::int64_t>(lo),
                            static_cast<std::int64_t>(hi));
}

void HdcClassifier::recompute_norms() {
  for (std::size_t c = 0; c < num_classes_; ++c) recompute_norms(c);
}

void HdcClassifier::recompute_norms(std::size_t cls) {
  const auto& c = classes_.at(cls);
  for (std::size_t k = 0; k < num_chunks_; ++k) {
    std::int64_t acc = 0;
    for (std::size_t j = k * chunk_; j < (k + 1) * chunk_; ++j)
      acc += static_cast<std::int64_t>(c[j]) * c[j];
    chunk_norms_[cls][k] = acc;
  }
}

int HdcClassifier::predict(const hdc::IntHV& query) const {
  GENERIC_COUNTER_ADD("predict.queries", 1);
  return scan(query, ChunkSet{num_chunks_}).cls;
}

int HdcClassifier::predict_reduced(const hdc::IntHV& query,
                                   std::size_t dims_used,
                                   NormMode mode) const {
  return scan(query, prefix_chunks(dims_used, mode)).cls;
}

Prediction HdcClassifier::predict_reduced_margin(const hdc::IntHV& query,
                                                 std::size_t dims_used,
                                                 NormMode mode) const {
  return scan(query, prefix_chunks(dims_used, mode));
}

int HdcClassifier::predict_masked(const hdc::IntHV& query,
                                  const std::vector<bool>& chunk_ok) const {
  return scan(query, masked_chunks(chunk_ok)).cls;
}

HdcClassifier::ChunkSet HdcClassifier::prefix_chunks(std::size_t dims_used,
                                                     NormMode mode) const {
  if (dims_used == 0 || dims_used > dims_ || dims_used % chunk_ != 0)
    throw std::invalid_argument(
        "predict_reduced: dims_used must be a chunk multiple");
  return ChunkSet{dims_used / chunk_, nullptr, mode};
}

HdcClassifier::ChunkSet HdcClassifier::masked_chunks(
    const std::vector<bool>& chunk_ok) const {
  if (chunk_ok.size() != num_chunks_)
    throw std::invalid_argument("predict_masked: mask size mismatch");
  if (std::find(chunk_ok.begin(), chunk_ok.end(), true) == chunk_ok.end())
    throw std::invalid_argument("predict_masked: all chunks masked");
  return ChunkSet{num_chunks_, &chunk_ok};
}

struct HdcClassifier::Scoring {
  std::vector<hdc::kernels::DimRun> runs;  ///< one per run of read chunks
  std::vector<std::int64_t> norms;         ///< per class, over the runs
  std::vector<const std::int32_t*> classes;
  std::vector<const std::int16_t*> narrow;  ///< the rows' int16 copies
  std::int64_t max_abs = 0;                 ///< max |c| over every row
};

HdcClassifier::Scoring HdcClassifier::prepare(const ChunkSet& on) const {
  Scoring s;
  auto enabled = [&](std::size_t k) {
    return on.mask == nullptr || (*on.mask)[k];
  };
  for (std::size_t k = 0; k < on.prefix;) {
    if (!enabled(k)) {
      ++k;
      continue;
    }
    const std::size_t run = k;
    while (k < on.prefix && enabled(k)) ++k;
    s.runs.push_back({run * chunk_, k * chunk_});
  }
  s.norms.assign(num_classes_, 0);
  s.classes.resize(num_classes_);
  s.narrow.resize(num_classes_);
  s.max_abs = class_max_abs();
  for (std::size_t c = 0; c < num_classes_; ++c) {
    const auto& norms = chunk_norms_[c];
    if (on.mode == NormMode::kConstant) {
      s.norms[c] = std::accumulate(norms.begin(), norms.end(), std::int64_t{0});
    } else {
      std::int64_t n2 = 0;  // a register, not s.norms[c], carries the sum
      for (const auto& r : s.runs)
        for (std::size_t k = r.begin / chunk_; k < r.end / chunk_; ++k)
          n2 += norms[k];
      s.norms[c] = n2;
    }
    s.classes[c] = classes_[c].data();
    s.narrow[c] = narrow_.data() + c * dims_;
  }
  return s;
}

void HdcClassifier::scan_block(const Scoring& s,
                               const hdc::IntHV* const* queries, std::size_t n,
                               Prediction* out) const {
  std::vector<const std::int32_t*> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = queries[i]->data();
  std::vector<std::int64_t> dots(n * num_classes_);
  hdc::kernels::active().dot_tile(
      rows.data(), n,
      {s.classes.data(), num_classes_, s.narrow.data(), s.max_abs},
      s.runs.data(), s.runs.size(), dots.data());
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t* dot = dots.data() + i * num_classes_;
    out[i] = argmax_with_margin(num_classes_, [&](std::size_t c) {
      return signed_square_score(dot[c], s.norms[c]);
    });
  }
}

void HdcClassifier::check_query(const hdc::IntHV& query) const {
  if (query.size() != dims_)
    throw std::invalid_argument("predict: query dimension mismatch");
}

Prediction HdcClassifier::scan(const hdc::IntHV& query,
                               const ChunkSet& on) const {
  check_query(query);
  const hdc::IntHV* row = &query;
  Prediction p;
  scan_block(prepare(on), &row, 1, &p);
  return p;
}

std::vector<Prediction> HdcClassifier::scan_batch(
    std::span<const hdc::IntHV* const> queries, const ChunkSet& on,
    ThreadPool& pool) const {
  GENERIC_SPAN("predict.batch");
  for (const hdc::IntHV* q : queries) check_query(*q);
  const Scoring s = prepare(on);
  std::vector<Prediction> out(queries.size());
  // One dot tile per pool chunk: the chunk's queries against every class.
  pool.parallel_for(queries.size(),
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      GENERIC_SPAN("predict.chunk");
                      GENERIC_COUNTER_ADD("predict.queries", end - begin);
                      scan_block(s, queries.data() + begin, end - begin,
                                 out.data() + begin);
                    });
  return out;
}

void HdcClassifier::check_samples(std::span<const hdc::IntHV> encoded,
                                  std::span<const int> labels,
                                  const char* who) const {
  const std::string prefix = std::string(who) + ": ";
  if (encoded.size() != labels.size())
    throw std::invalid_argument(prefix + "size mismatch");
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    if (labels[i] < 0 || static_cast<std::size_t>(labels[i]) >= num_classes_)
      throw std::invalid_argument(prefix + "label out of range");
    if (encoded[i].size() != dims_)
      throw std::invalid_argument(prefix + "sample dimension mismatch");
  }
}

void HdcClassifier::quantize(int bit_width) {
  if (bit_width < 1 || bit_width > 16)
    throw std::invalid_argument("quantize: bit_width must be in [1, 16]");
  std::int64_t max_abs = 1;
  for (const auto& c : classes_)
    for (auto v : c) max_abs = std::max<std::int64_t>(max_abs, std::abs(v));
  if (bit_width == 1) {
    // Sign model: {-1, +1}.
    for (auto& c : classes_)
      for (auto& v : c) v = v >= 0 ? 1 : -1;
  } else {
    const auto qmax =
        static_cast<double>((1 << (bit_width - 1)) - 1);  // e.g. 127 for 8b
    // Clip at min(max_abs, qmax * sigma): for wide words this is max_abs
    // (nothing clips); for 2-bit models it keeps the ternary {-1,0,+1}
    // levels populated instead of rounding the Gaussian bulk to zero.
    double sq_sum = 0.0;
    std::size_t count = 0;
    for (const auto& c : classes_)
      for (auto v : c) {
        sq_sum += static_cast<double>(v) * v;
        ++count;
      }
    const double sigma = std::sqrt(sq_sum / static_cast<double>(count));
    const double clip =
        std::min(static_cast<double>(max_abs), std::max(1.0, qmax * sigma));
    const double scale = qmax / clip;
    for (auto& c : classes_)
      for (auto& v : c)
        v = static_cast<std::int32_t>(std::clamp<long>(
            std::lround(v * scale), static_cast<long>(-qmax - 1),
            static_cast<long>(qmax)));
  }
  bit_width_ = bit_width;
  recompute_norms();
  refresh_narrow();
}

void HdcClassifier::inject_bit_flips(double rate, Rng& rng) {
  if (rate <= 0.0) return;
  const int bw = bit_width_;
  const std::int32_t mask =
      bw >= 32 ? -1 : static_cast<std::int32_t>((1u << bw) - 1u);
  for (auto& c : classes_) {
    for (auto& v : c) {
      if (bw == 1) {
        // Bipolar 1-bit storage: bit 1 == +1, bit 0 == -1 (NOT two's
        // complement, where -1 would alias +1 in the low bit).
        std::uint32_t word = v > 0 ? 1u : 0u;
        if (rng.bernoulli(rate)) word ^= 1u;
        v = word ? 1 : -1;
        continue;
      }
      // Interpret the element as a bw-bit two's-complement word, as the
      // class SRAM stores it.
      auto word = static_cast<std::uint32_t>(v) & static_cast<std::uint32_t>(mask);
      for (int b = 0; b < bw; ++b)
        if (rng.bernoulli(rate)) word ^= (1u << b);
      // Sign-extend back.
      std::int32_t out = static_cast<std::int32_t>(word);
      if (bw < 32 && (word & (1u << (bw - 1)))) out -= (1 << bw);
      v = out;
    }
  }
  refresh_narrow();  // the scored copy, unlike the norms, never goes stale
}

}  // namespace generic::model
