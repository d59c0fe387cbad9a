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

/// Samples a retraining epoch scores per pooled dot tile.
constexpr std::size_t kRetrainBlock = 32;

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

struct HdcClassifier::Scoring {
  std::vector<hdc::kernels::DimRun> runs;  ///< one per run of read chunks
  std::vector<std::int64_t> norms;         ///< per class, over the runs
  std::vector<const std::int32_t*> classes;
  std::vector<const std::int16_t*> narrow;  ///< the rows' int16 copies
  std::int64_t max_abs = 0;                 ///< max |c| over every row
  NormMode mode = NormMode::kUpdated;
  std::size_t chunk = 0;

  /// norms[c] from class c's chunk norms: the read chunks' (Updated) or
  /// every chunk's (Constant).
  void set_norm(std::size_t c, const std::vector<std::int64_t>& chunk_norms) {
    std::int64_t n2 = 0;  // a register, not norms[c], carries the sum
    if (mode == NormMode::kConstant) {
      n2 = std::accumulate(chunk_norms.begin(), chunk_norms.end(),
                           std::int64_t{0});
    } else {
      for (const auto& r : runs)
        for (std::size_t k = r.begin / chunk; k < r.end / chunk; ++k)
          n2 += chunk_norms[k];
    }
    norms[c] = n2;
  }

  /// out[i * classes.size() + c]: the dots of `n` query rows against every
  /// class over the runs, from one dot tile.
  void dot(const std::int32_t* const* queries, std::size_t n,
           std::int64_t* out) const {
    hdc::kernels::active().dot_tile(
        queries, n, {classes.data(), classes.size(), narrow.data(), max_abs},
        runs.data(), runs.size(), out);
  }

  /// The fixed-order argmax with margin over one query's class dots.
  Prediction best(const std::int64_t* dot) const {
    return argmax_with_margin(norms.size(), [&](std::size_t c) {
      return signed_square_score(dot[c], norms[c]);
    });
  }
};

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

void HdcClassifier::train_batch(std::span<const hdc::IntHV> encoded,
                                std::span<const int> labels,
                                ThreadPool& pool) {
  GENERIC_SPAN("train.batch");
  check_samples(encoded, labels, "train_batch");
  GENERIC_COUNTER_ADD("train.samples", encoded.size());
  for (auto& cls : classes_) std::fill(cls.begin(), cls.end(), 0);
  // Each chunk owns a range of class rows and adds, in sample order, the
  // samples labelled into it: no row has two writers, and the integer sums
  // are the same for every split.
  pool.parallel_for(num_classes_, [&](std::size_t begin, std::size_t end,
                                      std::size_t) {
    GENERIC_SPAN("train.batch.chunk");
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      const auto c = static_cast<std::size_t>(labels[i]);
      if (c >= begin && c < end) hdc::add_into(classes_[c], encoded[i]);
    }
  });
  recompute_norms();
  refresh_narrow();
}

std::size_t HdcClassifier::retrain_epoch_parallel(
    std::span<const hdc::IntHV> encoded, std::span<const int> labels,
    ThreadPool& pool) {
  GENERIC_SPAN("train.epoch");
  check_samples(encoded, labels, "retrain_epoch_parallel");
  // Samples stay sequential (each update feeds the next prediction), but
  // their dots need not be computed one at a time: a block is scored in one
  // pooled tile against the memory as it stands, then walked in order. An
  // update at sample k changes only rows pred and label, so just those two
  // columns are re-scored for the block's later samples; every other dot
  // and norm is still current. The dots are exact, so each prediction is
  // the one predict() returns at that point of the sequential loop.
  Scoring s = prepare(nullptr, NormMode::kUpdated);
  const std::size_t nc = num_classes_;
  std::vector<const std::int32_t*> rows(kRetrainBlock);
  std::vector<std::int64_t> dots(kRetrainBlock * nc);
  std::vector<std::int64_t> moved_dots(2 * kRetrainBlock);
  std::size_t updates = 0;
  for (std::size_t b = 0; b < encoded.size(); b += kRetrainBlock) {
    const std::size_t n = std::min(kRetrainBlock, encoded.size() - b);
    for (std::size_t i = 0; i < n; ++i) rows[i] = encoded[b + i].data();
    // Each pool chunk writes its own queries' rows of `dots`.
    pool.parallel_for(n, [&](std::size_t begin, std::size_t end, std::size_t) {
      s.dot(rows.data() + begin, end - begin, dots.data() + begin * nc);
    });
    for (std::size_t k = 0; k < n; ++k) {
      const int label = labels[b + k];
      const int pred = s.best(dots.data() + k * nc).cls;
      if (pred == label) continue;
      ++updates;
      move_sample(encoded[b + k], pred, label);
      const std::size_t moved[2] = {static_cast<std::size_t>(pred),
                                    static_cast<std::size_t>(label)};
      for (std::size_t c : moved) s.set_norm(c, chunk_norms_[c]);
      // A stale bound could let the tile read a row's int16 copy after the
      // update pushed it past 32767.
      s.max_abs = class_max_abs();
      const std::size_t rest = n - k - 1;
      if (rest == 0) continue;
      const std::int32_t* pair[2] = {s.classes[moved[0]], s.classes[moved[1]]};
      const std::int16_t* pair16[2] = {s.narrow[moved[0]], s.narrow[moved[1]]};
      hdc::kernels::active().dot_tile(rows.data() + k + 1, rest,
                                      {pair, 2, pair16, s.max_abs},
                                      s.runs.data(), s.runs.size(),
                                      moved_dots.data());
      for (std::size_t i = 0; i < rest; ++i)
        for (std::size_t j = 0; j < 2; ++j)
          dots[(k + 1 + i) * nc + moved[j]] = moved_dots[2 * i + j];
    }
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
      scan_batch(row_pointers(queries), std::vector<bool>(num_chunks_, true),
                 NormMode::kUpdated, pool);
  std::vector<int> out(preds.size(), 0);
  for (std::size_t i = 0; i < preds.size(); ++i) out[i] = preds[i].cls;
  return out;
}

std::vector<Prediction> HdcClassifier::predict_masked_margin_batch(
    std::span<const hdc::IntHV> queries, const std::vector<bool>& chunk_ok,
    ThreadPool& pool) const {
  return scan_batch(row_pointers(queries), chunk_ok, NormMode::kUpdated, pool);
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
  return scan_one(query, prepare(nullptr, NormMode::kUpdated)).cls;
}

std::vector<bool> HdcClassifier::prefix_mask(
    std::size_t dims_used, const std::vector<bool>& chunk_ok) const {
  if (dims_used == 0 || dims_used > dims_ || dims_used % chunk_ != 0)
    throw std::invalid_argument(
        "prefix_mask: dims_used must be a chunk multiple");
  if (!chunk_ok.empty() && chunk_ok.size() != num_chunks_)
    throw std::invalid_argument("prefix_mask: mask size mismatch");
  std::vector<bool> mask(num_chunks_, false);
  for (std::size_t k = 0; k < dims_used / chunk_; ++k)
    mask[k] = chunk_ok.empty() || chunk_ok[k];
  return mask;
}

void HdcClassifier::check_mask(const std::vector<bool>& chunk_ok) const {
  if (chunk_ok.size() != num_chunks_)
    throw std::invalid_argument("scan: mask size mismatch");
  if (std::find(chunk_ok.begin(), chunk_ok.end(), true) == chunk_ok.end())
    throw std::invalid_argument("scan: all chunks masked");
}

HdcClassifier::Scoring HdcClassifier::prepare(
    const std::vector<bool>* chunk_ok, NormMode mode) const {
  Scoring s;
  auto enabled = [&](std::size_t k) {
    return chunk_ok == nullptr || (*chunk_ok)[k];
  };
  for (std::size_t k = 0; k < num_chunks_;) {
    if (!enabled(k)) {
      ++k;
      continue;
    }
    const std::size_t run = k;
    while (k < num_chunks_ && enabled(k)) ++k;
    s.runs.push_back({run * chunk_, k * chunk_});
  }
  s.mode = mode;
  s.chunk = chunk_;
  s.norms.assign(num_classes_, 0);
  s.classes.resize(num_classes_);
  s.narrow.resize(num_classes_);
  s.max_abs = class_max_abs();
  for (std::size_t c = 0; c < num_classes_; ++c) {
    s.set_norm(c, chunk_norms_[c]);
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
  s.dot(rows.data(), n, dots.data());
  for (std::size_t i = 0; i < n; ++i)
    out[i] = s.best(dots.data() + i * num_classes_);
}

void HdcClassifier::check_query(const hdc::IntHV& query) const {
  if (query.size() != dims_)
    throw std::invalid_argument("predict: query dimension mismatch");
}

Prediction HdcClassifier::scan_one(const hdc::IntHV& query,
                                   const Scoring& s) const {
  check_query(query);
  const hdc::IntHV* row = &query;
  Prediction p;
  scan_block(s, &row, 1, &p);
  return p;
}

Prediction HdcClassifier::scan(const hdc::IntHV& query,
                               const std::vector<bool>& chunk_ok,
                               NormMode mode) const {
  check_mask(chunk_ok);
  return scan_one(query, prepare(&chunk_ok, mode));
}

std::vector<Prediction> HdcClassifier::scan_batch(
    std::span<const hdc::IntHV* const> queries,
    const std::vector<bool>& chunk_ok, NormMode mode, ThreadPool& pool) const {
  check_mask(chunk_ok);
  GENERIC_SPAN("predict.batch");
  for (const hdc::IntHV* q : queries) check_query(*q);
  const Scoring s = prepare(&chunk_ok, mode);
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

}  // namespace generic::model
