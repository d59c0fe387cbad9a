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

/// Queries packed into one hdc::QueryBatch: a retraining block, scored in
/// one pooled dot tile, and the most a scan's pool chunk packs at once.
constexpr std::size_t kPackRows = 32;

/// True when every row is `dims` long.
bool all_dims(std::span<const hdc::IntHV> rows, std::size_t dims) {
  return std::all_of(rows.begin(), rows.end(), [&](const hdc::IntHV& row) {
    return row.size() == dims;
  });
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
  const std::int8_t* amx = nullptr;         ///< the rows' AMX operand
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
  void dot(const hdc::kernels::QueryRows& queries, std::size_t n,
           std::int64_t* out) const {
    hdc::kernels::active().dot_tile(
        queries, n,
        {classes.data(), classes.size(), narrow.data(), max_abs, amx},
        runs.data(), runs.size(), out);
  }

  /// Where the last run ends: a query pack needs no dims past it.
  std::size_t reach() const { return runs.back().end; }

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
  if (hdc::kernels::available(hdc::kernels::Backend::kAmx))
    amx_ = hdc::kernels::AmxOperand(num_classes, dims);
  chunk_norms_.assign(num_classes, std::vector<std::int64_t>(num_chunks_, 0));
}

void HdcClassifier::move_sample(const hdc::IntHV& encoded, int from, int to) {
  check_move(encoded.size(), from, to);
  hdc::add_into(classes_[static_cast<std::size_t>(from)], encoded, -1);
  hdc::add_into(classes_[static_cast<std::size_t>(to)], encoded, +1);
  refresh_moved(from, to);
}

void HdcClassifier::move_sample(const hdc::QueryBatch& encoded,
                                std::size_t i, int from, int to) {
  if (i >= encoded.size())
    throw std::out_of_range("move_sample: row out of range");
  check_move(encoded.dims(), from, to);
  encoded.add_into(i, classes_[static_cast<std::size_t>(from)], -1);
  encoded.add_into(i, classes_[static_cast<std::size_t>(to)], +1);
  refresh_moved(from, to);
}

void HdcClassifier::check_move(std::size_t dims, int from, int to) const {
  for (const int c : {from, to})
    if (c < 0 || static_cast<std::size_t>(c) >= num_classes_)
      throw std::out_of_range("move_sample: class out of range");
  if (dims != dims_)
    throw std::invalid_argument("move_sample: dimension mismatch");
}

void HdcClassifier::refresh_moved(int from, int to) {
  // Only the two touched classes need their norms and copies refreshed.
  for (const int c : {from, to}) {
    recompute_norms(static_cast<std::size_t>(c));
    refresh_narrow(static_cast<std::size_t>(c));
  }
}

void HdcClassifier::train_batch(std::span<const hdc::IntHV> encoded,
                                std::span<const int> labels,
                                ThreadPool& pool) {
  GENERIC_SPAN("train.batch");
  check_samples(encoded.size(), all_dims(encoded, dims_), labels,
                "train_batch");
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
      if (c >= begin && c < end) hdc::add_into(classes_[c], encoded[i], +1);
    }
  });
  recompute_norms();
  refresh_narrow();
}

std::size_t HdcClassifier::retrain_epoch_parallel(
    std::span<const hdc::IntHV> encoded, std::span<const int> labels,
    ThreadPool& pool) {
  check_samples(encoded.size(), all_dims(encoded, dims_), labels,
                "retrain_epoch_parallel");
  return retrain_walk(nullptr, encoded, labels, pool);
}

std::size_t HdcClassifier::retrain_epoch_parallel(
    const hdc::QueryBatch& encoded, std::span<const int> labels,
    ThreadPool& pool) {
  check_samples(encoded.size(), encoded.dims() == dims_, labels,
                "retrain_epoch_parallel");
  return retrain_walk(&encoded, {}, labels, pool);
}

std::size_t HdcClassifier::retrain_walk(const hdc::QueryBatch* packed,
                                        std::span<const hdc::IntHV> encoded,
                                        std::span<const int> labels,
                                        ThreadPool& pool) {
  GENERIC_SPAN("train.epoch");
  // Samples stay sequential (each update feeds the next prediction), but
  // their dots need not be computed one at a time: a block is scored in one
  // pooled tile against the memory as it stands, then walked in order. An
  // update at sample k changes only rows pred and label, so just those two
  // columns are re-scored for the block's later samples; every other dot
  // and norm is still current. The dots are exact, so each prediction is
  // the one predict() returns at that point of the sequential loop.
  Scoring s = prepare(nullptr, NormMode::kUpdated);
  const std::size_t nc = num_classes_;
  std::vector<std::int64_t> dots(kPackRows * nc);
  std::vector<std::int64_t> moved_dots(2 * kPackRows);
  hdc::QueryBatch block;
  std::size_t updates = 0;
  for (std::size_t b = 0; b < labels.size(); b += kPackRows) {
    const std::size_t n = std::min(kPackRows, labels.size() - b);
    // The block is rows [first, first + n) of `rows`: the caller's batch,
    // or its IntHVs packed here once for the tile, the re-scores and the
    // updates.
    const hdc::QueryBatch* rows = packed;
    std::size_t first = b;
    if (rows == nullptr) {
      block = hdc::QueryBatch(encoded.subspan(b, n), dims_);
      rows = &block;
      first = 0;
    }
    // Each pool chunk writes its own queries' rows of `dots`.
    pool.parallel_for(n, [&](std::size_t begin, std::size_t end, std::size_t) {
      s.dot(rows->view(first + begin), end - begin, dots.data() + begin * nc);
    });
    for (std::size_t k = 0; k < n; ++k) {
      const int label = labels[b + k];
      const int pred = s.best(dots.data() + k * nc).cls;
      if (pred == label) continue;
      ++updates;
      move_sample(*rows, first + k, pred, label);
      const std::size_t moved[2] = {static_cast<std::size_t>(pred),
                                    static_cast<std::size_t>(label)};
      for (std::size_t c : moved) s.set_norm(c, chunk_norms_[c]);
      // A stale bound could let a tile read a row's narrow copies after the
      // update pushed it past 32767.
      s.max_abs = class_max_abs();
      const std::size_t rest = n - k - 1;
      if (rest == 0) continue;
      const std::int32_t* pair[2] = {s.classes[moved[0]], s.classes[moved[1]]};
      const std::int16_t* pair16[2] = {s.narrow[moved[0]], s.narrow[moved[1]]};
      hdc::kernels::active().dot_tile(rows->view(first + k + 1), rest,
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

std::size_t HdcClassifier::fit_parallel(std::span<const hdc::IntHV> encoded,
                                        std::span<const int> labels,
                                        std::size_t epochs, ThreadPool& pool) {
  // The one-shot pass adds the caller's rows in place, and the first two
  // epochs pack them one 32-sample block at a time. A set still updating
  // after two epochs is read by every epoch until it converges, so it is
  // packed whole then, once. A set that converges within two (an ISOLET
  // shard: one update epoch, then none) never holds the copy, a quarter of
  // its int32 bytes, beside its rows, nor pays for a pack that a single
  // further pass would not earn back.
  train_batch(encoded, labels, pool);
  hdc::QueryBatch batch;
  std::size_t e = 0;
  for (; e < epochs; ++e) {
    const std::size_t updates =
        e < 2 ? retrain_epoch_parallel(encoded, labels, pool)
              : retrain_epoch_parallel(batch, labels, pool);
    if (updates == 0) break;
    if (e == 1 && epochs > 2) batch = hdc::QueryBatch(encoded, dims_);
  }
  return e;
}

std::vector<int> HdcClassifier::predict_batch(
    std::span<const hdc::IntHV> queries, ThreadPool& pool) const {
  const std::vector<Prediction> preds =
      scan_rows(prepare(nullptr, NormMode::kUpdated), queries, pool);
  std::vector<int> out(preds.size(), 0);
  for (std::size_t i = 0; i < preds.size(); ++i) out[i] = preds[i].cls;
  return out;
}

std::vector<Prediction> HdcClassifier::predict_masked_margin_batch(
    std::span<const hdc::IntHV> queries, const std::vector<bool>& chunk_ok,
    ThreadPool& pool) const {
  check_mask(chunk_ok);
  return scan_rows(prepare(&chunk_ok, NormMode::kUpdated), queries, pool);
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
  if (!amx_.empty()) amx_.set_row(c, classes_[c]);
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
  s.amx = amx_.data();
  for (std::size_t c = 0; c < num_classes_; ++c) {
    s.set_norm(c, chunk_norms_[c]);
    s.classes[c] = classes_[c].data();
    s.narrow[c] = narrow_.data() + c * dims_;
  }
  return s;
}

template <typename DotBlock>
std::vector<Prediction> HdcClassifier::scan_blocks(const Scoring& s,
                                                   std::size_t count,
                                                   const DotBlock& dot_block,
                                                   ThreadPool& pool) const {
  GENERIC_SPAN("predict.batch");
  std::vector<Prediction> out(count);
  // Each pool chunk scores its queries kPackRows at a time against every
  // class, one dot tile per block.
  pool.parallel_for(count, [&](std::size_t begin, std::size_t end,
                               std::size_t) {
    GENERIC_SPAN("predict.chunk");
    GENERIC_COUNTER_ADD("predict.queries", end - begin);
    std::vector<std::int64_t> dots(std::min(kPackRows, end - begin) *
                                   num_classes_);
    for (std::size_t b = begin; b < end; b += kPackRows) {
      const std::size_t n = std::min(kPackRows, end - b);
      dot_block(b, n, dots.data());
      for (std::size_t i = 0; i < n; ++i)
        out[b + i] = s.best(dots.data() + i * num_classes_);
    }
  });
  return out;
}

std::vector<Prediction> HdcClassifier::scan_rows(
    const Scoring& s, std::span<const hdc::IntHV> queries,
    ThreadPool& pool) const {
  for (const auto& q : queries) check_query(q);
  // Each block is packed up to the dims the runs read.
  return scan_blocks(
      s, queries.size(),
      [&](std::size_t b, std::size_t n, std::int64_t* dots) {
        const hdc::QueryBatch block(queries.subspan(b, n), s.reach());
        s.dot(block.view(), n, dots);
      },
      pool);
}

void HdcClassifier::check_query(const hdc::IntHV& query) const {
  if (query.size() != dims_)
    throw std::invalid_argument("predict: query dimension mismatch");
}

Prediction HdcClassifier::scan_one(const hdc::IntHV& query,
                                   const Scoring& s) const {
  check_query(query);
  const hdc::QueryBatch one(std::span<const hdc::IntHV>(&query, 1),
                            s.reach());
  std::vector<std::int64_t> dots(num_classes_);
  s.dot(one.view(), 1, dots.data());
  return s.best(dots.data());
}

Prediction HdcClassifier::scan(const hdc::IntHV& query,
                               const std::vector<bool>& chunk_ok,
                               NormMode mode) const {
  check_mask(chunk_ok);
  return scan_one(query, prepare(&chunk_ok, mode));
}

std::vector<Prediction> HdcClassifier::scan_batch(
    const hdc::QueryBatch& table, std::span<const std::size_t> rows,
    const std::vector<bool>& chunk_ok, NormMode mode, ThreadPool& pool) const {
  check_mask(chunk_ok);
  if (table.dims() != dims_)
    throw std::invalid_argument("scan_batch: table dimension mismatch");
  for (const std::size_t r : rows)
    if (r >= table.size())
      throw std::out_of_range("scan_batch: row out of range");
  // A block's view is its rows' pointers into the table, at the table's
  // width and bound: nothing is packed.
  const Scoring s = prepare(&chunk_ok, mode);
  return scan_blocks(
      s, rows.size(),
      [&](std::size_t b, std::size_t n, std::int64_t* dots) {
        const void* block[kPackRows];
        for (std::size_t i = 0; i < n; ++i) block[i] = table.row(rows[b + i]);
        s.dot({block, table.width(), table.max_abs()}, n, dots);
      },
      pool);
}

void HdcClassifier::check_samples(std::size_t count, bool dims_ok,
                                  std::span<const int> labels,
                                  const char* who) const {
  const std::string prefix = std::string(who) + ": ";
  if (count != labels.size())
    throw std::invalid_argument(prefix + "size mismatch");
  if (!dims_ok)
    throw std::invalid_argument(prefix + "sample dimension mismatch");
  for (const int label : labels)
    if (label < 0 || static_cast<std::size_t>(label) >= num_classes_)
      throw std::invalid_argument(prefix + "label out of range");
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
