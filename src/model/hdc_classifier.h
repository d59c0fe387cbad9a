// HDC classification model (paper §2.1, §4.2.2, §4.3.3, §4.3.4).
//
// Lifecycle (one datapath: every caller passes a pool, global_pool() when
// it has none; one lane runs inline on the caller):
//   train_batch()    bundle encoded train vectors into class accumulators
//   retrain_epoch_parallel()
//                    perceptron-style update: on a misprediction subtract
//                    the encoding from the wrong class, add to the right one
//   scan()/scan_batch()
//                    the one similarity search, as the ASIC has one search
//                    unit: a signed squared-cosine argmax over the chunks a
//                    mask enables. Full dims, a ladder rung
//                    (prefix_mask()) and a degraded model's healthy chunks
//                    are all masks; the integer dots come from one
//                    hdc::kernels dot_tile call per block of queries (SIMD
//                    backends are bit-identical to scalar), the norms and
//                    the fixed-order argmax stay here. predict() and the
//                    batch wrappers are this search over every chunk.
//
// Class memory is written only through this class: training, the
// retraining update (move_sample), quantize(), fault injection, and
// set_class_vector()/edit_class_vector() for everything outside it (fault
// models, scrubbing, deserialization, clustering). The int32 rows
// are the source of truth — serialization, class_vector() and the scalar
// kernel read only them. Every write also refreshes an int16 copy of the
// rows it touched, each row's exact max |c| and, where the amx backend is
// available, the rows' AMX operand (hdc::kernels::AmxOperand), so those
// copies are ALWAYS exact: the SIMD dot tiles score them whenever max|q|
// and max|c| prove the narrow sums exact, and fall back to the int32 rows
// otherwise (a fault that pushes a value past 32767 costs speed, never
// exactness). Norms are different: only training, move_sample and
// quantize() refresh them; everything else calls recompute_norms()
// explicitly, and fault injection leaves them stale on purpose (below).
//
// The model mirrors three ASIC features:
//  * sub-norms — the norm2 memory stores the squared L2 norm of every
//    128-dimension chunk of every class so inference with a reduced number
//    of dimensions can use the exact ("Updated") norm instead of the stale
//    full-model ("Constant") norm — the Figure 5 comparison.
//  * bit-width quantization — class elements can be quantized to
//    {1,2,4,8,16} bits (the `bw` spec input, §4.3.4 / Figure 6).
//  * fault injection — bit flips at a given rate in the quantized class
//    words model SRAM voltage over-scaling. Norms are intentionally NOT
//    refreshed by injection: the hardware keeps them in the separate
//    (unscaled) norm2 memory.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.h"
#include "hdc/hypervector.h"
#include "hdc/kernels.h"
#include "hdc/query_batch.h"

namespace generic::model {

/// Norm source for reduced-dimension inference (Figure 5).
enum class NormMode {
  kConstant,  ///< stale full-model norm
  kUpdated,   ///< exact sub-norm of the dimensions actually used
};

/// Prediction with its confidence margin: (top1 - top2) / (|top1| + |top2|)
/// over the same argmax scan — normalized so it lands in [0, 1] regardless
/// of dims, bit width or norm magnitudes. A small margin means the winning
/// class barely beat the runner-up — the signal the lifecycle drift
/// detector watches (src/lifecycle/drift_detector.h). With a single class
/// the margin is 0 by definition.
struct Prediction {
  int cls = 0;
  double margin = 0.0;
};

class HdcClassifier {
 public:
  /// `chunk` is the sub-norm granularity; the ASIC uses 128 (§4.3.3).
  HdcClassifier(std::size_t dims, std::size_t num_classes,
                std::size_t chunk = 128);

  std::size_t dims() const { return dims_; }
  std::size_t num_classes() const { return num_classes_; }
  int bit_width() const { return bit_width_; }

  // ---- Training and batched inference (docs/parallelism.md) ----
  //
  // Every method below gives the same bytes for any pool lane count:
  // sample fan-out writes indexed slots, and integer accumulator merges
  // happen on the caller in fixed chunk order. Lane invariance and a
  // test-local reference are asserted by tests/model/test_parallel_determinism.

  // Every entry that scores IntHVs narrows them through hdc::QueryBatch
  // (the narrowest exact width: 1 byte per value for every Table-1 GENERIC
  // encoding) at most 32 rows at a time, a scan only up to the last dim its
  // mask reads, so no call holds a copy of a whole set; the dot tile itself
  // narrows nothing. A set read many times is packed whole once by its
  // owner: retrained through the batch overload, scanned through the table
  // scan_batch().

  /// One-shot training: bundle each encoding into its class accumulator.
  /// Each pool chunk owns a range of class rows and adds, in sample order,
  /// the samples labelled into them (integer adds — exact for any split).
  /// A single pass: the int32 rows are added as they are.
  void train_batch(std::span<const hdc::IntHV> encoded,
                   std::span<const int> labels, ThreadPool& pool);

  /// One retraining epoch over the encoded training set; returns the number
  /// of model updates (mispredictions). Predictions and updates are those
  /// of a predict + move_sample loop in sample order: each block of 32
  /// samples is scored in one dot tile whose queries fan out across the
  /// pool, then walked in order, and after an update only the two changed
  /// rows are re-scored for the block's later samples. The IntHV overload
  /// packs each block once, and its tile, re-scores and updates read that.
  std::size_t retrain_epoch_parallel(const hdc::QueryBatch& encoded,
                                     std::span<const int> labels,
                                     ThreadPool& pool);
  std::size_t retrain_epoch_parallel(std::span<const hdc::IntHV> encoded,
                                     std::span<const int> labels,
                                     ThreadPool& pool);

  /// train_batch + at most `epochs` retraining epochs, stopping early when
  /// an epoch makes no update. When the first two epochs both update, the
  /// rows are packed whole once for the epochs after them. Returns the
  /// number of retraining epochs that made an update.
  std::size_t fit_parallel(std::span<const hdc::IntHV> encoded,
                           std::span<const int> labels, std::size_t epochs,
                           ThreadPool& pool);

  // ---- The similarity search (§4.2.2, §4.3.3) ----
  //
  // A chunk mask has num_chunks() entries, at least one of them true. The
  // dot reads only the enabled chunks; the norm is the sum of their
  // sub-norms (Updated) or the full-model norm (Constant). A scan with a
  // mask that is the wrong size or all false throws std::invalid_argument,
  // and so does a query that is not dims() long.

  /// Fixed-order argmax (first maximum wins) with margin of one query.
  Prediction scan(const hdc::IntHV& query, const std::vector<bool>& chunk_ok,
                  NormMode mode = NormMode::kUpdated) const;

  /// out[i] == scan() of row rows[i] of `table` (any order, repeats
  /// allowed): an owner packs its queries once and scores any of them
  /// with no pack per call. The rows fan out across the pool in chunks,
  /// each handing the dot tile its rows as packed, 32 at a time, into
  /// indexed slots, so the result is bit-identical for any lane count. A
  /// table whose dims() differs throws std::invalid_argument and a row
  /// past its last std::out_of_range, before any row is scored.
  std::vector<Prediction> scan_batch(const hdc::QueryBatch& table,
                                     std::span<const std::size_t> rows,
                                     const std::vector<bool>& chunk_ok,
                                     NormMode mode, ThreadPool& pool) const;

  /// The mask of the first `dims_used` dimensions (a positive chunk
  /// multiple <= dims(), else std::invalid_argument), AND `chunk_ok` when
  /// it is non-empty (size num_chunks()). A ladder rung scores through
  /// this: on-demand dimension reduction reads a chunk prefix (§4.3.3).
  std::vector<bool> prefix_mask(std::size_t dims_used,
                                const std::vector<bool>& chunk_ok = {}) const;

  /// Predicted class using all dimensions. Pool-free, with no mask to
  /// build: the single-sample path an edge caller runs per input.
  int predict(const hdc::IntHV& query) const;

  /// out[i] == predict(queries[i]): the search over every chunk, queries
  /// fanned out across the pool as scan_batch() does. A wrapper that stays
  /// because the wall-clock benchmark calls it.
  std::vector<int> predict_batch(std::span<const hdc::IntHV> queries,
                                 ThreadPool& pool) const;

  /// scan_batch() with Updated norms over a contiguous query array. A
  /// wrapper that stays because the wall-clock benchmark calls it.
  std::vector<Prediction> predict_masked_margin_batch(
      std::span<const hdc::IntHV> queries, const std::vector<bool>& chunk_ok,
      ThreadPool& pool) const;

  /// Quantize class elements to `bit_width` bits (two's complement),
  /// rescaling by the model's max magnitude; recomputes norms.
  void quantize(int bit_width);

  const hdc::IntHV& class_vector(std::size_t c) const { return classes_.at(c); }

  /// Replace class `c`'s row with `row` (dims() elements). Refreshes the
  /// row's narrow copies; norms are left for recompute_norms().
  void set_class_vector(std::size_t c, hdc::IntHV row);

  /// Rewrite class `c`'s row in place: `edit` is called with a
  /// std::span<std::int32_t> over its dims() values, then the row's narrow
  /// copies are refreshed. Norms are left for recompute_norms().
  template <typename Edit>
  void edit_class_vector(std::size_t c, Edit&& edit) {
    edit(std::span<std::int32_t>(classes_.at(c)));
    refresh_narrow(c);
  }

  /// The retraining update: subtract `encoded` from class `from`, add it
  /// to class `to`, and refresh both classes' norms and narrow copies.
  /// Throws std::out_of_range for a class outside [0, num_classes()) and
  /// std::invalid_argument for a row that is not dims() long, before
  /// writing anything.
  void move_sample(const hdc::IntHV& encoded, int from, int to);
  /// move_sample() of row `i` of `encoded` (std::out_of_range past its
  /// last row).
  void move_sample(const hdc::QueryBatch& encoded, std::size_t i, int from,
                   int to);

  /// max |c| over every stored class value: the bound the int16 copy is
  /// scored under (exact, so it shrinks when a large value is written
  /// back down).
  std::int64_t class_max_abs() const;

  /// The class rows as the amx dot tile reads them, kept exact beside the
  /// int16 copy; empty where the amx backend is unavailable.
  const hdc::kernels::AmxOperand& amx_operand() const { return amx_; }

  /// Record the bit-width of externally provided (already quantized) class
  /// values — used by model deserialization; quantize() is the normal path.
  void set_bit_width(int bit_width) {
    if (bit_width < 1 || bit_width > 16)
      throw std::invalid_argument("set_bit_width: out of range");
    bit_width_ = bit_width;
  }

  /// Squared L2 norm of chunk `k` of class `c` (as stored in norm2 memory).
  std::int64_t chunk_norm(std::size_t c, std::size_t k) const {
    return chunk_norms_.at(c).at(k);
  }
  std::size_t num_chunks() const { return num_chunks_; }

  /// Recompute all chunk norms from the current class vectors (the ASIC
  /// does this as part of training, §4.2.2).
  void recompute_norms();

  /// Recompute the chunk norms of a single class (used after an in-place
  /// update of that class's accumulator).
  void recompute_norms(std::size_t cls);

 private:
  /// A chunk mask resolved for one search: the dimension runs of the read
  /// chunks, each class's norm over them, and the class rows.
  struct Scoring;
  /// `chunk_ok` null reads every chunk.
  Scoring prepare(const std::vector<bool>* chunk_ok, NormMode mode) const;

  /// The one block-scoring loop: `count` queries fan out across the pool
  /// in chunks, each chunk scoring its queries 32 at a time, where
  /// `dot_block(b, n, out)` writes the class dots of queries [b, b + n)
  /// (Scoring::dot), and each query takes its fixed-order argmax with
  /// margin.
  template <typename DotBlock>
  std::vector<Prediction> scan_blocks(const Scoring& s, std::size_t count,
                                      const DotBlock& dot_block,
                                      ThreadPool& pool) const;
  /// scan_blocks() of IntHVs, each checked and each block packed.
  std::vector<Prediction> scan_rows(const Scoring& s,
                                    std::span<const hdc::IntHV> queries,
                                    ThreadPool& pool) const;
  Prediction scan_one(const hdc::IntHV& query, const Scoring& s) const;

  void check_mask(const std::vector<bool>& chunk_ok) const;
  void check_query(const hdc::IntHV& query) const;

  /// One retraining epoch over labels.size() checked samples: the rows of
  /// `packed` when it is set, else `encoded` packed one block at a time.
  std::size_t retrain_walk(const hdc::QueryBatch* packed,
                           std::span<const hdc::IntHV> encoded,
                           std::span<const int> labels, ThreadPool& pool);

  /// move_sample()'s checks, made before it writes: both classes in range
  /// and a row of `dims` == dims() values.
  void check_move(std::size_t dims, int from, int to) const;
  /// Refresh the norms and int16 copies of the two classes an update
  /// moved a sample between.
  void refresh_moved(int from, int to);

  /// Refresh the int16 copy, max |c| and AMX operand row of class `c`
  /// (or of every class) from its int32 row; called after every write to
  /// class memory.
  void refresh_narrow(std::size_t c);
  void refresh_narrow();

  /// Training-input check run before any class memory is written: `count`
  /// samples for as many labels, labels in [0, num_classes), and every
  /// sample dims() long (`dims_ok`). Throws std::invalid_argument prefixed
  /// with `who`.
  void check_samples(std::size_t count, bool dims_ok,
                     std::span<const int> labels, const char* who) const;

  std::size_t dims_;
  std::size_t num_classes_;
  std::size_t chunk_;
  std::size_t num_chunks_;
  int bit_width_ = 16;
  std::vector<hdc::IntHV> classes_;
  /// classes_ truncated to int16, row c at c * dims_, and each row's
  /// max |c|: exact after every write (see header).
  std::vector<std::int16_t> narrow_;
  std::vector<std::int64_t> narrow_max_;
  hdc::kernels::AmxOperand amx_;
  std::vector<std::vector<std::int64_t>> chunk_norms_;
};

}  // namespace generic::model
