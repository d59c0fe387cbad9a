// Analytic cycle and memory-access model of the GENERIC dataflow (§4.2).
//
// The encoder emits m = 16 partial dimensions per pass over the stored
// input; inference dot-products are pipelined with encoding, so one pass
// costs d feature fetches plus nC class-row reads (one row from each of the
// m distributed class memories serves m consecutive dimensions of one
// class). Encoding a full hypervector therefore takes D/m passes.
//
//   inference/input : (D/m) * (d + nC) + pipeline drain + score finalize
//   train-init/input: (D/m) * (d + 1)         (write one class row per pass)
//   retrain update  : 3 * (D/m) per touched class (read, add, write back,
//                     §4.2.2), two classes per misprediction
//   clustering/input: inference over k centroids + (D/m) stores of the
//                     encoding + (D/m) copy-centroid updates
//
// All counts are per input; callers multiply by dataset sizes and epochs.
#pragma once

#include <cstdint>

#include "arch/spec.h"

namespace generic::arch {

struct AccessCounts {
  std::uint64_t cycles = 0;
  std::uint64_t feature_reads = 0;   ///< input memory reads (8 b)
  std::uint64_t level_reads = 0;     ///< level memory reads (m bits)
  std::uint64_t id_reads = 0;        ///< id seed reads (m bits, §4.3.1)
  std::uint64_t class_reads = 0;     ///< class memory row reads (16 b x m)
  std::uint64_t class_writes = 0;    ///< class memory row writes
  std::uint64_t score_accesses = 0;  ///< score memory read-modify-writes
  std::uint64_t norm_accesses = 0;   ///< norm2 memory accesses
  std::uint64_t mac_ops = 0;         ///< dot-product MACs
  std::uint64_t divider_ops = 0;     ///< Mitchell log-divides

  AccessCounts& operator+=(const AccessCounts& o);
  friend AccessCounts operator+(AccessCounts a, const AccessCounts& b) {
    a += b;
    return a;
  }

  /// Scale every counter (e.g. by number of inputs).
  AccessCounts scaled(std::uint64_t factor) const;
};

class CycleModel {
 public:
  explicit CycleModel(const ArchConstants& hw = {}) : hw_(hw) {}

  /// Number of encoder passes for a spec: D/m (rounded up).
  std::uint64_t passes(const AppSpec& spec) const;

  /// Encode-only cost of one input (no search): used during training init.
  AccessCounts encode_input(const AppSpec& spec) const;

  /// Encode + similarity search of one input (inference or the scoring
  /// half of retraining/clustering).
  AccessCounts infer_input(const AppSpec& spec) const;

  /// Model update on one misprediction: subtract from the wrong class and
  /// add to the right one, plus norm2 refresh for both (§4.2.2).
  AccessCounts retrain_update(const AppSpec& spec) const;

  /// One training-initialization input: encode and accumulate into the
  /// labelled class row.
  AccessCounts train_init_input(const AppSpec& spec) const;

  /// One clustering input in an epoch: score vs k centroids, stash the
  /// encoding in temporary rows, update the copy centroid (§4.2.3).
  AccessCounts cluster_input(const AppSpec& spec) const;

  /// Wall-clock seconds for a count at the architecture's clock.
  double seconds(const AccessCounts& counts) const;

  const ArchConstants& hw() const { return hw_; }

 private:
  ArchConstants hw_;
};

}  // namespace generic::arch
