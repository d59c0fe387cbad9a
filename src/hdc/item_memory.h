// Item and level memories (paper §2.2 and Figure 2(a)).
//
// ItemMemory holds independent random "id" hypervectors, one per key
// (feature index / window index / n-gram symbol). LevelMemory holds the
// level hypervectors of quantized scalar values, constructed so that the
// Hamming distance between levels is proportional to the difference of the
// values they represent: level 0 is random, and each successive level flips
// a fresh batch of D/2/(L-1) positions, so level 0 and level L-1 end up
// ~orthogonal while nearby levels stay similar — "meaningful distance ...
// is preserved" in the paper's words.
//
// Both memories are pure functions of (seed, dims, key): every row can be
// rebuilt on demand instead of stored. ItemStorage::kRematerialized opts a
// memory into that mode (Schmuck/Benini/Rahimi's seed-regeneration trick,
// PAPERS.md): footprint_bytes() drops to zero and materialize() recomputes
// rows bit-identically to what the stored table would hold, trading memory
// for recompute — measured in bench/kernels.
//
// SeededItemMemory mirrors the ASIC's id-memory compression (§4.3.1): ids
// are not stored but generated on the fly by permuting a single seed id by
// k positions. Permutation preserves orthogonality, shrinking 512 KB of id
// storage to one 4 Kbit seed row.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "hdc/hypervector.h"

namespace generic::hdc {

/// How an item/level memory keeps its rows. kStored materializes each row
/// once and serves stable references; kRematerialized stores nothing and
/// regenerates rows from the seed on every access (bit-identical rows,
/// zero footprint, recompute cost per access).
enum class ItemStorage {
  kStored,
  kRematerialized,
};

/// Table of independent random hypervectors, lazily generated but
/// deterministic in (seed, key). get() is safe to call from concurrent
/// encode_batch workers: growth happens under a lock and entry k is always
/// drawn from stream seed+k, so the table contents never depend on which
/// thread faulted an entry in first.
class ItemMemory {
 public:
  ItemMemory(std::size_t dims, std::uint64_t seed,
             ItemStorage storage = ItemStorage::kStored);

  /// Hypervector for `key`; generated on first use. Stored mode only (a
  /// rematerialized memory has no stable row to reference — throws
  /// std::logic_error; use materialize()).
  const BinaryHV& get(std::size_t key) const;

  /// Rebuild the row for `key` from the seed. Works in both modes and is
  /// bit-identical to what get() returns / would return.
  BinaryHV materialize(std::size_t key) const;

  /// Bytes of hypervector payload currently held (stored rows so far);
  /// zero in rematerialized mode.
  std::size_t footprint_bytes() const;

  /// Mutable access for fault injection (resilience::inject): corrupting
  /// the stored id models a defective item-memory row. Stored mode only.
  BinaryHV& mutable_get(std::size_t key) {
    return const_cast<BinaryHV&>(get(key));
  }

  ItemStorage storage() const { return storage_; }
  std::size_t dims() const { return dims_; }

 private:
  std::size_t dims_;
  std::uint64_t seed_;
  ItemStorage storage_;
  // deque: growing the table must not invalidate references handed out by
  // get() — callers hold them across further lookups.
  mutable std::mutex mu_;
  mutable std::deque<BinaryHV> table_;
};

/// Distance-preserving level hypervectors for quantized scalars.
class LevelMemory {
 public:
  LevelMemory(std::size_t dims, std::size_t levels, std::uint64_t seed,
              ItemStorage storage = ItemStorage::kStored);

  /// Stored mode only (throws std::logic_error in rematerialized mode —
  /// use materialize()).
  const BinaryHV& level(std::size_t bin) const;

  /// Rebuild level `bin` from (seed, dims, levels): base row plus the
  /// first total_flips*bin/(levels-1) flips of the shuffled flip order.
  /// Bit-identical to the stored row in either mode.
  BinaryHV materialize(std::size_t bin) const;

  /// One pass of the construction rule over levels 0..last (last <
  /// num_levels()): visit(bin, row) for each in ascending order, row being
  /// exactly materialize(bin). Any number of levels for the cost of
  /// materialize(last).
  void replay(std::size_t last,
              const std::function<void(std::size_t, const BinaryHV&)>& visit)
      const;

  /// Bytes of level payload held; zero in rematerialized mode.
  std::size_t footprint_bytes() const;

  /// Mutable access for fault injection into a level row. Stored mode only.
  BinaryHV& mutable_level(std::size_t bin);

  ItemStorage storage() const { return storage_; }
  std::size_t num_levels() const { return num_levels_; }
  std::size_t dims() const { return dims_; }

 private:
  std::size_t dims_;
  std::size_t num_levels_;
  std::uint64_t seed_;
  ItemStorage storage_;
  std::vector<BinaryHV> levels_;
};

/// The ASIC's compressed id scheme: id_k = rho^k(seed_id). Always
/// rematerialized by construction — only the seed row is stored, and
/// encoders bind id_k by handing the window-bundle kernel the seed row
/// with rotation k (hdc/kernels.h); no rotated id is ever built.
class SeededItemMemory {
 public:
  SeededItemMemory(std::size_t dims, std::uint64_t seed);

  /// Bytes held: the one seed row.
  std::size_t footprint_bytes() const {
    return seed_id_.num_words() * sizeof(std::uint64_t);
  }

  const BinaryHV& seed_id() const { return seed_id_; }
  /// Mutable access for fault injection: a corrupted seed id corrupts the
  /// same bit of *every* generated id (the §4.3.1 compression's one
  /// single point of failure).
  BinaryHV& mutable_seed_id() { return seed_id_; }

 private:
  BinaryHV seed_id_;
};

}  // namespace generic::hdc
