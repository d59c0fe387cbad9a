#include "hdc/item_memory.h"

#include <stdexcept>

namespace generic::hdc {

ItemMemory::ItemMemory(std::size_t dims, std::uint64_t seed,
                       ItemStorage storage)
    : dims_(dims), seed_(seed), storage_(storage) {}

const BinaryHV& ItemMemory::get(std::size_t key) const {
  if (storage_ == ItemStorage::kRematerialized)
    throw std::logic_error(
        "ItemMemory::get: rematerialized memory has no stored rows; use "
        "materialize()");
  // The lock covers both the growth and the read: deque::push_back never
  // invalidates existing elements, but indexing concurrently with growth is
  // still a data race. Returned references stay valid after unlock.
  std::lock_guard<std::mutex> lock(mu_);
  if (key >= table_.size()) {
    // Extend deterministically: entry k always comes from stream seed_+k,
    // independent of access order.
    for (std::size_t k = table_.size(); k <= key; ++k) {
      Rng rng(seed_ ^ (0xC0FFEEULL + k * 0x9E3779B97F4A7C15ULL));
      table_.push_back(BinaryHV::random(dims_, rng));
    }
  }
  return table_[key];
}

BinaryHV ItemMemory::materialize(std::size_t key) const {
  // The exact generation rule get() uses to fill the table: row k is a pure
  // function of (seed, k), never of access order or storage mode.
  Rng rng(seed_ ^ (0xC0FFEEULL + key * 0x9E3779B97F4A7C15ULL));
  return BinaryHV::random(dims_, rng);
}

std::size_t ItemMemory::footprint_bytes() const {
  if (storage_ == ItemStorage::kRematerialized) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bytes = 0;
  for (const auto& hv : table_) bytes += hv.num_words() * sizeof(std::uint64_t);
  return bytes;
}

LevelMemory::LevelMemory(std::size_t dims, std::size_t levels,
                         std::uint64_t seed, ItemStorage storage)
    : dims_(dims), num_levels_(levels), seed_(seed), storage_(storage) {
  if (levels == 0) throw std::invalid_argument("LevelMemory: levels == 0");
  if (storage_ == ItemStorage::kRematerialized) return;
  levels_.reserve(levels);
  replay(levels - 1,
         [&](std::size_t, const BinaryHV& row) { levels_.push_back(row); });
}

void LevelMemory::replay(
    std::size_t last,
    const std::function<void(std::size_t, const BinaryHV&)>& visit) const {
  if (last >= num_levels_)
    throw std::out_of_range("LevelMemory::replay: bin out of range");
  Rng rng(seed_);
  BinaryHV row = BinaryHV::random(dims_, rng);
  visit(0, row);
  if (last == 0) return;
  // Flip a disjoint batch of positions per step; after L-1 steps exactly
  // dims/2 positions have flipped, making the extreme levels ~orthogonal.
  std::vector<std::size_t> order(dims_);
  for (std::size_t i = 0; i < dims_; ++i) order[i] = i;
  rng.shuffle(order);
  const std::size_t total_flips = dims_ / 2;
  std::size_t cursor = 0;
  for (std::size_t l = 1; l <= last; ++l) {
    // Distribute total_flips as evenly as possible across the steps.
    const std::size_t target = total_flips * l / (num_levels_ - 1);
    for (; cursor < target && cursor < dims_; ++cursor) row.flip(order[cursor]);
    visit(l, row);
  }
}

const BinaryHV& LevelMemory::level(std::size_t bin) const {
  if (storage_ == ItemStorage::kRematerialized)
    throw std::logic_error(
        "LevelMemory::level: rematerialized memory has no stored rows; use "
        "materialize()");
  return levels_.at(bin);
}

BinaryHV& LevelMemory::mutable_level(std::size_t bin) {
  if (storage_ == ItemStorage::kRematerialized)
    throw std::logic_error(
        "LevelMemory::mutable_level: rematerialized memory has no stored "
        "rows");
  return levels_.at(bin);
}

BinaryHV LevelMemory::materialize(std::size_t bin) const {
  if (bin >= num_levels_)
    throw std::out_of_range("LevelMemory::materialize: bin out of range");
  BinaryHV out;
  replay(bin, [&](std::size_t l, const BinaryHV& row) {
    if (l == bin) out = row;
  });
  return out;
}

std::size_t LevelMemory::footprint_bytes() const {
  std::size_t bytes = 0;
  for (const auto& hv : levels_) bytes += hv.num_words() * sizeof(std::uint64_t);
  return bytes;
}

SeededItemMemory::SeededItemMemory(std::size_t dims, std::uint64_t seed) {
  Rng rng(seed ^ 0x1D5EEDULL);
  seed_id_ = BinaryHV::random(dims, rng);
}

}  // namespace generic::hdc
