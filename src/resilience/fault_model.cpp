#include "resilience/fault_model.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace generic::resilience {
namespace {

/// Apply a per-bit fault to one `bw`-bit two's-complement word.
std::uint32_t corrupt_word(std::uint32_t word, int bw, FaultKind kind,
                           double rate, Rng& rng) {
  for (int b = 0; b < bw; ++b) {
    if (!rng.bernoulli(rate)) continue;
    const std::uint32_t bit = 1u << b;
    switch (kind) {
      case FaultKind::kTransient:
        word ^= bit;
        break;
      case FaultKind::kStuckAt0:
        word &= ~bit;
        break;
      case FaultKind::kStuckAt1:
        word |= bit;
        break;
      case FaultKind::kDeadBlock:
      case FaultKind::kBankCorrelated:
        break;  // handled at block / bank granularity, not per bit
    }
  }
  return word;
}

std::int32_t corrupt_element(std::int32_t v, int bw, FaultKind kind,
                             double rate, Rng& rng) {
  if (bw == 1) {
    // Bipolar 1-bit storage: bit 1 == +1, bit 0 == -1.
    std::uint32_t word = v > 0 ? 1u : 0u;
    word = corrupt_word(word, 1, kind, rate, rng);
    return word ? 1 : -1;
  }
  const auto mask = static_cast<std::uint32_t>((1u << bw) - 1u);
  auto word = static_cast<std::uint32_t>(v) & mask;
  word = corrupt_word(word, bw, kind, rate, rng);
  std::int32_t out = static_cast<std::int32_t>(word);
  if (word & (1u << (bw - 1))) out -= (1 << bw);
  return out;
}

}  // namespace

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kStuckAt0:
      return "stuck_at_0";
    case FaultKind::kStuckAt1:
      return "stuck_at_1";
    case FaultKind::kDeadBlock:
      return "dead_block";
    case FaultKind::kBankCorrelated:
      return "bank_correlated";
  }
  throw std::invalid_argument("fault_kind_name: unknown kind");
}

FaultKind fault_kind_from_name(std::string_view name) {
  for (FaultKind k : {FaultKind::kTransient, FaultKind::kStuckAt0,
                      FaultKind::kStuckAt1, FaultKind::kDeadBlock,
                      FaultKind::kBankCorrelated})
    if (name == fault_kind_name(k)) return k;
  throw std::invalid_argument("unknown fault kind: " + std::string(name));
}

void inject(hdc::BinaryHV& hv, const FaultSpec& spec, Rng& rng,
            std::size_t block) {
  if (spec.rate <= 0.0) return;
  if (spec.kind == FaultKind::kBankCorrelated)
    throw std::invalid_argument(
        "inject: bank-correlated faults target class memory only");
  if (spec.kind == FaultKind::kDeadBlock) {
    if (block == 0) throw std::invalid_argument("inject: zero block size");
    for (std::size_t base = 0; base < hv.dims(); base += block)
      if (rng.bernoulli(spec.rate)) {
        const std::size_t end = std::min(base + block, hv.dims());
        for (std::size_t i = base; i < end; ++i) hv.set(i, false);
      }
    return;
  }
  for (std::size_t i = 0; i < hv.dims(); ++i) {
    if (!rng.bernoulli(spec.rate)) continue;
    switch (spec.kind) {
      case FaultKind::kTransient:
        hv.flip(i);
        break;
      case FaultKind::kStuckAt0:
        hv.set(i, false);
        break;
      case FaultKind::kStuckAt1:
        hv.set(i, true);
        break;
      case FaultKind::kDeadBlock:
      case FaultKind::kBankCorrelated:
        break;  // unreachable
    }
  }
}

void inject(hdc::IntHV& acc, const FaultSpec& spec, Rng& rng, int bit_width,
            std::size_t block) {
  if (spec.rate <= 0.0) return;
  if (bit_width < 1 || bit_width > 16)
    throw std::invalid_argument("inject: bit_width must be in [1, 16]");
  if (spec.kind == FaultKind::kBankCorrelated)
    throw std::invalid_argument(
        "inject: bank-correlated faults target class memory only");
  if (spec.kind == FaultKind::kDeadBlock) {
    if (block == 0) throw std::invalid_argument("inject: zero block size");
    for (std::size_t base = 0; base < acc.size(); base += block)
      if (rng.bernoulli(spec.rate)) {
        const std::size_t end = std::min(base + block, acc.size());
        for (std::size_t i = base; i < end; ++i) acc[i] = 0;
      }
    return;
  }
  for (auto& v : acc) v = corrupt_element(v, bit_width, spec.kind, spec.rate, rng);
}

void inject(model::HdcClassifier& clf, const FaultSpec& spec, Rng& rng) {
  if (spec.rate <= 0.0) return;
  if (spec.kind == FaultKind::kDeadBlock) {
    inject_dead_blocks(clf, sample_dead_chunks(clf.num_chunks(), spec.rate, rng));
    return;
  }
  if (spec.kind == FaultKind::kBankCorrelated) {
    inject_bank_correlated(clf, sample_faulty_banks(spec.rate, rng),
                           spec.burst_rate, rng);
    return;
  }
  const int bw = clf.bit_width();
  for (std::size_t c = 0; c < clf.num_classes(); ++c)
    clf.edit_class_vector(c, [&](std::span<std::int32_t> row) {
      for (auto& v : row) v = corrupt_element(v, bw, spec.kind, spec.rate, rng);
    });
  // Norms stay stale on purpose (see header).
}

void inject_dead_blocks(model::HdcClassifier& clf,
                        const std::vector<std::size_t>& chunks) {
  const std::size_t chunk = clf.dims() / clf.num_chunks();
  for (std::size_t k : chunks)
    if (k >= clf.num_chunks())
      throw std::out_of_range("inject_dead_blocks: chunk index");
  for (std::size_t c = 0; c < clf.num_classes(); ++c)
    clf.edit_class_vector(c, [&](std::span<std::int32_t> row) {
      for (std::size_t k : chunks)
        std::fill_n(row.begin() + static_cast<std::ptrdiff_t>(k * chunk),
                    chunk, 0);
    });
}

std::vector<std::size_t> sample_dead_chunks(std::size_t num_chunks,
                                            double rate, Rng& rng) {
  std::vector<std::size_t> dead;
  for (std::size_t k = 0; k < num_chunks; ++k)
    if (rng.bernoulli(rate)) dead.push_back(k);
  return dead;
}

std::vector<std::size_t> sample_faulty_banks(double rate, Rng& rng) {
  std::vector<std::size_t> banks;
  for (std::size_t b = 0; b < kClassMemoryBanks; ++b)
    if (rng.bernoulli(rate)) banks.push_back(b);
  return banks;
}

void inject_bank_correlated(model::HdcClassifier& clf,
                            const std::vector<std::size_t>& banks,
                            double bit_rate, Rng& rng) {
  if (bit_rate <= 0.0 || banks.empty()) return;
  const int bw = clf.bit_width();
  for (std::size_t c = 0; c < clf.num_classes(); ++c) {
    const std::size_t bank = c % kClassMemoryBanks;
    if (std::find(banks.begin(), banks.end(), bank) == banks.end()) continue;
    clf.edit_class_vector(c, [&](std::span<std::int32_t> row) {
      for (auto& v : row)
        v = corrupt_element(v, bw, FaultKind::kTransient, bit_rate, rng);
    });
  }
  // Norms stay stale on purpose, like every class-memory injector.
}

std::vector<std::size_t> sample_faulty_rows(std::size_t num_rows, double rate,
                                            Rng& rng) {
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < num_rows; ++r)
    if (rng.bernoulli(rate)) rows.push_back(r);
  return rows;
}

namespace {

/// The shared per-row corruption rule: dead row reads all-zero, per-bit
/// kinds walk the row in bit order.
void corrupt_row(hdc::BinaryHV& row, FaultKind kind, double bit_rate,
                 Rng& rng) {
  if (kind == FaultKind::kBankCorrelated)
    throw std::invalid_argument(
        "inject_encoder_rows: bank-correlated faults target class memory "
        "only");
  if (kind == FaultKind::kDeadBlock) {
    for (std::size_t i = 0; i < row.dims(); ++i) row.set(i, false);
    return;
  }
  FaultSpec spec;
  spec.kind = kind;
  spec.rate = bit_rate;
  inject(row, spec, rng);
}

}  // namespace

void inject_encoder_rows(hdc::LevelMemory& levels,
                         const std::vector<std::size_t>& rows, FaultKind kind,
                         double bit_rate, Rng& rng) {
  for (std::size_t r : rows) {
    if (r >= levels.num_levels())
      throw std::out_of_range("inject_encoder_rows: row index");
    corrupt_row(levels.mutable_level(r), kind, bit_rate, rng);
  }
}

void inject_id_seed(hdc::SeededItemMemory& ids, FaultKind kind,
                    double bit_rate, Rng& rng) {
  corrupt_row(ids.mutable_seed_id(), kind, bit_rate, rng);
}

}  // namespace generic::resilience
