#include "encoding/encoders.h"

#include <algorithm>
#include <stdexcept>

#include "hdc/kernels.h"
#include "obs/obs.h"

namespace generic::enc {

namespace {

hdc::ItemStorage storage_of(const EncoderConfig& cfg) {
  return cfg.remat ? hdc::ItemStorage::kRematerialized
                   : hdc::ItemStorage::kStored;
}

/// Words of one row regardless of storage mode: stored rows in place,
/// rematerialized rows rebuilt into `slot` (valid until the slot is reused).
const std::uint64_t* row_words(const hdc::ItemMemory& mem, std::size_t key,
                               hdc::BinaryHV& slot) {
  if (mem.storage() == hdc::ItemStorage::kStored)
    return mem.get(key).words().data();
  slot = mem.materialize(key);
  return slot.words().data();
}

const std::uint64_t* row_words(const hdc::LevelMemory& mem, std::size_t bin,
                               hdc::BinaryHV& slot) {
  if (mem.storage() == hdc::ItemStorage::kStored)
    return mem.level(bin).words().data();
  slot = mem.materialize(bin);
  return slot.words().data();
}

/// Per-thread scratch of the bundling encoders: the row of every feature
/// position, rematerialization slots, and the terms of every window.
/// encode() is const and runs concurrently under encode_batch, so the
/// buffers are per thread; they only grow.
struct Scratch {
  std::vector<const std::uint64_t*> rows;
  std::vector<hdc::BinaryHV> remat;
  /// rows_of's marks of the keys a sample uses; clear between calls.
  std::vector<char> wanted;
  std::vector<hdc::kernels::RotatedRow> terms;
};

Scratch& scratch(std::size_t slots) {
  thread_local Scratch s;
  if (s.remat.size() < slots) {
    s.remat.resize(slots);
    s.wanted.resize(slots, 0);
  }
  s.rows.clear();
  s.terms.clear();
  return s;
}

/// Rebuild remat[k] for every wanted key k < keys.
void materialize_wanted(const hdc::ItemMemory& mem, std::size_t keys,
                        Scratch& s) {
  for (std::size_t k = 0; k < keys; ++k)
    if (s.wanted[k]) s.remat[k] = mem.materialize(k);
}

/// Level rows come out of one replay of the level construction, however
/// many bins the sample uses.
void materialize_wanted(const hdc::LevelMemory& mem, std::size_t keys,
                        Scratch& s) {
  mem.replay(keys - 1, [&](std::size_t bin, const hdc::BinaryHV& row) {
    if (s.wanted[bin]) s.remat[bin] = row;
  });
}

/// Scratch holding the row of every bin, in feature order. A
/// rematerialized memory rebuilds each distinct bin's row once per sample,
/// into the per-thread slot of that bin.
template <class Memory>
Scratch& rows_of(const Memory& mem, std::span<const std::uint16_t> bins) {
  std::size_t keys = 0;
  for (std::uint16_t bin : bins) keys = std::max<std::size_t>(keys, bin + 1u);
  Scratch& s = scratch(keys);
  if (mem.storage() == hdc::ItemStorage::kStored) {
    for (std::uint16_t bin : bins)
      s.rows.push_back(row_words(mem, bin, s.remat[bin]));
    return s;
  }
  for (std::uint16_t bin : bins) s.wanted[bin] = 1;
  if (keys != 0) materialize_wanted(mem, keys, s);
  for (std::uint16_t bin : bins) {
    s.rows.push_back(s.remat[bin].words().data());
    s.wanted[bin] = 0;
  }
  return s;
}

/// Terms of every n-row sliding window: window i XORs rho^j(rows[i + j]).
void sliding_windows(Scratch& s, std::size_t n) {
  for (std::size_t i = 0; i + n <= s.rows.size(); ++i)
    for (std::size_t j = 0; j < n; ++j) s.terms.push_back({s.rows[i + j], j});
}

/// The bipolar sum of the scratch's windows of `per_window` terms, on the
/// active kernel backend.
hdc::IntHV bundle(const Scratch& s, std::size_t per_window,
                  std::size_t dims) {
  hdc::IntHV acc(dims, 0);
  hdc::kernels::active().bundle_windows(s.terms.data(), per_window,
                                        s.terms.size() / per_window, dims,
                                        acc.data());
  return acc;
}

}  // namespace

void Encoder::fit(std::span<const std::vector<float>> samples) {
  quantizer_ = Quantizer(cfg_.levels);
  quantizer_.fit(samples);
}

std::vector<hdc::IntHV> Encoder::encode_batch(
    std::span<const std::vector<float>> samples, ThreadPool& pool) const {
  GENERIC_SPAN("encode.batch");
  GENERIC_COUNTER_ADD("encode.samples", samples.size());
  std::vector<hdc::IntHV> out(samples.size());
  pool.parallel_for(samples.size(),
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      GENERIC_SPAN("encode.chunk");
                      for (std::size_t i = begin; i < end; ++i)
                        out[i] = encode(samples[i]);
                    });
  return out;
}

std::string_view to_string(EncoderKind kind) {
  switch (kind) {
    case EncoderKind::kRp: return "rp";
    case EncoderKind::kLevelId: return "level-id";
    case EncoderKind::kNgram: return "ngram";
    case EncoderKind::kPermutation: return "permute";
    case EncoderKind::kGeneric: return "generic";
    case EncoderKind::kSymbolNgram: return "sym-ngram";
  }
  return "?";
}

std::unique_ptr<Encoder> make_encoder(EncoderKind kind,
                                      const EncoderConfig& cfg) {
  switch (kind) {
    case EncoderKind::kRp: return std::make_unique<RpEncoder>(cfg);
    case EncoderKind::kLevelId: return std::make_unique<LevelIdEncoder>(cfg);
    case EncoderKind::kNgram: return std::make_unique<NgramEncoder>(cfg);
    case EncoderKind::kPermutation:
      return std::make_unique<PermutationEncoder>(cfg);
    case EncoderKind::kGeneric: return std::make_unique<GenericEncoder>(cfg);
    case EncoderKind::kSymbolNgram:
      return std::make_unique<SymbolNgramEncoder>(cfg);
  }
  throw std::invalid_argument("unknown encoder kind");
}

// ---------------------------------------------------------------- RP

RpEncoder::RpEncoder(const EncoderConfig& cfg)
    : Encoder(cfg), ids_(cfg.dims, cfg.seed, storage_of(cfg)) {}

std::size_t RpEncoder::memory_footprint_bytes() const {
  return ids_.footprint_bytes();
}

hdc::IntHV RpEncoder::encode(std::span<const float> sample) const {
  const auto bins = quantize(sample);
  hdc::IntHV acc(cfg_.dims, 0);
  hdc::BinaryHV slot;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const auto value = static_cast<std::int32_t>(bins[i]);
    if (value == 0) continue;
    const std::uint64_t* id = row_words(ids_, i, slot);
    // acc += value * bipolar(id): split into set/unset bits via two passes
    // over the packed words to stay branch-light.
    for (std::size_t w = 0; w < words_for_bits(cfg_.dims); ++w) {
      std::uint64_t word = id[w];
      const std::size_t base = w * kWordBits;
      const std::size_t n = std::min(kWordBits, cfg_.dims - base);
      for (std::size_t b = 0; b < n; ++b) {
        const std::int32_t s =
            static_cast<std::int32_t>(((word >> b) & 1ULL) << 1) - 1;
        acc[base + b] += value * s;
      }
    }
  }
  return acc;
}

// ---------------------------------------------------------------- level-id

LevelIdEncoder::LevelIdEncoder(const EncoderConfig& cfg)
    : Encoder(cfg),
      ids_(cfg.dims, cfg.seed, storage_of(cfg)),
      levels_(cfg.dims, cfg.levels, cfg.seed ^ 0x11EE1ULL, storage_of(cfg)) {}

std::size_t LevelIdEncoder::memory_footprint_bytes() const {
  return ids_.footprint_bytes() + levels_.footprint_bytes();
}

hdc::IntHV LevelIdEncoder::encode(std::span<const float> sample) const {
  const auto bins = quantize(sample);
  const std::size_t n = bins.size();
  Scratch& s = scratch(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    s.terms.push_back({row_words(levels_, bins[i], s.remat[i]), 0});
    s.terms.push_back({row_words(ids_, i, s.remat[n + i]), 0});
  }
  return bundle(s, 2, cfg_.dims);
}

// ---------------------------------------------------------------- permutation

PermutationEncoder::PermutationEncoder(const EncoderConfig& cfg)
    : Encoder(cfg),
      levels_(cfg.dims, cfg.levels, cfg.seed ^ 0x11EE1ULL, storage_of(cfg)) {}

std::size_t PermutationEncoder::memory_footprint_bytes() const {
  return levels_.footprint_bytes();
}

hdc::IntHV PermutationEncoder::encode(std::span<const float> sample) const {
  Scratch& s = rows_of(levels_, quantize(sample));
  for (std::size_t i = 0; i < s.rows.size(); ++i)
    s.terms.push_back({s.rows[i], i});
  return bundle(s, 1, cfg_.dims);
}

// ---------------------------------------------------------------- ngram

NgramEncoder::NgramEncoder(const EncoderConfig& cfg)
    : Encoder(cfg),
      levels_(cfg.dims, cfg.levels, cfg.seed ^ 0x11EE1ULL, storage_of(cfg)) {
  if (cfg.window == 0) throw std::invalid_argument("ngram: window == 0");
}

std::size_t NgramEncoder::memory_footprint_bytes() const {
  return levels_.footprint_bytes();
}

hdc::IntHV NgramEncoder::encode(std::span<const float> sample) const {
  Scratch& s = rows_of(levels_, quantize(sample));
  sliding_windows(s, cfg_.window);
  return bundle(s, cfg_.window, cfg_.dims);
}

// ---------------------------------------------------------------- generic

GenericEncoder::GenericEncoder(const EncoderConfig& cfg)
    : Encoder(cfg),
      ids_(cfg.dims, cfg.seed ^ 0x6E2E21CULL),
      levels_(cfg.dims, cfg.levels, cfg.seed ^ 0x11EE1ULL, storage_of(cfg)),
      all_levels_ok_(cfg.levels, true) {
  if (cfg.window == 0) throw std::invalid_argument("generic: window == 0");
}

std::size_t GenericEncoder::memory_footprint_bytes() const {
  // The seeded id memory is already the ASIC's compressed form: one row.
  return ids_.footprint_bytes() + levels_.footprint_bytes();
}

hdc::IntHV GenericEncoder::encode(std::span<const float> sample) const {
  return encode_masked(sample, all_levels_ok_, true);
}

hdc::IntHV GenericEncoder::encode_masked(std::span<const float> sample,
                                         const std::vector<bool>& level_ok,
                                         bool id_ok) const {
  if (level_ok.size() != levels_.num_levels())
    throw std::invalid_argument(
        "encode_masked: level_ok must have one flag per level row");
  const auto bins = quantize(sample);
  const std::size_t n = cfg_.window;
  const bool bind_ids = cfg_.use_ids && id_ok;
  Scratch& s = rows_of(levels_, bins);
  const std::uint64_t* seed_id = ids_.seed_id().words().data();
  for (std::size_t i = 0; i + n <= bins.size(); ++i) {
    bool ok = true;
    for (std::size_t j = 0; j < n && ok; ++j) ok = level_ok[bins[i + j]];
    if (!ok) continue;
    for (std::size_t j = 0; j < n; ++j) s.terms.push_back({s.rows[i + j], j});
    // id_i = rho^i(seed id), the hardware's rotating tmp register: bound
    // by the window index, so a skipped window shifts no later id.
    if (bind_ids) s.terms.push_back({seed_id, i});
  }
  return bundle(s, bind_ids ? n + 1 : n, cfg_.dims);
}

hdc::BinaryHV GenericEncoder::materialize_id_seed() const {
  return hdc::SeededItemMemory(cfg_.dims, cfg_.seed ^ 0x6E2E21CULL).seed_id();
}

// ---------------------------------------------------------------- sym-ngram

SymbolNgramEncoder::SymbolNgramEncoder(const EncoderConfig& cfg)
    : Encoder(cfg), items_(cfg.dims, cfg.seed ^ 0x51B01ULL, storage_of(cfg)) {
  if (cfg.window == 0) throw std::invalid_argument("sym-ngram: window == 0");
}

std::size_t SymbolNgramEncoder::memory_footprint_bytes() const {
  return items_.footprint_bytes();
}

hdc::IntHV SymbolNgramEncoder::encode(std::span<const float> sample) const {
  Scratch& s = rows_of(items_, quantize(sample));
  sliding_windows(s, cfg_.window);
  return bundle(s, cfg_.window, cfg_.dims);
}

}  // namespace generic::enc
