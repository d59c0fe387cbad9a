// Composable fault model for the §4.3 resilience studies.
//
// GENERIC's low-power story rests on HDC tolerating memory errors: voltage
// over-scaling (§4.3.4) makes SRAM cells unreliable on purpose, and real
// silicon additionally ships with manufacturing defects (stuck cells, dead
// rows) that only get worse near threshold. This module gives every layer
// of the stack one seeded, deterministic way to inject those failure modes:
//
//   kTransient  — independent bit flips at a per-bit rate, the classic
//                 voltage-over-scaling upset model (GenericAsic's
//                 apply_voltage_scaling, Figure 6, Sram read upsets);
//   kStuckAt0 / kStuckAt1
//               — permanent cell defects: each bit is forced to 0/1 with
//                 the given per-bit probability (manufacturing faults,
//                 aging), so rewriting the model does not heal them;
//   kDeadBlock  — an entire 128-dimension block (one norm2 chunk, i.e. one
//                 class-memory row span per class) reads as zero: the model
//                 of a dead SRAM row / failed bank segment.
//   kBankCorrelated
//               — a correlated burst confined to whole class-memory BANKS:
//                 the GENERIC ASIC stores class accumulators in 16 separate
//                 class memories (§4.2.2), and a marginal bank — a sagging
//                 rail, a failing sense-amp column — corrupts every word it
//                 holds while the other banks stay clean. Each of the 16
//                 banks is hit with probability `rate`; inside a hit bank
//                 every stored bit flips with probability `burst_rate`.
//                 Class c lives in bank c % 16, so with <= 16 classes one
//                 hit bank is one corrupted class vector.
//
// Faults target the three memories of the datapath:
//   * class memory      — inject(HdcClassifier&, ...)
//   * accumulators      — inject(IntHV&, ...), e.g. encoded queries
//   * item/level memory — inject(BinaryHV&, ...), e.g. level rows, id seed
//
// Everything is driven by an explicit Rng so a (spec, seed) pair always
// produces the identical fault pattern — the property the campaign runner
// (campaign.h) and the determinism tests build on.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "hdc/hypervector.h"
#include "hdc/item_memory.h"
#include "model/hdc_classifier.h"

namespace generic::resilience {

enum class FaultKind {
  kTransient,  ///< independent bit flips at `rate` per bit
  kStuckAt0,   ///< each bit stuck to 0 with probability `rate`
  kStuckAt1,   ///< each bit stuck to 1 with probability `rate`
  kDeadBlock,  ///< each 128-dim block dead (reads 0) with probability `rate`
  kBankCorrelated,  ///< each of the 16 class-memory banks hit with
                    ///< probability `rate`; hit banks flip bits at
                    ///< `burst_rate` (class memory only)
};

/// Class-memory banks of the GENERIC ASIC (§4.2.2): 16 separate SRAMs, one
/// class accumulator per bank; class c of a wider model maps to bank c % 16.
inline constexpr std::size_t kClassMemoryBanks = 16;

/// Stable short name used in campaign JSON ("transient", "stuck_at_0", ...).
std::string_view fault_kind_name(FaultKind kind);

/// Parse a fault_kind_name(); throws std::invalid_argument on unknown names.
FaultKind fault_kind_from_name(std::string_view name);

/// One fault population: a kind plus its rate. For the per-bit kinds `rate`
/// is the per-bit probability; for kDeadBlock it is the per-block
/// probability; for kBankCorrelated it is the per-bank probability and
/// `burst_rate` is the per-bit flip rate inside an affected bank. Compose
/// several FaultSpecs by applying them in sequence.
struct FaultSpec {
  FaultKind kind = FaultKind::kTransient;
  double rate = 0.0;
  double burst_rate = 0.05;  ///< used by kBankCorrelated only
};

/// Corrupt a bit-packed bipolar hypervector (item/level memory row).
/// kDeadBlock zeroes whole `block`-dimension spans (bits read 0 == -1).
void inject(hdc::BinaryHV& hv, const FaultSpec& spec, Rng& rng,
            std::size_t block = 128);

/// Corrupt a bundled accumulator. Elements are treated as `bit_width`-bit
/// two's-complement words exactly as the class SRAM stores them (bipolar
/// encoding for bit_width == 1, as in the classifier inject() below).
/// kDeadBlock zeroes whole `block`-element spans.
void inject(hdc::IntHV& acc, const FaultSpec& spec, Rng& rng, int bit_width,
            std::size_t block = 128);

/// Corrupt a classifier's class memory. Per-bit kinds draw one Bernoulli
/// per stored bit; kDeadBlock kills the same chunk across *all* classes
/// (a dead norm2-chunk-aligned row span serves every class row in it).
/// Chunk norms are intentionally left stale — the ASIC keeps them in the
/// separate, nominally-powered norm2 memory — which is exactly what lets
/// BlockGuard detect the damage.
void inject(model::HdcClassifier& clf, const FaultSpec& spec, Rng& rng);

/// Deterministically kill an explicit set of chunk-aligned blocks across
/// all classes (for targeted experiments and tests).
void inject_dead_blocks(model::HdcClassifier& clf,
                        const std::vector<std::size_t>& chunks);

/// The per-block decision the classifier-level kDeadBlock inject() makes:
/// one Bernoulli(rate) draw per chunk. Exposed so callers can learn the
/// ground-truth dead set by replaying the same rng state.
std::vector<std::size_t> sample_dead_chunks(std::size_t num_chunks,
                                            double rate, Rng& rng);

/// The per-bank decision the kBankCorrelated inject() makes: exactly
/// kClassMemoryBanks Bernoulli(rate) draws, in bank order, REGARDLESS of
/// how many classes the model holds — the fault pattern is a property of
/// the 16 physical banks, not of the model mapped onto them. Exposed so
/// callers (the chaos orchestrator, tests) can learn the ground-truth hit
/// set by replaying the same rng state.
std::vector<std::size_t> sample_faulty_banks(double rate, Rng& rng);

/// Deterministically corrupt an explicit set of class-memory banks: every
/// class c with c % kClassMemoryBanks in `banks` suffers independent bit
/// flips at `bit_rate` per stored bit (classes ascending, elements in
/// order — bit-exact for a fixed rng state). Chunk norms stay stale, like
/// every class-memory injector (see inject() above).
void inject_bank_correlated(model::HdcClassifier& clf,
                            const std::vector<std::size_t>& banks,
                            double bit_rate, Rng& rng);

/// The per-row decision for encoder-memory bursts: one Bernoulli(rate) draw
/// per row, in row order — the encoder-SRAM analogue of
/// sample_faulty_banks(). Exposed so callers (EncoderGuard tests, the chaos
/// encoder script) can learn the ground-truth hit set by replaying the same
/// rng state.
std::vector<std::size_t> sample_faulty_rows(std::size_t num_rows, double rate,
                                            Rng& rng);

/// Deterministically corrupt an explicit set of level-memory rows (rows
/// ascending, bits in order — bit-exact for a fixed rng state). kDeadBlock
/// models a dead SRAM row: the whole row reads 0. The per-bit kinds flip /
/// stick each bit of a listed row with probability `bit_rate`. Stored mode
/// only — a kRematerialized LevelMemory holds no rows to corrupt (that
/// immunity is the point of PR 7) and mutable_level() throws.
void inject_encoder_rows(hdc::LevelMemory& levels,
                         const std::vector<std::size_t>& rows, FaultKind kind,
                         double bit_rate, Rng& rng);

/// Corrupt the rotating-id seed row of a SeededItemMemory with the same
/// per-row semantics as inject_encoder_rows(). The seed row is always
/// stored (it IS the rematerialization source), so this works in both
/// storage modes — which is why id_seed campaigns still bite a remat
/// encoder.
void inject_id_seed(hdc::SeededItemMemory& ids, FaultKind kind,
                    double bit_rate, Rng& rng);

}  // namespace generic::resilience
