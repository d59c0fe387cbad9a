// The engine side of encoder-memory resilience (docs/resilience.md).
//
// ServeEngine serves pre-encoded queries by index and does not know how
// they were encoded; when the encoder's item/level SRAM takes a fault, the
// thing that actually changes from the engine's point of view is the query
// table itself — every request encoded through a damaged level row scores
// differently. This seam mirrors lifecycle_hook.h for that axis: an
// EncoderMemory is polled by the engine at the same deterministic
// virtual-time points as the model lifecycle and hands back timeline
// entries that swap in a re-encoded query table (corrupt, masked, or
// scrubbed-clean) plus the bookkeeping the report and rtrace need.
//
// On a table swap the engine flushes every deferred prediction batch
// against the outgoing table FIRST and bumps its model epoch — no batch
// ever spans an encoder swap, the same invariant hot model swaps keep.
//
// The concrete producer lives in src/chaos (encoder_chaos.h), which owns a
// real GenericEncoder + resilience::EncoderGuard and precomputes the whole
// fault → detect → mask → scrub timeline before the engine starts; this
// header keeps serve free of a dependency on the encoding layer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "hdc/hypervector.h"

namespace generic::serve {

/// One encoder-memory incident phase, delivered at virtual time `vt`.
struct EncoderUpdate {
  enum class Phase {
    kCorrupt,  ///< fault burst landed; table is encoded through damage
    kDetect,   ///< guard scan counted the damage; serving unchanged
    kMask,     ///< table re-encoded around corrupted rows (encode_masked)
    kScrub,    ///< rows rematerialized from seed; table is clean again
  };
  Phase phase = Phase::kDetect;
  std::uint64_t vt = 0;
  /// Replacement query table; empty == keep serving the current one
  /// (kDetect reports without changing what is served). Must match the
  /// engine's query-set size and outlive the engine.
  std::span<const hdc::IntHV> queries;
  std::size_t faulty_rows = 0;   ///< rows the scan flagged (incl. id seed)
  bool id_seed_faulty = false;   ///< the rotating id seed row is among them
  std::size_t scrubbed_rows = 0; ///< rows rewritten (kScrub only)
  bool scrub_verified = false;   ///< every scrubbed row passed its CRC
  /// Graceful degradation: no seed to scrub from, so serving continues on
  /// masked encodings — force the dims ladder one rung down to buy margin.
  bool step_ladder = false;
};

std::string_view encoder_phase_name(EncoderUpdate::Phase phase);

class EncoderMemory {
 public:
  virtual ~EncoderMemory() = default;

  /// `now` is the engine's current virtual time. Return due updates one at
  /// a time, oldest first; the engine applies each and keeps polling.
  virtual std::optional<EncoderUpdate> poll(std::uint64_t now) = 0;
};

/// A precomputed encoder-incident timeline: entries fire in virtual-time
/// order once their vt has passed. The hook owns every replacement table,
/// so spans handed to the engine stay valid for the hook's lifetime —
/// construct it before the engine and keep it alive past finish().
class ScriptedEncoderFaults final : public EncoderMemory {
 public:
  struct Entry {
    EncoderUpdate meta;  ///< meta.queries is ignored; `table` wins
    std::vector<hdc::IntHV> table;  ///< empty == keep the current table
  };

  explicit ScriptedEncoderFaults(std::vector<Entry> entries)
      : entries_(std::move(entries)) {
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.meta.vt < b.meta.vt;
                     });
  }

  std::optional<EncoderUpdate> poll(std::uint64_t now) override {
    if (next_ >= entries_.size() || entries_[next_].meta.vt > now)
      return std::nullopt;
    Entry& e = entries_[next_++];
    EncoderUpdate upd = e.meta;
    upd.queries = e.table;
    return upd;
  }

 private:
  std::vector<Entry> entries_;
  std::size_t next_ = 0;
};

inline std::string_view encoder_phase_name(EncoderUpdate::Phase phase) {
  switch (phase) {
    case EncoderUpdate::Phase::kCorrupt:
      return "corrupt";
    case EncoderUpdate::Phase::kDetect:
      return "detect";
    case EncoderUpdate::Phase::kMask:
      return "mask";
    case EncoderUpdate::Phase::kScrub:
      return "scrub";
  }
  return "unknown";
}

}  // namespace generic::serve
