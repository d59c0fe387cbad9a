// Mid-run fault injection through the lifecycle seam (docs/chaos.md).
//
// The serving engine's model pointer is immutable between hot-swaps by
// design — mutating class memory behind the engine's back would let one
// prediction batch span two models AND would break the byte-identical-report
// contract. The chaos campaigns therefore corrupt the model the same way
// real updates arrive: ChaosHook interposes on the engine's ModelLifecycle
// seam, and when a scheduled burst comes due it clones the CURRENTLY
// SERVING model, injects the burst's fault into the clone, and hands it
// back as a regular ModelUpdate. The engine installs it with the normal swap protocol (flush
// every deferred batch first), so the corruption lands at one exact virtual
// time with no request ever served from a half-written model.
//
// Everything else forwards to the wrapped inner lifecycle (normally
// lifecycle::Manager). The Manager keeps its own clean baseline, so the
// heal path stays honest: drift detection sees the corrupted model's
// collapsed margins, triggers a retrain from clean weights, and the
// validated shadow hot-swaps the damage away.
//
// Chaos installs use versions kChaosVersionBase + burst_index, far above
// anything the Manager will ever mint, so reports can tell sabotage from
// recovery.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "chaos/scenario.h"
#include "common/rng.h"
#include "serve/lifecycle_hook.h"

namespace generic::chaos {

inline constexpr std::uint64_t kChaosVersionBase = 1000;

/// What one burst actually did, for the report.
struct BurstRecord {
  std::uint64_t scheduled_vt_us = 0;
  std::uint64_t fired_vt_us = 0;  ///< the poll() that delivered it
  std::uint64_t version = 0;      ///< kChaosVersionBase + burst index
  resilience::FaultSpec fault;
  std::vector<std::size_t> banks;  ///< hit banks (kBankCorrelated only)
};

class ChaosHook : public serve::ModelLifecycle {
 public:
  /// `inner` (optional, not owned) receives every observation and is polled
  /// first, so real lifecycle updates and chaos bursts interleave by
  /// virtual time. `initial` is the model the engine boots from; the hook
  /// tracks the currently serving model through every swap it sees.
  ChaosHook(serve::ModelLifecycle* inner,
            std::shared_ptr<const model::HdcClassifier> initial,
            std::vector<FaultBurst> bursts, std::uint64_t seed);

  void observe(const serve::ServedObservation& obs) override;
  std::optional<serve::ModelUpdate> poll(std::uint64_t now) override;

  const std::vector<BurstRecord>& fired() const { return fired_; }

 private:
  serve::ModelLifecycle* inner_;
  std::shared_ptr<const model::HdcClassifier> current_;
  std::vector<FaultBurst> bursts_;  ///< sorted by vt_us
  std::size_t next_burst_ = 0;
  std::uint64_t seed_;
  std::deque<serve::ModelUpdate> pending_inner_;
  std::vector<BurstRecord> fired_;
};

}  // namespace generic::chaos
