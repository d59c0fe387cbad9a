// The engine side of the online model lifecycle (docs/lifecycle.md).
//
// ServeEngine does not know how drift is detected or models are retrained;
// it only exposes the two deterministic touch points a lifecycle needs:
//
//   observe() — called by the engine for every SERVED request, in
//     batch-flush order, with the request's virtual completion time, its
//     normalized prediction margin and — for labeled canary
//     requests — whether the prediction was correct. Flush order is a pure
//     function of (trace, config, seed), so the observation stream is
//     byte-identical across --threads.
//
//   poll() — called by the engine at deterministic virtual-time
//     points (each arrival, and once at final drain) to ask whether a new
//     model is ready to install. An implementation must answer from
//     VIRTUAL time alone: a retrain that triggers at virtual time T with a
//     modeled cost of C microseconds becomes installable at T + C, however
//     long the background compute took on the wall clock.
//
// On a swap the engine flushes every deferred prediction batch against the
// outgoing model FIRST, then installs the new pointer and bumps its model
// epoch — no batch ever spans two models (asserted in flush_rung).
//
// The concrete implementation lives in src/lifecycle (lifecycle::Manager);
// this header keeps serve free of a dependency on that layer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "model/hdc_classifier.h"

namespace generic::serve {

/// One served request, as the lifecycle sees it.
struct ServedObservation {
  std::uint64_t vt = 0;       ///< virtual completion time
  std::uint64_t query = 0;    ///< index into the engine's query set
  std::size_t rung = 0;       ///< ladder rung the request was served at
  double margin = 0.0;        ///< normalized top1-vs-top2 prediction margin
  bool canary = false;        ///< labeled canary request
  bool correct = false;       ///< prediction matched the label (canaries)
  int label = -1;             ///< ground truth (meaningful for canaries)
};

/// Answer from poll(): either a validated model to hot-swap in, or a
/// rollback notice (a retrain finished but failed validation and was
/// discarded). `version` is the lifecycle's monotonically increasing model
/// version; `vt` is the virtual time the decision became effective.
struct ModelUpdate {
  std::shared_ptr<const model::HdcClassifier> model;  ///< null on rollback
  std::uint64_t version = 0;
  std::uint64_t vt = 0;
  bool rollback = false;
};

class ModelLifecycle {
 public:
  virtual ~ModelLifecycle() = default;

  virtual void observe(const ServedObservation& obs) = 0;

  /// `now` is the engine's current virtual time. Return an update at most
  /// once per completed retrain; the engine installs (or just records, for
  /// rollbacks) and keeps polling.
  virtual std::optional<ModelUpdate> poll(std::uint64_t now) = 0;
};

}  // namespace generic::serve
