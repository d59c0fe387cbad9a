// Online model lifecycle manager (docs/lifecycle.md): the concrete
// serve::ModelLifecycle that closes the loop
//
//   Serving -> DriftSuspected -> Retraining -> Validating
//           -> Swapped / RolledBack -> Serving
//
// * observe() feeds every served request's margin into the DriftDetector
//   and banks labeled canaries into a bounded replay buffer.
// * When the detector alarms (and the cooldown allows and enough replay has
//   accumulated), poll() triggers a retrain: a shadow copy of the current
//   model runs retrain_epoch_parallel over the replay buffer minus its
//   newest `holdout` entries, right away, on the pool the caller passed.
// * The shadow is then validated on the held-out slice at EVERY rung of the
//   serving dimension ladder: it must not regress accuracy by more than
//   epsilon at any rung (a model that only wins at full dimensions but
//   collapses when degraded would sabotage the SLO ladder).
// * Virtual-time contract: a retrain triggered at virtual time T has a
//   modeled cost of retrain_cost_us, so the manager holds the verdict and
//   poll(now) publishes it only once now >= T + retrain_cost_us. The
//   OUTCOME is a pure function of (model, replay, config), so the report
//   stays byte-identical across pool widths.
// * A validated shadow is checkpointed (CheckpointStore, when configured)
//   and returned for hot-swap; a failed one is discarded and reported as a
//   rollback. Either way the detector re-arms from scratch.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "hdc/hypervector.h"
#include "lifecycle/checkpoint_store.h"
#include "lifecycle/drift_detector.h"
#include "model/hdc_classifier.h"
#include "serve/lifecycle_hook.h"

namespace generic::lifecycle {

struct LifecycleConfig {
  DriftConfig drift;
  std::size_t replay_capacity = 512;  ///< bounded canary replay buffer
  /// Per-class replay quota (0 = unbounded). With a cap, banking a canary
  /// whose class already holds `replay_class_cap` entries evicts the OLDEST
  /// canary of that same class instead of growing the class further — so a
  /// single-class flash crowd cannot flood the buffer and starve retrain
  /// validation of every other class.
  std::size_t replay_class_cap = 0;
  std::size_t holdout = 96;    ///< newest replay entries reserved for validation
  std::size_t min_replay = 192;       ///< no retrain below this many canaries
  /// Canaries that must arrive AFTER the alarm edge before a retrain
  /// triggers: lets the replay buffer fill with post-drift samples so the
  /// shadow trains on the new regime, not on memories of the old one.
  std::size_t min_fresh = 0;
  std::size_t retrain_epochs = 3;
  std::uint64_t retrain_cost_us = 30000;  ///< modeled virtual retrain latency
  std::uint64_t cooldown_us = 50000;  ///< min virtual gap between triggers
  double epsilon = 0.02;       ///< allowed holdout accuracy drop, per rung
  std::size_t min_dims = 512;  ///< validation ladder floor (match serving cfg)
  /// Version of the model the manager starts from: 0 for a fresh boot, or
  /// the checkpoint's version when restarting from CheckpointStore — the
  /// first retrain then becomes initial_version + 1, so version numbering
  /// stays monotone across restarts.
  std::uint64_t initial_version = 0;
  std::uint64_t seed = 0xC1F3; ///< shadow-corruption rng root (test hook)
  double shadow_fault_rate = 0.0;  ///< corrupt the shadow before validation
                                   ///< (tests the rejection gate; keep 0 in
                                   ///< production)
};

/// Timeline entry kinds of generic.lifecycle.v1.
enum class EventKind { kDriftAlarm, kRetrainStart, kSwap, kRollback };
std::string_view event_kind_name(EventKind kind);

struct LifecycleEvent {
  std::uint64_t vt = 0;
  EventKind kind = EventKind::kDriftAlarm;
  std::uint64_t version = 0;   ///< candidate/installed version (0: drift alarm)
  double drift_score = 0.0;    ///< detector score at the event
};

/// One model version the lifecycle produced (or started from).
struct VersionRecord {
  std::uint64_t version = 0;
  bool from_retrain = false;   ///< false: the initial model
  bool installed = false;      ///< false: candidate failed validation
  std::uint64_t vt = 0;        ///< virtual install / rejection time
  std::size_t updates = 0;     ///< perceptron updates across retrain epochs
  std::vector<std::size_t> rung_dims;      ///< validation ladder
  std::vector<double> holdout_accuracy;    ///< shadow accuracy per rung
  std::vector<double> baseline_accuracy;   ///< outgoing model, same holdout
};

/// Everything generic.lifecycle.v1 reports.
struct LifecycleReport {
  LifecycleConfig config;
  std::uint64_t observations = 0;
  std::uint64_t canaries = 0;
  std::uint64_t replay_size = 0;
  double margin_ewma = 0.0;
  double accuracy_ewma = 0.0;
  double peak_accuracy = 0.0;
  double drift_score = 0.0;
  std::uint64_t alarms = 0;     ///< detector alarm edges observed
  std::uint64_t triggered = 0;  ///< retrains started
  std::uint64_t swapped = 0;
  std::uint64_t rolled_back = 0;
  double accuracy_ewma_at_trigger = 0.0;  ///< at the FIRST retrain trigger
  double final_accuracy_ewma = 0.0;       ///< at report time
  std::vector<LifecycleEvent> events;
  std::vector<VersionRecord> versions;
  std::uint64_t checkpoints_saved = 0;
  std::uint64_t checkpoints_pruned = 0;
  std::uint64_t checkpoints_quarantined = 0;
};

/// Render as schema `generic.lifecycle.v1`: fixed field order (obs/json.h),
/// no wall-clock or thread-count fields — byte-identical across --threads
/// for a fixed (trace, config, seed).
std::string lifecycle_report_to_json(const LifecycleReport& report);

class Manager : public serve::ModelLifecycle {
 public:
  /// `initial` is the model the engine starts serving (shared so manager
  /// and engine agree on the object). `queries`/`labels` is the SAME query
  /// set (and ground truth) the engine was constructed over — observations
  /// reference queries by index. Retraining and validation run on `pool`
  /// (not owned, must outlive the manager; usually the engine's). `store`
  /// (optional, not owned) receives a checkpoint per validated version.
  Manager(std::shared_ptr<const model::HdcClassifier> initial,
          std::span<const hdc::IntHV> queries, std::span<const int> labels,
          const LifecycleConfig& cfg, ThreadPool& pool,
          CheckpointStore* store = nullptr);

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  void observe(const serve::ServedObservation& obs) override;
  std::optional<serve::ModelUpdate> poll(std::uint64_t now) override;

  /// Snapshot of the lifecycle state for reporting. Call after the engine
  /// finished (no concurrent observe/poll).
  LifecycleReport report() const;

  const DriftDetector& detector() const { return detector_; }
  std::size_t replay_size() const { return replay_.size(); }
  /// Canaries currently banked per class label (index == label). Exposed
  /// for the class-balancing tests and chaos invariant checks.
  const std::vector<std::size_t>& replay_class_histogram() const {
    return replay_class_counts_;
  }
  /// True from a retrain's trigger until poll() publishes its verdict at
  /// ready_vt (the work itself finished inside the triggering poll()).
  bool retrain_in_flight() const { return job_ != nullptr; }

 private:
  struct RetrainJob {
    std::uint64_t ready_vt = 0;
    std::uint64_t version = 0;
    std::shared_ptr<model::HdcClassifier> shadow;
    bool passed = false;
    std::size_t updates = 0;
    std::vector<std::size_t> rung_dims;
    std::vector<double> shadow_accuracy;
    std::vector<double> baseline_accuracy;
  };

  void start_retrain(std::uint64_t now);
  void run_retrain(RetrainJob& job);

  std::shared_ptr<const model::HdcClassifier> current_;
  std::span<const hdc::IntHV> queries_;
  std::span<const int> labels_;
  LifecycleConfig cfg_;
  ThreadPool& pool_;
  CheckpointStore* store_ = nullptr;

  void bank_canary(std::uint64_t query);

  DriftDetector detector_;
  std::deque<std::uint64_t> replay_;  ///< canary query indices, oldest first
  std::vector<std::size_t> replay_class_counts_;  ///< per-class replay tally
  std::unique_ptr<RetrainJob> job_;
  std::uint64_t next_version_;  ///< first retrain: initial_version + 1
  std::uint64_t cooldown_until_ = 0;
  std::uint64_t fresh_canaries_ = 0;  ///< canaries since the alarm edge

  // Report accumulation.
  std::uint64_t alarms_ = 0;
  std::uint64_t triggered_ = 0;
  std::uint64_t swapped_ = 0;
  std::uint64_t rolled_back_ = 0;
  double accuracy_ewma_at_trigger_ = 0.0;
  std::vector<LifecycleEvent> events_;
  std::vector<VersionRecord> versions_;
};

}  // namespace generic::lifecycle
