#include "lifecycle/manager.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ranges>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/rtrace.h"
#include "resilience/fault_model.h"
#include "serve/policy.h"

namespace generic::lifecycle {

namespace rtrace = obs::rtrace;

namespace {

std::int64_t milli(double v) {
  return static_cast<std::int64_t>(std::llround(v * 1000.0));
}

}  // namespace

std::string_view event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kDriftAlarm: return "drift_alarm";
    case EventKind::kRetrainStart: return "retrain_start";
    case EventKind::kSwap: return "swap";
    case EventKind::kRollback: return "rollback";
  }
  return "unknown";
}

Manager::Manager(std::shared_ptr<const model::HdcClassifier> initial,
                 std::span<const hdc::IntHV> queries,
                 std::span<const int> labels, const LifecycleConfig& cfg,
                 ThreadPool& pool, CheckpointStore* store)
    : current_(std::move(initial)),
      queries_(queries),
      labels_(labels),
      cfg_(cfg),
      pool_(pool),
      store_(store),
      detector_(cfg.drift),
      next_version_(cfg.initial_version + 1) {
  if (!current_) throw std::invalid_argument("Manager: initial model is null");
  if (queries_.size() != labels_.size())
    throw std::invalid_argument("Manager: queries/labels size mismatch");
  if (cfg_.replay_capacity == 0)
    throw std::invalid_argument("Manager: replay_capacity must be >= 1");
  if (cfg_.holdout == 0)
    throw std::invalid_argument("Manager: holdout must be >= 1");
  if (cfg_.min_replay <= cfg_.holdout)
    throw std::invalid_argument(
        "Manager: min_replay must exceed holdout (nothing left to train on)");
  if (cfg_.min_replay > cfg_.replay_capacity)
    throw std::invalid_argument(
        "Manager: min_replay cannot exceed replay_capacity");
  if (cfg_.retrain_epochs == 0)
    throw std::invalid_argument("Manager: retrain_epochs must be >= 1");
  if (cfg_.epsilon < 0.0)
    throw std::invalid_argument("Manager: epsilon must be >= 0");

  VersionRecord rec;
  rec.version = cfg_.initial_version;
  rec.from_retrain = false;
  rec.installed = true;
  rec.vt = 0;
  versions_.push_back(std::move(rec));
}

void Manager::observe(const serve::ServedObservation& obs) {
  const bool was_alarmed = detector_.alarmed();
  detector_.observe_margin(obs.margin);
  if (obs.canary) {
    detector_.observe_canary(obs.correct);
    bank_canary(obs.query);
    if (was_alarmed) ++fresh_canaries_;
  }
  if (!was_alarmed && detector_.alarmed()) {
    ++alarms_;
    fresh_canaries_ = 0;
    GENERIC_COUNTER_ADD("lifecycle.alarms", 1);
    rtrace::record(rtrace::EventKind::kDriftAlarm, obs.vt, rtrace::kNoRequest,
                   0, 0, milli(detector_.drift_score()));
    events_.push_back(
        LifecycleEvent{obs.vt, EventKind::kDriftAlarm, 0,
                       detector_.drift_score()});
  }
}

void Manager::bank_canary(std::uint64_t query) {
  replay_.push_back(query);
  const auto cls = static_cast<std::size_t>(labels_[query]);
  if (cls >= replay_class_counts_.size())
    replay_class_counts_.resize(cls + 1, 0);
  ++replay_class_counts_[cls];

  auto evict_oldest_of = [&](std::size_t target) {
    for (auto it = replay_.begin(); it != replay_.end(); ++it) {
      if (static_cast<std::size_t>(labels_[*it]) == target) {
        replay_.erase(it);
        --replay_class_counts_[target];
        return;
      }
    }
  };

  // Class quota first: an over-quota class recycles its own oldest canary,
  // so the flood never displaces other classes' replay.
  if (cfg_.replay_class_cap > 0 &&
      replay_class_counts_[cls] > cfg_.replay_class_cap) {
    evict_oldest_of(cls);
  }
  if (replay_.size() > cfg_.replay_capacity) {
    const auto front_cls = static_cast<std::size_t>(labels_[replay_.front()]);
    replay_.pop_front();
    --replay_class_counts_[front_cls];
  }
}

std::optional<serve::ModelUpdate> Manager::poll(std::uint64_t now) {
  if (job_ && now >= job_->ready_vt) {
    std::unique_ptr<RetrainJob> job = std::move(job_);
    const double score = detector_.drift_score();
    detector_.reset();
    cooldown_until_ = job->ready_vt + cfg_.cooldown_us;

    VersionRecord rec;
    rec.version = job->version;
    rec.from_retrain = true;
    rec.installed = job->passed;
    rec.vt = job->ready_vt;
    rec.updates = job->updates;
    rec.rung_dims = job->rung_dims;
    rec.holdout_accuracy = job->shadow_accuracy;
    rec.baseline_accuracy = job->baseline_accuracy;
    versions_.push_back(std::move(rec));

    serve::ModelUpdate upd;
    upd.version = job->version;
    upd.vt = job->ready_vt;
    if (job->passed) {
      ++swapped_;
      GENERIC_COUNTER_ADD("lifecycle.swaps", 1);
      events_.push_back(
          LifecycleEvent{job->ready_vt, EventKind::kSwap, job->version, score});
      if (store_) {
        store_->save(*job->shadow, job->version, job->ready_vt);
        rtrace::record(rtrace::EventKind::kCheckpointSave, job->ready_vt,
                       rtrace::kNoRequest, job->version);
      }
      current_ = job->shadow;
      upd.model = std::move(job->shadow);
    } else {
      ++rolled_back_;
      GENERIC_COUNTER_ADD("lifecycle.rollbacks", 1);
      events_.push_back(LifecycleEvent{job->ready_vt, EventKind::kRollback,
                                       job->version, score});
      upd.rollback = true;
    }
    return upd;
  }

  if (!job_ && detector_.alarmed() && now >= cooldown_until_ &&
      replay_.size() >= cfg_.min_replay &&
      fresh_canaries_ >= cfg_.min_fresh) {
    start_retrain(now);
  }
  return std::nullopt;
}

void Manager::start_retrain(std::uint64_t now) {
  ++triggered_;
  GENERIC_COUNTER_ADD("lifecycle.retrains", 1);
  if (triggered_ == 1) accuracy_ewma_at_trigger_ = detector_.accuracy_ewma();

  job_ = std::make_unique<RetrainJob>();
  job_->ready_vt = now + cfg_.retrain_cost_us;
  job_->version = next_version_++;
  rtrace::record(rtrace::EventKind::kRetrainStart, now, rtrace::kNoRequest,
                 job_->version, 0, milli(detector_.drift_score()));
  events_.push_back(LifecycleEvent{now, EventKind::kRetrainStart,
                                   job_->version, detector_.drift_score()});
  run_retrain(*job_);
}

void Manager::run_retrain(RetrainJob& job) {
  GENERIC_SPAN("lifecycle.retrain");
  // Newest `holdout` canaries validate; everything older trains. The split
  // is by recency so validation measures the model on the CURRENT regime.
  // Both sides point into the query table and are packed straight into
  // one narrow batch each: the training rows for every epoch, the holdout
  // for every rung's scan of the shadow and the baseline.
  const model::HdcClassifier& baseline = *current_;
  const std::size_t train_n = replay_.size() - cfg_.holdout;
  std::vector<const hdc::IntHV*> train_x, hold_x;
  std::vector<int> train_y, hold_y;
  for (std::size_t i = 0; i < replay_.size(); ++i) {
    const std::uint64_t q = replay_[i];
    (i < train_n ? train_x : hold_x).push_back(&queries_[q]);
    (i < train_n ? train_y : hold_y).push_back(labels_[q]);
  }
  const hdc::QueryBatch train(train_x, baseline.dims());
  const hdc::QueryBatch hold(hold_x, baseline.dims());
  std::vector<std::size_t> hold_rows(hold.size());
  std::iota(hold_rows.begin(), hold_rows.end(), std::size_t{0});

  auto shadow = std::make_shared<model::HdcClassifier>(baseline);
  for (std::size_t e = 0; e < cfg_.retrain_epochs; ++e) {
    const std::size_t u = shadow->retrain_epoch_parallel(train, train_y, pool_);
    job.updates += u;
    if (u == 0) break;
  }

  if (cfg_.shadow_fault_rate > 0.0) {
    // Test hook for the validation gate: corrupt the freshly retrained
    // shadow the way voltage over-scaling would, then let validation decide.
    Rng rng(cfg_.seed ^ (0x9E3779B97F4A7C15ULL * job.version));
    resilience::inject(
        *shadow,
        resilience::FaultSpec{resilience::FaultKind::kTransient,
                              cfg_.shadow_fault_rate},
        rng);
  }

  // Validate on the holdout at EVERY serving rung: the shadow must hold up
  // under dimension reduction too, or the SLO ladder would trade accuracy
  // it does not know it lost.
  const std::size_t chunk = baseline.dims() / baseline.num_chunks();
  job.rung_dims = serve::dims_ladder(baseline.dims(), chunk, cfg_.min_dims);
  job.passed = true;
  for (const std::size_t dims : job.rung_dims) {
    const std::vector<bool> mask = baseline.prefix_mask(dims);
    const std::vector<model::Prediction> sp = shadow->scan_batch(
        hold, hold_rows, mask, model::NormMode::kUpdated, pool_);
    const std::vector<model::Prediction> bp = baseline.scan_batch(
        hold, hold_rows, mask, model::NormMode::kUpdated, pool_);
    std::size_t s_ok = 0, b_ok = 0;
    for (std::size_t i = 0; i < hold_y.size(); ++i) {
      if (sp[i].cls == hold_y[i]) ++s_ok;
      if (bp[i].cls == hold_y[i]) ++b_ok;
    }
    const double n = static_cast<double>(hold_y.size());
    const double s_acc = static_cast<double>(s_ok) / n;
    const double b_acc = static_cast<double>(b_ok) / n;
    job.shadow_accuracy.push_back(s_acc);
    job.baseline_accuracy.push_back(b_acc);
    if (s_acc + cfg_.epsilon < b_acc) job.passed = false;
  }
  job.shadow = std::move(shadow);
}

LifecycleReport Manager::report() const {
  LifecycleReport r;
  r.config = cfg_;
  r.observations = detector_.observations();
  r.canaries = detector_.canaries();
  r.replay_size = replay_.size();
  r.margin_ewma = detector_.margin_ewma();
  r.accuracy_ewma = detector_.accuracy_ewma();
  r.peak_accuracy = detector_.peak_accuracy();
  r.drift_score = detector_.drift_score();
  r.alarms = alarms_;
  r.triggered = triggered_;
  r.swapped = swapped_;
  r.rolled_back = rolled_back_;
  r.accuracy_ewma_at_trigger = accuracy_ewma_at_trigger_;
  r.final_accuracy_ewma = detector_.accuracy_ewma();
  r.events = events_;
  r.versions = versions_;
  if (store_) {
    r.checkpoints_saved = store_->saved();
    r.checkpoints_pruned = store_->pruned();
    r.checkpoints_quarantined = store_->quarantined();
  }
  return r;
}

std::string lifecycle_report_to_json(const LifecycleReport& report) {
  // Field order is part of the schema: equal reports render to equal bytes.
  namespace json = obs::json;
  const LifecycleConfig& c = report.config;
  std::string out;
  json::Object doc(out, 2);
  doc.str("schema", "generic.lifecycle.v1");
  json::Object config(doc.key("config"), 4);
  json::Object(config.key("drift"))
      .dbl("margin_alpha", c.drift.margin_alpha)
      .dbl("accuracy_alpha", c.drift.accuracy_alpha)
      .u64("warmup", c.drift.warmup)
      .u64("canary_warmup", c.drift.canary_warmup)
      .dbl("ph_delta", c.drift.ph_delta)
      .dbl("ph_lambda", c.drift.ph_lambda)
      .dbl("accuracy_drop", c.drift.accuracy_drop)
      .close();
  config.u64("replay_capacity", c.replay_capacity)
      .u64("replay_class_cap", c.replay_class_cap)
      .u64("holdout", c.holdout)
      .u64("min_replay", c.min_replay)
      .u64("min_fresh", c.min_fresh)
      .u64("retrain_epochs", c.retrain_epochs)
      .u64("retrain_cost_us", c.retrain_cost_us)
      .u64("cooldown_us", c.cooldown_us)
      .dbl("epsilon", c.epsilon)
      .u64("min_dims", c.min_dims)
      .u64("initial_version", c.initial_version)
      .u64("seed", c.seed)
      .dbl("shadow_fault_rate", c.shadow_fault_rate)
      .close();
  json::Object(doc.key("drift"), 4)
      .u64("observations", report.observations)
      .u64("canaries", report.canaries)
      .u64("replay_size", report.replay_size)
      .dbl("margin_ewma", report.margin_ewma)
      .dbl("accuracy_ewma", report.accuracy_ewma)
      .dbl("peak_accuracy", report.peak_accuracy)
      .dbl("drift_score", report.drift_score)
      .u64("alarms", report.alarms)
      .dbl("accuracy_ewma_at_trigger", report.accuracy_ewma_at_trigger)
      .dbl("final_accuracy_ewma", report.final_accuracy_ewma)
      .close();
  json::Object(doc.key("retrains"))
      .u64("triggered", report.triggered)
      .u64("swapped", report.swapped)
      .u64("rolled_back", report.rolled_back)
      .close();
  json::list(doc.key("events"), report.events, 4,
             [&](const LifecycleEvent& e) {
               json::Object(out)
                   .u64("vt_us", e.vt)
                   .str("kind", event_kind_name(e.kind))
                   .u64("version", e.version)
                   .dbl("drift_score", e.drift_score)
                   .close();
             });
  json::list(doc.key("versions"), report.versions, 4,
             [&](const VersionRecord& v) {
               json::Object o(out);
               o.u64("version", v.version)
                   .str("source", v.from_retrain ? "retrain" : "initial")
                   .boolean("installed", v.installed)
                   .u64("vt_us", v.vt)
                   .u64("updates", v.updates);
               const auto rungs =
                   std::views::iota(std::size_t{0}, v.rung_dims.size());
               json::list(o.key("rungs"), rungs, 0, [&](std::size_t r) {
                 json::Object(out)
                     .u64("dims", v.rung_dims[r])
                     .dbl("holdout_accuracy", v.holdout_accuracy[r])
                     .dbl("baseline_accuracy", v.baseline_accuracy[r])
                     .close();
               });
               o.close();
             });
  json::Object(doc.key("checkpoints"))
      .u64("saved", report.checkpoints_saved)
      .u64("pruned", report.checkpoints_pruned)
      .u64("quarantined", report.checkpoints_quarantined)
      .close();
  doc.close();
  out += '\n';
  return out;
}

}  // namespace generic::lifecycle
