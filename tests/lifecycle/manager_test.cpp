// lifecycle::Manager end to end against a synthetic concept shift: alarm ->
// gated trigger -> background retrain -> per-rung validation -> swap (or
// rollback for a corrupted shadow), with the report byte-stable across the
// manager's own thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lifecycle/manager.h"

namespace generic::lifecycle {
namespace {

constexpr std::size_t kDims = 512;
constexpr std::size_t kClasses = 3;
constexpr std::size_t kShiftAt = 120;  ///< first post-shift observation
constexpr std::size_t kTotal = 360;

/// Query stream with a hard concept shift: one label space, pre-shift
/// samples near one set of class templates, post-shift samples near a
/// fresh, unrelated set. The initial model is trained on pre only.
struct Scenario {
  std::vector<hdc::IntHV> queries;
  std::vector<int> labels;
  std::shared_ptr<model::HdcClassifier> initial;
};

Scenario make_scenario() {
  Rng rng(0xD21F7);
  auto make_base = [&rng] {
    hdc::IntHV b(kDims);
    for (auto& v : b) v = static_cast<std::int32_t>(rng.below(17)) - 8;
    return b;
  };
  std::vector<hdc::IntHV> pre;
  std::vector<hdc::IntHV> post;
  for (std::size_t c = 0; c < kClasses; ++c) pre.push_back(make_base());
  for (std::size_t c = 0; c < kClasses; ++c) post.push_back(make_base());
  auto noisy = [&rng](const hdc::IntHV& base) {
    hdc::IntHV h = base;
    for (int k = 0; k < 8; ++k)
      h[rng.below(kDims)] += static_cast<std::int32_t>(rng.below(5)) - 2;
    return h;
  };

  Scenario s;
  std::vector<hdc::IntHV> train;
  std::vector<int> train_y;
  for (int i = 0; i < 60; ++i) {
    const int c = i % static_cast<int>(kClasses);
    train.push_back(noisy(pre[static_cast<std::size_t>(c)]));
    train_y.push_back(c);
  }
  s.initial = std::make_shared<model::HdcClassifier>(kDims, kClasses);
  s.initial->fit_parallel(train, train_y, 3, global_pool());

  for (std::size_t i = 0; i < kTotal; ++i) {
    const int c = static_cast<int>(i % kClasses);
    const auto& tmpl =
        (i < kShiftAt ? pre : post)[static_cast<std::size_t>(c)];
    s.queries.push_back(noisy(tmpl));
    s.labels.push_back(c);
  }
  return s;
}

LifecycleConfig fast_config() {
  LifecycleConfig cfg;
  cfg.drift.warmup = 32;
  cfg.drift.canary_warmup = 8;
  cfg.replay_capacity = 128;
  cfg.holdout = 32;
  cfg.min_replay = 64;
  cfg.min_fresh = 64;
  cfg.retrain_epochs = 3;
  cfg.retrain_cost_us = 5000;
  cfg.cooldown_us = 10000;
  cfg.min_dims = 128;  // ladder {512, 256, 128}
  cfg.threads = 2;
  return cfg;
}

struct RunResult {
  std::vector<serve::ModelUpdate> updates;
  LifecycleReport report;
};

/// Drive the manager the way the serving engine would: one canary
/// observation per 1000 virtual us, poll after each, then keep polling past
/// the end until any in-flight retrain publishes. Margins are scripted
/// (confident pre-shift, collapsed post-shift).
RunResult run_scenario(const Scenario& s, Manager& manager) {
  RunResult out;
  std::uint64_t vt = 0;
  for (std::size_t i = 0; i < s.queries.size(); ++i) {
    vt = (i + 1) * 1000;
    serve::ServedObservation obs;
    obs.vt = vt;
    obs.query = i;
    obs.margin = i < kShiftAt ? 0.5 : 0.05;
    obs.canary = true;
    obs.correct = i < kShiftAt;
    obs.label = s.labels[i];
    manager.observe(obs);
    while (auto upd = manager.poll(vt)) out.updates.push_back(std::move(*upd));
  }
  while (manager.retrain_in_flight()) {
    vt += 1000;
    while (auto upd = manager.poll(vt)) out.updates.push_back(std::move(*upd));
  }
  out.report = manager.report();
  return out;
}

std::uint64_t event_vt(const LifecycleReport& report, EventKind kind) {
  for (const auto& e : report.events)
    if (e.kind == kind) return e.vt;
  ADD_FAILURE() << "event not found: " << event_kind_name(kind);
  return 0;
}

TEST(LifecycleManager, DriftTriggersGatedRetrainAndSwap) {
  const Scenario s = make_scenario();
  Manager manager(s.initial, s.queries, s.labels, fast_config());
  const RunResult run = run_scenario(s, manager);

  // Exactly one loop closes: the scripted margins re-baseline after the
  // detector resets, so no second alarm fires.
  ASSERT_EQ(run.updates.size(), 1u);
  const serve::ModelUpdate& upd = run.updates[0];
  EXPECT_FALSE(upd.rollback);
  ASSERT_NE(upd.model, nullptr);
  EXPECT_EQ(upd.version, 1u);
  EXPECT_EQ(upd.model->dims(), kDims);
  EXPECT_EQ(upd.model->num_classes(), kClasses);

  const LifecycleReport& rep = run.report;
  EXPECT_EQ(rep.alarms, 1u);
  EXPECT_EQ(rep.triggered, 1u);
  EXPECT_EQ(rep.swapped, 1u);
  EXPECT_EQ(rep.rolled_back, 0u);

  // min_fresh gating: the trigger waited for 64 POST-alarm canaries (one
  // per 1000 virtual us) so the replay filled with the new regime first.
  const std::uint64_t alarm_vt = event_vt(rep, EventKind::kDriftAlarm);
  const std::uint64_t trigger_vt = event_vt(rep, EventKind::kRetrainStart);
  const std::uint64_t swap_vt = event_vt(rep, EventKind::kSwap);
  EXPECT_GT(alarm_vt, kShiftAt * 1000);
  EXPECT_GE(trigger_vt, alarm_vt + fast_config().min_fresh * 1000);
  EXPECT_EQ(swap_vt, trigger_vt + fast_config().retrain_cost_us);
  EXPECT_EQ(upd.vt, swap_vt);

  // Version 1 validated at every ladder rung and beat the stranded
  // baseline outright at full dimensions.
  ASSERT_EQ(rep.versions.size(), 2u);
  EXPECT_FALSE(rep.versions[0].from_retrain);
  const VersionRecord& v1 = rep.versions[1];
  EXPECT_TRUE(v1.from_retrain);
  EXPECT_TRUE(v1.installed);
  EXPECT_GT(v1.updates, 0u);
  ASSERT_EQ(v1.rung_dims.size(), 3u);
  EXPECT_EQ(v1.rung_dims[0], 512u);
  EXPECT_EQ(v1.rung_dims[2], 128u);
  for (std::size_t r = 0; r < v1.rung_dims.size(); ++r)
    EXPECT_GE(v1.holdout_accuracy[r] + fast_config().epsilon,
              v1.baseline_accuracy[r])
        << "rung " << r;
  EXPECT_GT(v1.holdout_accuracy[0], v1.baseline_accuracy[0] + 0.15)
      << "retraining on post-shift replay should clearly beat the frozen "
         "baseline on the post-shift holdout";

  const std::string json = lifecycle_report_to_json(rep);
  EXPECT_NE(json.find("\"generic.lifecycle.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"drift_alarm\""), std::string::npos);
  EXPECT_NE(json.find("\"swap\""), std::string::npos);
}

TEST(LifecycleManager, CorruptShadowIsRejectedAsRollback) {
  const Scenario s = make_scenario();
  LifecycleConfig cfg = fast_config();
  cfg.shadow_fault_rate = 0.5;  // fault-inject the shadow before validation
  Manager manager(s.initial, s.queries, s.labels, cfg);
  const RunResult run = run_scenario(s, manager);

  ASSERT_GE(run.updates.size(), 1u);
  const serve::ModelUpdate& upd = run.updates[0];
  EXPECT_TRUE(upd.rollback);
  EXPECT_EQ(upd.model, nullptr);

  const LifecycleReport& rep = run.report;
  EXPECT_EQ(rep.swapped, 0u);
  EXPECT_GE(rep.rolled_back, 1u);
  ASSERT_GE(rep.versions.size(), 2u);
  EXPECT_FALSE(rep.versions[1].installed);
  EXPECT_EQ(event_vt(rep, EventKind::kRollback),
            event_vt(rep, EventKind::kRetrainStart) + cfg.retrain_cost_us);
}

TEST(LifecycleManager, ReportIsByteIdenticalAcrossManagerThreads) {
  const Scenario s = make_scenario();
  std::vector<std::string> jsons;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    LifecycleConfig cfg = fast_config();
    cfg.threads = threads;
    Manager manager(s.initial, s.queries, s.labels, cfg);
    jsons.push_back(lifecycle_report_to_json(run_scenario(s, manager).report));
  }
  EXPECT_EQ(jsons[0], jsons[1]);
}

TEST(LifecycleManager, ValidatedSwapIsCheckpointed) {
  const Scenario s = make_scenario();
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "lifecycle-manager-ckpt";
  std::filesystem::remove_all(dir);
  CheckpointStore store(dir.string(), 4);
  Manager manager(s.initial, s.queries, s.labels, fast_config(), &store);
  const RunResult run = run_scenario(s, manager);

  ASSERT_EQ(run.updates.size(), 1u);
  ASSERT_NE(run.updates[0].model, nullptr);
  EXPECT_EQ(store.saved(), 1u);
  EXPECT_EQ(run.report.checkpoints_saved, 1u);

  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->version, 1u);
  EXPECT_EQ(loaded->vt, run.updates[0].vt);
  for (std::size_t c = 0; c < kClasses; ++c)
    EXPECT_EQ(loaded->model.class_vector(c),
              run.updates[0].model->class_vector(c))
        << c;
}

TEST(LifecycleManager, ReplayClassCapBoundsFloodedClass) {
  const Scenario s = make_scenario();
  LifecycleConfig cfg = fast_config();
  cfg.replay_class_cap = 8;
  Manager manager(s.initial, s.queries, s.labels, cfg);

  // A single-class flash crowd: 90 class-0 canaries, then a trickle of
  // class 1. Labels follow i % 3, so query 3k is class 0, 3k+1 is class 1.
  std::uint64_t vt = 0;
  auto observe = [&](std::uint64_t query) {
    vt += 1000;
    serve::ServedObservation obs;
    obs.vt = vt;
    obs.query = query;
    obs.margin = 0.5;  // confident: never trip the detector here
    obs.canary = true;
    obs.correct = true;
    obs.label = s.labels[query];
    manager.observe(obs);
    manager.poll(vt);
  };
  for (std::uint64_t k = 0; k < 90; ++k) observe(3 * (k % 100));
  for (std::uint64_t k = 0; k < 5; ++k) observe(3 * k + 1);

  const auto& hist = manager.replay_class_histogram();
  ASSERT_GE(hist.size(), 2u);
  EXPECT_EQ(hist[0], cfg.replay_class_cap)
      << "the flooded class must saturate at the quota, not fill the buffer";
  EXPECT_EQ(hist[1], 5u);
  EXPECT_EQ(manager.replay_size(), cfg.replay_class_cap + 5);

  // Without the cap the same flood owns the whole buffer.
  Manager greedy(s.initial, s.queries, s.labels, fast_config());
  for (std::uint64_t k = 0; k < 90; ++k) {
    vt += 1000;
    serve::ServedObservation obs;
    obs.vt = vt;
    obs.query = 3 * (k % 100);
    obs.margin = 0.5;
    obs.canary = true;
    obs.correct = true;
    obs.label = 0;
    greedy.observe(obs);
    greedy.poll(vt);
  }
  EXPECT_EQ(greedy.replay_class_histogram()[0], 90u);
}

TEST(LifecycleManager, InitialVersionContinuesNumberingAcrossRestart) {
  // Booting from a version-5 checkpoint must not reuse version numbers:
  // the first retrain becomes 6, and the report's initial record says 5.
  const Scenario s = make_scenario();
  LifecycleConfig cfg = fast_config();
  cfg.initial_version = 5;
  Manager manager(s.initial, s.queries, s.labels, cfg);
  const RunResult run = run_scenario(s, manager);

  ASSERT_EQ(run.updates.size(), 1u);
  EXPECT_EQ(run.updates[0].version, 6u);
  ASSERT_EQ(run.report.versions.size(), 2u);
  EXPECT_EQ(run.report.versions[0].version, 5u);
  EXPECT_FALSE(run.report.versions[0].from_retrain);
  EXPECT_EQ(run.report.versions[1].version, 6u);
}

TEST(LifecycleManager, RejectsInvalidConstruction) {
  const Scenario s = make_scenario();
  const LifecycleConfig good = fast_config();
  EXPECT_THROW(Manager(nullptr, s.queries, s.labels, good),
               std::invalid_argument);
  {
    LifecycleConfig cfg = good;
    cfg.min_replay = cfg.replay_capacity + 1;
    EXPECT_THROW(Manager(s.initial, s.queries, s.labels, cfg),
                 std::invalid_argument);
  }
  {
    LifecycleConfig cfg = good;
    cfg.holdout = cfg.min_replay;  // nothing left to train on
    EXPECT_THROW(Manager(s.initial, s.queries, s.labels, cfg),
                 std::invalid_argument);
  }
  {
    LifecycleConfig cfg = good;
    cfg.retrain_epochs = 0;
    EXPECT_THROW(Manager(s.initial, s.queries, s.labels, cfg),
                 std::invalid_argument);
  }
  {
    std::vector<int> short_labels(s.labels.begin(), s.labels.end() - 1);
    EXPECT_THROW(Manager(s.initial, s.queries, short_labels, good),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace generic::lifecycle
