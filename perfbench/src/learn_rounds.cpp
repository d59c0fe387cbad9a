// learn_rounds — on-device learning with persistence.
//
// Each op is one learning round on the device's labeled set, the CARDIO
// clone's 1200 training samples (21 features, 10 classes): encode_batch ->
// fit_parallel (one-shot + retraining) -> CheckpointStore save ->
// load_latest -> held-out predict_batch on the reloaded model. It writes
// class memory and disk, next to the other workloads' reads, so
// retraining, accumulator-width and checkpoint-publish changes show here
// and nowhere else. CARDIO rather than ISOLET: the one-shot pass fits an
// ISOLET shard exactly, so retraining would never update the model, while
// on CARDIO every retraining epoch runs and updates it.
//
// One pool lane, pinned to one CPU: retraining fans each sample's scoring
// out over the pool, and with two lanes those per-sample handoffs made
// fit_parallel about twice as slow as one lane, and far noisier.
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "data/benchmarks.h"
#include "harness.h"
#include "lifecycle/checkpoint_store.h"
#include "model/model_io.h"

namespace perfbench {

using namespace generic;

namespace {

constexpr std::size_t kDims = 4096;
constexpr std::size_t kEpochs = 5;  // retraining epochs per round
constexpr std::size_t kTailBlock = 50;  // rounds per tail block: p80

}  // namespace

Result run_learn_rounds(const Options& opt) {
  Result r;
  const data::Dataset ds = data::make_benchmark("CARDIO", opt.seed);
  ThreadPool pool(1);
  enc::EncoderConfig ecfg;
  ecfg.dims = kDims;
  ecfg.seed = opt.seed ^ 0xCA4D10ULL;

  const std::string dir = opt.work_dir + "/learn_rounds.ckpt." +
                          std::to_string(::getpid());
  struct RemoveOnExit {
    const std::string& dir;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } remove_on_exit{dir};
  std::unique_ptr<enc::GenericEncoder> encoder;
  std::unique_ptr<lifecycle::CheckpointStore> store;
  std::vector<hdc::IntHV> heldout;
  const double setup_s = setup_seconds(opt, [&] {
    store.reset();
    std::filesystem::remove_all(dir);
    encoder = std::make_unique<enc::GenericEncoder>(ecfg);
    encoder->fit(ds.train_x);
    store = std::make_unique<lifecycle::CheckpointStore>(dir, 2);
    heldout = encoder->encode_batch(ds.test_x, pool);
  });

  Tracer tracer;
  std::uint64_t round = 0;
  struct Round {
    double wall_us = 0.0;
    std::uint64_t correct = 0;
    bool ok = true;
  };
  // Reference blob of the first round; every later round must train the
  // same model.
  std::vector<std::uint8_t> ref;
  auto op = [&] {
    Round out;
    std::vector<std::uint8_t> trained;
    std::optional<lifecycle::LoadedCheckpoint> loaded;
    std::optional<model::HdcClassifier> clf;
    const auto t0 = Clock::now();
    {
      Span o(tracer, "op", round);
      std::vector<hdc::IntHV> enc;
      {
        Span e(tracer, "encoding", round);
        enc = encoder->encode_batch(ds.train_x, pool);
      }
      clf.emplace(kDims, ds.num_classes);
      {
        Span f(tracer, "model", round);
        clf->fit_parallel(enc, ds.train_y, kEpochs, pool);
      }
      {
        Span sv(tracer, "lifecycle", round);
        store->save(*clf, round + 1, 0);
      }
      {
        Span ld(tracer, "lifecycle", round);
        loaded = store->load_latest();
      }
      if (!loaded) throw std::runtime_error("checkpoint did not reload");
      std::vector<int> preds;
      {
        Span p(tracer, "model", round);
        preds = loaded->model.predict_batch(heldout, pool);
      }
      out.wall_us = us_since(t0);
      for (std::size_t i = 0; i < preds.size(); ++i)
        out.correct += preds[i] == ds.test_y[i] ? 1 : 0;
    }
    trained = model::serialize_classifier(*clf);
    // Gate (untimed): the reloaded checkpoint is byte-identical to the
    // trained model, and every round trains the same model.
    if (ref.empty()) {
      ref = trained;
      if (opt.tamper && round == 0) ref[ref.size() / 2] ^= 1;
    }
    out.ok = loaded->version == round + 1 &&
             model::serialize_classifier(loaded->model) == trained &&
             trained == ref;
    r.gate(out.ok);
    ++round;
    return out;
  };

  // Warm-up round (also records the reference blob).
  op();

  // One timed unit is one round.
  std::uint64_t ops = 0, correct = 0, bad = 0;
  auto unit = [&] {
    const Round rd = op();
    correct += rd.correct;
    bad += rd.ok ? 0 : 1;
    ++ops;
    return rd.wall_us;
  };

  const obs::PoolStats pool0 = pool.stats();
  const Units u = run_units(opt.seconds, tracer, opt.trace, unit);
  const PoolDelta pd = pool_delta(pool0, pool.stats());
  r.attempted = ops;
  r.failed = bad;
  add_probe(r, u, opt.trace);
  if (!opt.trace) {
    BlockStats latency(kTailBlock);
    for (double us : u.plain_us) latency.add(us);
    r.metric("throughput_ops_s", 1e6 / median(u.plain_us), "1/s");
    r.metric("latency_p50_us", latency.p50(), "us");
    r.metric("latency_tail_us", latency.tail(), "us");
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("accuracy",
             static_cast<double>(correct) /
                 static_cast<double>(ops * heldout.size()),
             "ratio");
    r.note("tail", latency.note());
    return r;
  }

  // Each op records model spans as (fit, predict) and lifecycle spans as
  // (save, load).
  std::vector<double> fit_us, save_us, load_us;
  const std::vector<double> model_us = tracer.durations("model");
  const std::vector<double> lifecycle_us = tracer.durations("lifecycle");
  for (std::size_t i = 0; i + 1 < model_us.size(); i += 2)
    fit_us.push_back(model_us[i]);
  for (std::size_t i = 0; i + 1 < lifecycle_us.size(); i += 2) {
    save_us.push_back(lifecycle_us[i]);
    load_us.push_back(lifecycle_us[i + 1]);
  }

  // Retraining work, replayed untimed with the same calls fit_parallel
  // makes, so the update count is observable; the replica must train the
  // reference model.
  const auto enc = encoder->encode_batch(ds.train_x, pool);
  model::HdcClassifier replica(kDims, ds.num_classes);
  replica.train_batch(enc, ds.train_y, pool);
  std::size_t epochs = 0, updates = 0;
  while (epochs < kEpochs) {
    const std::size_t n = replica.retrain_epoch_parallel(enc, ds.train_y, pool);
    ++epochs;
    updates += n;
    if (n == 0) break;
  }
  r.gate(model::serialize_classifier(replica) == ref);
  const auto samples = static_cast<double>(enc.size());
  r.metric("encoding.batch_us_per_sample",
           median(tracer.durations("encoding")) / samples, "us");
  r.metric("model.fit_us_per_sample_epoch",
           median(fit_us) / (samples * static_cast<double>(epochs + 1)), "us");
  r.metric("model.retrain_update_ratio",
           static_cast<double>(updates) /
               (samples * static_cast<double>(epochs)),
           "ratio");
  const double dot_ops =
      static_cast<double>(ds.num_classes) * static_cast<double>(kDims);
  r.metric("model.dot_ops_per_query", dot_ops, "count");
  r.metric("model.bytes_per_query", 4.0 * (dot_ops + kDims), "B");
  r.metric("lifecycle.save_us", median(save_us), "us");
  r.metric("lifecycle.load_us", median(load_us), "us");
  const auto ckpts = store->list();
  r.metric("lifecycle.bytes_per_save",
           ckpts.empty() ? 0.0
                         : static_cast<double>(
                               std::filesystem::file_size(ckpts.back().path)),
           "B");
  r.metric("common.pool_busy_share", pd.busy_share(), "ratio");
  r.metric("common.pool_jobs_per_op", pd.jobs / static_cast<double>(ops),
           "count");
  add_self_times(r, tracer, tracer.self_us(),
                 static_cast<double>(u.traced_us.size()));
  r.metric("trace.overhead_share",
           median(u.traced_us) / median(u.plain_us) - 1.0, "ratio");
  r.note("fit_passes", "\"one-shot bundling plus the retraining epochs run\"");
  tracer.write(opt.work_dir + "/learn_rounds.seed" + std::to_string(opt.seed) +
               ".spans.tsv");
  return r;
}

}  // namespace perfbench
