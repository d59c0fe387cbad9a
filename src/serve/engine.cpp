#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/json.h"
#include "obs/rtrace.h"
#include "resilience/fault_model.h"

namespace generic::serve {

namespace rtrace = obs::rtrace;

namespace {

/// Independent per-request rng stream: id-salted golden-ratio mix of the
/// config seed, expanded by the Rng's own splitmix seeding. Stream identity
/// depends only on (seed, id), never on processing order.
Rng request_rng(std::uint64_t seed, std::uint64_t id) {
  return Rng(seed ^ (0x9E3779B97F4A7C15ULL * (id + 1)));
}

/// "serve.<stem>" for the process-global engine, or
/// "serve.<stem>{model=<id>}" when the config names this instance — the
/// label that keeps several engines in one process from pooling their
/// tallies in the shared registry.
std::string metric_name(const std::string& model_id, const char* stem) {
  std::string name = "serve.";
  name += stem;
  if (!model_id.empty()) {
    name += "{model=";
    name += model_id;
    name += '}';
  }
  return name;
}

void count(obs::Counter* c, std::uint64_t delta = 1) {
  if (c != nullptr) c->add(delta);
}

}  // namespace

ServeEngine::ServeEngine(const model::HdcClassifier& model,
                         std::span<const hdc::IntHV> queries,
                         std::span<const int> labels, const ServeConfig& cfg,
                         ThreadPool& pool, std::vector<bool> chunk_ok,
                         ModelLifecycle* lifecycle, EncoderMemory* encoder)
    : model_(&model),
      queries_(queries),
      labels_(labels),
      cfg_(cfg),
      pool_(pool),
      lifecycle_(lifecycle),
      encoder_(encoder),
      ingress_(cfg.queue_capacity),
      free_servers_(cfg.servers),
      backoff_(cfg.backoff_base_us, cfg.backoff_jitter),
      controller_({1}, cfg),  // placeholder; rebuilt below with the ladder
      burn_(cfg) {
  if (queries_.size() != labels_.size())
    throw std::invalid_argument("ServeEngine: queries/labels size mismatch");
  if (queries_.empty())
    throw std::invalid_argument("ServeEngine: empty query set");
  if (cfg_.servers == 0)
    throw std::invalid_argument("ServeEngine: need at least one server");

  const std::size_t chunk = model_->dims() / model_->num_chunks();
  ladder_ = dims_ladder(model_->dims(), chunk, cfg_.min_dims);
  controller_ = DegradeController(ladder_, cfg_);

  if (!chunk_ok.empty() && chunk_ok.size() != model_->num_chunks())
    throw std::invalid_argument("ServeEngine: chunk_ok size mismatch");
  any_faulty_ =
      std::find(chunk_ok.begin(), chunk_ok.end(), false) != chunk_ok.end();
  rung_mask_.resize(ladder_.size());
  rung_active_.resize(ladder_.size());
  report_.rungs.resize(ladder_.size());
  batch_.resize(ladder_.size());
  rung_latency_ = std::vector<obs::Histogram>(ladder_.size());
  report_.versions.push_back(VersionStats{0, 0, 0});
  for (std::size_t r = 0; r < ladder_.size(); ++r) {
    const std::size_t prefix = ladder_[r] / chunk;
    if (any_faulty_) {
      std::vector<bool> mask(model_->num_chunks(), false);
      std::size_t active = 0;
      for (std::size_t k = 0; k < prefix; ++k) {
        mask[k] = chunk_ok[k];
        if (mask[k]) ++active;
      }
      if (active == 0)
        throw std::invalid_argument(
            "ServeEngine: ladder rung has no healthy chunk");
      rung_mask_[r] = std::move(mask);
      rung_active_[r] = active;
    } else {
      rung_active_[r] = prefix;
    }
    report_.rungs[r].dims = ladder_[r];
    report_.rungs[r].active_chunks = rung_active_[r];
  }

#if GENERIC_OBS_ENABLED
  {
    obs::Registry& reg = obs::Registry::instance();
    metrics_.requests = &reg.counter(metric_name(cfg_.model_id, "requests"));
    metrics_.upsets = &reg.counter(metric_name(cfg_.model_id, "upsets"));
    metrics_.swaps = &reg.counter(metric_name(cfg_.model_id, "swaps"));
    metrics_.rollbacks = &reg.counter(metric_name(cfg_.model_id, "rollbacks"));
    metrics_.slo_alerts =
        &reg.counter(metric_name(cfg_.model_id, "slo_alerts"));
    metrics_.encoder_faults =
        &reg.counter(metric_name(cfg_.model_id, "encoder_faults"));
    metrics_.encoder_scrubs =
        &reg.counter(metric_name(cfg_.model_id, "encoder_scrubs"));
    metrics_.latency_us =
        &reg.histogram(metric_name(cfg_.model_id, "latency_us"));
  }
#endif

  control_ = std::thread([this] {
    obs::set_current_thread_name("serve-control");
    control_loop();
  });
}

ServeEngine::~ServeEngine() {
  if (!finished_) {
    ingress_.close();
    if (control_.joinable()) control_.join();
  }
}

ResponseFuture ServeEngine::submit(const Request& req) {
  ResponseFuture future;
  if (!ingress_.push(Item{req, future, false})) {
    // Closed engine: resolve as shed so no caller ever blocks forever.
    Response r;
    r.outcome = Outcome::kShed;
    r.finish_us = req.arrival_us;
    future.resolve(r);
  }
  return future;
}

std::uint64_t ServeEngine::tick(std::uint64_t vt) {
  ResponseFuture future;
  Request req;
  req.arrival_us = vt;
  if (!ingress_.push(Item{req, future, true})) return kNoEvent;
  // The control thread smuggles the next scheduled event's virtual time in
  // finish_us (kNoEvent when its event heap is empty).
  return future.get().finish_us;
}

ServeReport ServeEngine::finish() {
  if (finished_) throw std::logic_error("ServeEngine::finish called twice");
  ingress_.close();
  control_.join();
  finished_ = true;

  report_.config = cfg_;
  report_.latency = latency_.snapshot();
  for (std::size_t r = 0; r < report_.rungs.size(); ++r)
    report_.rungs[r].latency = rung_latency_[r].snapshot();
  report_.steps_down = controller_.steps_down();
  report_.steps_up = controller_.steps_up();
  report_.final_rung = controller_.rung();
  report_.throughput_rps =
      report_.makespan_us == 0
          ? 0.0
          : static_cast<double>(report_.served) * 1e6 /
                static_cast<double>(report_.makespan_us);
  return report_;
}

// ---- Control thread -------------------------------------------------------

void ServeEngine::control_loop() {
  GENERIC_SPAN("serve.control_loop");
  while (auto item = ingress_.pop()) {
    if (item->tick) {
      on_tick(item->req.arrival_us, item->future);
      continue;
    }
    // Deterministic interleave: everything already scheduled up to and
    // including the arrival instant happens before the arrival itself.
    advance_to(item->req.arrival_us);
    // Lifecycle installs happen at arrival boundaries: a deterministic
    // trace point with a deterministic virtual clock, so the swap position
    // in the served stream is identical for any --threads. Encoder-memory
    // incidents land at the same points for the same reason.
    poll_lifecycle(std::max(clock_us_, item->req.arrival_us));
    poll_encoder(std::max(clock_us_, item->req.arrival_us));
    on_arrival(std::move(*item));
  }
  advance_to(~0ull);  // drain every scheduled completion and retry
  poll_lifecycle(clock_us_);
  poll_encoder(clock_us_);
  for (std::size_t r = 0; r < batch_.size(); ++r) flush_rung(r);
}

void ServeEngine::on_tick(std::uint64_t vt, ResponseFuture& future) {
  // Same deterministic ordering as an arrival at `vt`, minus the arrival:
  // run every event scheduled <= vt, poll the hooks there, then flush every
  // deferred batch so any future finishing <= vt resolves before the
  // coordinator regains control.
  advance_to(vt);
  clock_us_ = std::max(clock_us_, vt);
  poll_lifecycle(clock_us_);
  poll_encoder(clock_us_);
  for (std::size_t r = 0; r < batch_.size(); ++r) flush_rung(r);
  Response r;
  r.outcome = Outcome::kOk;
  // events_ is a min-heap on (vt, seq): front() is the next scheduled event.
  r.finish_us = events_.empty() ? kNoEvent : events_.front().vt;
  future.resolve(r);
}

void ServeEngine::poll_encoder(std::uint64_t now) {
  if (encoder_ == nullptr) return;
  while (auto upd = encoder_->poll(now)) {
    const std::uint64_t vt = std::max(now, upd->vt);
    if (!upd->queries.empty()) {
      if (upd->queries.size() != queries_.size())
        throw std::invalid_argument(
            "ServeEngine: swapped-in encoder table size mismatch");
      // Same invariant as a model swap: flush every deferred batch against
      // the outgoing query table first, then bump the epoch so flush_rung
      // can assert no batch straddled the swap.
      std::size_t deferred = 0;
      for (const auto& b : batch_) deferred += b.size();
      rtrace::record(rtrace::EventKind::kSwapFlush, vt, rtrace::kNoRequest,
                     model_version_,
                     static_cast<std::uint32_t>(controller_.rung()),
                     static_cast<std::int64_t>(deferred));
      for (std::size_t r = 0; r < batch_.size(); ++r) flush_rung(r);
      queries_ = upd->queries;
      ++model_epoch_;
    }
    const auto faulty = static_cast<std::int64_t>(upd->faulty_rows);
    switch (upd->phase) {
      case EncoderUpdate::Phase::kCorrupt:
        count(metrics_.encoder_faults);
        rtrace::record(rtrace::EventKind::kEncoderFault, vt,
                       rtrace::kNoRequest, model_version_,
                       static_cast<std::uint32_t>(controller_.rung()), faulty);
        break;
      case EncoderUpdate::Phase::kDetect:
        rtrace::record(rtrace::EventKind::kEncoderDetect, vt,
                       rtrace::kNoRequest, model_version_,
                       static_cast<std::uint32_t>(controller_.rung()), faulty);
        break;
      case EncoderUpdate::Phase::kMask:
        rtrace::record(rtrace::EventKind::kEncoderDetect, vt,
                       rtrace::kNoRequest, model_version_,
                       static_cast<std::uint32_t>(controller_.rung()), faulty);
        rtrace::record(rtrace::EventKind::kEncoderMask, vt,
                       rtrace::kNoRequest, model_version_,
                       static_cast<std::uint32_t>(controller_.rung()), faulty);
        break;
      case EncoderUpdate::Phase::kScrub:
        count(metrics_.encoder_scrubs);
        rtrace::record(rtrace::EventKind::kEncoderScrub, vt,
                       rtrace::kNoRequest, model_version_,
                       upd->scrub_verified ? 1u : 0u,
                       static_cast<std::int64_t>(upd->scrubbed_rows));
        report_.scrubbed_rows += upd->scrubbed_rows;
        break;
    }
    EncoderFaultEvent ev;
    ev.vt = vt;
    ev.phase = upd->phase;
    ev.faulty_rows = upd->faulty_rows;
    ev.id_seed_faulty = upd->id_seed_faulty;
    ev.scrubbed_rows = upd->scrubbed_rows;
    ev.scrub_verified = upd->scrub_verified;
    if (upd->step_ladder && controller_.force_step_down()) {
      ev.stepped_ladder = true;
      rtrace::record(rtrace::EventKind::kDegradeStep, vt, rtrace::kNoRequest,
                     model_version_,
                     static_cast<std::uint32_t>(controller_.rung()), 1);
    }
    report_.encoder_faults.push_back(ev);
  }
}

void ServeEngine::poll_lifecycle(std::uint64_t now) {
  if (lifecycle_ == nullptr) return;
  while (auto upd = lifecycle_->poll(now)) {
    const std::uint64_t vt = std::max(now, upd->vt);
    if (upd->rollback) {
      count(metrics_.rollbacks);
      rtrace::record(rtrace::EventKind::kRollback, vt, rtrace::kNoRequest,
                     upd->version);
      report_.swaps.push_back(SwapEvent{vt, upd->version, true});
      continue;
    }
    if (upd->model == nullptr)
      throw std::logic_error("ServeEngine: lifecycle update without a model");
    if (upd->model->dims() != model_->dims() ||
        upd->model->num_classes() != model_->num_classes() ||
        upd->model->num_chunks() != model_->num_chunks())
      throw std::invalid_argument(
          "ServeEngine: swapped-in model geometry mismatch");
    {
      GENERIC_SPAN_ARGS("serve.swap",
                        {"version", static_cast<std::int64_t>(upd->version)},
                        {"vt_us", static_cast<std::int64_t>(vt)});
      // Flush every deferred batch against the outgoing model FIRST: a
      // prediction batch must never span two models (flush_rung asserts
      // the matching epoch on every entry).
      std::size_t deferred = 0;
      for (const auto& b : batch_) deferred += b.size();
      rtrace::record(rtrace::EventKind::kSwapFlush, vt, rtrace::kNoRequest,
                     model_version_,
                     static_cast<std::uint32_t>(controller_.rung()),
                     static_cast<std::int64_t>(deferred));
      for (std::size_t r = 0; r < batch_.size(); ++r) flush_rung(r);
      owned_model_ = std::move(upd->model);
      model_ = owned_model_.get();
      ++model_epoch_;
      model_version_ = upd->version;
      rtrace::record(rtrace::EventKind::kSwapInstall, vt, rtrace::kNoRequest,
                     model_version_,
                     static_cast<std::uint32_t>(controller_.rung()));
    }
    count(metrics_.swaps);
    report_.swaps.push_back(SwapEvent{vt, upd->version, false});
    report_.versions.push_back(VersionStats{upd->version, 0, 0});
  }
}

void ServeEngine::advance_to(std::uint64_t vt_limit) {
  while (!events_.empty() && events_.front().vt <= vt_limit) {
    std::pop_heap(events_.begin(), events_.end(), EventAfter{});
    const Event ev = events_.back();
    events_.pop_back();
    clock_us_ = std::max(clock_us_, ev.vt);
    if (ev.kind == Event::kCompletion) {
      on_completion(ev.f, ev.vt);
    } else {
      on_retry_timer(ev.f, ev.vt);
    }
  }
}

void ServeEngine::on_arrival(Item&& item) {
  count(metrics_.requests);
  clock_us_ = std::max(clock_us_, item.req.arrival_us);
  ++report_.requests;
  auto owned = std::make_unique<InFlight>();
  owned->req = item.req;
  owned->future = std::move(item.future);
  owned->rng = request_rng(cfg_.seed, item.req.id);
  InFlight* f = owned.get();
  inflight_.push_back(std::move(owned));

  rtrace::record(rtrace::EventKind::kAdmit, f->req.arrival_us, f->req.id,
                 model_version_,
                 static_cast<std::uint32_t>(controller_.rung()),
                 static_cast<std::int64_t>(pending_.size()));
  if (pending_.size() >= cfg_.high_water) {
    resolve_unserved(f, Outcome::kShed, f->req.arrival_us);
    return;
  }
  if (free_servers_ > 0) {
    start_service(f, f->req.arrival_us);
  } else {
    pending_.push_back(f);
    rtrace::record(rtrace::EventKind::kEnqueue, f->req.arrival_us, f->req.id,
                   model_version_,
                   static_cast<std::uint32_t>(controller_.rung()),
                   static_cast<std::int64_t>(pending_.size()));
  }
}

void ServeEngine::start_service(InFlight* f, std::uint64_t now) {
  --free_servers_;
  ++f->attempts;
  f->rung = controller_.rung();
  if (f->attempts > 1)
    rtrace::record(rtrace::EventKind::kRetryAttempt, now, f->req.id,
                   model_version_, static_cast<std::uint32_t>(f->rung),
                   static_cast<std::int64_t>(f->attempts));
  rtrace::record(rtrace::EventKind::kEncode, now, f->req.id, model_version_,
                 static_cast<std::uint32_t>(f->rung),
                 static_cast<std::int64_t>(ladder_[f->rung]));
  // Draw order per attempt is fixed (upset, then jitter) so the stream is
  // identical however the attempt came to be scheduled.
  f->upset = f->rng.bernoulli(cfg_.fault_rate);
  const double u = f->rng.uniform();
  const double frac = static_cast<double>(rung_active_[f->rung]) /
                      static_cast<double>(model_->num_chunks());
  const double cost = static_cast<double>(cfg_.service_base_us) * frac *
                      (1.0 - cfg_.service_jitter +
                       2.0 * cfg_.service_jitter * u);
  const auto dur =
      static_cast<std::uint64_t>(std::max<long long>(std::llround(cost), 1));
  events_.push_back(Event{now + dur, next_seq_++, Event::kCompletion, f});
  std::push_heap(events_.begin(), events_.end(), EventAfter{});
}

void ServeEngine::on_completion(InFlight* f, std::uint64_t now) {
  ++free_servers_;
  bool corrupted = false;
  if (f->upset) {
    // Honest transient-fault model: flip real bits in a copy of the query
    // at the configured per-bit rate, then detect by parity (mismatch
    // against the original). A draw that flips nothing is a harmless upset.
    hdc::IntHV copy(queries_[f->req.query]);
    resilience::inject(copy,
                       resilience::FaultSpec{resilience::FaultKind::kTransient,
                                             cfg_.fault_bit_rate},
                       f->rng, /*bit_width=*/16);
    corrupted = copy != queries_[f->req.query];
  }
  if (corrupted) {
    count(metrics_.upsets);
    rtrace::record(rtrace::EventKind::kUpset, now, f->req.id, model_version_,
                   static_cast<std::uint32_t>(f->rung),
                   static_cast<std::int64_t>(f->attempts));
    if (f->attempts >= cfg_.max_attempts) {
      resolve_unserved(f, Outcome::kFailed, now);
    } else {
      const std::uint64_t delay = backoff_.delay_us(f->attempts, f->rng);
      events_.push_back(Event{now + delay, next_seq_++, Event::kRetry, f});
      std::push_heap(events_.begin(), events_.end(), EventAfter{});
    }
  } else if (now > f->req.deadline_us) {
    resolve_unserved(f, Outcome::kTimeout, now);
    feed_controller(now, now - f->req.arrival_us);
  } else {
    defer_served(f, now);
    feed_controller(now, now - f->req.arrival_us);
  }
  pull_pending(now);
}

void ServeEngine::on_retry_timer(InFlight* f, std::uint64_t now) {
  if (now > f->req.deadline_us) {
    resolve_unserved(f, Outcome::kTimeout, now);
    return;
  }
  if (free_servers_ > 0) {
    start_service(f, now);
  } else {
    pending_.push_front(f);  // a retry has already waited once
  }
}

void ServeEngine::pull_pending(std::uint64_t now) {
  while (free_servers_ > 0 && !pending_.empty()) {
    InFlight* g = pending_.front();
    pending_.pop_front();
    rtrace::record(rtrace::EventKind::kDequeue, now, g->req.id,
                   model_version_,
                   static_cast<std::uint32_t>(controller_.rung()),
                   static_cast<std::int64_t>(pending_.size()));
    if (now > g->req.deadline_us) {
      // Fail fast at dequeue: no point burning a server on a request whose
      // budget is already gone.
      resolve_unserved(g, Outcome::kTimeout, now);
      continue;
    }
    start_service(g, now);
  }
}

void ServeEngine::feed_controller(std::uint64_t now, std::uint64_t latency_us) {
  const std::size_t before = controller_.rung();
  controller_.on_completion(latency_us, pending_.size());
  const std::size_t after = controller_.rung();
  if (after != before)
    rtrace::record(rtrace::EventKind::kDegradeStep, now, rtrace::kNoRequest,
                   model_version_, static_cast<std::uint32_t>(after),
                   static_cast<std::int64_t>(after) -
                       static_cast<std::int64_t>(before));
}

void ServeEngine::feed_burn(std::uint64_t vt, bool good) {
  if (auto edge = burn_.observe(vt, good)) {
    count(metrics_.slo_alerts);
    rtrace::record(rtrace::EventKind::kSloAlert, vt, rtrace::kNoRequest,
                   model_version_, edge->fired ? 1u : 0u,
                   std::llround(edge->fast_burn * 1000.0));
    report_.slo_alerts.push_back(*edge);
  }
}

void ServeEngine::resolve_unserved(InFlight* f, Outcome o, std::uint64_t now) {
  const rtrace::EventKind kind = o == Outcome::kShed
                                     ? rtrace::EventKind::kShed
                                 : o == Outcome::kTimeout
                                     ? rtrace::EventKind::kTimeout
                                     : rtrace::EventKind::kFailed;
  rtrace::record(kind, now, f->req.id, model_version_,
                 static_cast<std::uint32_t>(controller_.rung()),
                 static_cast<std::int64_t>(f->attempts));
  feed_burn(now, false);
  f->outcome = o;
  f->finish_us = now;
  ++report_.outcomes[static_cast<std::size_t>(o)];
  report_.attempts += f->attempts;
  if (f->attempts > 1) report_.retries += f->attempts - 1;
  report_.makespan_us = std::max(report_.makespan_us, now);
  Response r;
  r.outcome = o;
  r.attempts = f->attempts;
  r.finish_us = now;
  r.latency_us = now - f->req.arrival_us;
  f->future.resolve(r);
}

void ServeEngine::defer_served(InFlight* f, std::uint64_t now) {
  f->finish_us = now;
  f->epoch = model_epoch_;
  const bool reduced =
      ladder_[f->rung] < model_->dims() || !rung_mask_[f->rung].empty();
  f->outcome = reduced ? Outcome::kDegraded
               : f->attempts > 1 ? Outcome::kRetried
                                 : Outcome::kOk;
  const std::uint64_t lat = now - f->req.arrival_us;
  feed_burn(now, lat <= cfg_.slo_us);
  latency_.record(lat);
  rung_latency_[f->rung].record(lat);
  if (metrics_.latency_us != nullptr) metrics_.latency_us->record(lat);
  batch_[f->rung].push_back(f);
  if (batch_[f->rung].size() >= cfg_.compute_batch) flush_rung(f->rung);
}

void ServeEngine::flush_rung(std::size_t rung) {
  auto& b = batch_[rung];
  if (b.empty()) return;
  GENERIC_SPAN_ARGS("serve.flush",
                    {"rung", static_cast<std::int64_t>(rung)},
                    {"batch", static_cast<std::int64_t>(b.size())},
                    {"version", static_cast<std::int64_t>(model_version_)});
  std::vector<hdc::IntHV> qs;
  qs.reserve(b.size());
  for (const InFlight* f : b) {
    // Swap invariant: every deferred request in this batch was admitted to
    // it under the model that is about to score it. poll_lifecycle flushes
    // all batches before installing, so a violation here is an engine bug,
    // not an input condition.
    if (f->epoch != model_epoch_)
      throw std::logic_error("ServeEngine: prediction batch spans a swap");
    qs.push_back(queries_[f->req.query]);
  }
  const std::vector<model::Prediction> preds =
      rung_mask_[rung].empty()
          ? model_->predict_reduced_margin_batch(
                qs, ladder_[rung], model::NormMode::kUpdated, pool_)
          : model_->predict_masked_margin_batch(qs, rung_mask_[rung], pool_);
  VersionStats& vstats = report_.versions.back();
  for (std::size_t i = 0; i < b.size(); ++i) {
    InFlight* f = b[i];
    ++report_.outcomes[static_cast<std::size_t>(f->outcome)];
    ++report_.served;
    report_.attempts += f->attempts;
    if (f->attempts > 1) report_.retries += f->attempts - 1;
    report_.makespan_us = std::max(report_.makespan_us, f->finish_us);
    const bool ok = preds[i].cls == labels_[f->req.query];
    if (ok) {
      ++report_.correct;
      ++report_.rungs[rung].correct;
      ++vstats.correct;
    }
    ++report_.rungs[rung].served;
    ++vstats.served;
    rtrace::record(rtrace::EventKind::kPredict, f->finish_us, f->req.id,
                   model_version_, static_cast<std::uint32_t>(rung),
                   static_cast<std::int64_t>(preds[i].cls));
    if (lifecycle_ != nullptr) {
      ServedObservation obs;
      obs.vt = f->finish_us;
      obs.query = f->req.query;
      obs.rung = rung;
      obs.margin = preds[i].margin;
      obs.canary = f->req.canary;
      obs.correct = ok;
      obs.label = labels_[f->req.query];
      lifecycle_->observe(obs);
    }
    Response r;
    r.outcome = f->outcome;
    r.predicted = preds[i].cls;
    r.dims_used = ladder_[rung];
    r.attempts = f->attempts;
    r.finish_us = f->finish_us;
    r.latency_us = f->finish_us - f->req.arrival_us;
    r.rung = static_cast<std::uint32_t>(rung);
    r.version = model_version_;
    r.margin = preds[i].margin;
    f->future.resolve(r);
  }
  b.clear();
}

// ---- generic.serve.v1 -----------------------------------------------------

namespace json = obs::json;

namespace {

double ratio(std::uint64_t correct, std::uint64_t served) {
  return served == 0 ? 0.0
                     : static_cast<double>(correct) /
                           static_cast<double>(served);
}

void append_percentiles(json::Object& o, const obs::HistogramSnapshot& h) {
  o.u64("p50", h.percentile(0.50))
      .u64("p95", h.percentile(0.95))
      .u64("p99", h.percentile(0.99));
}

}  // namespace

void append_outcomes_json(std::string& out,
                          const std::array<std::uint64_t, kNumOutcomes>& n) {
  json::Object o(out);
  for (std::size_t i = 0; i < kNumOutcomes; ++i)
    o.u64(outcome_name(static_cast<Outcome>(i)), n[i]);
  o.close();
}

void append_alert_json(std::string& out, const BurnAlert& a) {
  json::Object(out)
      .u64("vt_us", a.vt)
      .str("kind", a.fired ? "fire" : "clear")
      .dbl("fast_burn", a.fast_burn)
      .dbl("slow_burn", a.slow_burn)
      .close();
}

void append_encoder_fault_json(std::string& out, const EncoderFaultEvent& e) {
  json::Object(out)
      .u64("vt_us", e.vt)
      .str("phase", encoder_phase_name(e.phase))
      .u64("faulty_rows", e.faulty_rows)
      .boolean("id_seed_faulty", e.id_seed_faulty)
      .u64("scrubbed_rows", e.scrubbed_rows)
      .boolean("scrub_verified", e.scrub_verified)
      .boolean("stepped_ladder", e.stepped_ladder)
      .close();
}

std::string serve_report_to_json(const ServeReport& rep) {
  const ServeConfig& c = rep.config;
  std::string out;
  out.reserve(4096);
  json::Object doc(out, 2);
  doc.str("schema", "generic.serve.v1");
  json::Object(doc.key("config"), 4)
      .u64("servers", c.servers)
      .u64("queue_capacity", c.queue_capacity)
      .u64("high_water", c.high_water)
      .u64("low_water", c.low_water)
      .u64("deadline_us", c.deadline_us)
      .u64("slo_us", c.slo_us)
      .u64("max_attempts", c.max_attempts)
      .u64("backoff_base_us", c.backoff_base_us)
      .dbl("backoff_jitter", c.backoff_jitter)
      .u64("min_dims", c.min_dims)
      .u64("service_base_us", c.service_base_us)
      .dbl("service_jitter", c.service_jitter)
      .dbl("fault_rate", c.fault_rate)
      .dbl("fault_bit_rate", c.fault_bit_rate)
      .u64("seed", c.seed)
      .u64("compute_batch", c.compute_batch)
      .dbl("ewma_alpha", c.ewma_alpha)
      .u64("cooldown", c.cooldown)
      .dbl("step_up_frac", c.step_up_frac)
      .dbl("slo_target", c.slo_target)
      .u64("burn_fast_window_us", c.burn_fast_window_us)
      .u64("burn_slow_window_us", c.burn_slow_window_us)
      .dbl("burn_fast_threshold", c.burn_fast_threshold)
      .dbl("burn_slow_threshold", c.burn_slow_threshold)
      .u64("burn_min_events", c.burn_min_events)
      .close();
  doc.u64("requests", rep.requests)
      .u64("makespan_us", rep.makespan_us)
      .dbl("throughput_rps", rep.throughput_rps);
  append_outcomes_json(doc.key("outcomes"), rep.outcomes);
  doc.u64("served", rep.served)
      .u64("attempts", rep.attempts)
      .u64("retries", rep.retries);

  const obs::HistogramSnapshot& h = rep.latency;
  json::Object latency(doc.key("latency_us"));
  latency.u64("count", h.count).u64("sum", h.sum);
  append_percentiles(latency, h);
  json::Object buckets(latency.key("buckets"));
  for (std::size_t i = 0; i < h.buckets.size(); ++i)
    if (h.buckets[i] != 0) buckets.u64(std::to_string(i), h.buckets[i]);
  buckets.close();
  latency.close();

  json::Object(doc.key("accuracy"))
      .u64("served", rep.served)
      .u64("correct", rep.correct)
      .dbl("value", ratio(rep.correct, rep.served))
      .close();

  json::Object degradation(doc.key("degradation"), 4);
  degradation.u64("steps_down", rep.steps_down)
      .u64("steps_up", rep.steps_up)
      .u64("final_rung", rep.final_rung);
  json::list(degradation.key("rungs"), rep.rungs, 6, [&](const RungStats& s) {
    json::Object o(out);
    o.u64("dims", s.dims)
        .u64("active_chunks", s.active_chunks)
        .u64("served", s.served)
        .u64("correct", s.correct)
        .dbl("accuracy", ratio(s.correct, s.served));
    json::Object rung_latency(o.key("latency_us"));
    rung_latency.u64("count", s.latency.count);
    append_percentiles(rung_latency, s.latency);
    rung_latency.close();
    o.close();
  });
  degradation.close();

  json::list(doc.key("slo_alerts"), rep.slo_alerts, 4,
             [&](const BurnAlert& a) { append_alert_json(out, a); });

  json::Object lifecycle(doc.key("lifecycle"), 4);
  json::list(lifecycle.key("swaps"), rep.swaps, 6, [&](const SwapEvent& e) {
    json::Object(out)
        .u64("vt_us", e.vt)
        .u64("version", e.version)
        .str("kind", e.rollback ? "rollback" : "swap")
        .close();
  });
  json::list(lifecycle.key("versions"), rep.versions, 6,
             [&](const VersionStats& v) {
               json::Object(out)
                   .u64("version", v.version)
                   .u64("served", v.served)
                   .u64("correct", v.correct)
                   .dbl("accuracy", ratio(v.correct, v.served))
                   .close();
             });
  lifecycle.close();

  json::list(doc.key("encoder_faults"), rep.encoder_faults, 4,
             [&](const EncoderFaultEvent& e) {
               append_encoder_fault_json(out, e);
             });
  doc.u64("scrubbed_rows", rep.scrubbed_rows);
  doc.close();
  out += '\n';
  return out;
}

}  // namespace generic::serve
