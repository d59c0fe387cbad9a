#include "fleet/engine.h"

#include <algorithm>
#include <cmath>
#include <ranges>
#include <stdexcept>

#include "data/drift.h"
#include "encoding/encoders.h"
#include "model/pipeline.h"
#include "obs/json.h"
#include "obs/rtrace.h"

namespace generic::fleet {

namespace rtrace = obs::rtrace;

std::string_view priority_name(PriorityClass p) {
  switch (p) {
    case PriorityClass::kCritical: return "critical";
    case PriorityClass::kStandard: return "standard";
    case PriorityClass::kBatch: return "batch";
  }
  return "unknown";
}

std::string_view fleet_status_name(FleetStatus s) {
  switch (s) {
    case FleetStatus::kOk: return "ok";
    case FleetStatus::kRetried: return "retried";
    case FleetStatus::kDegraded: return "degraded";
    case FleetStatus::kShed: return "shed";
    case FleetStatus::kTimeout: return "timeout";
    case FleetStatus::kFailed: return "failed";
    case FleetStatus::kQuotaRejected: return "quota_rejected";
    case FleetStatus::kPriorityShed: return "priority_shed";
  }
  return "unknown";
}

FleetConfig default_fleet_config(bool quick) {
  FleetConfig cfg;
  cfg.seed = 0xF1EE7;

  // Three models with distinct shapes: a small fast one, a mid one, and a
  // wider, slower one — enough contrast that routing and per-model ladders
  // tell different stories in the report.
  const struct {
    const char* id;
    std::size_t dims, classes, features;
    std::uint64_t service_base_us;
    std::size_t servers;
    std::uint64_t world_seed;
  } kModels[] = {
      {"face", 1024, 4, 48, 700, 2, 0xFACE01},
      {"digits", 2048, 10, 64, 900, 2, 0xD16175},
      {"pages", 1536, 5, 56, 800, 1, 0x9A6E5},
  };
  for (const auto& m : kModels) {
    ModelSpec spec;
    spec.id = m.id;
    spec.dims = quick ? m.dims / 2 : m.dims;
    spec.classes = m.classes;
    spec.features = m.features;
    spec.train_samples = quick ? 400 : 900;
    spec.queries = quick ? 160 : 320;
    spec.epochs = quick ? 3 : 6;
    spec.world_seed = m.world_seed;
    spec.serve.model_id = m.id;
    spec.serve.servers = m.servers;
    spec.serve.service_base_us = m.service_base_us;
    spec.serve.seed = cfg.seed ^ m.world_seed;
    spec.serve.min_dims = spec.dims >= 1024 ? 512 : 256;
    cfg.models.push_back(std::move(spec));
  }

  // Three tenants spanning the priority ladder. gold is critical and
  // modest; silver is the bulk; bronze is batch traffic that sheds first.
  TenantSpec gold;
  gold.name = "gold";
  gold.priority = PriorityClass::kCritical;
  gold.quota_rps = 1500;
  gold.quota_burst = 8;
  gold.clients = 2;
  gold.think_mean_us = 2500;
  gold.requests_per_client = quick ? 40 : 120;

  TenantSpec silver;
  silver.name = "silver";
  silver.priority = PriorityClass::kStandard;
  silver.quota_rps = 2500;
  silver.quota_burst = 12;
  silver.clients = 4;
  silver.think_mean_us = 1800;
  silver.requests_per_client = quick ? 40 : 120;

  TenantSpec bronze;
  bronze.name = "bronze";
  bronze.priority = PriorityClass::kBatch;
  bronze.quota_rps = 1200;
  bronze.quota_burst = 6;
  bronze.clients = 3;
  bronze.think_mean_us = 1200;
  bronze.requests_per_client = quick ? 40 : 120;

  cfg.tenants = {gold, silver, bronze};
  return cfg;
}

ModelWorld build_world(const ModelSpec& spec, ThreadPool& pool) {
  data::DriftStreamSpec dspec;
  dspec.classes = spec.classes;
  dspec.features = spec.features;
  dspec.seed = spec.world_seed;
  data::DriftStream stream(dspec);
  const auto ds = stream.make_dataset(spec.train_samples, spec.queries, false);

  enc::EncoderConfig ecfg;
  ecfg.dims = spec.dims;
  ecfg.seed = spec.world_seed ^ 0xE2C0DE;
  enc::GenericEncoder encoder(ecfg);
  encoder.fit(ds.train_x);

  ModelWorld world;
  const auto train = model::encode_all(encoder, ds.train_x, pool);
  world.classifier =
      std::make_shared<model::HdcClassifier>(spec.dims, spec.classes);
  world.classifier->fit_parallel(train, ds.train_y, spec.epochs, pool);
  world.queries = model::encode_all(encoder, ds.test_x, pool);
  world.labels = ds.test_y;
  return world;
}

FleetEngine::FleetEngine(const FleetConfig& cfg, std::vector<ModelWorld> worlds,
                         ThreadPool& pool)
    : cfg_(cfg), worlds_(std::move(worlds)), burn_(serve::ServeConfig{}) {
  if (cfg_.models.empty()) throw std::invalid_argument("FleetEngine: no models");
  if (cfg_.tenants.empty())
    throw std::invalid_argument("FleetEngine: no tenants");
  if (worlds_.size() != cfg_.models.size())
    throw std::invalid_argument("FleetEngine: worlds/models size mismatch");

  engines_.reserve(cfg_.models.size());
  for (std::size_t m = 0; m < cfg_.models.size(); ++m) {
    const ModelWorld& w = worlds_[m];
    serve::ServeConfig scfg = cfg_.models[m].serve;
    if (scfg.model_id.empty()) scfg.model_id = cfg_.models[m].id;
    engines_.push_back(std::make_unique<serve::ServeEngine>(
        *w.classifier, w.queries, w.labels, scfg, pool));
    Model st;
    // Backlog cost estimate: mean full-dims service time spread over the
    // model's virtual lanes. An ESTIMATOR for shedding, not the engine's
    // actual (jittered, rung-dependent) cost — but a deterministic one.
    st.cost_us = std::max<std::uint64_t>(
        1, scfg.service_base_us / std::max<std::size_t>(1, scfg.servers));
    models_.push_back(st);
  }
  next_event_.assign(engines_.size(), serve::ServeEngine::kNoEvent);

  tenants_.reserve(cfg_.tenants.size());
  for (const TenantSpec& t : cfg_.tenants) {
    Tenant st;
    st.quota_rps = t.quota_rps;
    st.cap_micro = t.quota_burst * 1000000ull;
    st.tokens_micro = st.cap_micro;  // full bucket at t = 0
    st.priority = t.priority;
    tenants_.push_back(st);
  }
  tenant_tally_ = std::vector<Tally>(cfg_.tenants.size());
  model_tally_ = std::vector<Tally>(cfg_.models.size());
}

std::optional<serve::ResponseFuture> FleetEngine::route(const Send& s,
                                                        FleetResponse& rej) {
  if (s.tenant >= tenants_.size())
    throw std::invalid_argument("FleetEngine: tenant out of range");
  if (s.model >= engines_.size())
    throw std::invalid_argument("FleetEngine: model out of range");
  Tenant& t = tenants_[s.tenant];
  Model& m = models_[s.model];
  const std::uint32_t prio = static_cast<std::uint32_t>(t.priority);
  ++report_.requests;
  ++tenant_tally_[s.tenant].requests;
  ++model_tally_[s.model].requests;

  // Gate 1: tenant token bucket (integer micro-tokens).
  const std::uint64_t delta_us = s.send_us - t.last_refill_us;
  t.last_refill_us = s.send_us;
  t.tokens_micro = std::min(t.cap_micro, t.tokens_micro + delta_us * t.quota_rps);
  if (t.tokens_micro < 1000000ull) {
    rej = FleetResponse{};
    rej.id = s.id;
    rej.status = FleetStatus::kQuotaRejected;
    rej.finish_us = s.send_us;
    rtrace::record(rtrace::EventKind::kFleetQuota, s.send_us, s.id, 0, prio,
                   static_cast<std::int64_t>(s.tenant));
    tally(tenant_tally_[s.tenant], rej.status, false, false, 0);
    tally(model_tally_[s.model], rej.status, false, false, 0);
    ++report_.statuses[static_cast<std::size_t>(rej.status)];
    if (auto a = burn_.observe(s.send_us, false)) report_.slo_alerts.push_back(*a);
    return std::nullopt;
  }

  // Gate 2: weighted shedding on the projected model backlog.
  const std::uint64_t backlog_start = std::max(m.busy_until_us, s.send_us);
  const std::uint64_t projected_delay = backlog_start - s.send_us;
  if (projected_delay > cfg_.shed_budget_us[prio]) {
    rej = FleetResponse{};
    rej.id = s.id;
    rej.status = FleetStatus::kPriorityShed;
    rej.finish_us = s.send_us;
    rtrace::record(rtrace::EventKind::kFleetShed, s.send_us, s.id, 0, prio,
                   static_cast<std::int64_t>(s.model));
    tally(tenant_tally_[s.tenant], rej.status, false, false, 0);
    tally(model_tally_[s.model], rej.status, false, false, 0);
    ++report_.statuses[static_cast<std::size_t>(rej.status)];
    if (auto a = burn_.observe(s.send_us, false)) report_.slo_alerts.push_back(*a);
    return std::nullopt;
  }

  // Gate 3: admit into the model engine.
  t.tokens_micro -= 1000000ull;
  m.busy_until_us = backlog_start + m.cost_us;
  rtrace::record(rtrace::EventKind::kFleetRoute, s.send_us, s.id, 0, prio,
                 static_cast<std::int64_t>(s.model));
  serve::Request req;
  req.id = next_engine_id_++;
  req.arrival_us = s.send_us;
  req.deadline_us = s.send_us + s.deadline_rel_us;
  req.query = s.query;
  return engines_[s.model]->submit(req);
}

FleetResponse FleetEngine::complete(const Send& s, const serve::Response& r) {
  FleetResponse resp;
  resp.id = s.id;
  resp.status = static_cast<FleetStatus>(r.outcome);
  resp.predicted = r.predicted;
  resp.margin_micro = static_cast<std::int64_t>(std::llround(r.margin * 1e6));
  resp.dims_used = static_cast<std::uint32_t>(r.dims_used);
  resp.attempts = r.attempts;
  resp.finish_us = r.finish_us;
  resp.latency_us = r.latency_us;
  resp.version = r.version;
  resp.rung = r.rung;

  const bool served = r.outcome == serve::Outcome::kOk ||
                      r.outcome == serve::Outcome::kRetried ||
                      r.outcome == serve::Outcome::kDegraded;
  const bool correct =
      served && r.predicted == worlds_[s.model].labels[s.query];
  tally(tenant_tally_[s.tenant], resp.status, served, correct, r.latency_us);
  tally(model_tally_[s.model], resp.status, served, correct, r.latency_us);
  ++report_.statuses[static_cast<std::size_t>(resp.status)];
  report_.makespan_us = std::max(report_.makespan_us, r.finish_us);

  // Fleet-level burn: good == served within the model's latency SLO.
  const bool good =
      served && r.latency_us <= cfg_.models[s.model].serve.slo_us;
  if (auto a = burn_.observe(r.finish_us, good))
    report_.slo_alerts.push_back(*a);
  return resp;
}

void FleetEngine::tick_model(std::size_t m, std::uint64_t vt) {
  next_event_[m] = engines_[m]->tick(vt);
}

std::vector<std::uint32_t> FleetEngine::model_queries() const {
  std::vector<std::uint32_t> out;
  out.reserve(worlds_.size());
  for (const ModelWorld& w : worlds_)
    out.push_back(static_cast<std::uint32_t>(w.queries.size()));
  return out;
}

void FleetEngine::tally(Tally& t, FleetStatus s, bool served, bool correct,
                        std::uint64_t latency_us) {
  ++t.statuses[static_cast<std::size_t>(s)];
  if (served) {
    ++t.served;
    t.latency.record(latency_us);
    if (correct) ++t.correct;
  }
}

PartyStats FleetEngine::snapshot(const Tally& t) {
  PartyStats s;
  s.requests = t.requests;
  s.statuses = t.statuses;
  s.served = t.served;
  s.correct = t.correct;
  s.latency = t.latency.snapshot();
  return s;
}

FleetReport FleetEngine::finish() {
  if (finished_) throw std::logic_error("FleetEngine::finish called twice");
  finished_ = true;
  report_.config = cfg_;
  for (auto& e : engines_) report_.model_reports.push_back(e->finish());
  for (const Tally& t : tenant_tally_) report_.tenants.push_back(snapshot(t));
  for (const Tally& t : model_tally_) report_.models.push_back(snapshot(t));
  return report_;
}

// ---- generic.fleet.v1 -----------------------------------------------------

namespace json = obs::json;

void append_statuses_json(
    std::string& out,
    const std::array<std::uint64_t, kNumFleetStatuses>& n) {
  json::Object o(out);
  for (std::size_t i = 0; i < kNumFleetStatuses; ++i)
    o.u64(fleet_status_name(static_cast<FleetStatus>(i)), n[i]);
  o.close();
}

void append_party_json(std::string& out, const PartyStats& s) {
  json::Object o(out);
  o.u64("requests", s.requests);
  append_statuses_json(o.key("statuses"), s.statuses);
  o.wrap(5)
      .u64("served", s.served)
      .u64("correct", s.correct)
      .dbl("accuracy", s.served == 0 ? 0.0
                                     : static_cast<double>(s.correct) /
                                           static_cast<double>(s.served));
  json::Object(o.key("latency_us"))
      .u64("count", s.latency.count)
      .u64("p50", s.latency.percentile(0.50))
      .u64("p95", s.latency.percentile(0.95))
      .u64("p99", s.latency.percentile(0.99))
      .close();
  o.close();
}

std::string fleet_report_to_json(const FleetReport& rep) {
  std::string out;
  out.reserve(1 << 14);
  json::Object doc(out, 2);
  doc.str("schema", "generic.fleet.v1");

  json::Object config(doc.key("config"), 4);
  config.u64("seed", rep.config.seed);
  json::Object budgets(config.key("shed_budget_us"));
  for (std::size_t p = 0; p < kNumPriorities; ++p)
    budgets.u64(priority_name(static_cast<PriorityClass>(p)),
                rep.config.shed_budget_us[p]);
  budgets.close();
  json::list(config.key("models"), rep.config.models, 6,
             [&](const ModelSpec& s) {
               json::Object(out)
                   .str("id", s.id)
                   .u64("dims", s.dims)
                   .u64("classes", s.classes)
                   .u64("queries", s.queries)
                   .u64("servers", s.serve.servers)
                   .u64("service_base_us", s.serve.service_base_us)
                   .u64("deadline_us", s.serve.deadline_us)
                   .u64("slo_us", s.serve.slo_us)
                   .close();
             });
  json::list(config.key("tenants"), rep.config.tenants, 6,
             [&](const TenantSpec& s) {
               json::Object o(out);
               o.str("name", s.name)
                   .str("priority", priority_name(s.priority))
                   .u64("quota_rps", s.quota_rps)
                   .u64("quota_burst", s.quota_burst)
                   .u64("clients", s.clients)
                   .u64("think_mean_us", s.think_mean_us)
                   .u64("requests_per_client", s.requests_per_client);
               o.key("model_pin") += std::to_string(s.model_pin);
               o.close();
             });
  config.close();

  doc.u64("requests", rep.requests).u64("makespan_us", rep.makespan_us);
  append_statuses_json(doc.key("statuses"), rep.statuses);
  json::list(doc.key("tenants"),
             std::views::iota(std::size_t{0}, rep.tenants.size()), 4,
             [&](std::size_t t) {
               json::Object o(out);
               o.str("name", rep.config.tenants[t].name);
               append_party_json(o.key("stats"), rep.tenants[t]);
               o.close();
             });
  json::list(doc.key("models"),
             std::views::iota(std::size_t{0}, rep.models.size()), 4,
             [&](std::size_t m) {
               json::Object o(out);
               o.str("id", rep.config.models[m].id);
               append_party_json(o.key("stats"), rep.models[m]);
               if (m < rep.model_reports.size()) {
                 const serve::ServeReport& sr = rep.model_reports[m];
                 json::Object(o.wrap(5).key("engine"))
                     .u64("requests", sr.requests)
                     .u64("served", sr.served)
                     .u64("correct", sr.correct)
                     .u64("attempts", sr.attempts)
                     .u64("retries", sr.retries)
                     .u64("steps_down", sr.steps_down)
                     .u64("steps_up", sr.steps_up)
                     .u64("final_rung", sr.final_rung)
                     .u64("makespan_us", sr.makespan_us)
                     .close();
               }
               o.close();
             });
  json::list(doc.key("slo_alerts"), rep.slo_alerts, 4,
             [&](const serve::BurnAlert& a) {
               serve::append_alert_json(out, a);
             });
  doc.close();
  out += '\n';
  return out;
}

}  // namespace generic::fleet
