// Accuracy / energy / latency trade-off sweep — the §4.1 claim that
// GENERIC's flexible dimensionality "trades off the accuracy and
// energy/performance on-demand", shown as the full Pareto curve per
// application rather than Figure 5's two accuracy-only probes.
//
// For each application, inference runs at every 512-multiple of the
// hypervector dimensionality with Updated sub-norms; the ASIC energy and
// latency come from the behavioural model.
//
// With --out, the same trained model is additionally pushed through the
// serving engine under an overloaded seeded trace so the SLO ladder walks
// the rungs, and the JSON pairs each rung's ASIC accuracy/energy with the
// engine's served-latency percentiles (p50/p95/p99, virtual us) — the full
// latency-vs-accuracy trade-off from one file. The JSON is byte-identical
// for a fixed (flags, seed) at any --threads value.
//
// Flags: --quick, --datasets=NAME1,NAME2, --out=FILE,
//        --serve-rate=RPS, --serve-requests=N, --threads=N
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "arch/generic_asic.h"
#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "data/benchmarks.h"
#include "model/hdc_classifier.h"
#include "serve/engine.h"

using namespace generic;

namespace {

std::string fmt(double v) {
  std::string out;
  obs::json::append_double(out, v);
  return out;
}

struct SweepRow {
  std::size_t dims = 0;
  double accuracy_pct = 0.0;
  double energy_j = 0.0;
  double latency_s = 0.0;
};

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  const std::string csv = flags.value("--datasets", "");
  const std::string out_path = flags.value("--out", "");
  const std::size_t serve_rate = flags.size("--serve-rate", 2400);
  const std::size_t serve_requests =
      flags.size("--serve-requests", quick ? 1200 : 4000);
  const std::size_t threads = flags.threads();
  flags.done();
  const std::size_t full_dims = 4096;
  const std::size_t epochs = quick ? 5 : 15;
  std::vector<std::string> datasets{"ISOLET", "EMG", "PAGE"};
  if (!csv.empty()) {
    datasets.clear();
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) datasets.push_back(item);
  }

  set_global_threads(threads);
  ThreadPool& pool = global_pool();

  std::string json = "{\n  \"schema\": \"generic.tradeoff.v1\",\n";
  json += "  \"serve_rate_rps\": " + std::to_string(serve_rate) +
          ",\n  \"serve_requests\": " + std::to_string(serve_requests) +
          ",\n  \"datasets\": [";
  bool first_dataset = true;

  for (const auto& name : datasets) {
    const auto ds = data::make_benchmark(name);
    arch::AppSpec spec;
    spec.dims = full_dims;
    spec.features = ds.num_features();
    spec.classes = ds.num_classes;
    const auto g = data::generic_config_for(name);
    spec.window = g.window;
    spec.use_ids = g.use_ids;
    arch::GenericAsic asic(spec);
    asic.train(ds.train_x, ds.train_y, epochs);
    const auto trained = asic.snapshot_model();

    auto measure = [&](std::size_t dims, double& acc, double& e, double& t) {
      asic.restore_model(trained);
      asic.set_active_dims(dims);
      asic.reset_counts();
      std::size_t hits = 0;
      for (std::size_t i = 0; i < ds.test_x.size(); ++i)
        hits += asic.infer(ds.test_x[i]) == ds.test_y[i];
      const auto n = static_cast<double>(ds.test_size());
      acc = 100.0 * static_cast<double>(hits) / n;
      e = asic.energy_j() / n;
      t = asic.elapsed_seconds() / n;
    };

    double full_acc, full_e, full_t;
    measure(full_dims, full_acc, full_e, full_t);

    std::printf("\n%s: dimensionality trade-off (on-demand, §4.3.3)\n",
                name.c_str());
    std::printf("%-8s %10s %14s %14s %12s %10s\n", "dims", "accuracy",
                "energy/inf", "latency", "energy gain", "acc cost");
    bench::print_rule(74);
    std::vector<SweepRow> rows;
    for (std::size_t dims = 512; dims <= full_dims; dims += 512) {
      double acc, e, t;
      if (dims == full_dims) {
        acc = full_acc;
        e = full_e;
        t = full_t;
      } else {
        measure(dims, acc, e, t);
      }
      std::printf("%-8zu %9.1f%% %11.4f uJ %11.1f us %10.1fx %+9.1f\n", dims,
                  acc, e * 1e6, t * 1e6, full_e / e, acc - full_acc);
      rows.push_back(SweepRow{dims, acc, e, t});
    }

    if (out_path.empty()) continue;

    // Serve the SAME trained model under overload so the degradation ladder
    // exercises its rungs; per-rung served-latency percentiles land next to
    // the ASIC sweep in the JSON.
    const auto queries = asic.encoder().encode_batch(ds.test_x, pool);
    serve::ServeConfig cfg;
    // Per-dataset seed via FNV-1a over the name: stable across platforms
    // (std::hash would not be).
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char ch : name) h = (h ^ static_cast<unsigned char>(ch)) *
                                   0x100000001b3ULL;
    cfg.seed = 0x5EB7EULL ^ h;
    serve::ServeEngine engine(trained, queries, ds.test_y, cfg, pool);
    std::vector<serve::ResponseFuture> futures;
    futures.reserve(serve_requests);
    for (const serve::Request& req :
         serve::poisson_trace(cfg.seed, serve_requests, serve_rate,
                              cfg.deadline_us, queries.size()))
      futures.push_back(engine.submit(req));
    const serve::ServeReport report = engine.finish();

    json += first_dataset ? "\n" : ",\n";
    first_dataset = false;
    json += "    {\"name\": \"" + name + "\", \"sweep\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& r = rows[i];
      json += (i == 0 ? "\n" : ",\n");
      json += "      {\"dims\": " + std::to_string(r.dims) +
              ", \"accuracy_pct\": " + fmt(r.accuracy_pct) +
              ", \"energy_j\": " + fmt(r.energy_j) +
              ", \"asic_latency_s\": " + fmt(r.latency_s) +
              ", \"energy_gain\": " + fmt(full_e / r.energy_j) + "}";
    }
    json += "\n    ], \"serve_rungs\": [";
    for (std::size_t i = 0; i < report.rungs.size(); ++i) {
      const serve::RungStats& r = report.rungs[i];
      json += (i == 0 ? "\n" : ",\n");
      json += "      {\"dims\": " + std::to_string(r.dims) +
              ", \"served\": " + std::to_string(r.served) +
              ", \"accuracy\": " +
              fmt(r.served == 0 ? 0.0
                                : static_cast<double>(r.correct) /
                                      static_cast<double>(r.served)) +
              ", \"latency_us\": {\"count\": " +
              std::to_string(r.latency.count) +
              ", \"p50\": " + std::to_string(r.latency.percentile(0.50)) +
              ", \"p95\": " + std::to_string(r.latency.percentile(0.95)) +
              ", \"p99\": " + std::to_string(r.latency.percentile(0.99)) +
              "}}";
    }
    json += "\n    ]}";

    std::printf("serving under overload (%zu rps): per-rung latency p50/p95/"
                "p99 (virtual us)\n", serve_rate);
    for (const auto& r : report.rungs)
      if (r.served > 0)
        std::printf("  rung D=%-5zu served %-6llu %llu / %llu / %llu\n",
                    r.dims, static_cast<unsigned long long>(r.served),
                    static_cast<unsigned long long>(r.latency.percentile(0.5)),
                    static_cast<unsigned long long>(r.latency.percentile(0.95)),
                    static_cast<unsigned long long>(
                        r.latency.percentile(0.99)));
  }

  json += "\n  ]\n}\n";
  bench::write_output(out_path, "trade-off JSON", json);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_tool(run, argc, argv); }
