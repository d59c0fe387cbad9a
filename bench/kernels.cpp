// Microbenchmark for the runtime-dispatched kernel backends (hdc/kernels.h)
// and the stored-vs-rematerialized item/level memory trade
// (hdc/item_memory.h).
//
// For every backend available on this host it measures:
//   * dot_tile         — 32-query blocks (the serving engine's flush size)
//                        × 26 int32 classes over a prefix of `--dims`
//                        halved down to 512: every HdcClassifier
//                        prediction's tile, one serving rung per row. Each
//                        call packs the rung prefix of 32 rows of a
//                        780-row int32 query table into an hdc::QueryBatch
//                        and tiles its view, as the classifier's IntHV
//                        entries do; each call packs the next 32 rows, so
//                        the pack reads memory, not cache. The classes' int16
//                        copy and AMX operand are stored once before
//                        timing, as HdcClassifier keeps them, so no call
//                        packs classes. A last column is the full rung's
//                        time over the next rung's (4096/2048 by default)
//   * dot_tile table   — the same tile over 32 gathered rows of that table
//                        packed once at `--dims`: the serving engine's
//                        flush, which packs nothing
//   * dot_tile 1q      — one query packed the same way × the same 26
//                        classes at `--dims`: the tile of predict() and
//                        edge inference
//   * bundle_windows   — one GENERIC sample per call (64 levels, n = 3,
//                        ids bound: windows of four rotated rows at
//                        `--dims`), ISOLET-shaped (128 features, 126
//                        windows) and CARDIO-shaped (21 features, 19
//                        windows)
// and reports throughput plus speedup vs the forced-scalar reference.
//
// The learning section times learn_rounds' shape on the active backend:
// CARDIO at `--dims` (1200 training queries, 10 classes): the narrow batch
// fit_parallel packs for a set that keeps updating, train_batch over the
// IntHVs, five retraining epochs on the batch and held-out predict_batch,
// at 1, 2 and 4 pool lanes. Every lane
// count must train the 1-lane model and predict what it predicts.
// Every measured dot product and bundle is cross-checked against scalar
// before timing: a backend that is fast but wrong fails loudly here, not in
// production.
//
// The remat section times GenericEncoder encode throughput with stored vs
// rematerialized level memory and reports both footprints — the
// Schmuck/Benini/Rahimi memory/recompute trade, quantified.
//
// All numbers land in generic.metrics.v1 gauges when --metrics is given:
//   kernels.<backend>.dot_tile_ns_per_query.<dims>
//   kernels.<backend>.dot_tile_speedup_milli.<dims>   (1000 = scalar parity)
//   kernels.<backend>.dot_tile_table_ns_per_query.<dims>
//   kernels.<backend>.dot_tile_table_speedup_milli.<dims>
//   kernels.<backend>.dot_tile_1q_ns_per_query.<dims>
//   kernels.<backend>.dot_tile_1q_speedup_milli.<dims>
//   kernels.<backend>.encode_ns_per_sample          (ISOLET shape)
//   kernels.<backend>.encode_speedup_milli          (1000 = scalar parity)
//   kernels.<backend>.encode_short_ns_per_sample    (CARDIO shape)
//   kernels.<backend>.encode_short_speedup_milli
//   learn.cardio.query_width_bytes               (bytes per packed value)
//   learn.cardio.lanes_<n>.pack_us / .train_batch_us / .retrain_5_epochs_us
//   learn.cardio.lanes_<n>.predict_batch_us      (median over the reps)
//   remat.encode_stored_ns_per_sample / remat.encode_remat_ns_per_sample
//   remat.recompute_overhead_milli
//   remat.footprint.stored_payload_bytes / remat.footprint.remat_payload_bytes
#include <algorithm>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/benchmarks.h"
#include "encoding/encoders.h"
#include "hdc/hypervector.h"
#include "hdc/item_memory.h"
#include "hdc/kernels.h"
#include "hdc/query_batch.h"
#include "model/hdc_classifier.h"
#include "obs/export.h"
#include "obs/obs.h"

using namespace generic;
namespace k = hdc::kernels;

namespace {

/// Time `body` (which processes `units_per_rep` units per call: calls,
/// samples) until ~target_s elapsed; returns millions of units per second.
template <typename F>
double measure_mrate(F&& body, double units_per_rep, double target_s) {
  // Calibrate: run once, scale the rep count to the time budget.
  obs::Stopwatch warm;
  body();
  const double once = warm.seconds();
  std::size_t reps = once > 0 ? static_cast<std::size_t>(target_s / once) : 1;
  if (reps < 3) reps = 3;
  obs::Stopwatch timer;
  for (std::size_t r = 0; r < reps; ++r) body();
  const double secs = timer.seconds();
  return units_per_rep * static_cast<double>(reps) / secs / 1e6;
}

void set_gauge(const std::string& name, double v) {
  obs::Registry::instance().gauge(name).set(
      v < 0 ? 0 : static_cast<std::uint64_t>(v + 0.5));
}

/// Serving-shaped int32 operands for the dot tile: queries and classes at
/// the magnitudes a trained ISOLET-sized model holds (|q| <= 60, |c| <=
/// 3000), so the queries pack to int8 and backends take the narrow path
/// the serving engine takes. The classes' int16 copy, AMX operand and
/// bound are stored up front, like HdcClassifier's. `rows` is a serving
/// engine's int32 query table (780 rows, the size of ISOLET's test set),
/// `table` the same rows packed once at full dims, and `gathered` the 32
/// rows of it one flush scores.
struct TileWorkload {
  static constexpr std::size_t kClasses = 26;
  static constexpr std::size_t kQueries = 32;
  static constexpr std::size_t kTableRows = 780;
  std::vector<hdc::IntHV> rows;
  hdc::QueryBatch table;
  std::vector<std::size_t> gathered;
  std::vector<hdc::IntHV> classes;
  std::vector<std::vector<std::int16_t>> classes16;
  std::vector<const std::int32_t*> class_rows;
  std::vector<const std::int16_t*> class16_rows;
  k::AmxOperand amx;
  std::int64_t max_abs = 0;
  k::ClassRows class_side() const {
    return {class_rows.data(), kClasses, class16_rows.data(), max_abs,
            amx.data()};
  }
};

TileWorkload make_tile_workload(std::size_t dims) {
  Rng rng(0xD07711E);
  TileWorkload w;
  auto fill = [&](std::vector<hdc::IntHV>& rows, std::size_t n,
                  std::int64_t bound) {
    rows.assign(n, hdc::IntHV(dims));
    for (auto& row : rows)
      for (auto& v : row)
        v = static_cast<std::int32_t>(rng.range(-bound, bound));
  };
  fill(w.classes, TileWorkload::kClasses, 3000);
  for (const auto& c : w.classes) {
    w.class_rows.push_back(c.data());
    w.classes16.emplace_back(c.begin(), c.end());
    for (std::int32_t v : c)
      w.max_abs = std::max<std::int64_t>(w.max_abs, v < 0 ? -v : v);
  }
  for (const auto& c : w.classes16) w.class16_rows.push_back(c.data());
  w.amx = k::AmxOperand(TileWorkload::kClasses, dims);
  for (std::size_t c = 0; c < TileWorkload::kClasses; ++c)
    w.amx.set_row(c, w.classes[c]);
  fill(w.rows, TileWorkload::kTableRows, 60);
  w.table = hdc::QueryBatch(w.rows, dims);
  for (std::size_t i = 0; i < TileWorkload::kQueries; ++i)
    w.gathered.push_back(
        static_cast<std::size_t>(rng.below(TileWorkload::kTableRows)));
  return w;
}

/// Median of `v` (odd sizes; the upper middle otherwise).
double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The learning section (see the header): `reps` timed fits per lane
/// count. False when a lane count trains or predicts differently.
bool bench_learning(std::size_t dims, std::size_t reps) {
  const data::Dataset ds = data::make_benchmark("CARDIO");
  enc::EncoderConfig cfg;
  cfg.dims = dims;
  enc::GenericEncoder encoder(cfg);
  encoder.fit(ds.train_x);
  const auto train = encoder.encode_batch(ds.train_x, global_pool());
  const auto test = encoder.encode_batch(ds.test_x, global_pool());
  constexpr std::size_t kEpochs = 5;

  std::printf("\nlearning: CARDIO, %zu train x %zu test queries, dims=%zu, "
              "us per call (median of %zu)\n",
              train.size(), test.size(), dims, reps);
  std::printf("%-6s %10s %12s %14s %14s\n", "lanes", "pack", "train_batch",
              "5 epochs", "predict_batch");
  bench::print_rule(60);
  std::vector<hdc::IntHV> want_rows;
  std::vector<int> want_preds;
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    ThreadPool pool(lanes);
    std::vector<double> pack_us, train_us, epochs_us, predict_us;
    model::HdcClassifier m(dims, ds.num_classes);
    std::vector<int> preds;
    for (std::size_t r = 0; r < reps; ++r) {
      obs::Stopwatch t;
      const hdc::QueryBatch batch(train, dims);
      pack_us.push_back(t.seconds() * 1e6);
      if (r == 0)
        set_gauge("learn.cardio.query_width_bytes",
                  static_cast<double>(batch.width()));
      m = model::HdcClassifier(dims, ds.num_classes);
      t.restart();
      m.train_batch(train, ds.train_y, pool);
      train_us.push_back(t.seconds() * 1e6);
      t.restart();
      for (std::size_t e = 0; e < kEpochs; ++e)
        m.retrain_epoch_parallel(batch, ds.train_y, pool);
      epochs_us.push_back(t.seconds() * 1e6);
      t.restart();
      preds = m.predict_batch(test, pool);
      predict_us.push_back(t.seconds() * 1e6);
    }
    std::vector<hdc::IntHV> rows;
    for (std::size_t c = 0; c < m.num_classes(); ++c)
      rows.push_back(m.class_vector(c));
    if (want_rows.empty()) {
      want_rows = rows;
      want_preds = preds;
    } else if (rows != want_rows || preds != want_preds) {
      std::fprintf(stderr, "learning at %zu lanes diverged from 1 lane\n",
                   lanes);
      return false;
    }
    const std::string tag = "learn.cardio.lanes_" + std::to_string(lanes);
    const double pack = median_of(pack_us), fit = median_of(train_us),
                 epochs = median_of(epochs_us), predict = median_of(predict_us);
    std::printf("%-6zu %10.0f %12.0f %14.0f %14.0f\n", lanes, pack, fit,
                epochs, predict);
    set_gauge(tag + ".pack_us", pack);
    set_gauge(tag + ".train_batch_us", fit);
    set_gauge(tag + ".retrain_5_epochs_us", epochs);
    set_gauge(tag + ".predict_batch_us", predict);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  const std::size_t dims = flags.size("--dims", 4096);
  obs::Session session(flags.value("--trace", ""),
                       flags.value("--metrics", ""));
  bench::apply_kernel_backend(flags);
  flags.done();
  const k::Backend session_backend = k::active_backend();

  const double target_s = quick ? 0.05 : 0.4;
  std::printf("kernels: dims=%zu active=%s\n", dims,
              std::string(k::to_string(session_backend)).c_str());

  // ---- query x class dot tile, one serving rung per row --------------------
  // Two paths per backend: a flush that packs its 32 queries' rung prefix
  // first (predict_masked_margin_batch), and one that gathers 32 rows of a
  // table packed once (the serving engine's flush). The packing path
  // starts at table row `next_row` and moves it on by 32 rows per call, so
  // a timed pack streams the 12.8 MB int32 table (at 4096 dims) as a
  // flush's pack does; every cross-check starts from row 0.
  const TileWorkload tw = make_tile_workload(dims);
  std::vector<std::size_t> rungs;
  for (std::size_t d = dims; d >= 512; d /= 2) rungs.push_back(d);
  const std::size_t tile_out = TileWorkload::kQueries * TileWorkload::kClasses;
  std::size_t next_row = 0;
  auto run_tile = [&](const k::Kernels& table, std::size_t rung,
                      std::int64_t* out, std::size_t nq = TileWorkload::kQueries) {
    const hdc::QueryBatch batch(std::span(tw.rows).subspan(next_row, nq), rung);
    next_row += TileWorkload::kQueries;
    if (next_row + TileWorkload::kQueries > TileWorkload::kTableRows)
      next_row = 0;
    const k::DimRun run{0, rung};
    table.dot_tile(batch.view(), nq, tw.class_side(), &run, 1, out);
  };
  auto run_table_rows = [&](const k::Kernels& table, std::size_t rung,
                            std::int64_t* out) {
    const void* rows[TileWorkload::kQueries];
    for (std::size_t i = 0; i < TileWorkload::kQueries; ++i)
      rows[i] = tw.table.row(tw.gathered[i]);
    const k::DimRun run{0, rung};
    table.dot_tile({rows, tw.table.width(), tw.table.max_abs()},
                   TileWorkload::kQueries, tw.class_side(), &run, 1, out);
  };
  struct TilePath {
    const char* label;
    const char* gauge;
    std::function<void(const k::Kernels&, std::size_t, std::int64_t*)> run;
    std::vector<std::vector<std::int64_t>> want;
    std::vector<double> scalar_ns;
  };
  TilePath paths[] = {
      {"pack + tile", "dot_tile",
       [&](const k::Kernels& t, std::size_t rung, std::int64_t* out) {
         run_tile(t, rung, out);
       },
       {}, {}},
      {"table rows, no pack", "dot_tile_table", run_table_rows, {}, {}},
  };
  for (TilePath& path : paths) {
    path.want.assign(rungs.size(), std::vector<std::int64_t>(tile_out));
    path.scalar_ns.assign(rungs.size(), 0.0);
    for (std::size_t r = 0; r < rungs.size(); ++r) {
      next_row = 0;
      path.run(k::get(k::Backend::kScalar), rungs[r], path.want[r].data());
    }
  }

  std::printf("\ndot_tile: %zu queries x %zu classes, ns per query (table: "
              "%zu rows packed once)\n",
              TileWorkload::kQueries, TileWorkload::kClasses,
              TileWorkload::kTableRows);
  std::printf("%-8s %-20s", "backend", "path");
  for (std::size_t rung : rungs) std::printf(" %10zu", rung);
  // ROADMAP item 7's roofline check: the full-dims rung over the next.
  const bool ratio = rungs.size() >= 2;
  if (ratio) std::printf(" %10s", "d/(d/2)");
  std::printf("\n");
  bench::print_rule(30 + 11 * (rungs.size() + (ratio ? 1 : 0)));
  for (k::Backend backend : k::compiled_backends()) {
    if (!k::available(backend)) continue;
    const k::Kernels& table = k::get(backend);
    const std::string name(k::to_string(backend));
    std::vector<std::int64_t> got(tile_out);
    for (TilePath& path : paths) {
      std::printf("%-8s %-20s", name.c_str(), path.label);
      std::vector<double> row_ns(rungs.size());
      for (std::size_t r = 0; r < rungs.size(); ++r) {
        next_row = 0;
        path.run(table, rungs[r], got.data());
        if (got != path.want[r]) {
          std::fprintf(stderr, "%s: %s diverged from scalar at %zu dims\n",
                       name.c_str(), path.gauge, rungs[r]);
          return 1;
        }
        const double mcalls = measure_mrate(
            [&] { path.run(table, rungs[r], got.data()); }, 1.0, target_s);
        const double ns = 1e3 / mcalls / TileWorkload::kQueries;
        if (backend == k::Backend::kScalar) path.scalar_ns[r] = ns;
        const double speedup = ns > 0 ? path.scalar_ns[r] / ns : 0;
        std::printf(" %10.0f", ns);
        row_ns[r] = ns;
        const std::string prefix = "kernels." + name + "." + path.gauge;
        const std::string dims_tag = "." + std::to_string(rungs[r]);
        set_gauge(prefix + "_ns_per_query" + dims_tag, ns);
        set_gauge(prefix + "_speedup_milli" + dims_tag, speedup * 1000.0);
      }
      if (ratio) std::printf(" %10.2f", row_ns[1] > 0 ? row_ns[0] / row_ns[1] : 0);
      std::printf("\n");
    }
  }

  // ---- one query x every class at full dims: predict()'s tile -------------
  // Always table row 0: one row stays in cache, as predict()'s query does.
  auto run_1q = [&](const k::Kernels& table, std::int64_t* out) {
    next_row = 0;
    run_tile(table, dims, out, 1);
  };
  std::vector<std::int64_t> want_1q(TileWorkload::kClasses);
  run_1q(k::get(k::Backend::kScalar), want_1q.data());
  std::printf("\ndot_tile: 1 query x %zu classes at %zu dims, pack + tile, "
              "ns per query\n",
              TileWorkload::kClasses, dims);
  bench::print_rule(30);
  double scalar_1q_ns = 0.0;
  for (k::Backend backend : k::compiled_backends()) {
    if (!k::available(backend)) continue;
    const k::Kernels& table = k::get(backend);
    const std::string name(k::to_string(backend));
    std::vector<std::int64_t> got(TileWorkload::kClasses);
    run_1q(table, got.data());
    if (got != want_1q) {
      std::fprintf(stderr, "%s: one-query dot_tile diverged from scalar\n",
                   name.c_str());
      return 1;
    }
    const double ns =
        1e3 / measure_mrate([&] { run_1q(table, got.data()); }, 1.0, target_s);
    if (backend == k::Backend::kScalar) scalar_1q_ns = ns;
    const double speedup = ns > 0 ? scalar_1q_ns / ns : 0;
    std::printf("%-8s %10.0f %9.2fx\n", name.c_str(), ns, speedup);
    const std::string dims_tag = std::string(".") + std::to_string(dims);
    set_gauge("kernels." + name + ".dot_tile_1q_ns_per_query" + dims_tag, ns);
    set_gauge("kernels." + name + ".dot_tile_1q_speedup_milli" + dims_tag,
              speedup * 1000.0);
  }

  // ---- window bundle: one GENERIC sample per call, two shapes -------------
  // The terms GenericEncoder hands the kernel: window i is the level rows
  // of features i..i+n-1 rotated by 0..n-1 and the seed id rotated by i.
  // ISOLET (128 features: 126 windows) is edge_infer's sample; CARDIO (21
  // features: 19 windows) is learn_rounds', where a group of 16 windows
  // leaves a short one.
  constexpr std::size_t kLevels = 64, kWindow = 3;
  const hdc::LevelMemory levels(dims, kLevels, 0x11EE1);
  const hdc::SeededItemMemory ids(dims, 0x6E2E21C);
  auto bench_bundle = [&](const char* shape, std::size_t features,
                          const std::string& gauge) {
    Rng bins_rng(0xB1D5);
    std::vector<std::size_t> bins(features);
    for (auto& b : bins) b = bins_rng.below(kLevels);
    std::vector<k::RotatedRow> terms;
    for (std::size_t i = 0; i + kWindow <= features; ++i) {
      for (std::size_t j = 0; j < kWindow; ++j)
        terms.push_back({levels.level(bins[i + j]).words().data(), j});
      terms.push_back({ids.seed_id().words().data(), i});
    }
    const std::size_t per_window = kWindow + 1;
    const std::size_t windows = terms.size() / per_window;
    auto run_bundle = [&](const k::Kernels& table, hdc::IntHV& acc) {
      std::fill(acc.begin(), acc.end(), 0);
      table.bundle_windows(terms.data(), per_window, windows, dims,
                           acc.data());
    };
    hdc::IntHV want_bundle(dims);
    run_bundle(k::get(k::Backend::kScalar), want_bundle);

    std::printf("\nbundle_windows (%s): %zu windows x %zu rows, dims=%zu\n",
                shape, windows, per_window, dims);
    std::printf("%-8s %16s %10s\n", "backend", "ns/sample", "speedup");
    bench::print_rule(36);
    double scalar_ns = 0.0;
    for (k::Backend backend : k::compiled_backends()) {
      if (!k::available(backend)) continue;
      const k::Kernels& table = k::get(backend);
      const std::string name(k::to_string(backend));
      hdc::IntHV got(dims);
      run_bundle(table, got);
      if (got != want_bundle) {
        std::fprintf(stderr, "%s: bundle_windows (%s) diverged from scalar\n",
                     name.c_str(), shape);
        return false;
      }
      const double ns =
          1e3 / measure_mrate([&] { run_bundle(table, got); }, 1.0, target_s);
      if (backend == k::Backend::kScalar) scalar_ns = ns;
      const double speedup = ns > 0 ? scalar_ns / ns : 0;
      std::printf("%-8s %16.0f %9.2fx\n", name.c_str(), ns, speedup);
      set_gauge("kernels." + name + "." + gauge + "_ns_per_sample", ns);
      set_gauge("kernels." + name + "." + gauge + "_speedup_milli",
                speedup * 1000.0);
    }
    return true;
  };
  if (!bench_bundle("ISOLET", 128, "encode") ||
      !bench_bundle("CARDIO", 21, "encode_short"))
    return 1;

  // ---- learning on CARDIO: the packed fit, at 1, 2 and 4 lanes ------------
  k::set_backend(session_backend);
  if (!bench_learning(dims, quick ? 3 : 9)) return 1;

  // ---- stored vs rematerialized memories ---------------------------------
  Rng rng(0x5A17);
  const std::size_t features = 32;
  const std::size_t samples = quick ? 16 : 64;
  std::vector<std::vector<float>> xs(samples, std::vector<float>(features));
  for (auto& x : xs)
    for (auto& v : x) v = static_cast<float>(rng.uniform()) * 2.0f - 1.0f;

  enc::EncoderConfig cfg;
  cfg.dims = dims;
  enc::GenericEncoder stored(cfg);
  cfg.remat = true;
  enc::GenericEncoder remat(cfg);
  stored.fit(xs);
  remat.fit(xs);

  std::size_t enc_sink = 0;
  auto encode_all_with = [&](const enc::Encoder& e) {
    for (const auto& x : xs) enc_sink += static_cast<std::size_t>(e.encode(x)[0]);
  };
  const double stored_mw = measure_mrate([&] { encode_all_with(stored); },
                                          static_cast<double>(samples),
                                          target_s);
  const double remat_mw = measure_mrate([&] { encode_all_with(remat); },
                                         static_cast<double>(samples),
                                         target_s);
  // measure_mrate returned Msamples/s; invert into ns/sample.
  const double stored_ns = 1e3 / stored_mw;
  const double remat_ns = 1e3 / remat_mw;
  const double overhead = stored_ns > 0 ? remat_ns / stored_ns : 0;

  std::printf("\nremat: generic encoder, dims=%zu levels=%zu%s\n", dims,
              cfg.levels, enc_sink == std::size_t(-1) ? "!" : "");
  std::printf("  stored: %10.0f ns/sample  footprint %8zu B\n", stored_ns,
              stored.memory_footprint_bytes());
  std::printf("  remat : %10.0f ns/sample  footprint %8zu B  (%.2fx encode "
              "cost)\n",
              remat_ns, remat.memory_footprint_bytes(), overhead);
  set_gauge("remat.encode_stored_ns_per_sample", stored_ns);
  set_gauge("remat.encode_remat_ns_per_sample", remat_ns);
  set_gauge("remat.recompute_overhead_milli", overhead * 1000.0);
  set_gauge("remat.footprint.stored_payload_bytes",
            static_cast<double>(stored.memory_footprint_bytes()));
  set_gauge("remat.footprint.remat_payload_bytes",
            static_cast<double>(remat.memory_footprint_bytes()));

  k::set_backend(session_backend);
  return 0;
}
