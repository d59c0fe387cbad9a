// generic_fleet — multi-model, multi-tenant serving fleet (docs/fleet.md).
//
//   generic_fleet [--quick] [--seed=S] [--threads=N] [--out=fleet.json]
//                 [--listen] [--port=P] [--port-file=PATH]
//                 [--max-connections=64] [--io-timeout-ms=30000]
//                 [--rtrace=out.json] [--rtrace-chrome=out.json]
//                 [--flight-dump=out.json]
//
// Builds the reference three-model fleet (seeded synthetic worlds, one
// ServeEngine per model over one shared thread pool) and drives it through
// the closed-loop multi-tenant trace on ONE of two ingress paths:
//
//   default      — simulated ingress: the seeded ClientModels run
//                  in-process and the whole run is a discrete-event
//                  simulation on virtual time. This is the goldens/CI path:
//                  the generic.fleet.v1 report is byte-identical for a
//                  fixed (--quick, --seed) at any --threads value and
//                  kernel backend.
//   --listen     — real-socket ingress: serve the framed TCP protocol on
//                  127.0.0.1 (--port, 0 = ephemeral; the bound port is
//                  written to --port-file for the client to find) and wait
//                  for one generic_fleet_client process to connect the
//                  whole client population. Clients carry their own virtual
//                  send times, so the socket run replays the simulated
//                  schedule and writes the IDENTICAL report — CI cmp's the
//                  two files.
//
// Exit code: 0 on a clean run, 1 when the socket path saw any protocol
// error, timeout, or early disconnect (the report of a failed socket run
// is not comparable).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "fleet/engine.h"
#include "fleet/simulator.h"
#include "fleet/socket_driver.h"
#include "net/server.h"
#include "obs/export.h"

using namespace generic;

namespace {

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("--quick");
  const bool listen = flags.has("--listen");
  const std::uint64_t seed = flags.size("--seed", 0xF1EE7);
  const std::size_t threads = flags.threads();
  const std::string out_path = flags.value("--out", "");
  const std::uint16_t port =
      static_cast<std::uint16_t>(flags.size("--port", 0));
  const std::string port_file = flags.value("--port-file", "");
  const std::size_t max_conns = flags.positive_size("--max-connections", 64);
  const int io_timeout_ms =
      static_cast<int>(flags.positive_size("--io-timeout-ms", 30000));
  const bench::RtraceOutputs rtrace(flags);
  obs::Session obs_session(flags.value("--trace", ""),
                           flags.value("--metrics", ""));
  bench::apply_kernel_backend(flags);
  flags.done();

  fleet::FleetConfig cfg = fleet::default_fleet_config(quick);
  cfg.seed = seed;

  set_global_threads(threads);
  ThreadPool& pool = global_pool();

  std::printf("building %zu model worlds (%s)...\n", cfg.models.size(),
              quick ? "quick" : "full");
  std::vector<fleet::ModelWorld> worlds;
  worlds.reserve(cfg.models.size());
  for (const fleet::ModelSpec& m : cfg.models)
    worlds.push_back(fleet::build_world(m, pool));

  fleet::FleetEngine engine(cfg, std::move(worlds), pool);

  bool ok = true;
  std::size_t delivered = 0;
  if (!listen) {
    auto owned = fleet::make_sim_ports(cfg, engine);
    std::vector<fleet::ClientPort*> ports;
    ports.reserve(owned.size());
    for (auto& p : owned) ports.push_back(p.get());
    delivered = fleet::run_closed_loop(engine, ports);
  } else {
    net::ServerConfig scfg;
    scfg.port = port;
    scfg.max_connections = max_conns;
    scfg.num_tenants = cfg.tenants.size();
    scfg.model_queries = engine.model_queries();
    net::Server server(scfg);
    if (!server.listening()) {
      std::fprintf(stderr, "error: cannot listen on 127.0.0.1:%u\n",
                   static_cast<unsigned>(port));
      return 1;
    }
    std::printf("listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(server.port()));
    if (!port_file.empty())
      obs::write_file(port_file, std::to_string(server.port()) + "\n");
    fleet::SocketFleetDriver driver(server, cfg, io_timeout_ms);
    if (!driver.wait_ready(io_timeout_ms)) {
      std::fprintf(stderr,
                   "error: client population not ready within %d ms\n",
                   io_timeout_ms);
      return 1;
    }
    delivered = fleet::run_closed_loop(engine, driver.ports());
    server.drain(io_timeout_ms);
    ok = driver.ok();
    const net::ServerStats& st = server.stats();
    std::printf("socket ingress: %llu accepted, %llu frames, %llu requests, "
                "%llu protocol errors\n",
                static_cast<unsigned long long>(st.accepted),
                static_cast<unsigned long long>(st.frames),
                static_cast<unsigned long long>(st.requests),
                static_cast<unsigned long long>(st.protocol_errors));
    if (st.protocol_errors > 0) ok = false;
  }

  const fleet::FleetReport report = engine.finish();
  std::printf("%s ingress: %zu responses delivered, %llu requests, "
              "makespan %llu us\n",
              listen ? "socket" : "simulated", delivered,
              static_cast<unsigned long long>(report.requests),
              static_cast<unsigned long long>(report.makespan_us));
  for (std::size_t t = 0; t < report.tenants.size(); ++t) {
    const fleet::PartyStats& s = report.tenants[t];
    std::printf(
        "  tenant %-8s %6llu requests  %6llu served  %5llu quota  "
        "%5llu shed  p99 %llu us\n",
        report.config.tenants[t].name.c_str(),
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.served),
        static_cast<unsigned long long>(s.statuses[static_cast<std::size_t>(
            fleet::FleetStatus::kQuotaRejected)]),
        static_cast<unsigned long long>(s.statuses[static_cast<std::size_t>(
            fleet::FleetStatus::kPriorityShed)]),
        static_cast<unsigned long long>(s.latency.percentile(0.99)));
  }
  for (std::size_t m = 0; m < report.models.size(); ++m) {
    const fleet::PartyStats& s = report.models[m];
    std::printf("  model  %-8s %6llu requests  %6llu served  accuracy %.4f\n",
                report.config.models[m].id.c_str(),
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.served),
                s.served == 0 ? 0.0
                              : static_cast<double>(s.correct) /
                                    static_cast<double>(s.served));
  }

  bench::write_output(out_path, "fleet report",
                      fleet::fleet_report_to_json(report));
  rtrace.write();
  if (!ok) {
    std::fprintf(stderr, "error: socket run failed (see above)\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return bench::run_tool(run, argc, argv); }
