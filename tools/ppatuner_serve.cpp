// ppatuner_serve: the multi-tenant tuning server.
//
// Hosts N concurrent tuning sessions over a Unix-domain socket; each client
// connection opens one session (see src/server/wire.hpp for the protocol
// and examples/server_client.cpp for a client). The server owns the
// oracles, the shared license pool, and per-session crash-safe journals;
// SIGINT/SIGTERM drains every live session gracefully.
//
//   ppatuner_serve --socket /tmp/ppat.sock --max-sessions 8 --licenses 4
//       --journal-root /tmp/ppat-journals
//
// With --workers N each session's evaluations are sharded across N worker
// PROCESSES (ppatuner_worker) instead of in-process threads: the session
// gets a dist::DistributedEvalService listening on "<socket>.w<session-id>"
// with the session id as its epoch, and N workers hosting the session's
// oracle are spawned against it (--worker-bin overrides the binary path,
// default: ppatuner_worker next to this executable).
//
// Oracles a client can name in OpenSession:
//   synthetic    analytic QoR surface, any dimensionality (demos, smoke
//                tests; runs in microseconds)
//   pdsim        the bundled physical-design flow on a small MAC design,
//                over the paper's Target2 parameter space
//   hls_small    analytical systolic-array GEMM accelerator (64x64x128),
//                over the mixed/conditional AutoSA-style space
//   hls_large    the 256x256x512 sibling (the transfer scenario's target)
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "dist/coordinator.hpp"
#include "dist/oracles.hpp"
#include "flow/benchmark.hpp"
#include "flow/pd_tool.hpp"
#include "hls/systolic.hpp"
#include "netlist/mac_generator.hpp"
#include "server/socket_server.hpp"

using namespace ppat;

namespace {

/// Cheap deterministic stand-in oracle with a genuine area/power/delay
/// trade-off, defined on the unit cube of any dimensionality.
class SyntheticOracle final : public flow::QorOracle {
 public:
  explicit SyntheticOracle(std::uint64_t seed)
      : shift_(0.05 * static_cast<double>(seed % 7)) {}

  flow::QoR evaluate(const flow::ParameterSpace& space,
                     const flow::Config& config) override {
    ++runs_;
    const linalg::Vector u = space.encode(config);
    const double u0 = u.empty() ? 0.0 : u[0];
    const double u1 = u.size() > 1 ? u[1] : 0.0;
    const double u2 = u.size() > 2 ? u[2] : 0.0;
    flow::QoR q;
    q.area_um2 = 100.0 * (1.5 - u0 + 0.2 * std::sin(3.0 * u1) + shift_ * u2);
    q.power_mw = 10.0 * (1.0 + 0.8 * u0 - 0.6 * u1 + 0.1 * u2 +
                         shift_ * 0.3 * std::cos(2.0 * u0));
    q.delay_ns = 1.0 + u1 + 0.15 * std::sin(4.0 * u0) + shift_ * 0.1 * u2;
    return q;
  }
  std::size_t run_count() const override { return runs_; }

 private:
  double shift_;
  std::atomic<std::size_t> runs_{0};
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--max-sessions N] [--licenses N]\n"
               "          [--journal-root DIR] [--no-signals]\n"
               "          [--workers N] [--worker-bin PATH]\n",
               argv0);
  return 2;
}

/// Default worker binary: ppatuner_worker in this executable's directory.
std::string sibling_worker_binary(const char* argv0) {
  std::string path = argv0;
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return "ppatuner_worker";
  return path.substr(0, slash + 1) + "ppatuner_worker";
}

}  // namespace

int main(int argc, char** argv) {
  server::SocketServerOptions opts;
  std::size_t workers = 0;
  std::string worker_bin = sibling_worker_binary(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      opts.socket_path = value();
    } else if (arg == "--max-sessions") {
      opts.sessions.max_sessions = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--licenses") {
      opts.sessions.total_licenses = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--journal-root") {
      opts.journal_root = value();
    } else if (arg == "--no-signals") {
      opts.sessions.handle_signals = false;
    } else if (arg == "--workers") {
      workers = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--worker-bin") {
      worker_bin = value();
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.socket_path.empty()) return usage(argv[0]);

  // The PD-flow oracle's design/library are built once and shared read-only
  // between sessions; each session gets its own PDTool instance (its run
  // state is per-instance).
  static const auto library = ppat::netlist::CellLibrary::make_default();
  static const auto design = ppat::netlist::small_mac_config();
  static const auto pdsim_space = flow::target2_space();
  static const auto hls_small = hls::small_gemm();
  static const auto hls_large = hls::large_gemm();
  static const auto hls_small_space = hls::systolic_space(hls_small);
  static const auto hls_large_space = hls::systolic_space(hls_large);

  opts.resolve_oracle = [](const std::string& name, std::uint64_t seed,
                           std::size_t dim)
      -> std::optional<server::OracleSpec> {
    if (name == "synthetic") {
      server::OracleSpec spec;
      spec.space = dist::unit_cube_space(dim);
      spec.make = [seed] { return std::make_unique<SyntheticOracle>(seed); };
      return spec;
    }
    if (name == "pdsim") {
      if (dim != pdsim_space.size()) return std::nullopt;
      server::OracleSpec spec;
      spec.space = pdsim_space;
      spec.make = [seed] {
        return std::make_unique<flow::PDTool>(&library, design, seed);
      };
      return spec;
    }
    // The HLS family: constrained spaces, so decode honours divisibility
    // and activation and the session defaults to the mixed-space kernel.
    if (name == "hls_small" || name == "hls_large") {
      const auto& space = name == "hls_small" ? hls_small_space
                                              : hls_large_space;
      const auto& workload = name == "hls_small" ? hls_small : hls_large;
      if (dim != space.size()) return std::nullopt;
      server::OracleSpec spec;
      spec.space = space;
      spec.make = [workload, seed] {
        return std::make_unique<hls::SystolicOracle>(workload, seed);
      };
      return spec;
    }
    return std::nullopt;
  };

  if (workers > 0) {
    // Distributed evaluation: each opened session gets its own coordinator
    // on a derived socket with the session id as epoch, plus `workers`
    // spawned ppatuner_worker processes hosting the session's oracle. The
    // worker fleet (and its spawned pids) lives exactly as long as the
    // coordinator, which the session owns.
    const std::string base_socket = opts.socket_path;
    opts.make_evaluator =
        [workers, worker_bin, base_socket](
            const std::string& oracle_name, std::uint64_t oracle_seed,
            std::uint64_t session_id, const flow::ParameterSpace& space,
            const flow::EvalServiceOptions& eval)
        -> std::unique_ptr<flow::BatchEvaluator> {
      dist::DistributedOptions dopt;
      static_cast<flow::RunPolicy&>(dopt) = eval;
      dopt.socket_path = base_socket + ".w" + std::to_string(session_id);
      dopt.session_epoch = session_id;
      auto coord =
          std::make_unique<dist::DistributedEvalService>(space, dopt);
      for (std::size_t w = 0; w < workers; ++w) {
        coord->spawn_local_worker(
            worker_bin,
            {"--oracle", oracle_name, "--seed", std::to_string(oracle_seed),
             "--dim", std::to_string(space.size())});
      }
      if (!coord->wait_for_workers(workers, std::chrono::seconds(15))) {
        std::fprintf(stderr,
                     "session %llu: only %zu/%zu workers connected\n",
                     static_cast<unsigned long long>(session_id),
                     coord->worker_count(), workers);
      }
      return coord;
    };
  }

  try {
    server::SocketServer srv(std::move(opts));
    srv.bind();
    std::printf("ppatuner_serve: listening on %s (max %zu sessions, %zu licenses)\n",
                srv.socket_path().c_str(), srv.sessions().options().max_sessions,
                srv.sessions().options().total_licenses);
    std::fflush(stdout);
    srv.serve();
    std::puts("ppatuner_serve: drained all sessions, exiting");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppatuner_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
