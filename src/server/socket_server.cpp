#include "server/socket_server.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/log.hpp"
#include "journal/journal.hpp"
#include "server/ppatuner_abi.h"
#include "server/wire.hpp"

namespace ppat::server {
namespace {

/// Per-connection write side: RoundUpdate frames come from the session
/// thread while Done/Error come from the connection thread.
struct ConnWriter {
  int fd;
  std::mutex mutex;
  bool broken = false;  ///< first write failure wins; later writes are no-ops

  bool write(wire::MsgType type, const std::vector<std::uint8_t>& payload) {
    std::lock_guard lock(mutex);
    if (broken) return false;
    try {
      wire::write_frame(fd, type, payload);
      return true;
    } catch (const wire::WireError&) {
      broken = true;
      return false;
    }
  }
};

void send_error(ConnWriter& conn, const std::string& message) {
  wire::Writer w;
  w.str(message);
  conn.write(wire::MsgType::kError, w.take());
}

}  // namespace

SocketServer::SocketServer(SocketServerOptions options)
    : options_(std::move(options)),
      manager_(std::make_unique<SessionManager>(options_.sessions)) {
  if (options_.socket_path.empty()) {
    throw std::invalid_argument("SocketServerOptions::socket_path is empty");
  }
  if (!options_.resolve_oracle) {
    throw std::invalid_argument(
        "SocketServerOptions::resolve_oracle is required");
  }
  if (options_.sessions.handle_signals) {
    // The accept loop's own stop slot, alongside the per-session ones the
    // manager registers: one SIGINT/SIGTERM both closes the listener and
    // drains every session.
    signal_stop_ = std::make_unique<journal::ScopedSignalStop>();
  }
}

SocketServer::~SocketServer() {
  stop();
  {
    std::lock_guard lock(threads_mutex_);
    for (auto& t : connection_threads_) {
      if (t.joinable()) t.join();
    }
    connection_threads_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }
}

void SocketServer::bind() {
  listen_fd_ = wire::listen_unix(options_.socket_path, 16);
}

void SocketServer::serve() {
  if (listen_fd_ < 0) {
    throw std::logic_error("SocketServer::serve called before bind");
  }
  while (!stop_.load(std::memory_order_relaxed) &&
         !(signal_stop_ != nullptr && signal_stop_->stop_requested())) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (pr < 0) {
      if (errno == EINTR) continue;
      PPAT_WARN << "server poll failed: " << std::strerror(errno);
      break;
    }
    if (pr == 0) continue;  // timeout: re-check the stop conditions
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      PPAT_WARN << "accept failed: " << std::strerror(errno);
      continue;
    }
    std::lock_guard lock(threads_mutex_);
    connection_threads_.emplace_back(
        [this, fd] { handle_connection(fd); });
  }
  // Drain: stop every session, then join connections (each ends once its
  // session finishes and Done is written).
  manager_->request_stop_all();
  std::vector<std::thread> threads;
  {
    std::lock_guard lock(threads_mutex_);
    threads.swap(connection_threads_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
}

void SocketServer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  manager_->request_stop_all();
}

void SocketServer::handle_connection(int fd) {
  // Shared with the session's on_update callback, which can outlive this
  // function on error paths (the session keeps running after we bail).
  auto conn_ptr = std::make_shared<ConnWriter>();
  conn_ptr->fd = fd;
  ConnWriter& conn = *conn_ptr;
  std::uint64_t session_id = 0;
  bool session_open = false;
  std::thread reader;
  try {
    // -- Handshake. --
    auto hello = wire::read_frame(fd);
    if (!hello || hello->type != wire::MsgType::kHello) {
      throw wire::WireError("expected Hello");
    }
    {
      wire::Reader r(hello->payload);
      const std::uint32_t version = r.u32();
      if (version != wire::kProtocolVersion) {
        send_error(conn, "unsupported protocol version " +
                             std::to_string(version));
        ::close(fd);
        return;
      }
    }
    {
      wire::Writer w;
      w.u32(wire::kProtocolVersion);
      w.u32(ppat_abi_version());
      conn.write(wire::MsgType::kHelloAck, w.take());
    }

    // -- Session open. --
    auto open_frame = wire::read_frame(fd);
    if (!open_frame || open_frame->type != wire::MsgType::kOpenSession) {
      throw wire::WireError("expected OpenSession");
    }
    wire::Reader r(open_frame->payload);
    const std::string oracle_name = r.str();
    const std::uint64_t oracle_seed = r.u64();
    tuner::PPATunerOptions topt;
    if (const std::uint64_t v = r.u64(); v != 0) topt.seed = v;
    if (const double v = r.f64(); v > 0.0) topt.tau = v;
    if (const double v = r.f64(); v > 0.0) topt.delta_rel = v;
    if (const std::uint64_t v = r.u64(); v != 0) topt.batch_size = v;
    if (const std::uint64_t v = r.u64(); v != 0) topt.max_runs = v;
    if (const std::uint64_t v = r.u64(); v != 0) topt.max_rounds = v;
    const auto objectives64 = r.u64_vec();
    const std::uint64_t n = r.u64();
    const std::uint64_t dim = r.u64();
    if (n == 0 || dim == 0 || objectives64.empty()) {
      send_error(conn, "OpenSession: empty pool or objective set");
      ::close(fd);
      return;
    }

    const auto spec = options_.resolve_oracle(
        oracle_name, oracle_seed, static_cast<std::size_t>(dim));
    if (!spec) {
      send_error(conn, "unknown oracle '" + oracle_name + "' (dim " +
                           std::to_string(dim) + ")");
      ::close(fd);
      return;
    }

    SessionConfig cfg;
    cfg.name = oracle_name;
    cfg.space = spec->space;
    cfg.make_oracle = spec->make;
    if (options_.make_evaluator) {
      cfg.make_evaluator = [factory = options_.make_evaluator, oracle_name,
                            oracle_seed](
                               std::uint64_t id, flow::QorOracle& oracle,
                               const flow::ParameterSpace& space,
                               const flow::EvalServiceOptions& eval)
          -> std::unique_ptr<flow::BatchEvaluator> {
        auto evaluator = factory(oracle_name, oracle_seed, id, space, eval);
        if (evaluator != nullptr) return evaluator;
        // Factory declined (e.g. an oracle the worker fleet cannot host):
        // in-process evaluation is always a valid fallback.
        return std::make_unique<flow::EvalService>(oracle, space, eval);
      };
    }
    cfg.tuner = topt;
    cfg.objectives.assign(objectives64.begin(), objectives64.end());
    cfg.candidates.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      linalg::Vector u(dim);
      for (std::uint64_t d = 0; d < dim; ++d) u[d] = r.f64();
      // decode casts a discrete coordinate to an index: NaN or infinity
      // there is undefined behaviour, so the client's input stops here.
      if (!std::all_of(u.begin(), u.end(),
                       [](double x) { return std::isfinite(x); })) {
        send_error(conn, "OpenSession: non-finite candidate coordinate");
        ::close(fd);
        return;
      }
      cfg.candidates.push_back(cfg.space.decode(u));
    }
    if (!options_.journal_root.empty()) {
      const std::uint64_t k = session_counter_.fetch_add(1);
      cfg.journal_dir =
          options_.journal_root + "/session-" + std::to_string(k);
      std::filesystem::create_directories(cfg.journal_dir);
    }
    cfg.on_update = [conn_ptr](const SessionUpdate& update) {
      ConnWriter& conn = *conn_ptr;
      if (update.final) return;  // Done is sent by the connection thread
      wire::Writer w;
      w.u64(update.session_id);
      w.u64(update.round);
      w.u64(update.runs);
      std::vector<std::uint64_t> front(update.front.begin(),
                                       update.front.end());
      w.u64_vec(front);
      conn.write(wire::MsgType::kRoundUpdate, w.take());
    };

    try {
      session_id = manager_->open(std::move(cfg));
      session_open = true;
    } catch (const std::exception& e) {
      send_error(conn, e.what());
      ::close(fd);
      return;
    }
    {
      wire::Writer w;
      w.u64(session_id);
      conn.write(wire::MsgType::kSessionOpened, w.take());
    }

    // -- Reader side: StopSession requests; EOF = client gone, so stop the
    // session instead of burning tool licenses for nobody. --
    reader = std::thread([this, fd, session_id] {
      try {
        while (auto frame = wire::read_frame(fd)) {
          if (frame->type == wire::MsgType::kStopSession) {
            manager_->request_stop(session_id);
          }
        }
      } catch (const wire::WireError&) {
      }
      manager_->request_stop(session_id);
    });

    // -- Wait for the session, then report. --
    SessionState state = SessionState::kCompleted;
    try {
      manager_->wait(session_id);
    } catch (const std::exception&) {
      // status() below carries the failure detail.
    }
    const SessionStatus status = manager_->status(session_id);
    state = status.state;
    wire::Writer w;
    w.u64(session_id);
    w.u8(static_cast<std::uint8_t>(state));
    w.u64(status.runs);
    const auto front_sz = manager_->front(session_id);
    std::vector<std::uint64_t> front(front_sz.begin(), front_sz.end());
    w.u64_vec(front);
    conn.write(wire::MsgType::kDone, w.take());
  } catch (const std::exception& e) {
    PPAT_WARN << "connection failed: " << e.what();
    if (session_open) manager_->request_stop(session_id);
    send_error(conn, e.what());
  }
  // Unblock and join the reader before closing the descriptor.
  ::shutdown(fd, SHUT_RDWR);
  if (reader.joinable()) reader.join();
  ::close(fd);
}

}  // namespace ppat::server
