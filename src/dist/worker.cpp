#include "dist/worker.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <thread>

#include "common/log.hpp"
#include "server/wire.hpp"

namespace ppat::dist {

namespace wire = server::wire;

int connect_worker(const std::string& socket_path, std::size_t max_attempts,
                   std::chrono::milliseconds retry_delay) {
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    const int fd = wire::connect_unix(socket_path);
    if (fd >= 0) return fd;
    if (errno == ENAMETOOLONG) return -1;
    // The coordinator may still be binding; back off and retry.
    if (attempt + 1 < max_attempts && retry_delay.count() > 0) {
      std::this_thread::sleep_for(retry_delay);
    }
  }
  return -1;
}

namespace {

void send_heartbeat(int fd, std::uint64_t epoch) {
  wire::Writer w;
  w.u64(epoch);
  wire::write_frame(fd, wire::MsgType::kHeartbeat, w.take());
}

void send_result(int fd, std::uint64_t job_id, std::uint32_t attempt,
                 const flow::QoR* qor, const std::string& error) {
  wire::Writer w;
  w.u64(job_id);
  w.u32(attempt);
  w.u8(qor != nullptr ? 1 : 0);
  if (qor != nullptr) {
    w.f64(qor->area_um2);
    w.f64(qor->power_mw);
    w.f64(qor->delay_ns);
  } else {
    w.str(error);
  }
  wire::write_frame(fd, wire::MsgType::kEvalResult, w.take());
}

}  // namespace

int run_worker_loop(int fd, flow::QorOracle& oracle,
                    const flow::ParameterSpace& space,
                    const WorkerLoopOptions& options) {
  int rc = 0;
  try {
    {
      wire::Writer hello;
      hello.u32(wire::kProtocolVersion);
      hello.u64(options.session_epoch);
      hello.str(options.oracle_name);
      hello.u64(space.size());
      wire::write_frame(fd, wire::MsgType::kWorkerHello, hello.take());
    }
    const auto ack = wire::read_frame(fd);
    if (!ack.has_value()) {
      ::close(fd);
      return 2;  // coordinator closed during handshake
    }
    if (ack->type == wire::MsgType::kError) {
      wire::Reader r(ack->payload);
      PPAT_WARN << "worker rejected by coordinator: " << r.str();
      ::close(fd);
      return 2;
    }
    if (ack->type != wire::MsgType::kWorkerHelloAck) {
      ::close(fd);
      return 3;
    }
    {
      wire::Reader r(ack->payload);
      if (r.u64() != options.session_epoch) {
        ::close(fd);
        return 2;
      }
    }

    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    for (;;) {
      if (options.heartbeat_interval.count() > 0) {
        pfd.revents = 0;
        const int pr = ::poll(
            &pfd, 1, static_cast<int>(options.heartbeat_interval.count()));
        if (pr == 0) {
          send_heartbeat(fd, options.session_epoch);
          continue;
        }
        if (pr < 0) {
          if (errno == EINTR) continue;
          rc = 4;
          break;
        }
      }
      const auto frame = wire::read_frame(fd);
      if (!frame.has_value()) break;  // clean shutdown
      switch (frame->type) {
        case wire::MsgType::kEvalRequest: {
          wire::Reader r(frame->payload);
          const std::uint64_t job_id = r.u64();
          const std::uint32_t attempt = r.u32();
          const std::uint64_t dim = r.u64();
          flow::Config config(dim);
          for (std::uint64_t i = 0; i < dim; ++i) config[i] = r.f64();
          try {
            if (options.on_eval) options.on_eval(job_id, attempt, config);
            const flow::QoR qor = oracle.evaluate(space, config);
            send_result(fd, job_id, attempt, &qor, {});
          } catch (const std::exception& e) {
            send_result(fd, job_id, attempt, nullptr, e.what());
          }
          break;
        }
        case wire::MsgType::kHeartbeat:
          break;  // coordinator-side liveness probe; nothing to do
        default:
          rc = 3;
      }
      if (rc != 0) break;
    }
  } catch (const wire::WireError&) {
    rc = 4;
  }
  ::close(fd);
  return rc;
}

}  // namespace ppat::dist
