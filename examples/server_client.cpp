// Client for the multi-tenant tuning server (tools/ppatuner_serve).
//
// Connects over the Unix socket, opens one tuning session against the
// server-hosted "synthetic" oracle, streams per-round Pareto-front updates,
// and prints the final predicted front. Run the server first:
//
//   ppatuner_serve --socket /tmp/ppat.sock &
//   server_client /tmp/ppat.sock
//
// The client never links the flow or the tuner — only the wire protocol.
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include <unistd.h>

#include "common/rng.hpp"
#include "sample/sampling.hpp"
#include "server/wire.hpp"

using namespace ppat;
namespace wire = server::wire;

int main(int argc, char** argv) {
  const std::string socket_path = argc > 1 ? argv[1] : "/tmp/ppat.sock";

  // ---- Connect. ----
  const int fd = wire::connect_unix(socket_path);
  if (fd < 0) {
    std::fprintf(stderr, "connect(%s): %s\n", socket_path.c_str(),
                 std::strerror(errno));
    return 1;
  }

  try {
    // ---- Handshake. ----
    {
      wire::Writer w;
      w.u32(wire::kProtocolVersion);
      wire::write_frame(fd, wire::MsgType::kHello, w.take());
    }
    auto ack = wire::read_frame(fd);
    if (!ack || ack->type != wire::MsgType::kHelloAck) {
      std::fprintf(stderr, "no HelloAck\n");
      return 1;
    }
    {
      wire::Reader r(ack->payload);
      const auto proto = r.u32();
      const auto abi = r.u32();
      std::printf("connected: protocol v%u, server ABI %u.%u\n", proto,
                  abi >> 16, abi & 0xffff);
    }

    // ---- Open a session: 300 Latin-hypercube candidates in 3 dims,
    // area-vs-delay, against the server's synthetic oracle. ----
    const std::size_t kCandidates = 300, kDim = 3;
    common::Rng rng(17);
    const auto points = sample::latin_hypercube(kCandidates, kDim, rng);
    {
      wire::Writer w;
      w.str("synthetic");
      w.u64(/*oracle_seed=*/1);
      w.u64(/*tuner_seed=*/5);
      w.f64(0.0);  // tau (server default)
      w.f64(0.0);  // delta_rel (server default)
      w.u64(0);    // batch_size (server default)
      w.u64(60);   // max_runs
      w.u64(0);    // max_rounds (server default)
      w.u64_vec({0, 2});  // objectives: area, delay
      w.u64(kCandidates);
      w.u64(kDim);
      for (const auto& u : points) {
        for (double x : u) w.f64(x);
      }
      wire::write_frame(fd, wire::MsgType::kOpenSession, w.take());
    }

    // ---- Stream updates until Done. ----
    while (auto frame = wire::read_frame(fd)) {
      wire::Reader r(frame->payload);
      switch (frame->type) {
        case wire::MsgType::kSessionOpened:
          std::printf("session %llu opened\n",
                      static_cast<unsigned long long>(r.u64()));
          break;
        case wire::MsgType::kRoundUpdate: {
          r.u64();  // session id
          const auto round = r.u64();
          const auto runs = r.u64();
          const auto front = r.u64_vec();
          std::printf("  round %3llu  runs %3llu  |front| %zu\n",
                      static_cast<unsigned long long>(round),
                      static_cast<unsigned long long>(runs), front.size());
          break;
        }
        case wire::MsgType::kDone: {
          r.u64();  // session id
          const auto state = r.u8();
          const auto runs = r.u64();
          const auto front = r.u64_vec();
          std::printf("done (state %u) after %llu tool runs; predicted "
                      "Pareto set (%zu):",
                      state, static_cast<unsigned long long>(runs),
                      front.size());
          for (auto i : front) {
            std::printf(" %llu", static_cast<unsigned long long>(i));
          }
          std::puts("");
          ::close(fd);
          return 0;
        }
        case wire::MsgType::kError:
          std::fprintf(stderr, "server error: %s\n", r.str().c_str());
          ::close(fd);
          return 1;
        default:
          break;
      }
    }
    std::fprintf(stderr, "server closed the connection early\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "client failed: %s\n", e.what());
  }
  ::close(fd);
  return 1;
}
