// Adversarial wire-protocol inputs: malformed, truncated, and oversized
// length-prefixed frames against wire::Reader / read_frame and against a
// live SocketServer. The contract under test: every bad input surfaces as
// a WireError (library level) or a kError frame / clean close (server
// level) — never a crash, hang, or over-allocation — and the server keeps
// serving well-formed clients afterwards.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dist/coordinator.hpp"
#include "dist/oracles.hpp"
#include "dist/worker.hpp"
#include "sample/sampling.hpp"
#include "server/socket_server.hpp"
#include "server/wire.hpp"
#include "synthetic_benchmark.hpp"

namespace ppat::server {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Reader: truncated payload fields.

TEST(WireReader, TruncatedScalarsThrow) {
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(wire::Reader(empty).u8(), wire::WireError);
  const std::vector<std::uint8_t> two = {0x01, 0x02};
  EXPECT_THROW(wire::Reader(two).u32(), wire::WireError);
  const std::vector<std::uint8_t> seven(7, 0xff);
  EXPECT_THROW(wire::Reader(seven).u64(), wire::WireError);
  EXPECT_THROW(wire::Reader(seven).f64(), wire::WireError);
}

TEST(WireReader, StringLengthBeyondPayloadThrows) {
  // str = u32 length + bytes; claim 100 bytes but provide 3.
  wire::Writer w;
  w.u32(100);
  w.u8('a');
  w.u8('b');
  w.u8('c');
  const auto buf = w.take();
  EXPECT_THROW(wire::Reader(buf).str(), wire::WireError);
}

TEST(WireReader, VectorCountBeyondPayloadThrows) {
  // A u64_vec whose element count implies terabytes must fail the bounds
  // check up front instead of attempting the allocation.
  wire::Writer w;
  w.u32(0xffffffffu);
  const auto buf = w.take();
  EXPECT_THROW(wire::Reader(buf).u64_vec(), wire::WireError);
}

TEST(WireReader, ReadPastEndOfWellFormedPayloadThrows) {
  wire::Writer w;
  w.u64(7);
  const auto buf = w.take();
  wire::Reader r(buf);
  EXPECT_EQ(r.u64(), 7u);
  EXPECT_THROW(r.u64(), wire::WireError);
}

// ---------------------------------------------------------------------------
// read_frame / write_frame over a socketpair.

struct FdPair {
  int a = -1;
  int b = -1;
  FdPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      ADD_FAILURE() << "socketpair failed";
      return;
    }
    a = fds[0];
    b = fds[1];
  }
  ~FdPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

void write_raw(int fd, const void* data, std::size_t n) {
  ASSERT_EQ(::send(fd, data, n, MSG_NOSIGNAL),
            static_cast<ssize_t>(n));
}

TEST(WireFrame, RoundTrip) {
  FdPair p;
  wire::Writer w;
  w.str("hello");
  w.u64(42);
  wire::write_frame(p.a, wire::MsgType::kHello, w.take());
  const auto frame = wire::read_frame(p.b);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, wire::MsgType::kHello);
  wire::Reader r(frame->payload);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.u64(), 42u);
}

// Format golden: the exact bytes one Writer sequence puts on the socket.
TEST(WireFrame, BytesMatchFormatGolden) {
  FdPair p;
  wire::Writer w;
  w.u8(0xA5);
  w.u32(0x01020304u);
  w.u64(0x1122334455667788ull);
  w.f64(-2.5);
  w.str("ppa");
  w.u64_vec({7, 0x100});
  wire::write_frame(p.a, wire::MsgType::kEvalResult, w.take());
  std::vector<std::uint8_t> got(256);
  const ssize_t n = ::recv(p.b, got.data(), got.size(), 0);
  ASSERT_GT(n, 0);
  got.resize(static_cast<std::size_t>(n));
  const std::vector<std::uint8_t> expected = {
      0x30, 0x00, 0x00, 0x00, 0x0c,                    // len 48, kEvalResult
      0xa5,                                            // u8
      0x04, 0x03, 0x02, 0x01,                          // u32
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // u64
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xc0,  // f64 -2.5
      0x03, 0x00, 0x00, 0x00, 0x70, 0x70, 0x61,        // str "ppa"
      0x02, 0x00, 0x00, 0x00,                          // u64_vec count
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   7
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   0x100
  };
  EXPECT_EQ(got, expected);
}

TEST(WireFrame, CleanEofAtBoundaryIsNullopt) {
  FdPair p;
  ::close(p.a);
  p.a = -1;
  EXPECT_EQ(wire::read_frame(p.b), std::nullopt);
}

TEST(WireFrame, OversizedLengthPrefixThrowsWithoutAllocating) {
  FdPair p;
  // Corrupt length prefix far above kMaxPayload: must be rejected from the
  // 4-byte header alone (no 4 GiB buffer, no wait for the bytes).
  const std::uint32_t len = 0xfffffff0u;
  std::uint8_t header[5];
  std::memcpy(header, &len, 4);
  header[4] = static_cast<std::uint8_t>(wire::MsgType::kHello);
  write_raw(p.a, header, sizeof(header));
  EXPECT_THROW(wire::read_frame(p.b), wire::WireError);
}

TEST(WireFrame, JustAboveMaxPayloadThrows) {
  FdPair p;
  const std::uint32_t len = wire::kMaxPayload + 1;
  std::uint8_t header[5];
  std::memcpy(header, &len, 4);
  header[4] = static_cast<std::uint8_t>(wire::MsgType::kOpenSession);
  write_raw(p.a, header, sizeof(header));
  EXPECT_THROW(wire::read_frame(p.b), wire::WireError);
}

TEST(WireFrame, TruncatedHeaderThrows) {
  FdPair p;
  const std::uint8_t partial[2] = {0x10, 0x00};
  write_raw(p.a, partial, sizeof(partial));
  ::close(p.a);
  p.a = -1;
  EXPECT_THROW(wire::read_frame(p.b), wire::WireError);
}

TEST(WireFrame, TruncatedPayloadThrows) {
  FdPair p;
  // Header promises 64 payload bytes; deliver 10, then close.
  const std::uint32_t len = 64;
  std::uint8_t header[5];
  std::memcpy(header, &len, 4);
  header[4] = static_cast<std::uint8_t>(wire::MsgType::kHello);
  write_raw(p.a, header, sizeof(header));
  const std::uint8_t some[10] = {};
  write_raw(p.a, some, sizeof(some));
  ::close(p.a);
  p.a = -1;
  EXPECT_THROW(wire::read_frame(p.b), wire::WireError);
}

TEST(WireFrame, WriteToClosedPeerThrowsInsteadOfSigpipe) {
  FdPair p;
  ::close(p.b);
  p.b = -1;
  // First write may land in the socket buffer; keep writing until the
  // EPIPE surfaces. Must throw WireError, never raise SIGPIPE.
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i) {
          wire::write_frame(p.a, wire::MsgType::kHello,
                            std::vector<std::uint8_t>(1024, 0));
        }
      },
      wire::WireError);
}

// ---------------------------------------------------------------------------
// Live server: bad clients must not crash or wedge it.

class RobustServer {
 public:
  RobustServer() {
    sock_ = (fs::path(::testing::TempDir()) /
             ("ppat_robust_" + std::to_string(::getpid()) + ".sock"))
                .string();
    SocketServerOptions opts;
    opts.socket_path = sock_;
    opts.sessions.handle_signals = false;
    opts.sessions.max_sessions = 2;
    opts.sessions.total_licenses = 2;
    opts.resolve_oracle = [](const std::string& name, std::uint64_t seed,
                             std::size_t dim) -> std::optional<OracleSpec> {
      if (name != "synthetic" || dim != 3) return std::nullopt;
      OracleSpec spec;
      spec.space = ppat::testing::synthetic_space();
      spec.make = [seed] {
        return std::make_unique<ppat::testing::SyntheticOracle>(
            0.05 * static_cast<double>(seed % 7));
      };
      return spec;
    };
    server_ = std::make_unique<SocketServer>(std::move(opts));
    server_->bind();
    thread_ = std::thread([this] { server_->serve(); });
  }

  ~RobustServer() {
    server_->stop();
    thread_.join();
  }

  int connect() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", sock_.c_str());
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  /// Drains frames until EOF/error; returns the first kError message seen.
  static std::string drain_for_error(int fd) {
    std::string message;
    try {
      while (auto frame = wire::read_frame(fd)) {
        if (frame->type == wire::MsgType::kError) {
          wire::Reader r(frame->payload);
          message = r.str();
        }
      }
    } catch (const wire::WireError&) {
      // Server hung up mid-frame: also a clean rejection for our purposes.
    }
    return message;
  }

  /// Runs a complete well-formed session; proves the server still works.
  void run_good_session() const {
    const int fd = connect();
    {
      wire::Writer w;
      w.u32(wire::kProtocolVersion);
      wire::write_frame(fd, wire::MsgType::kHello, w.take());
    }
    const auto ack = wire::read_frame(fd);
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->type, wire::MsgType::kHelloAck);
    common::Rng rng(13);
    const auto unit = sample::latin_hypercube(60, 3, rng);
    {
      wire::Writer w;
      w.str("synthetic");
      w.u64(1);
      w.u64(7);
      w.f64(0.0);
      w.f64(0.0);
      w.u64(0);
      w.u64(15);  // max_runs
      w.u64(0);
      w.u64_vec({0, 2});
      w.u64(60);
      w.u64(3);
      for (const auto& u : unit) {
        for (double x : u) w.f64(x);
      }
      wire::write_frame(fd, wire::MsgType::kOpenSession, w.take());
    }
    bool done = false;
    while (auto frame = wire::read_frame(fd)) {
      if (frame->type == wire::MsgType::kDone) {
        done = true;
        break;
      }
      ASSERT_NE(frame->type, wire::MsgType::kError);
    }
    ::close(fd);
    EXPECT_TRUE(done);
  }

 private:
  std::string sock_;
  std::unique_ptr<SocketServer> server_;
  std::thread thread_;
};

TEST(SocketServerRobustness, SurvivesMalformedClientsThenServes) {
  RobustServer server;

  {
    // 1. Oversized length prefix straight at the accept loop.
    const int fd = server.connect();
    const std::uint32_t len = 0xffffffffu;
    std::uint8_t header[5];
    std::memcpy(header, &len, 4);
    header[4] = static_cast<std::uint8_t>(wire::MsgType::kHello);
    write_raw(fd, header, sizeof(header));
    RobustServer::drain_for_error(fd);  // server must hang up, not hang
    ::close(fd);
  }
  {
    // 2. Truncated frame: promise 32 bytes, send 4, vanish.
    const int fd = server.connect();
    const std::uint32_t len = 32;
    std::uint8_t bytes[9] = {};
    std::memcpy(bytes, &len, 4);
    bytes[4] = static_cast<std::uint8_t>(wire::MsgType::kHello);
    write_raw(fd, bytes, sizeof(bytes));
    ::close(fd);
  }
  {
    // 3. Wrong opening message type.
    const int fd = server.connect();
    wire::Writer w;
    w.u64(0);
    wire::write_frame(fd, wire::MsgType::kStopSession, w.take());
    const std::string err = RobustServer::drain_for_error(fd);
    EXPECT_NE(err.find("Hello"), std::string::npos) << err;
    ::close(fd);
  }
  {
    // 4. Unsupported protocol version.
    const int fd = server.connect();
    wire::Writer w;
    w.u32(wire::kProtocolVersion + 5);
    wire::write_frame(fd, wire::MsgType::kHello, w.take());
    const std::string err = RobustServer::drain_for_error(fd);
    EXPECT_NE(err.find("version"), std::string::npos) << err;
    ::close(fd);
  }
  {
    // 5. Garbage OpenSession payload: handshake is fine, then a payload
    // that truncates mid-field (string length points past the end).
    const int fd = server.connect();
    wire::Writer hello;
    hello.u32(wire::kProtocolVersion);
    wire::write_frame(fd, wire::MsgType::kHello, hello.take());
    const auto ack = wire::read_frame(fd);
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->type, wire::MsgType::kHelloAck);
    wire::Writer w;
    w.u32(10'000);  // oracle-name length far beyond the payload
    w.u8('x');
    wire::write_frame(fd, wire::MsgType::kOpenSession, w.take());
    RobustServer::drain_for_error(fd);
    ::close(fd);
  }
  {
    // 6. Well-formed OpenSession for an unknown oracle must get kError.
    const int fd = server.connect();
    wire::Writer hello;
    hello.u32(wire::kProtocolVersion);
    wire::write_frame(fd, wire::MsgType::kHello, hello.take());
    ASSERT_TRUE(wire::read_frame(fd).has_value());
    wire::Writer w;
    w.str("no_such_oracle");
    w.u64(1);
    w.u64(1);
    w.f64(0.0);
    w.f64(0.0);
    w.u64(0);
    w.u64(5);
    w.u64(0);
    w.u64_vec({0, 2});
    w.u64(1);
    w.u64(3);
    for (int i = 0; i < 3; ++i) w.f64(0.5);
    wire::write_frame(fd, wire::MsgType::kOpenSession, w.take());
    const std::string err = RobustServer::drain_for_error(fd);
    EXPECT_NE(err.find("unknown oracle"), std::string::npos) << err;
    ::close(fd);
  }
  {
    // 7. Empty candidate pool is rejected before touching the tuner.
    const int fd = server.connect();
    wire::Writer hello;
    hello.u32(wire::kProtocolVersion);
    wire::write_frame(fd, wire::MsgType::kHello, hello.take());
    ASSERT_TRUE(wire::read_frame(fd).has_value());
    wire::Writer w;
    w.str("synthetic");
    w.u64(1);
    w.u64(1);
    w.f64(0.0);
    w.f64(0.0);
    w.u64(0);
    w.u64(5);
    w.u64(0);
    w.u64_vec({0, 2});
    w.u64(0);  // n = 0
    w.u64(3);
    wire::write_frame(fd, wire::MsgType::kOpenSession, w.take());
    const std::string err = RobustServer::drain_for_error(fd);
    EXPECT_NE(err.find("empty"), std::string::npos) << err;
    ::close(fd);
  }

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    // 8. A non-finite candidate coordinate is rejected before decoding.
    const int fd = server.connect();
    wire::Writer hello;
    hello.u32(wire::kProtocolVersion);
    wire::write_frame(fd, wire::MsgType::kHello, hello.take());
    ASSERT_TRUE(wire::read_frame(fd).has_value());
    wire::Writer w;
    w.str("synthetic");
    w.u64(1);
    w.u64(1);
    w.f64(0.0);
    w.f64(0.0);
    w.u64(0);
    w.u64(5);
    w.u64(0);
    w.u64_vec({0, 2});
    w.u64(2);
    w.u64(3);
    for (int i = 0; i < 5; ++i) w.f64(0.5);
    w.f64(bad);
    wire::write_frame(fd, wire::MsgType::kOpenSession, w.take());
    const std::string err = RobustServer::drain_for_error(fd);
    EXPECT_NE(err.find("non-finite"), std::string::npos) << bad << ": " << err;
    ::close(fd);
  }

  // After the whole corpus: the server still completes a real session.
  server.run_good_session();
}

// ---------------------------------------------------------------------------
// Distributed frames: Reader truncation on the worker-protocol payloads.

TEST(WireReaderDistributed, TruncatedWorkerHelloThrows) {
  // A hello that ends after the oracle name — the dim field is missing.
  wire::Writer w;
  w.u32(wire::kProtocolVersion);
  w.u64(1);  // session epoch
  w.str("synthetic");
  const auto buf = w.take();
  wire::Reader r(buf);
  r.u32();
  r.u64();
  EXPECT_EQ(r.str(), "synthetic");
  EXPECT_THROW(r.u64(), wire::WireError);
}

TEST(WireReaderDistributed, TruncatedEvalResultThrows) {
  // The ok flag promises three QoR doubles; deliver two.
  wire::Writer w;
  w.u64(4);  // job id
  w.u32(1);  // attempt
  w.u8(1);   // ok
  w.f64(1.0);
  w.f64(2.0);
  const auto buf = w.take();
  wire::Reader r(buf);
  r.u64();
  r.u32();
  EXPECT_EQ(r.u8(), 1);
  r.f64();
  r.f64();
  EXPECT_THROW(r.f64(), wire::WireError);
}

TEST(WireReaderDistributed, EvalRequestDimBeyondPayloadThrows) {
  // The dim field promises six doubles; the payload carries one.
  wire::Writer w;
  w.u64(0);  // job id
  w.u32(1);  // attempt
  w.u64(6);  // declared dim
  w.f64(0.5);
  const auto buf = w.take();
  wire::Reader r(buf);
  r.u64();
  r.u32();
  const std::uint64_t dim = r.u64();
  EXPECT_THROW(
      {
        for (std::uint64_t i = 0; i < dim; ++i) r.f64();
      },
      wire::WireError);
}

// ---------------------------------------------------------------------------
// Live coordinator: hostile or stale workers must be rejected with kError
// (or a clean close), never crash or wedge the fleet — and an honest worker
// must still be served after the whole corpus.

TEST(CoordinatorRobustness, RejectsBadHandshakesThenServes) {
  const auto space = dist::unit_cube_space(3);
  dist::DistributedOptions dopt;
  dopt.socket_path = (fs::path(::testing::TempDir()) /
                      ("ppat_coord_robust_" + std::to_string(::getpid()) +
                       ".sock"))
                         .string();
  dopt.session_epoch = 7;
  // Short handshake timeout so a client that stalls mid-frame cannot wedge
  // the accept loop for the default five seconds.
  dopt.handshake_timeout = std::chrono::milliseconds(100);
  // Held by pointer so the coordinator can be destroyed (closing the
  // worker connection) BEFORE the worker thread is joined.
  auto coord =
      std::make_unique<dist::DistributedEvalService>(space, dopt);

  auto dial = [&]() {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  dopt.socket_path.c_str());
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  };
  // The coordinator only services its socket while polled; wait_for_workers
  // is the pump. Every corpus client is rejected, so the count never hits 1.
  auto pump = [&] {
    EXPECT_FALSE(
        coord->wait_for_workers(1, std::chrono::milliseconds(300)));
  };
  auto rejection = [](int fd) {
    std::string message;
    try {
      while (auto frame = wire::read_frame(fd)) {
        if (frame->type == wire::MsgType::kError) {
          wire::Reader r(frame->payload);
          message = r.str();
        }
      }
    } catch (const wire::WireError&) {
      // Hung up mid-frame: also a clean rejection.
    }
    return message;
  };
  auto hello_frame = [&](std::uint32_t proto, std::uint64_t epoch,
                         std::uint64_t dim) {
    wire::Writer w;
    w.u32(proto);
    w.u64(epoch);
    w.str("synthetic");
    w.u64(dim);
    return w.take();
  };

  {
    // 1. Stale session epoch: a worker from a previous incarnation.
    const int fd = dial();
    wire::write_frame(fd, wire::MsgType::kWorkerHello,
                      hello_frame(wire::kProtocolVersion, 6, 3));
    pump();
    EXPECT_NE(rejection(fd).find("stale session epoch"), std::string::npos);
    ::close(fd);
  }
  {
    // 2. Protocol version mismatch.
    const int fd = dial();
    wire::write_frame(fd, wire::MsgType::kWorkerHello,
                      hello_frame(wire::kProtocolVersion + 3, 7, 3));
    pump();
    EXPECT_NE(rejection(fd).find("protocol version"), std::string::npos);
    ::close(fd);
  }
  {
    // 3. Parameter-space dimension mismatch.
    const int fd = dial();
    wire::write_frame(fd, wire::MsgType::kWorkerHello,
                      hello_frame(wire::kProtocolVersion, 7, 4));
    pump();
    EXPECT_NE(rejection(fd).find("dimension"), std::string::npos);
    ::close(fd);
  }
  {
    // 4. Wrong opening frame type (a client-protocol Hello).
    const int fd = dial();
    wire::Writer w;
    w.u32(wire::kProtocolVersion);
    wire::write_frame(fd, wire::MsgType::kHello, w.take());
    pump();
    EXPECT_NE(rejection(fd).find("WorkerHello"), std::string::npos);
    ::close(fd);
  }
  {
    // 5. Truncated hello: promise 64 payload bytes, send 8, stall. The
    // handshake recv timeout must cut the connection loose.
    const int fd = dial();
    const std::uint32_t len = 64;
    std::uint8_t bytes[13] = {};
    std::memcpy(bytes, &len, 4);
    bytes[4] = static_cast<std::uint8_t>(wire::MsgType::kWorkerHello);
    write_raw(fd, bytes, sizeof(bytes));
    pump();
    rejection(fd);  // clean close is acceptable; must not hang
    ::close(fd);
  }
  {
    // 6. Oversized length prefix straight at the handshake.
    const int fd = dial();
    const std::uint32_t len = 0xffffffffu;
    std::uint8_t header[5];
    std::memcpy(header, &len, 4);
    header[4] = static_cast<std::uint8_t>(wire::MsgType::kWorkerHello);
    write_raw(fd, header, sizeof(header));
    pump();
    rejection(fd);
    ::close(fd);
  }

  EXPECT_EQ(coord->stats().workers_rejected, 6u);
  EXPECT_EQ(coord->worker_count(), 0u);

  // After the whole corpus: an honest worker connects and the fleet serves
  // a real batch.
  dist::SyntheticOracle oracle(3);
  dist::WorkerLoopOptions wopts;
  wopts.session_epoch = 7;
  std::thread worker([&] {
    const int fd = dist::connect_worker(dopt.socket_path);
    ASSERT_GE(fd, 0);
    dist::run_worker_loop(fd, oracle, space, wopts);
  });
  ASSERT_TRUE(coord->wait_for_workers(1, std::chrono::seconds(5)));
  std::vector<flow::Config> configs;
  for (int i = 0; i < 4; ++i) {
    linalg::Vector u(3);
    for (int d = 0; d < 3; ++d) {
      u[d] = 0.1 + 0.2 * static_cast<double>(i) + 0.05 * d;
    }
    configs.push_back(space.decode(u));
  }
  const auto records = coord->evaluate_batch(configs);
  for (const auto& r : records) EXPECT_TRUE(r.ok());
  coord.reset();
  worker.join();
}

}  // namespace
}  // namespace ppat::server
