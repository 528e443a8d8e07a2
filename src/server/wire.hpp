// Length-prefixed wire protocol for the tuning server's Unix socket.
//
// Frame layout (all integers little-endian):
//
//   u32 payload_len | u8 type | payload[payload_len]
//
// Messages (client -> server unless noted):
//
//   kHello         u32 protocol_version
//   kHelloAck  (s) u32 protocol_version, u32 abi_version
//   kOpenSession   str oracle_name, u64 oracle_seed,
//                  u64 tuner_seed, f64 tau, f64 delta_rel,
//                  u64 batch_size, u64 max_runs, u64 max_rounds,
//                  vec<u64> objectives,
//                  u64 n, u64 dim, n*dim f64 (unit-cube candidate rows)
//   kSessionOpened (s) u64 session_id
//   kRoundUpdate   (s) u64 session_id, u64 round, u64 runs, vec<u64> front
//   kDone          (s) u64 session_id, u8 state (SessionState),
//                      u64 runs, vec<u64> front
//   kError         (s) str message (the connection closes after)
//   kStopSession   u64 session_id (graceful; a kDone still follows)
//
// Distributed-evaluation frames (worker <-> coordinator; see src/dist/):
//
//   kWorkerHello    (w) u32 protocol_version, u64 session_epoch,
//                       str oracle_name, u64 space_dim
//   kWorkerHelloAck (c) u64 session_epoch
//   kEvalRequest    (c) u64 job_id, u32 attempt, u64 dim, dim*f64
//                       (canonical parameter values, not unit-cube points)
//   kEvalResult     (w) u64 job_id, u32 attempt, u8 ok,
//                       ok: f64 area_um2, f64 power_mw, f64 delay_ns
//                       !ok: str error
//   kHeartbeat          u64 session_epoch (worker liveness while idle; the
//                       coordinator echoes nothing, a stale epoch
//                       disconnects the worker)
//
// A zero tuner option means "server default" (mirrors the C ABI). One
// connection drives one session: open, stream updates, done. Dropping the
// connection mid-run requests a graceful stop of its session.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/byte_codec.hpp"

namespace ppat::server::wire {

inline constexpr std::uint32_t kProtocolVersion = 1;
/// Frames above this are rejected (a corrupt length prefix would otherwise
/// ask the reader to allocate gigabytes).
inline constexpr std::uint32_t kMaxPayload = 64u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kOpenSession = 3,
  kSessionOpened = 4,
  kRoundUpdate = 5,
  kDone = 6,
  kError = 7,
  kStopSession = 8,
  // Distributed oracle fleet (coordinator/worker; src/dist/).
  kWorkerHello = 9,
  kWorkerHelloAck = 10,
  kEvalRequest = 11,
  kEvalResult = 12,
  kHeartbeat = 13,
};
const char* msg_type_name(MsgType type);

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

/// Malformed frame or payload (protocol violation, truncated field).
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Little-endian payload writer (common/byte_codec.hpp); strings and
/// vectors carry u32 lengths.
using Writer = common::ByteWriter<std::uint32_t, std::vector<std::uint8_t>>;

/// Bounds-checked payload reader. Throws WireError on truncation.
using Reader = common::ByteReader<WireError, std::uint32_t>;

/// Blocking full-frame I/O on a connected socket. read_frame returns
/// nullopt on orderly EOF at a frame boundary and throws WireError on a
/// short read, oversized frame, or socket error. write_frame throws
/// WireError when the peer is gone.
std::optional<Frame> read_frame(int fd);
void write_frame(int fd, MsgType type, const std::vector<std::uint8_t>& payload);

/// A Unix stream socket listening at `path`; a stale socket file there is
/// removed first. Throws std::invalid_argument when `path` does not fit a
/// sockaddr_un and std::runtime_error when socket, bind or listen fails.
int listen_unix(const std::string& path, int backlog);

/// A stream socket connected to the Unix socket at `path`, or -1 with errno
/// set (ENAMETOOLONG when `path` does not fit a sockaddr_un).
int connect_unix(const std::string& path);

}  // namespace ppat::server::wire
