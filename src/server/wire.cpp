#include "server/wire.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace ppat::server::wire {

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kHello:
      return "Hello";
    case MsgType::kHelloAck:
      return "HelloAck";
    case MsgType::kOpenSession:
      return "OpenSession";
    case MsgType::kSessionOpened:
      return "SessionOpened";
    case MsgType::kRoundUpdate:
      return "RoundUpdate";
    case MsgType::kDone:
      return "Done";
    case MsgType::kError:
      return "Error";
    case MsgType::kStopSession:
      return "StopSession";
    case MsgType::kWorkerHello:
      return "WorkerHello";
    case MsgType::kWorkerHelloAck:
      return "WorkerHelloAck";
    case MsgType::kEvalRequest:
      return "EvalRequest";
    case MsgType::kEvalResult:
      return "EvalResult";
    case MsgType::kHeartbeat:
      return "Heartbeat";
  }
  return "<unknown>";
}

namespace {

/// Reads exactly n bytes. Returns false on clean EOF before the first
/// byte; throws on EOF mid-buffer or socket error.
bool read_exact(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r == 0) {
      if (got == 0) return false;
      throw WireError("connection closed mid-frame");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("socket read failed: ") +
                      std::strerror(errno));
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

void write_exact(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE here instead of
    // killing the server process with SIGPIPE.
    const ssize_t r = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("socket write failed: ") +
                      std::strerror(errno));
    }
    sent += static_cast<std::size_t>(r);
  }
}

}  // namespace

std::optional<Frame> read_frame(int fd) {
  std::uint8_t header[5];
  if (!read_exact(fd, header, 4)) return std::nullopt;  // EOF at boundary
  if (!read_exact(fd, header + 4, 1)) {
    throw WireError("connection closed mid-frame");
  }
  const std::uint32_t len = Reader(header, 4).u32();
  if (len > kMaxPayload) {
    throw WireError("frame payload of " + std::to_string(len) +
                    " bytes exceeds the " + std::to_string(kMaxPayload) +
                    "-byte limit");
  }
  Frame frame;
  frame.type = static_cast<MsgType>(header[4]);
  frame.payload.resize(len);
  if (len > 0 && !read_exact(fd, frame.payload.data(), len)) {
    throw WireError("connection closed mid-frame");
  }
  return frame;
}

void write_frame(int fd, MsgType type,
                 const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxPayload) {
    throw WireError("refusing to write an oversized frame");
  }
  Writer w;
  w.buf().reserve(5 + payload.size());
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u8(static_cast<std::uint8_t>(type));
  w.bytes(payload.data(), payload.size());
  write_exact(fd, w.buf().data(), w.buf().size());
}

namespace {

/// The sockaddr_un for `path`; false when the path does not fit.
bool unix_address(const std::string& path, sockaddr_un& addr) {
  addr = sockaddr_un{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return true;
}

}  // namespace

int listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr;
  if (!unix_address(path, addr)) {
    throw std::invalid_argument("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket() failed: ") +
                             std::strerror(errno));
  }
  ::unlink(path.c_str());  // stale file from a dead server
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot listen on " + path + ": " + err);
  }
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr;
  if (!unix_address(path, addr)) {
    errno = ENAMETOOLONG;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

}  // namespace ppat::server::wire
