#include "journal/framed_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

namespace ppat::journal {
namespace {

// ---- CRC32 (reflected, poly 0xEDB88320; same as zlib's crc32) ------------

struct Crc32Table {
  std::uint32_t entries[256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      entries[i] = c;
    }
  }
};

constexpr std::uint32_t kCrcInit = 0xFFFFFFFFu;

/// Folds `len` bytes into a running (pre-inverted) CRC state.
std::uint32_t crc_update(std::uint32_t c, const void* data, std::size_t len) {
  static const Crc32Table table;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    c = table.entries[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

[[noreturn]] void throw_errno(const char* what, const std::string& path,
                              int err = errno) {
  throw JournalError(std::string(what) + " " + path + ": " +
                     std::strerror(err));
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len) {
  return crc_update(kCrcInit, data, len) ^ kCrcInit;
}

FramedLog::Scan FramedLog::scan(
    std::string_view data, std::size_t header_bytes,
    const std::function<void(std::uint8_t, std::string_view)>& on_frame) {
  Scan result;
  std::size_t pos = header_bytes;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameBytes) {
      result.note = "short record frame";
      break;
    }
    RecordReader frame(data.data() + pos, 8);
    const std::uint32_t len = frame.u32();
    const std::uint32_t stored_crc = frame.u32();
    if (len > kMaxPayload || data.size() - pos - kFrameBytes < len) {
      result.note = "short record payload";
      break;
    }
    // The CRC covers the kind byte and the payload, so a bit flip anywhere
    // in the record body (its kind included) is caught.
    const char* body = data.data() + pos + 8;
    if (crc32(body, 1 + len) != stored_crc) {
      result.note = "CRC mismatch";
      break;
    }
    on_frame(static_cast<std::uint8_t>(body[0]),
             std::string_view(body + 1, len));
    pos += kFrameBytes + len;
  }
  result.valid_bytes = pos;
  return result;
}

std::optional<std::string> FramedLog::read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void FramedLog::open_fd(const std::string& path, int flags,
                        std::size_t written) {
  close();
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) throw_errno("cannot open", path);
  path_ = path;
  written_ = written;
}

void FramedLog::create(const std::string& path, std::string_view header) {
  open_fd(path, O_CREAT | O_TRUNC | O_WRONLY, 0);
  pending_.assign(header);
}

void FramedLog::open_append(const std::string& path, std::size_t valid_bytes) {
  open_fd(path, O_WRONLY, valid_bytes);
  struct stat st {};
  if (::fstat(fd_, &st) != 0) throw_errno("cannot stat", path);
  if (static_cast<std::size_t>(st.st_size) > valid_bytes) {
    if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0) {
      throw_errno("cannot truncate torn tail of", path);
    }
    sync();
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) throw_errno("cannot seek", path);
}

FramedLog::~FramedLog() { close(); }

void FramedLog::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  pending_.clear();
}

void FramedLog::append(std::uint8_t kind, std::string_view payload) {
  if (payload.size() > kMaxPayload) {
    throw JournalError("refusing to frame a " + std::to_string(payload.size()) +
                       "-byte record for " + path_);
  }
  const std::uint32_t crc =
      crc_update(crc_update(kCrcInit, &kind, 1), payload.data(),
                 payload.size()) ^
      kCrcInit;
  RecordWriter head;
  head.u32(static_cast<std::uint32_t>(payload.size()));
  head.u32(crc);
  head.u8(kind);
  pending_.append(head.buf());
  pending_.append(payload);
}

void FramedLog::flush() {
  std::size_t off = 0;
  while (off < pending_.size()) {
    const ssize_t n =
        ::write(fd_, pending_.data() + off, pending_.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write failed for", path_);
    }
    off += static_cast<std::size_t>(n);
  }
  written_ += pending_.size();
  pending_.clear();
}

void FramedLog::sync() {
  if (::fdatasync(fd_) != 0) throw_errno("fdatasync failed for", path_);
}

void FramedLog::sync_directory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_errno("cannot open directory", dir);
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) throw_errno("fsync failed for directory", dir, err);
}

}  // namespace ppat::journal
