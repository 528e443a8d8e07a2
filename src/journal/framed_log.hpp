// The CRC-framed append log under both on-disk formats of this library: the
// segments of a RunJournal (journal.hpp) and the RevealLedger
// (reveal_ledger.hpp). A file is a format-specific header followed by
// frames
//
//   u32 payload_len | u32 crc32(kind + payload) | u8 kind | payload
//
// all little-endian (common/byte_codec.hpp). FramedLog owns everything
// about the frame: encoding it, scanning a file for the valid prefix,
// writing through to the fd, syncing, and cutting a torn tail. The two
// formats differ only in their headers and record payloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/byte_codec.hpp"

namespace ppat::journal {

/// Base class for all journal failures (I/O, format, mismatch).
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC32 (reflected, poly 0xEDB88320; zlib-compatible). Guards every journal
/// and ledger record frame against torn writes and bit rot.
std::uint32_t crc32(const void* data, std::size_t len);

/// Record payload codec for both file formats: u64 string/vector lengths.
/// A truncated field or an oversized count inside a CRC-valid record is a
/// writer bug or format skew, not a torn tail, so it throws JournalError.
using RecordWriter = common::ByteWriter<std::uint64_t, std::string>;
using RecordReader = common::ByteReader<JournalError, std::uint64_t>;

/// One append-only framed file. Not thread-safe; RunJournal serializes
/// access under its own mutex and the ledger is single-threaded.
class FramedLog {
 public:
  static constexpr std::size_t kFrameBytes = 4 + 4 + 1;  // len, crc, kind
  /// Sanity bound on one payload; a larger length prefix is corruption.
  static constexpr std::uint32_t kMaxPayload = 256u << 20;

  /// Where a scan stopped.
  struct Scan {
    /// Bytes covered by the header and every intact frame.
    std::size_t valid_bytes = 0;
    /// Why the scan stopped before the end of the data; empty when clean.
    std::string note;
    bool torn() const { return !note.empty(); }
  };
  /// Walks the frames that follow a `header_bytes` header in `data` and
  /// calls `on_frame(kind, payload)` for each intact one. Stops at the first
  /// short frame, short payload or CRC mismatch; everything from there on is
  /// untrusted. Exceptions from `on_frame` propagate.
  static Scan scan(
      std::string_view data, std::size_t header_bytes,
      const std::function<void(std::uint8_t, std::string_view)>& on_frame);

  /// A whole file's bytes, or nullopt when it cannot be opened.
  static std::optional<std::string> read_file(const std::string& path);

  FramedLog() = default;
  FramedLog(const FramedLog&) = delete;
  FramedLog& operator=(const FramedLog&) = delete;
  /// Closes the fd. Buffered bytes are dropped: owners flush first.
  ~FramedLog();

  /// Creates (or empties) `path` and appends to it from now on; `header` is
  /// buffered until the first flush. Closes the file open before, if any.
  void create(const std::string& path, std::string_view header);
  /// Appends to `path` after its first `valid_bytes`, first cutting and
  /// syncing anything past them (a torn tail). Closes the file open before.
  void open_append(const std::string& path, std::size_t valid_bytes);

  /// Buffers one frame.
  void append(std::uint8_t kind, std::string_view payload);
  /// Writes the buffered bytes through to the file. A write() to the page
  /// cache survives SIGKILL and OOM-kill; only sync() survives power loss.
  void flush();
  /// fdatasync; throws JournalError when the data may not be durable.
  void sync();
  void close();

  bool is_open() const { return fd_ >= 0; }
  /// File size once the buffer is flushed.
  std::size_t size() const { return written_ + pending_.size(); }

  /// fsyncs a directory so a rename or unlink in it is durable.
  static void sync_directory(const std::string& dir);

 private:
  void open_fd(const std::string& path, int flags, std::size_t written);

  int fd_ = -1;
  std::string path_;
  std::size_t written_ = 0;
  std::string pending_;
};

}  // namespace ppat::journal
