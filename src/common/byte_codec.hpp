// Little-endian byte codec shared by every binary format in the library:
// run-journal segments and the reveal ledger (src/journal/) and the socket
// wire protocol (src/server/wire.hpp).
//
// Integers are little-endian, an f64 is its IEEE-754 bit pattern as a u64,
// and strings and vectors carry an element count ahead of their data. The
// count's width is the format's `Len` (std::uint32_t on the wire,
// std::uint64_t on disk). The reader is bounds-checked and throws the
// format's own `Error` type, so a corrupt or truncated payload surfaces as
// that format's documented exception; element counts are checked against
// the bytes left before anything is allocated.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ppat::common {

/// Appends little-endian fields to a byte buffer (`Buf` is std::string or
/// std::vector<std::uint8_t>).
template <class Len, class Buf>
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<Byte>(v)); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const Byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  /// An element count, `Len` bytes wide.
  void count(std::size_t n) { put(n, sizeof(Len)); }
  void str(std::string_view s) {
    count(s.size());
    bytes(s.data(), s.size());
  }
  void u64_vec(const std::vector<std::uint64_t>& v) {
    count(v.size());
    for (std::uint64_t x : v) u64(x);
  }
  void f64_vec(std::span<const double> v) {
    count(v.size());
    for (double x : v) f64(x);
  }

  Buf& buf() { return buf_; }
  Buf take() { return std::move(buf_); }

 private:
  using Byte = typename Buf::value_type;
  void put(std::uint64_t v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      buf_.push_back(static_cast<Byte>((v >> (8 * i)) & 0xFFu));
    }
  }
  Buf buf_;
};

/// Bounds-checked little-endian reader over a borrowed byte range.
template <class Error, class Len>
class ByteReader {
 public:
  ByteReader(const void* data, std::size_t size)
      : data_(static_cast<const unsigned char*>(data)), size_(size) {}
  explicit ByteReader(std::span<const std::uint8_t> bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(get(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
  std::uint64_t u64() { return get(8); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string bytes(std::size_t n) {
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  /// Reads a `Len`-wide element count and checks that that many elements of
  /// at least `min_elem_bytes` (>= 1) each fit in the bytes left, so the
  /// caller may allocate for it.
  std::size_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = get(sizeof(Len));
    if (n > remaining() / min_elem_bytes) {
      throw Error("payload element count " + std::to_string(n) +
                  " exceeds the " + std::to_string(remaining()) +
                  " bytes left");
    }
    return static_cast<std::size_t>(n);
  }
  std::string str() { return bytes(count(1)); }
  std::vector<std::uint64_t> u64_vec() {
    std::vector<std::uint64_t> v(count(8));
    for (auto& x : v) x = u64();
    return v;
  }
  std::vector<double> f64_vec() {
    std::vector<double> v(count(8));
    for (auto& x : v) x = f64();
    return v;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::uint64_t n) const {
    if (n > remaining()) {
      throw Error("truncated payload: need " + std::to_string(n) +
                  " bytes, have " + std::to_string(remaining()));
    }
  }
  std::uint64_t get(std::size_t n) {
    need(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += n;
    return v;
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace ppat::common
