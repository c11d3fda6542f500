// The one byte codec. Every wire format, derived key and DRBG draw in
// the project turns integers into bytes (and back) through these
// functions, so byte order is decided here and nowhere else. They work
// by explicit shifts, never by a memcpy of a host integer, so every
// host writes and reads the same bytes. Little-endian is the wire
// order (core::wire packets, rt frames and messages, seed-derived
// keys, DRBG words); big-endian is used where a cryptographic layout
// fixes it (AES-CTR nonces, KDF labels, the DRBG personalization,
// Feldman commitments).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace mpciot {

/// Write `v` to p[0, sizeof v), least significant byte first.
template <std::unsigned_integral T>
constexpr void store_le(std::uint8_t* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Read a T from p[0, sizeof(T)), least significant byte first.
template <std::unsigned_integral T>
constexpr T load_le(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
  }
  return v;
}

/// Write `v` to p[0, sizeof v), most significant byte first.
template <std::unsigned_integral T>
constexpr void store_be(std::uint8_t* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[sizeof(T) - 1 - i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Read a T from p[0, sizeof(T)), most significant byte first.
template <std::unsigned_integral T>
constexpr T load_be(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(
        v | (static_cast<T>(p[sizeof(T) - 1 - i]) << (8 * i)));
  }
  return v;
}

/// Append `v` to `out` little-endian.
template <std::unsigned_integral T>
void append_le(Bytes& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  store_le(out.data() + at, v);
}

/// Bounded cursor over received bytes. Every read fails (returning false
/// and leaving its output untouched) once one has overrun, so a decoder
/// may chain reads and check once.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& b) : data_(b.data()), size_(b.size()) {}
  explicit ByteReader(const Bytes&&) = delete;  // would dangle

  /// Read one little-endian T.
  template <std::unsigned_integral T>
  bool le(T& out) {
    if (!advance(sizeof(T))) return false;
    out = load_le<T>(data_ + pos_ - sizeof(T));
    return true;
  }

  /// Copy the next `n` bytes into `out` (resized to n).
  bool raw(std::size_t n, Bytes& out) {
    if (!advance(n)) return false;
    out.assign(data_ + pos_ - n, data_ + pos_);
    return true;
  }

  /// True iff every byte was consumed and nothing overran: decoders
  /// require this so trailing bytes are rejected, not ignored.
  bool exhausted() const { return !failed_ && pos_ == size_; }
  std::size_t remaining() const { return failed_ ? 0 : size_ - pos_; }

 private:
  bool advance(std::size_t n) {
    if (failed_ || size_ - pos_ < n) {
      failed_ = true;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace mpciot
