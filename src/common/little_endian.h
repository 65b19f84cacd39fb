// Little-endian byte packing shared by every binary format the repository
// writes: .scdt traces, checkpoint frames, wire frames, and the engine state
// stream. Each format fixes its byte order so a file or packet written on one
// host reads back identically on any other.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace scd::common {

/// Writes `v` at `p`, least-significant byte first.
template <std::unsigned_integral T>
void store_le(std::uint8_t* p, T v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

/// Reads a `T` stored least-significant byte first at `p`.
template <std::unsigned_integral T>
[[nodiscard]] T load_le(const std::uint8_t* p) noexcept {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(p[i]) << (8 * i)));
    }
  }
  return v;
}

/// Appends little-endian fields to a byte buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u32(std::uint32_t v) { append(v); }
  void u64(std::uint64_t v) { append(v); }
  void f64(double v) { append(std::bit_cast<std::uint64_t>(v)); }

 private:
  template <std::unsigned_integral T>
  void append(T v) {
    std::uint8_t bytes[sizeof(T)];
    store_le(bytes, v);
    out_.insert(out_.end(), bytes, bytes + sizeof(T));
  }

  std::vector<std::uint8_t>& out_;
};

/// Bounded little-endian cursor over a byte buffer. A read past the end
/// throws `Error(kTruncated, "<context> ends mid-field")`, so every codec
/// built on it reports a cut-off input with its own typed error.
template <typename Error, auto kTruncated>
class ByteReader {
 public:
  /// `context` names the stream in error messages; it must outlive the
  /// reader (a string literal).
  ByteReader(std::span<const std::uint8_t> bytes, const char* context)
      : bytes_(bytes), context_(context) {}

  [[nodiscard]] std::uint64_t u64() {
    return load_le<std::uint64_t>(take(sizeof(std::uint64_t)).data());
  }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  /// The next `n` bytes, consumed.
  [[nodiscard]] std::span<const std::uint8_t> take(std::size_t n) {
    if (remaining() < n) {
      throw Error(kTruncated, std::string(context_) + " ends mid-field");
    }
    const std::span<const std::uint8_t> out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  const char* context_;
  std::size_t pos_ = 0;
};

}  // namespace scd::common
