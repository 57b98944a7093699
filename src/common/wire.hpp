// Little-endian fixed-width byte packing shared by every binary format in
// the tree: the WAL / alert-log frames (serve/wal), the durable store image
// inside each checkpoint (serve/drive_state_store), and the network
// ingestion protocol (net/protocol). The durable formats are host-local
// (written and recovered on the same machine) and the wire format is
// loopback-first, but pinning the byte order keeps each framing
// well-defined, portable across mixed client/server builds, and lets tests
// craft exact corruption.
//
// Writers append to a std::string (cheap, append-only, reusable buffer).
// On a little-endian host every value moves as one word (one append, one
// memcpy); the byte loops are the big-endian path, and both produce the
// same bytes. ByteReader walks a payload with bounds checks and throws
// std::runtime_error naming the caller's context on a short or overlong
// payload — the shared "refuse, don't misparse" discipline.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

namespace mfpa::wire {

inline void put_u8(std::string& buf, std::uint8_t v) {
  buf.push_back(static_cast<char>(v));
}

namespace detail {

/// Appends `v`'s little-endian bytes: on a little-endian host, one append of
/// the value's own bytes; elsewhere, a byte loop.
template <typename T>
inline void put_le(std::string& buf, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
}

/// Reads `n` little-endian bytes (n <= 8) at `bytes` into the low bytes of
/// a u64: one memcpy on a little-endian host, a byte loop elsewhere.
inline std::uint64_t read_le(const char* bytes, std::size_t n) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, bytes, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]))
           << (8 * i);
    }
  }
  return v;
}

}  // namespace detail

inline void put_u16(std::string& buf, std::uint16_t v) {
  detail::put_le(buf, v);
}

inline void put_u32(std::string& buf, std::uint32_t v) {
  detail::put_le(buf, v);
}

inline void put_u64(std::string& buf, std::uint64_t v) {
  detail::put_le(buf, v);
}

inline void put_i32(std::string& buf, std::int32_t v) {
  put_u32(buf, static_cast<std::uint32_t>(v));
}

inline void put_f32(std::string& buf, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(buf, bits);
}

inline void put_f64(std::string& buf, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(buf, bits);
}

/// Reads fixed-width little-endian values at an arbitrary byte offset
/// (no bounds check — the caller has already sized the buffer).
inline std::uint32_t read_u32_at(const char* bytes, std::size_t off) {
  return static_cast<std::uint32_t>(detail::read_le(bytes + off, 4));
}

inline std::uint64_t read_u64_at(const char* bytes, std::size_t off) {
  return detail::read_le(bytes + off, 8);
}

/// Sequential bounds-checked reader over one payload. `what` names the
/// payload kind in diagnostics ("wal record", "net frame", ...).
class ByteReader {
 public:
  ByteReader(const std::string& bytes, const char* what)
      : bytes_(bytes), what_(what) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(u(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(u(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(u(4)); }
  std::uint64_t u64() { return u(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// A u8 flag that must be 0 or 1.
  bool flag() {
    const std::uint8_t v = u8();
    if (v > 1) {
      throw std::runtime_error(std::string(what_) + ": bad flag byte");
    }
    return v != 0;
  }

  /// The next `n` bytes, checked against the payload before allocating.
  std::string bytes(std::size_t n) {
    if (n > remaining()) {
      throw std::runtime_error(std::string(what_) + ": short payload");
    }
    std::string out = bytes_.substr(off_, n);
    off_ += n;
    return out;
  }

  /// A u32 element count or byte length, refused above `limit` so the
  /// caller never sizes an allocation from an unchecked field.
  std::size_t count(std::size_t limit) {
    const std::uint32_t n = u32();
    if (n > limit) {
      throw std::runtime_error(std::string(what_) + ": count " +
                               std::to_string(n) + " over limit " +
                               std::to_string(limit));
    }
    return n;
  }

  std::size_t remaining() const noexcept { return bytes_.size() - off_; }

  void expect_done() const {
    if (off_ != bytes_.size()) {
      throw std::runtime_error(std::string(what_) + ": trailing payload bytes");
    }
  }

 private:
  std::uint64_t u(int n) {
    if (off_ + static_cast<std::size_t>(n) > bytes_.size()) {
      throw std::runtime_error(std::string(what_) + ": short payload");
    }
    const std::uint64_t v =
        detail::read_le(bytes_.data() + off_, static_cast<std::size_t>(n));
    off_ += static_cast<std::size_t>(n);
    return v;
  }

  const std::string& bytes_;
  const char* what_;
  std::size_t off_ = 0;
};

}  // namespace mfpa::wire
