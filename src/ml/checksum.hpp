// Content checksums and the sealed-file codec. Serialized models travel
// from the training fleet to the serving tier (and onward to client agents)
// through object stores and flaky links, and checkpoints sit on disks that
// crash mid-write; a truncated or bit-flipped file must be rejected at load
// time, not discovered as silently wrong scores. FNV-1a is enough: the
// threat model is corruption, not an adversary.
//
// Every sealed file (classifier blocks, model artifacts, checkpoints) is one
// header line followed by the payload it covers:
//
//   <tag> <version> <payload bytes> <16 lowercase hex FNV-1a of payload>\n
//
// seal() writes it; unseal() is its only reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mfpa::ml {

inline constexpr std::uint64_t kFnv1aOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// FNV-1a 64-bit over a byte range; pass a previous digest to chain blocks.
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t seed = kFnv1aOffset) noexcept {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

/// Fixed-width (16 digit) lowercase hex rendering of a digest.
std::string checksum_hex(std::uint64_t digest);

/// Parses checksum_hex output; throws std::runtime_error on malformed input.
std::uint64_t parse_checksum_hex(const std::string& hex);

/// The header line of a sealed file, for writers that emit header and
/// payload as two parts. The digest is always 16 digits, so the header's
/// length is known before the payload is hashed.
std::string seal_header(std::string_view tag, int version,
                        std::size_t payload_bytes, std::uint64_t digest);

/// A sealed file: the header over `payload`'s size and digest, then
/// `payload`.
std::string seal(std::string_view tag, int version, std::string_view payload);

/// The payload of a sealed file (a view into `bytes`). Throws
/// std::runtime_error naming `what` when, checked in this order, there is
/// no header line, the tag is not `tag`, the version is not `version`, the
/// header is not byte for byte what seal_header writes for the values in
/// it, the payload is truncated or followed by trailing bytes, or it fails
/// its digest ("checksum mismatch"). `digest`, when given, receives the
/// payload's digest.
std::string_view unseal(std::string_view bytes, std::string_view tag,
                        int version, std::string_view what,
                        std::uint64_t* digest = nullptr);

}  // namespace mfpa::ml
