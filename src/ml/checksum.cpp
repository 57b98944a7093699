#include "ml/checksum.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace mfpa::ml {

std::string checksum_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buf, 16);
}

std::uint64_t parse_checksum_hex(const std::string& hex) {
  if (hex.size() != 16) {
    throw std::runtime_error("checksum: expected 16 hex digits, got '" + hex +
                             "'");
  }
  std::uint64_t value = 0;
  for (const char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      throw std::runtime_error("checksum: bad hex digit in '" + hex + "'");
    }
  }
  return value;
}

std::string seal_header(std::string_view tag, int version,
                        std::size_t payload_bytes, std::uint64_t digest) {
  std::string header(tag);
  header += ' ' + std::to_string(version) + ' ' +
            std::to_string(payload_bytes) + ' ' + checksum_hex(digest) + '\n';
  return header;
}

std::string seal(std::string_view tag, int version, std::string_view payload) {
  std::string sealed =
      seal_header(tag, version, payload.size(), fnv1a(payload));
  sealed += payload;
  return sealed;
}

namespace {

/// The next space-separated field of `line` (all of it when no space is
/// left); `line` keeps what follows the space.
std::string_view next_field(std::string_view& line) {
  const std::size_t space = line.find(' ');
  const std::string_view field = line.substr(0, space);
  line = space == std::string_view::npos ? std::string_view{}
                                         : line.substr(space + 1);
  return field;
}

/// A header field for an error message, cut short in case it is binary.
std::string excerpt(std::string_view field) {
  constexpr std::size_t kMax = 40;
  return field.size() <= kMax ? std::string(field)
                              : std::string(field.substr(0, kMax)) + "...";
}

[[noreturn]] void refuse(std::string_view what, const std::string& why) {
  throw std::runtime_error(std::string(what) + ": " + why);
}

}  // namespace

std::string_view unseal(std::string_view bytes, std::string_view tag,
                        int version, std::string_view what,
                        std::uint64_t* digest) {
  const std::size_t nl = bytes.find('\n');
  if (nl == std::string_view::npos) {
    refuse(what, "no header line (expected " + std::string(tag) + ")");
  }
  const std::string_view line = bytes.substr(0, nl);
  std::string_view rest = line;
  const std::string_view found_tag = next_field(rest);
  if (found_tag != tag) {
    refuse(what, "expected a " + std::string(tag) + " header, found tag '" +
                     excerpt(found_tag) + "'");
  }
  const std::string_view found_version = next_field(rest);
  if (found_version != std::to_string(version)) {
    refuse(what, "unsupported " + std::string(tag) + " version " +
                     excerpt(found_version) + " (only version " +
                     std::to_string(version) + " loads)");
  }
  const std::string_view size_field = next_field(rest);
  std::size_t payload_bytes = 0;
  const auto [end, ec] = std::from_chars(
      size_field.data(), size_field.data() + size_field.size(), payload_bytes);
  std::uint64_t expected = 0;
  bool well_formed =
      ec == std::errc{} && end == size_field.data() + size_field.size();
  try {
    expected = parse_checksum_hex(std::string(rest));
  } catch (const std::runtime_error&) {
    well_formed = false;
  }
  // Byte-exact, so no flip inside the header parses back to the same values.
  if (!well_formed ||
      seal_header(tag, version, payload_bytes, expected) !=
          bytes.substr(0, nl + 1)) {
    refuse(what, "malformed header '" + excerpt(line) + "'");
  }
  const std::string_view payload = bytes.substr(nl + 1);
  if (payload.size() < payload_bytes) {
    refuse(what, "truncated: the header declares " +
                     std::to_string(payload_bytes) + " payload bytes, " +
                     std::to_string(payload.size()) + " follow");
  }
  if (payload.size() > payload_bytes) {
    refuse(what, std::to_string(payload.size() - payload_bytes) +
                     " trailing bytes after the " +
                     std::to_string(payload_bytes) + "-byte payload");
  }
  const std::uint64_t actual = fnv1a(payload);
  if (actual != expected) {
    refuse(what, "checksum mismatch: the header's digest is " +
                     checksum_hex(expected) + ", the payload hashes to " +
                     checksum_hex(actual));
  }
  if (digest != nullptr) *digest = actual;
  return payload;
}

}  // namespace mfpa::ml
