// Hex encoding/decoding helpers, used by the tests' known-answer vectors
// (FIPS/RFC crypto vectors and pinned wire bytes).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mpciot {

/// Encode bytes as lowercase hex ("deadbeef").
std::string to_hex(std::span<const std::uint8_t> bytes);

/// Decode a hex string (case-insensitive, optional whitespace between byte
/// pairs). Throws ContractViolation on malformed input.
std::vector<std::uint8_t> from_hex(std::string_view hex);

}  // namespace mpciot
