// Fundamental vocabulary types shared across the library.
#pragma once

#include <cstdint>
#include <vector>

namespace mpciot {

/// Identifier of a node in the network. Node ids are dense, 0-based.
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

/// Simulated time in microseconds. Signed so durations subtract safely.
using SimTime = std::int64_t;

/// Tick helpers (SimTime counts microseconds).
inline constexpr SimTime kMillisecond = 1000;
inline constexpr SimTime kSecond = 1000 * 1000;

/// Raw byte buffer used for packets/ciphertexts.
using Bytes = std::vector<std::uint8_t>;

}  // namespace mpciot
