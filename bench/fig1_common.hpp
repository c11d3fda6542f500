// Shared helpers for the Fig. 1 scenarios (bench/scenarios/
// scenario_fig1.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace mpciot::bench {

/// Pick `count` source nodes spread evenly over the id space (matches
/// "different number of source nodes" with spatial diversity).
inline std::vector<NodeId> spread_sources(std::size_t network,
                                          std::size_t count) {
  std::vector<NodeId> out;
  out.reserve(count);
  if (count >= network) {
    for (NodeId i = 0; i < network; ++i) out.push_back(i);
    return out;
  }
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<NodeId>(i * (network - 1) /
                                      (count > 1 ? count - 1 : 1)));
  }
  // De-duplicate collisions from rounding by linear probing.
  std::vector<char> used(network, 0);
  for (NodeId& n : out) {
    while (used[n]) n = (n + 1) % static_cast<NodeId>(network);
    used[n] = 1;
  }
  return out;
}

}  // namespace mpciot::bench
