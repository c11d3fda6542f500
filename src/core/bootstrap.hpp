// Bootstrapping phase (§II/§III of the paper).
//
// Before any aggregation round, the deployment runs a one-time setup
// that (per the paper) distributes pairwise keys and learns "which
// neighbour is reachable at what NTX value". The scalable variant needs
// two things from it, and this library derives each directly:
//   * the m share-holder ("collector") nodes every source will address —
//     the nodes closest in hops to all sources, i.e. the ones everyone
//     reaches at low NTX, so the trimmed sharing phase still delivers
//     every share (the set must be common to all sources: a holder's sum
//     is a point of the sum polynomial only if every source evaluated
//     its polynomial at that holder's point);
//   * a calibrated NTX for any delivery requirement (used to pick the
//     full-coverage NTX of naive S3 honestly, instead of hard-coding it).
// The round initiator, the most central node, is Topology::center_node.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "crypto/prng.hpp"
#include "ct/minicast.hpp"
#include "ct/transport.hpp"
#include "net/topology.hpp"

namespace mpciot::core {

/// Pick `count` share-holder nodes: the nodes with the smallest total
/// hop distance to all sources (ties by node id). This is the
/// deterministic equivalent of "the nodes everyone reaches at low NTX".
std::vector<NodeId> elect_share_holders(const net::Topology& topo,
                                        const std::vector<NodeId>& sources,
                                        std::size_t count);

/// Find the smallest NTX in [1, max_ntx] such that a sharing round over
/// `entries` reaches `required_ratio` of the per-node done-predicates in
/// every one of `trials` trials. Returns max_ntx if none suffices.
/// `transport` selects the substrate calibrated; null means the paper's
/// MiniCast substrate.
struct NtxCalibration {
  std::uint32_t ntx = 0;
  bool satisfied = false;
};
NtxCalibration calibrate_ntx(const net::Topology& topo,
                             const std::vector<ct::ChainEntry>& entries,
                             const ct::MiniCastConfig& base_config,
                             double required_done_ratio, std::uint32_t trials,
                             std::uint32_t max_ntx, crypto::Xoshiro256& rng,
                             const ct::Transport* transport = nullptr);

}  // namespace mpciot::core
