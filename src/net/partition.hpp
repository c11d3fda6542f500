// Spatial partitioning of a Topology into connected groups — the
// substrate of hierarchical multi-group aggregation (one CT chain per
// group on its own channel, group sums recombined up a tree).
//
// One clustering, deterministic for a given topology: grid_blocks tiles
// the deployment's bounding box into roughly square blocks, seeds one
// group per occupied block, and grows the groups over usable links so
// every group is connected even when a block's nodes are not (RF holes,
// jittered placements). It guarantees the partition invariants checked
// by validate(): every node in exactly one group, every group at least
// min_group_size nodes, every group's induced usable-link subgraph
// connected.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "net/topology.hpp"

namespace mpciot::net::partition {

struct Partition {
  /// Non-empty groups; members ascending within each group.
  std::vector<std::vector<NodeId>> groups;
  /// node -> index into `groups`.
  std::vector<std::uint32_t> group_of;

  std::size_t size() const { return groups.size(); }
};

/// Grid-block clustering. `target_groups` is an upper bound: blocks left
/// empty by the placement, or groups merged up to reach
/// `min_group_size`, can reduce the count.
Partition grid_blocks(const Topology& topo, std::uint32_t target_groups,
                      std::uint32_t min_group_size = 2);

/// True iff the subgraph induced by `members` (over usable links,
/// prr >= link_floor_prr) is connected. Empty/singleton member sets are
/// trivially connected.
bool subgraph_connected(const Topology& topo,
                        const std::vector<NodeId>& members);

/// Check the partition invariants (exact cover, group_of consistency,
/// min size 1, per-group connectivity); throws ContractViolation on the
/// first violation.
void validate(const Topology& topo, const Partition& p);

}  // namespace mpciot::net::partition
