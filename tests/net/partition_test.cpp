// Partition invariants for the hierarchical-aggregation substrate:
// every node lands in exactly one group, every group's usable-link
// subgraph is connected, and the clustering is deterministic.
#include "net/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/assert.hpp"
#include "net/testbeds.hpp"

namespace mpciot::net::partition {
namespace {

void expect_invariants(const Topology& topo, const Partition& p,
                       std::uint32_t target_groups) {
  EXPECT_LE(p.size(), target_groups);
  EXPECT_GE(p.size(), 1u);
  // validate() throws on any broken invariant; run it and also re-check
  // the exact-cover property directly.
  validate(topo, p);
  std::set<NodeId> seen;
  for (const auto& members : p.groups) {
    EXPECT_GE(members.size(), 2u);
    for (const NodeId m : members) {
      EXPECT_TRUE(seen.insert(m).second) << "node in two groups: " << m;
    }
  }
  EXPECT_EQ(seen.size(), topo.size());
}

TEST(Partition, GridBlocksInvariantsOnGrids) {
  for (const auto& [rows, cols] :
       {std::pair{4u, 4u}, std::pair{8u, 8u}, std::pair{8u, 16u}}) {
    const Topology topo = testbeds::grid(rows, cols, 12.0, 99);
    for (const std::uint32_t g : {1u, 2u, 4u, 8u}) {
      expect_invariants(topo, grid_blocks(topo, g), g);
    }
  }
}

TEST(Partition, InvariantsOnIrregularTestbeds) {
  for (const Topology& topo : {testbeds::flocklab(), testbeds::dcube()}) {
    for (const std::uint32_t g : {2u, 4u}) {
      expect_invariants(topo, grid_blocks(topo, g), g);
    }
  }
}

TEST(Partition, SingleGroupIsTheWholeNetwork) {
  const Topology topo = testbeds::grid(4, 4, 12.0, 1);
  const Partition p = grid_blocks(topo, 1);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.groups[0].size(), topo.size());
}

TEST(Partition, Deterministic) {
  const Topology topo = testbeds::grid(8, 8, 12.0, 7);
  const Partition a = grid_blocks(topo, 4);
  const Partition b = grid_blocks(topo, 4);
  EXPECT_EQ(a.groups, b.groups);
}

TEST(Partition, GridBlocksAreSpatiallyCoherent) {
  // On a clean 8x8 grid split into 4 blocks, group-mates should mostly
  // be mutual spatial neighbours: each group's bounding box must not
  // span the whole deployment.
  const Topology topo = testbeds::grid(8, 8, 12.0, 3);
  const Partition p = grid_blocks(topo, 4);
  for (const auto& members : p.groups) {
    double min_x = 1e18;
    double max_x = -1e18;
    double min_y = 1e18;
    double max_y = -1e18;
    for (const NodeId m : members) {
      min_x = std::min(min_x, topo.position(m).x);
      max_x = std::max(max_x, topo.position(m).x);
      min_y = std::min(min_y, topo.position(m).y);
      max_y = std::max(max_y, topo.position(m).y);
    }
    EXPECT_LT((max_x - min_x) * (max_y - min_y),
              0.5 * 7 * 12.0 * 7 * 12.0);
  }
}

TEST(Partition, SubgraphConnectedDetectsSplitSets) {
  // Line of 5: {0,1} connected, {0,2} not (node 1 missing bridges them).
  RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  std::vector<Position> pos;
  for (int i = 0; i < 5; ++i) pos.push_back(Position{i * 15.0, 0.0});
  const Topology topo(std::move(pos), radio, 1);
  EXPECT_TRUE(subgraph_connected(topo, {0, 1}));
  EXPECT_TRUE(subgraph_connected(topo, {1, 2, 3}));
  EXPECT_FALSE(subgraph_connected(topo, {0, 2}));
  EXPECT_FALSE(subgraph_connected(topo, {0, 1, 3, 4}));
  EXPECT_TRUE(subgraph_connected(topo, {2}));
}

TEST(Partition, ValidateRejectsBrokenPartitions) {
  const Topology topo = testbeds::grid(4, 4, 12.0, 1);
  Partition p = grid_blocks(topo, 4);
  // Claim a node into two groups.
  Partition dup = p;
  dup.groups[0].push_back(dup.groups[1][0]);
  std::sort(dup.groups[0].begin(), dup.groups[0].end());
  EXPECT_THROW(validate(topo, dup), ContractViolation);
  // Drop a node entirely.
  Partition missing = p;
  missing.groups[0].erase(missing.groups[0].begin());
  EXPECT_THROW(validate(topo, missing), ContractViolation);
}

TEST(Partition, TooManyGroupsViolatesContract) {
  const Topology topo = testbeds::grid(2, 2, 12.0, 1);
  EXPECT_THROW(grid_blocks(topo, 3), ContractViolation);
}

}  // namespace
}  // namespace mpciot::net::partition
