#include "net/partition.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "common/assert.hpp"

namespace mpciot::net::partition {

namespace {

constexpr std::uint32_t kUnassigned = 0xFFFFFFFFu;

/// Links usable in *both* directions. PRR is directional (receiver-side
/// noise penalties), and group connectivity must survive a BFS from the
/// group's smallest member in whatever direction the edges happen to
/// run — growing only across bidirectionally usable links makes every
/// group's spanning tree traversable either way. With receiver-penalty
/// asymmetry, any inbound-usable link is also outbound-usable, so this
/// never strands a node the Topology connectivity contract admits.
bool usable_both_ways(const Topology& topo, NodeId a, NodeId b) {
  return topo.has_link(a, b) && topo.has_link(b, a);
}

/// Grow groups from per-group seed sets: multi-source BFS over
/// bidirectionally usable links, processed one layer at a time in
/// ascending node order, so every node attaches to the group that
/// reaches it first (ties: the lower-id claimant of the previous
/// layer). Each attachment follows a two-way link into its group, so
/// every grown group stays connected in both edge directions.
/// Precondition: `assignment` marks the (non-empty, internally
/// connected) seed sets; the parent topology is connected, so the BFS
/// reaches every node.
void grow_groups(const Topology& topo, std::vector<std::uint32_t>& assignment) {
  const std::size_t n = topo.size();
  std::vector<NodeId> frontier;
  for (NodeId i = 0; i < n; ++i) {
    if (assignment[i] != kUnassigned) frontier.push_back(i);
  }
  std::vector<NodeId> next;
  while (!frontier.empty()) {
    next.clear();
    for (const NodeId at : frontier) {
      for (const NodeId nb : topo.neighbors(at)) {
        if (assignment[nb] != kUnassigned) continue;
        if (!usable_both_ways(topo, at, nb)) continue;
        assignment[nb] = assignment[at];
        next.push_back(nb);
      }
    }
    std::sort(next.begin(), next.end());
    frontier = next;
  }
  for (NodeId i = 0; i < n; ++i) {
    MPCIOT_ENSURE(assignment[i] != kUnassigned,
                  "partition: connected topology must be fully reachable "
                  "over two-way usable links");
  }
}

/// Connected components of the subgraph induced by one group's current
/// assignment; returns component index per node (kUnassigned outside the
/// group), components numbered in order of their smallest node id.
std::vector<std::uint32_t> group_components(
    const Topology& topo, const std::vector<std::uint32_t>& assignment,
    std::uint32_t group, std::uint32_t& component_count) {
  const std::size_t n = topo.size();
  std::vector<std::uint32_t> comp(n, kUnassigned);
  component_count = 0;
  for (NodeId start = 0; start < n; ++start) {
    if (assignment[start] != group || comp[start] != kUnassigned) continue;
    const std::uint32_t c = component_count++;
    comp[start] = c;
    std::deque<NodeId> queue{start};
    while (!queue.empty()) {
      const NodeId cur = queue.front();
      queue.pop_front();
      for (const NodeId nb : topo.neighbors(cur)) {
        if (assignment[nb] == group && comp[nb] == kUnassigned &&
            usable_both_ways(topo, cur, nb)) {
          comp[nb] = c;
          queue.push_back(nb);
        }
      }
    }
  }
  return comp;
}

/// Keep, per group, only the component containing the group's seed node
/// (fallback: the component of the group's smallest id); release every
/// other member back to kUnassigned for regrowth.
void keep_anchored_components(const Topology& topo,
                              std::vector<std::uint32_t>& assignment,
                              std::uint32_t num_groups,
                              const std::vector<NodeId>& seed_of_group) {
  const std::size_t n = topo.size();
  for (std::uint32_t g = 0; g < num_groups; ++g) {
    std::uint32_t components = 0;
    const std::vector<std::uint32_t> comp =
        group_components(topo, assignment, g, components);
    if (components <= 1) continue;
    const std::uint32_t keep = comp[seed_of_group[g]];
    for (NodeId i = 0; i < n; ++i) {
      if (assignment[i] == g && comp[i] != keep) assignment[i] = kUnassigned;
    }
  }
}

Partition finalize(const Topology& topo, std::vector<std::uint32_t> assignment,
                   std::uint32_t num_groups, std::uint32_t min_group_size) {
  const std::size_t n = topo.size();

  // Merge undersized groups into the neighbouring group they are best
  // linked to; merging along a usable link preserves connectivity on
  // both sides. Iterate until every surviving group is large enough.
  std::vector<std::size_t> group_size(num_groups, 0);
  for (NodeId i = 0; i < n; ++i) ++group_size[assignment[i]];
  for (;;) {
    std::uint32_t small = kUnassigned;
    for (std::uint32_t g = 0; g < num_groups; ++g) {
      if (group_size[g] > 0 && group_size[g] < min_group_size) {
        small = g;
        break;
      }
    }
    if (small == kUnassigned) break;
    double best_prr = -1.0;
    std::uint32_t target = kUnassigned;
    for (NodeId i = 0; i < n; ++i) {
      if (assignment[i] != small) continue;
      for (const NodeId nb : topo.neighbors(i)) {
        if (assignment[nb] == small) continue;
        if (!usable_both_ways(topo, i, nb)) continue;
        const double p = topo.prr(i, nb);
        if (p > best_prr) {
          best_prr = p;
          target = assignment[nb];
        }
      }
    }
    MPCIOT_ENSURE(target != kUnassigned,
                  "partition: undersized group has no outside link");
    for (NodeId i = 0; i < n; ++i) {
      if (assignment[i] == small) assignment[i] = target;
    }
    group_size[target] += group_size[small];
    group_size[small] = 0;
  }

  // Compact group indices (drop empty groups, keep relative order).
  std::vector<std::uint32_t> remap(num_groups, kUnassigned);
  std::uint32_t compact = 0;
  for (std::uint32_t g = 0; g < num_groups; ++g) {
    if (group_size[g] > 0) remap[g] = compact++;
  }

  Partition p;
  p.groups.resize(compact);
  p.group_of.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    const std::uint32_t g = remap[assignment[i]];
    p.group_of[i] = g;
    p.groups[g].push_back(i);  // ascending: i iterates in order
  }
  validate(topo, p);
  return p;
}

}  // namespace

Partition grid_blocks(const Topology& topo, std::uint32_t target_groups,
                      std::uint32_t min_group_size) {
  const std::size_t n = topo.size();
  MPCIOT_REQUIRE(target_groups >= 1, "grid_blocks: need at least one group");
  MPCIOT_REQUIRE(static_cast<std::size_t>(target_groups) * min_group_size <= n,
                 "grid_blocks: too many groups for the node count");

  double min_x = std::numeric_limits<double>::max();
  double max_x = std::numeric_limits<double>::lowest();
  double min_y = min_x;
  double max_y = max_x;
  for (NodeId i = 0; i < n; ++i) {
    const Position& pos = topo.position(i);
    min_x = std::min(min_x, pos.x);
    max_x = std::max(max_x, pos.x);
    min_y = std::min(min_y, pos.y);
    max_y = std::max(max_y, pos.y);
  }
  const double width = std::max(max_x - min_x, 1e-9);
  const double height = std::max(max_y - min_y, 1e-9);

  // Pick the block grid (rows x cols == target_groups) whose cells are
  // closest to square for this bounding box.
  std::uint32_t best_rows = 1;
  double best_badness = std::numeric_limits<double>::max();
  for (std::uint32_t rows = 1; rows <= target_groups; ++rows) {
    if (target_groups % rows != 0) continue;
    const std::uint32_t cols = target_groups / rows;
    const double cell_w = width / cols;
    const double cell_h = height / rows;
    const double badness = std::abs(std::log(cell_w / cell_h));
    if (badness < best_badness) {
      best_badness = badness;
      best_rows = rows;
    }
  }
  const std::uint32_t rows = best_rows;
  const std::uint32_t cols = target_groups / rows;

  const auto block_of = [&](NodeId i) {
    const Position& pos = topo.position(i);
    std::uint32_t c = static_cast<std::uint32_t>((pos.x - min_x) / width *
                                                 static_cast<double>(cols));
    std::uint32_t r = static_cast<std::uint32_t>((pos.y - min_y) / height *
                                                 static_cast<double>(rows));
    c = std::min(c, cols - 1);
    r = std::min(r, rows - 1);
    return r * cols + c;
  };

  std::vector<std::uint32_t> assignment(n);
  for (NodeId i = 0; i < n; ++i) assignment[i] = block_of(i);

  // Seed per block: the node closest to the block center (ties: lower
  // id). Empty blocks simply produce no group.
  std::vector<NodeId> seed(target_groups, kInvalidNode);
  std::vector<double> seed_dist(target_groups,
                                std::numeric_limits<double>::max());
  for (NodeId i = 0; i < n; ++i) {
    const std::uint32_t b = assignment[i];
    const double cx = min_x + (b % cols + 0.5) * width / cols;
    const double cy = min_y + (b / cols + 0.5) * height / rows;
    const double dx = topo.position(i).x - cx;
    const double dy = topo.position(i).y - cy;
    const double d2 = dx * dx + dy * dy;
    if (d2 < seed_dist[b]) {
      seed_dist[b] = d2;
      seed[b] = i;
    }
  }

  // A block's nodes need not induce a connected subgraph: keep each
  // block's seed-anchored component and regrow the strays over usable
  // links, which attaches every stray to a connected group.
  keep_anchored_components(topo, assignment, target_groups, seed);
  grow_groups(topo, assignment);
  return finalize(topo, std::move(assignment), target_groups, min_group_size);
}

Partition greedy_radius(const Topology& topo, std::uint32_t target_groups,
                        std::uint32_t min_group_size) {
  const std::size_t n = topo.size();
  MPCIOT_REQUIRE(target_groups >= 1, "greedy_radius: need at least one group");
  MPCIOT_REQUIRE(static_cast<std::size_t>(target_groups) * min_group_size <= n,
                 "greedy_radius: too many groups for the node count");

  // Farthest-point sampling on good-link hop distance: start from the
  // network center, then repeatedly add the node farthest from every
  // chosen seed (ties: lower id; good-link-unreachable counts as
  // farthest, so isolated pockets get their own seed first).
  std::vector<NodeId> seeds{topo.center_node()};
  std::vector<std::uint64_t> dist(n, 0);
  // Whole rows via hops_from: each seed costs one BFS instead of n
  // point queries.
  const auto hop_or_max = [](const std::uint32_t* row, NodeId b) {
    const std::uint32_t h = row[b];
    return h == Topology::kInvalidHops ? std::uint64_t{1} << 32
                                       : std::uint64_t{h};
  };
  const std::uint32_t* row = topo.hops_from(seeds[0]);
  for (NodeId i = 0; i < n; ++i) dist[i] = hop_or_max(row, i);
  while (seeds.size() < target_groups) {
    NodeId far = 0;
    for (NodeId i = 1; i < n; ++i) {
      if (dist[i] > dist[far]) far = i;
    }
    seeds.push_back(far);
    row = topo.hops_from(far);
    for (NodeId i = 0; i < n; ++i) {
      dist[i] = std::min(dist[i], hop_or_max(row, i));
    }
  }

  std::vector<std::uint32_t> assignment(n, kUnassigned);
  for (std::uint32_t g = 0; g < seeds.size(); ++g) assignment[seeds[g]] = g;
  grow_groups(topo, assignment);
  return finalize(topo, std::move(assignment), target_groups, min_group_size);
}

bool subgraph_connected(const Topology& topo,
                        const std::vector<NodeId>& members) {
  if (members.size() <= 1) return true;
  std::vector<char> in_set(topo.size(), 0);
  for (const NodeId m : members) {
    MPCIOT_REQUIRE(m < topo.size(), "subgraph_connected: id out of range");
    in_set[m] = 1;
  }
  std::vector<char> seen(topo.size(), 0);
  std::deque<NodeId> queue{members[0]};
  seen[members[0]] = 1;
  std::size_t reached = 1;
  while (!queue.empty()) {
    const NodeId cur = queue.front();
    queue.pop_front();
    for (const NodeId nb : topo.neighbors(cur)) {
      if (in_set[nb] && !seen[nb]) {
        seen[nb] = 1;
        ++reached;
        queue.push_back(nb);
      }
    }
  }
  return reached == members.size();
}

void validate(const Topology& topo, const Partition& p) {
  const std::size_t n = topo.size();
  MPCIOT_REQUIRE(p.group_of.size() == n,
                 "partition: group_of must cover every node");
  std::size_t total = 0;
  for (std::uint32_t g = 0; g < p.groups.size(); ++g) {
    const std::vector<NodeId>& members = p.groups[g];
    MPCIOT_REQUIRE(!members.empty(), "partition: empty group");
    total += members.size();
    for (std::size_t i = 0; i < members.size(); ++i) {
      MPCIOT_REQUIRE(members[i] < n, "partition: member id out of range");
      MPCIOT_REQUIRE(i == 0 || members[i - 1] < members[i],
                     "partition: group members must be ascending and unique");
      MPCIOT_REQUIRE(p.group_of[members[i]] == g,
                     "partition: group_of disagrees with groups");
    }
    MPCIOT_REQUIRE(subgraph_connected(topo, members),
                   "partition: group subgraph is not connected");
  }
  MPCIOT_REQUIRE(total == n, "partition: groups must cover every node once");
}

}  // namespace mpciot::net::partition
