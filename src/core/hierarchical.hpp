// Hierarchical multi-group aggregation: the scaling layer over the
// paper's single-chain protocol.
//
// The flat protocol aggregates all n sources in one CT chain, which is
// O(n^2) chain entries and caps deployments at testbed scale. The
// hierarchical protocol shards the network into G spatially-clustered
// groups (net::partition), runs the SSS share+sum chain *inside each
// group* on the group's induced subtopology (net::Topology::induced), and
// lays the group rounds out on orthogonal radio channels: groups on
// distinct channels aggregate concurrently, groups sharing a channel are
// serialized (ct::ChannelTimeline). Group sums then travel up a
// recombination tree — pairwise merge rounds between group leaders over
// the full topology — to a global root, which floods the network-wide
// aggregate back to every node.
//
// Threshold semantics are the paper's, preserved *within each group*:
// every group round is a core::SssProtocol round with
// degree = paper_degree(sources) and an elected holder set, so
// compromising fewer than degree+1 holders of a group reveals nothing
// about that group's individual readings. Groups larger than the
// 64-source round limit are split into sequential batches on the same
// chain; a single group covering the whole network (G = 1) is exactly
// the flat baseline, batched.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "core/protocol.hpp"
#include "crypto/keystore.hpp"
#include "ct/transport.hpp"
#include "field/fp61.hpp"
#include "net/partition.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mpciot::core {

struct HierarchicalConfig {
  /// Spatial grouping of the whole topology (validated on construction).
  net::partition::Partition partition;
  /// Orthogonal radio channels available to the group phase. Group g
  /// runs on channel g % num_channels; same-channel groups serialize.
  std::uint16_t num_channels = 1;
  /// Sources per SSS round (the SumPacket contributor-bitmap width caps
  /// this at 64). Larger groups run ceil(size / max_batch) rounds.
  std::size_t max_batch = 64;
  /// Base NTX of the group rounds. A group whose subtopology is deeper
  /// than the base NTX covers runs at diameter/2 + 2 instead (the paper
  /// calibrates NTX per deployment; this is the cheap static stand-in —
  /// without it, wide groups leave too few holders with complete sums to
  /// reconstruct).
  ///
  /// Fixed at every level: group rounds run S4 (early radio-off,
  /// degree + 3 holders capped at the group size), the recombination and
  /// result floods run at NTX 4, chains and floods stop at 512 slots,
  /// and a failed batch round or recombination flood gets two more
  /// attempts with fresh channel randomness. Retries are charged to the
  /// group's channel time and everyone's radio-on — failure handling is
  /// paid for, not assumed away.
  std::uint32_t ntx_sharing = 6;
  std::uint32_t ntx_reconstruction = 6;
  /// Seeds the per-group keystores (pairwise keys are a deployment
  /// artifact, not per-trial randomness).
  std::uint64_t key_seed = 0x6B657973ull;
  /// Active-misbehaviour model. Attacker ids are PARENT ids: each group
  /// round maps the attackers among its members onto local ids, and the
  /// recombination/result floods are jammed over the full topology
  /// (kJamSlots). Byzantine *leaders* (misreporting a whole group sum)
  /// are out of scope — the threat model is member-level, matching the
  /// flat protocol's.
  AdversaryConfig adversary;
  /// Feldman VSS inside every group round (see ProtocolConfig).
  bool feldman_vss = false;
  /// Depth of the recursive group tree. 1 is the historic single level:
  /// every group runs its SSS batch rounds directly. At depth d > 1 a
  /// group with at least `min_nested_size` members becomes a *subtree*:
  /// a nested HierarchicalProtocol over the group's subtopology
  /// (partitioned into ~`fanout` subgroups by net::partition), running
  /// at depth d - 1. The nested round's own result flood hands the
  /// group aggregate to the group's deputies, and the parent level
  /// recombines group aggregates exactly as it always did — so the
  /// leader-tree recombination happens per level, and ChannelTimeline
  /// bookings / ChannelView epoch walks thread through every level on
  /// the shared trial clock.
  std::uint32_t depth = 1;
  /// Target subgroup count when a group nests (net::partition
  /// target_groups at each inner level).
  std::uint32_t fanout = 16;
  /// Groups smaller than this run their batch rounds directly even when
  /// depth allows nesting (a tiny subtree costs channel switches and
  /// recombination floods without relieving any chain).
  std::size_t min_nested_size = 256;
};

struct GroupOutcome {
  NodeId leader = kInvalidNode;  // parent node id
  std::uint16_t channel = 0;
  std::uint32_t batches = 0;
  /// Batch rounds re-run after a failed leader reconstruction.
  std::uint32_t retries = 0;
  /// Times the group switched to a fresh leader because the incumbent
  /// was churn-down when a round (re)started.
  std::uint32_t leader_reelections = 0;
  /// Leader reconstructed an aggregate in every batch round.
  bool has_sum = false;
  /// ... and every one equalled the sum of the group's secrets.
  bool sum_correct = false;
  field::Fp61 sum;
  /// Serialized on-channel time of this group's rounds.
  SimTime duration_us = 0;
  /// When the group's last round finished on the shared timeline.
  SimTime finish_us = 0;
};

struct HierarchicalResult {
  std::vector<GroupOutcome> groups;
  /// Sum of the secrets that actually entered the round: every source
  /// dealing in an accepted batch round. Without churn this is the sum
  /// over all nodes' secrets; under churn, sources down at their
  /// round's start are excluded (like SssProtocol's failed_nodes), so
  /// a consistent reduced aggregate still flags aggregate_correct.
  field::Fp61 expected_sum;
  /// The global root's aggregate (valid when has_aggregate).
  bool has_aggregate = false;
  field::Fp61 aggregate;
  /// Every group contributed and the total matches expected_sum.
  bool aggregate_correct = false;

  SimTime group_phase_us = 0;  // channel-timeline makespan
  SimTime recombine_us = 0;    // sum of recombination-level rounds
  SimTime flood_us = 0;        // result flood
  SimTime total_duration_us = 0;
  /// Absolute trial-clock bounds of the round. In the classic
  /// (non-pipelined) mode round_end_us - round_start_us equals
  /// total_duration_us; in a pipelined campaign the end can sit later
  /// when the shared flood lane is still draining a previous round.
  SimTime round_start_us = 0;
  SimTime round_end_us = 0;
  /// Leader hand-offs across all phases (group rounds + recombination +
  /// result flood) forced by churn-down leaders.
  std::uint32_t leader_reelections = 0;

  /// Byzantine bookkeeping summed over every group round run (retries
  /// included); all zero without an adversary and with VSS off.
  std::uint32_t shares_rejected = 0;
  std::uint32_t sums_rejected = 0;
  /// Per parent node: flagged as a cheater (share- or sum-level) by
  /// commitment verification in at least one group round.
  std::vector<char> cheater_nodes;

  /// Per parent node: radio-on time across every round the node took
  /// part in, and the time at which it first held the global aggregate.
  /// A node that never received it (has_result 0) is charged the full
  /// round duration, matching AggregationResult's latency convention.
  std::vector<SimTime> radio_on_us;
  std::vector<SimTime> latency_us;
  std::vector<char> has_result;

  /// Fraction of nodes holding the correct global aggregate.
  double success_ratio() const;
  SimTime max_latency_us() const;
  SimTime max_radio_on_us() const;
  double mean_radio_on_us() const;
};

/// Warm per-round state of the hierarchical engine, owned by a
/// core::Session. The flat RoundWorkspace inside is shared by every
/// group's batch rounds — each inner round re-initializes what it uses,
/// so one workspace serves any group shape.
struct HierWorkspace {
  RoundWorkspace flat;       // inner SSS batch rounds
  ct::RoundContext scratch;  // chain/flood engine scratch
  HierarchicalResult result;
  /// Channel timeline of a classic (non-pipelined) run; pipelined
  /// campaigns bring their own persistent timeline via RoundEnv.
  ct::ChannelTimeline local_timeline{1};
  std::vector<field::Fp61> batch_secrets;
  std::vector<std::vector<char>> deputies;
  ct::GlossyResult flood;         // recombination floods
  ct::GlossyResult result_flood;  // phase C
  /// Epoch-rotated per-group keystores, rebuilt once per key epoch
  /// (epoch 0 uses the construction keystores and leaves this empty).
  std::uint32_t cached_epoch = 0;
  std::vector<std::unique_ptr<crypto::KeyStore>> epoch_keys;
  /// Per-group nested workspaces (depth > 1 only): entry g is the warm
  /// state of group g's subtree and stays null for leaf groups.
  std::vector<std::unique_ptr<HierWorkspace>> nested;
};

class HierarchicalProtocol {
 public:
  /// Validates the partition against `topo` and precomputes the induced
  /// subtopologies, per-group keystores and per-batch round configs.
  /// `transport` selects the substrate every round runs on (null = the
  /// paper's MiniCast/Glossy substrate) and must outlive the protocol.
  HierarchicalProtocol(const net::Topology& topo, HierarchicalConfig config,
                       const ct::Transport* transport = nullptr);

  const HierarchicalConfig& config() const { return config_; }
  /// Group g's leader (parent node id): the most central node of the
  /// group's subtopology; it accumulates the group sum.
  NodeId group_leader(std::size_t g) const;
  std::size_t num_groups() const { return groups_.size(); }
  std::size_t group_size(std::size_t g) const;
  /// Largest per-group batch count. A Session clamps its epoch length so
  /// rounds_per_epoch * max_round_batches() fits the 16-bit wire-round
  /// window — inner round ids (round-in-epoch * batches + batch) must
  /// stay nonce-unique within an epoch.
  std::uint32_t max_round_batches() const;

 private:
  friend class Session;
  friend class Campaign;

  /// The engine: one hierarchical aggregation into `ws` (result
  /// returned by reference into ws.result). secrets[i] belongs to node
  /// i (every node is a source). Concurrent calls may share one
  /// protocol instance as long as each uses its own Simulator and
  /// workspace.
  ///
  /// Group rounds are placed on the trial clock at their
  /// channel-timeline offsets, the parent churn schedule in `env` is
  /// mapped onto each group's local ids, and a churn-down leader is
  /// replaced before a round or recombination flood runs: group rounds
  /// re-elect the most central up member; recombination and the result
  /// flood re-elect among the *deputies* of a partial sum — the nodes
  /// that provably hold the same value (reconstructed every batch, or
  /// heard the merging floods). A partial whose holders are all down is
  /// lost for the round, exactly like an exhausted retry.
  ///
  /// A null env.timeline is the classic single round; a Session
  /// timeline switches the group phase and the recombination/result
  /// floods to absolute channel bookings that overlap across campaign
  /// rounds.
  const HierarchicalResult& run_round(const std::vector<field::Fp61>& secrets,
                                      sim::Simulator& sim, const RoundEnv& env,
                                      HierWorkspace& ws) const;
  struct Group {
    std::vector<NodeId> members;          // parent ids, ascending
    std::unique_ptr<net::Topology> owned; // null when members == whole topo
    const net::Topology* sub = nullptr;   // induced subtopology (or parent)
    std::unique_ptr<crypto::KeyStore> keys;
    std::vector<SssProtocol> batch_rounds;  // local-id configs
    /// Non-null when this group is a subtree (depth > 1 and the group
    /// is large enough): a full hierarchical protocol over `sub`, one
    /// level shallower. batch_rounds/keys stay empty then — the subtree
    /// runs its own groups, recombination and result flood.
    std::unique_ptr<HierarchicalProtocol> nested;
    NodeId leader_local = 0;
    NodeId leader = 0;  // parent id
    std::uint16_t channel = 0;
  };

  const net::Topology* topo_;
  HierarchicalConfig config_;
  const ct::Transport* transport_;
  std::vector<Group> groups_;
};

}  // namespace mpciot::core
