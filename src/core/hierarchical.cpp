#include "core/hierarchical.hpp"

#include <algorithm>
#include <optional>

#include "common/assert.hpp"
#include "core/bootstrap.hpp"
#include "core/wire.hpp"
#include "crypto/prng.hpp"

namespace mpciot::core {

namespace {

/// derive_seed stream tags of the hierarchical round.
constexpr std::uint64_t kStreamGroupSim = 0x47525053ull;   // group-phase sims
constexpr std::uint64_t kStreamKeystore = 0x474B4559ull;   // per-group keys
constexpr std::uint64_t kStreamJamFlood = 0x41445648ull;   // flood jammers
constexpr std::uint64_t kStreamNestedKeys = 0x4E4B4559ull; // subtree keys
constexpr std::uint64_t kStreamNested = 0x4E455354ull;     // subtree sims

/// The fixed knobs of every level (see HierarchicalConfig): NTX of the
/// recombination and result floods, holders beyond degree+1 per group
/// round, S4's early radio-off in group rounds, and extra attempts of a
/// failed batch round or flood. Floods share the engines' slot cap,
/// kMaxChainSlots.
constexpr std::uint32_t kFloodNtx = 4;
constexpr std::size_t kHolderSlack = 2;
constexpr bool kEarlyRadioOff = true;
constexpr std::uint32_t kMaxRetries = 2;

/// Churn schedule of an induced subtopology: local ids looked up in the
/// parent schedule. (Group rounds run on the trial clock, so times pass
/// through unchanged.)
class MappedLiveness final : public net::LivenessModel {
 public:
  MappedLiveness(const net::LivenessModel* base,
                 const std::vector<NodeId>* members)
      : base_(base), members_(members) {}
  bool is_down(NodeId local, SimTime t) const override {
    return base_->is_down((*members_)[local], t);
  }

 private:
  const net::LivenessModel* base_;
  const std::vector<NodeId>* members_;
};

/// Split `count` sources into balanced batches (sizes differ by at
/// most one) of at most ~max_batch each. The batch count is capped at
/// count/2 so no batch degenerates below the 2-source minimum an SSS
/// round needs — a degree-1 round over a single source would hand that
/// node's individual reading to the leader. The cap can only exceed
/// max_batch for toy values (max_batch < 4), never near the 64-source
/// SumPacket limit.
std::vector<std::pair<std::size_t, std::size_t>> batch_ranges(
    std::size_t count, std::size_t max_batch) {
  const std::size_t batches = std::max<std::size_t>(
      1, std::min((count + max_batch - 1) / max_batch, count / 2));
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ranges.reserve(batches);
  std::size_t begin = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t size = count / batches + (b < count % batches ? 1 : 0);
    ranges.emplace_back(begin, begin + size);
    begin += size;
  }
  return ranges;
}

/// The attackers among `members` (parent ids), as local ids.
std::vector<NodeId> local_attackers(const std::vector<NodeId>& attackers,
                                    const std::vector<NodeId>& members) {
  std::vector<NodeId> local;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (std::find(attackers.begin(), attackers.end(), members[i]) !=
        attackers.end()) {
      local.push_back(static_cast<NodeId>(i));
    }
  }
  return local;
}

/// Hand `leader` to the eligible node nearest to `target` by good-link
/// hops, ties to the lower id, and count a change in `reelections`.
/// No-op when no node is eligible.
template <typename Eligible>
void hand_off_to_nearest(const net::Topology& topo, NodeId target,
                         Eligible&& eligible, NodeId& leader,
                         std::uint32_t& reelections) {
  NodeId best = kInvalidNode;
  std::uint32_t best_h = net::Topology::kInvalidHops;
  for (NodeId m = 0; m < topo.size(); ++m) {
    if (!eligible(m)) continue;
    const std::uint32_t h = topo.hops(m, target);
    if (h < best_h || (h == best_h && m < best)) {
      best_h = h;
      best = m;
    }
  }
  if (best != kInvalidNode && best != leader) {
    leader = best;
    ++reelections;
  }
}

}  // namespace

double HierarchicalResult::success_ratio() const {
  if (has_result.empty()) return 0.0;
  std::size_t ok = 0;
  for (const char h : has_result) {
    if (h != 0) ++ok;
  }
  if (!aggregate_correct) return 0.0;
  return static_cast<double>(ok) / static_cast<double>(has_result.size());
}

SimTime HierarchicalResult::max_latency_us() const {
  SimTime best = 0;
  for (const SimTime t : latency_us) best = std::max(best, t);
  return best;
}

SimTime HierarchicalResult::max_radio_on_us() const {
  SimTime best = 0;
  for (const SimTime t : radio_on_us) best = std::max(best, t);
  return best;
}

double HierarchicalResult::mean_radio_on_us() const {
  if (radio_on_us.empty()) return 0.0;
  double total = 0.0;
  for (const SimTime t : radio_on_us) total += static_cast<double>(t);
  return total / static_cast<double>(radio_on_us.size());
}

HierarchicalProtocol::HierarchicalProtocol(const net::Topology& topo,
                                           HierarchicalConfig config,
                                           const ct::Transport* transport)
    : topo_(&topo),
      config_(std::move(config)),
      transport_(transport != nullptr ? transport
                                      : &ct::minicast_transport()) {
  MPCIOT_REQUIRE(config_.num_channels >= 1,
                 "hierarchical: need at least one channel");
  MPCIOT_REQUIRE(config_.max_batch >= 2 && config_.max_batch <= 64,
                 "hierarchical: max_batch must be in [2, 64]");
  for (const NodeId a : config_.adversary.attackers) {
    MPCIOT_REQUIRE(a < topo.size(),
                   "hierarchical: attacker id out of range");
  }
  net::partition::validate(topo, config_.partition);

  const std::size_t num_groups = config_.partition.groups.size();
  groups_.reserve(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    Group group;
    group.members = config_.partition.groups[g];
    group.channel = static_cast<std::uint16_t>(g % config_.num_channels);
    MPCIOT_REQUIRE(group.members.size() >= 2,
                   "hierarchical: groups must have at least 2 members");
    if (group.members.size() == topo.size()) {
      group.sub = &topo;  // G = 1: the flat baseline, no copy needed
    } else {
      group.owned = std::make_unique<net::Topology>(
          net::Topology::induced(topo, group.members));
      group.sub = group.owned.get();
    }
    group.leader_local = group.sub->center_node();
    group.leader = group.members[group.leader_local];

    // Deep groups become subtrees: a full hierarchical protocol over
    // the group's subtopology, one level shallower, with its own
    // partition, keystores (independent seed stream) and adversary
    // mapping. Its result flood plays the role the batch rounds play in
    // a leaf group — it leaves the group aggregate with the members
    // that heard it, and the parent recombines as usual.
    std::vector<NodeId> attackers =
        local_attackers(config_.adversary.attackers, group.members);
    if (config_.depth > 1 &&
        group.members.size() >= config_.min_nested_size) {
      HierarchicalConfig ncfg = config_;
      ncfg.partition = net::partition::grid_blocks(*group.sub,
                                                   config_.fanout);
      ncfg.key_seed =
          crypto::derive_seed(config_.key_seed, kStreamNestedKeys, g);
      ncfg.depth = config_.depth - 1;
      ncfg.adversary.attackers = std::move(attackers);
      group.nested = std::make_unique<HierarchicalProtocol>(
          *group.sub, std::move(ncfg), transport_);
      groups_.push_back(std::move(group));
      continue;
    }

    // Leaf groups run flat SSS rounds whose packets carry u16 local
    // ids; a bigger group must nest (raise depth, or lower
    // min_nested_size) rather than truncate ids on the wire.
    MPCIOT_REQUIRE(group.members.size() <= 0x10000,
                   "hierarchical: leaf group exceeds the u16 wire id "
                   "range; increase depth or fanout");
    group.keys = std::make_unique<crypto::KeyStore>(
        crypto::derive_seed(config_.key_seed, kStreamKeystore, g),
        static_cast<std::uint32_t>(group.members.size()));

    const auto ranges = batch_ranges(group.members.size(), config_.max_batch);
    for (std::size_t b = 0; b < ranges.size(); ++b) {
      ProtocolConfig cfg;
      for (std::size_t i = ranges[b].first; i < ranges[b].second; ++i) {
        cfg.sources.push_back(static_cast<NodeId>(i));  // local ids
      }
      cfg.degree = paper_degree(cfg.sources.size());
      const std::size_t holders = std::min(
          cfg.degree + 1 + kHolderSlack, group.members.size());
      cfg.share_holders =
          elect_share_holders(*group.sub, cfg.sources, holders);
      const std::uint32_t depth_ntx = group.sub->diameter() / 2 + 2;
      cfg.ntx_sharing = std::max(config_.ntx_sharing, depth_ntx);
      cfg.ntx_reconstruction =
          std::max(config_.ntx_reconstruction, depth_ntx);
      cfg.round = static_cast<std::uint32_t>(b);
      cfg.initiator = group.leader_local;
      cfg.early_radio_off = kEarlyRadioOff;
      // The group's attackers as local ids: the group round then
      // tampers/verifies/jams exactly like the flat protocol on its
      // subtopology.
      cfg.adversary = config_.adversary;
      cfg.adversary.attackers = attackers;
      cfg.feldman_vss = config_.feldman_vss;
      group.batch_rounds.emplace_back(*group.sub, *group.keys,
                                      std::move(cfg), transport_);
    }
    groups_.push_back(std::move(group));
  }
}

NodeId HierarchicalProtocol::group_leader(std::size_t g) const {
  MPCIOT_REQUIRE(g < groups_.size(), "hierarchical: group index out of range");
  return groups_[g].leader;
}

std::size_t HierarchicalProtocol::group_size(std::size_t g) const {
  MPCIOT_REQUIRE(g < groups_.size(), "hierarchical: group index out of range");
  return groups_[g].members.size();
}

std::uint32_t HierarchicalProtocol::max_round_batches() const {
  // The round-in-epoch id passes through subtree levels unchanged (the
  // flattening r * batches + b happens per level), so the 16-bit wire
  // window is governed by the largest batch count anywhere in the tree.
  std::size_t best = 1;
  for (const Group& group : groups_) {
    best = std::max(best,
                    group.nested != nullptr
                        ? static_cast<std::size_t>(
                              group.nested->max_round_batches())
                        : group.batch_rounds.size());
  }
  return static_cast<std::uint32_t>(best);
}

const HierarchicalResult& HierarchicalProtocol::run_round(
    const std::vector<field::Fp61>& secrets, sim::Simulator& sim,
    const RoundEnv& env, HierWorkspace& ws) const {
  const std::size_t n = topo_->size();
  MPCIOT_REQUIRE(secrets.size() == n,
                 "hierarchical: one secret per node required");

  // Session round/epoch ids. env.round is the round index *within* the
  // key epoch (kept small enough that inner batch rounds stay inside
  // the 16-bit wire window); epoch 0, round 0 is the historic
  // single-shot round bit for bit.
  const std::uint32_t r_in_epoch =
      env.round == RoundEnv::kInheritRound ? 0 : env.round;
  const std::uint32_t epoch = env.key_epoch;

  // Epoch-rotated per-group keystores, rebuilt when the epoch changes
  // (amortized: once per epoch, not per round). Epoch 0 keeps the
  // construction keystores.
  if (epoch != 0 && (ws.epoch_keys.empty() || ws.cached_epoch != epoch)) {
    ws.epoch_keys.clear();
    ws.epoch_keys.reserve(groups_.size());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      ws.epoch_keys.push_back(std::make_unique<crypto::KeyStore>(
          crypto::derive_seed(
              config_.key_seed, kStreamKeystore,
              g | (static_cast<std::uint64_t>(epoch) << 32)),
          static_cast<std::uint32_t>(groups_[g].members.size())));
    }
    ws.cached_epoch = epoch;
  }

  // The result is warm workspace: every field is re-initialized here.
  HierarchicalResult& result = ws.result;
  result.groups.assign(groups_.size(), GroupOutcome{});
  result.expected_sum = field::Fp61{};
  result.has_aggregate = false;
  result.aggregate = field::Fp61{};
  result.aggregate_correct = false;
  result.group_phase_us = 0;
  result.recombine_us = 0;
  result.flood_us = 0;
  result.total_duration_us = 0;
  result.round_start_us = env.start_time_us;
  result.round_end_us = env.start_time_us;
  result.leader_reelections = 0;
  result.shares_rejected = 0;
  result.sums_rejected = 0;
  result.radio_on_us.assign(n, 0);
  result.latency_us.assign(n, 0);
  result.has_result.assign(n, 0);
  result.cheater_nodes.assign(n, 0);

  // kJamSlots: the recombination and result floods run over the full
  // topology, so they get a parent-id jammer decoration; group rounds
  // jam themselves through their local adversary configs.
  std::optional<JammerChannel> flood_jammer;
  const net::ChannelModel* flood_channel = env.channel_model;
  if (config_.adversary.active() &&
      config_.adversary.kind == AttackKind::kJamSlots) {
    flood_jammer.emplace(
        env.channel_model, config_.adversary.attackers,
        crypto::derive_seed(config_.adversary.seed, kStreamJamFlood,
                            sim.seed()),
        config_.adversary.jam_duty, config_.adversary.jam_epoch_us);
    flood_channel = &*flood_jammer;
  }
  // expected_sum accumulates from the accepted batch rounds below: a
  // source that is churn-down at its round's start never deals and is
  // excluded (matching SssProtocol's failed_nodes semantics), so a
  // reduced-but-consistent aggregate still counts as correct. In the
  // static world every batch is accepted on attempt 0 with every
  // source dealing, so this equals the sum over all nodes' secrets.

  // ---- Phase A: per-group SSS rounds on orthogonal channels ----
  //
  // Each group draws its channel randomness from an independent stream
  // derived from the trial seed, so results do not depend on the (host)
  // order the groups are simulated in — they are concurrent in simulated
  // time whenever their channels differ.
  //
  // Classic mode books on a per-round local timeline starting at t=0;
  // a pipelined campaign hands in a persistent timeline whose channel
  // ends are absolute trial-clock times carried over from earlier
  // rounds, so this round's group phase starts the moment each channel
  // frees up — possibly while the previous round's recombination floods
  // are still draining on the dedicated flood lane.
  ct::ChannelTimeline* const ext = env.timeline;
  const bool pipelined = ext != nullptr;
  if (pipelined) {
    MPCIOT_REQUIRE(ext->num_channels() > config_.num_channels,
                   "hierarchical: a campaign timeline needs a flood lane "
                   "beyond the group channels");
  } else {
    ws.local_timeline.resize(config_.num_channels);
  }
  ct::ChannelTimeline& timeline = pipelined ? *ext : ws.local_timeline;
  // One scratch context for the whole trial: every group round and
  // recombination/result flood reuses its buffers, and with a channel
  // model its view keeps one epoch walk per topology (each group's and
  // the root's), so every round continues each topology's walk where
  // the last one on it stopped instead of replaying the dynamics chain
  // from epoch 0. The topologies are this protocol's own, so they
  // outlive the scratch's rounds.
  ct::RoundContext* const trial_scratch =
      env.scratch != nullptr ? env.scratch : &ws.scratch;
  // Deputies per group: members that reconstructed every accepted batch
  // round with the leader's value — under churn they are the nodes a
  // dead leader's duties can hand off to, because they provably hold
  // the same partial sum.
  ws.deputies.resize(groups_.size());
  // When this round's last group finishes (absolute trial clock).
  SimTime groups_end_abs = env.start_time_us;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const Group& group = groups_[g];
    GroupOutcome& out = result.groups[g];
    out.channel = group.channel;
    out.batches = static_cast<std::uint32_t>(group.batch_rounds.size());
    out.has_sum = true;
    out.sum_correct = true;

    // This group's rounds start when its channel frees up; booking after
    // the fact returns the same offset because groups book in order.
    const SimTime ch_start_abs =
        pipelined
            ? std::max(timeline.channel_end_us(group.channel),
                       env.start_time_us)
            : env.start_time_us + timeline.channel_end_us(group.channel);
    const std::optional<MappedLiveness> mapped =
        env.liveness != nullptr
            ? std::optional<MappedLiveness>(
                  std::in_place, env.liveness, &group.members)
            : std::nullopt;

    NodeId lead_local = group.leader_local;
    std::vector<char>& deputies = ws.deputies[g];
    deputies.assign(group.members.size(), 1);

    // Group channel randomness: the historic per-group stream for
    // (epoch 0, round 0); later campaign rounds fold the round id (and,
    // past the first rotation, the epoch) in so no round replays
    // another's fading.
    std::uint64_t group_seed = crypto::derive_seed(
        sim.seed(), kStreamGroupSim,
        g + (static_cast<std::uint64_t>(r_in_epoch) << 32));
    if (epoch != 0) {
      group_seed = crypto::derive_seed(group_seed, kStreamGroupSim, epoch);
    }

    // Subtree group: one nested hierarchical round stands in for the
    // batch rounds (batch_rounds is empty, so the loop below no-ops).
    // The subtree runs in classic mode on the trial clock — its own
    // group phases, recombination floods and result flood are booked on
    // its private timeline and land inside this group's channel
    // booking, so every level threads through the shared clock.
    if (group.nested != nullptr) {
      out.batches =
          static_cast<std::uint32_t>(group.nested->num_groups());
      if (ws.nested.size() != groups_.size()) {
        ws.nested.resize(groups_.size());
      }
      if (ws.nested[g] == nullptr) {
        ws.nested[g] = std::make_unique<HierWorkspace>();
      }
      std::vector<field::Fp61>& sub_secrets = ws.batch_secrets;
      sub_secrets.clear();
      sub_secrets.reserve(group.members.size());
      for (const NodeId m : group.members) {
        sub_secrets.push_back(secrets[m]);
      }
      bool sub_ok = false;
      for (std::uint32_t attempt = 0;
           attempt <= kMaxRetries && !sub_ok; ++attempt) {
        if (attempt > 0) ++out.retries;
        const SimTime t0 = ch_start_abs + out.duration_us;
        sim::Simulator nested_sim(
            crypto::derive_seed(group_seed, kStreamNested, attempt));
        RoundEnv nenv;
        nenv.start_time_us = t0;
        nenv.channel_model = env.channel_model;
        nenv.liveness = mapped.has_value() ? &*mapped : nullptr;
        nenv.scratch = trial_scratch;
        nenv.round = r_in_epoch;
        nenv.key_epoch = epoch;
        const HierarchicalResult& nres = group.nested->run_round(
            sub_secrets, nested_sim, nenv, *ws.nested[g]);
        out.duration_us += nres.total_duration_us;
        for (std::size_t local = 0; local < group.members.size();
             ++local) {
          result.radio_on_us[group.members[local]] +=
              nres.radio_on_us[local];
          if (nres.cheater_nodes[local] != 0) {
            result.cheater_nodes[group.members[local]] = 1;
          }
        }
        result.shares_rejected += nres.shares_rejected;
        result.sums_rejected += nres.sums_rejected;
        out.leader_reelections += nres.leader_reelections;
        if (!nres.has_aggregate) continue;
        sub_ok = true;
        out.sum += nres.aggregate;
        result.expected_sum += nres.expected_sum;
        if (!nres.aggregate_correct) out.sum_correct = false;
        // Members that heard the subtree's result flood hold the group
        // aggregate — they are this group's deputies, and the group
        // leader must be one of them so the recombination flood above
        // this level carries the right value.
        for (std::size_t local = 0; local < group.members.size();
             ++local) {
          deputies[local] = nres.has_result[local];
        }
        if (nres.has_result[lead_local] == 0) {
          hand_off_to_nearest(
              *group.sub, group.sub->center_node(),
              [&](NodeId m) { return nres.has_result[m] != 0; }, lead_local,
              out.leader_reelections);
        }
      }
      if (!sub_ok) {
        out.has_sum = false;
        out.sum_correct = false;
      }
    }
    sim::Simulator group_sim(group_seed);
    for (std::size_t b = 0; b < group.batch_rounds.size(); ++b) {
      const SssProtocol& round = group.batch_rounds[b];
      std::vector<field::Fp61>& batch_secrets = ws.batch_secrets;
      batch_secrets.clear();
      batch_secrets.reserve(round.config().sources.size());
      for (const NodeId local : round.config().sources) {
        batch_secrets.push_back(secrets[group.members[local]]);
      }
      // The leader knows when it failed to reconstruct; a real
      // deployment re-runs the round, so we do too (bounded).
      bool leader_ok = false;
      for (std::uint32_t attempt = 0;
           attempt <= kMaxRetries && !leader_ok; ++attempt) {
        if (attempt > 0) ++out.retries;
        const SimTime t0 = ch_start_abs + out.duration_us;
        // A leader that is churn-down when the round would start cannot
        // run it: hand off to the most central member that is up.
        if (env.liveness != nullptr &&
            env.liveness->is_down(group.members[lead_local], t0)) {
          hand_off_to_nearest(
              *group.sub, group.sub->center_node(),
              [&](NodeId m) {
                return !env.liveness->is_down(group.members[m], t0);
              },
              lead_local, out.leader_reelections);
        }
        // Re-elected leaders run the same round config from their own
        // position; the SssProtocol is rebuilt only on a hand-off.
        const SssProtocol* round_to_run = &round;
        std::optional<SssProtocol> handed_off;
        if (lead_local != round.config().initiator) {
          ProtocolConfig cfg = round.config();
          cfg.initiator = lead_local;
          handed_off.emplace(*group.sub, *group.keys, std::move(cfg),
                             transport_);
          round_to_run = &*handed_off;
        }
        RoundEnv round_env;
        round_env.start_time_us = t0;
        round_env.channel_model = env.channel_model;
        round_env.liveness = mapped.has_value() ? &*mapped : nullptr;
        round_env.scratch = trial_scratch;
        // Inner round id: (round-in-epoch, batch) flattened. Equals the
        // constructed cfg.round = b for the historic single-shot case,
        // and stays nonce-unique within an epoch because the Session
        // clamps rounds_per_epoch * batches to the 16-bit window.
        round_env.round =
            r_in_epoch * static_cast<std::uint32_t>(
                             group.batch_rounds.size()) +
            static_cast<std::uint32_t>(b);
        round_env.key_epoch = epoch;
        round_env.keys = epoch == 0 ? nullptr : ws.epoch_keys[g].get();
        const AggregationResult& r =
            round_to_run->run_round(batch_secrets, group_sim, round_env,
                                    ws.flat);
        out.duration_us += r.total_duration_us;
        for (std::size_t local = 0; local < group.members.size(); ++local) {
          result.radio_on_us[group.members[local]] +=
              r.nodes[local].radio_on_us;
        }
        // Cheater bookkeeping, mapped back to parent ids.
        result.shares_rejected += r.shares_rejected;
        result.sums_rejected += r.sums_rejected;
        const ProtocolConfig& rcfg = round_to_run->config();
        for (std::size_t s = 0; s < rcfg.sources.size(); ++s) {
          if ((r.cheater_sources_mask >> s) & 1) {
            result.cheater_nodes[group.members[rcfg.sources[s]]] = 1;
          }
        }
        for (std::size_t h = 0; h < rcfg.share_holders.size(); ++h) {
          if ((r.cheater_holders_mask >> h) & 1) {
            result.cheater_nodes[group.members[rcfg.share_holders[h]]] = 1;
          }
        }
        const NodeOutcome& leader = r.nodes[lead_local];
        if (!leader.has_aggregate) continue;
        leader_ok = true;
        out.sum += leader.aggregate;
        // Expected covers what the leader's aggregate claims (detected
        // cheaters excluded); whether that claim suffices is
        // aggregate_correct's job. Honest rounds: the leader is correct
        // iff its mask is exactly the dealing sources, so this equals
        // the old "sum over dealing sources" accumulation whenever the
        // verdict below accepts.
        for (std::size_t s = 0; s < batch_secrets.size(); ++s) {
          if ((leader.contributor_mask >> s) & 1) {
            result.expected_sum += batch_secrets[s];
          }
        }
        if (!leader.aggregate_correct) out.sum_correct = false;
        for (std::size_t local = 0; local < group.members.size(); ++local) {
          if (!r.nodes[local].has_aggregate ||
              !(r.nodes[local].aggregate == leader.aggregate)) {
            deputies[local] = 0;
          }
        }
      }
      if (!leader_ok) {
        out.has_sum = false;
        out.sum_correct = false;
      }
    }
    out.leader = group.members[lead_local];
    result.leader_reelections += out.leader_reelections;
    // Classic mode books from t=0 (finish_us relative to the round
    // start); pipelined mode books at the absolute channel start, so
    // finish_us lands on the trial clock.
    const SimTime start = timeline.book(group.channel, out.duration_us,
                                        pipelined ? env.start_time_us : 0);
    out.finish_us = start + out.duration_us;
    groups_end_abs = std::max(groups_end_abs, ch_start_abs + out.duration_us);
  }
  result.group_phase_us = groups_end_abs - env.start_time_us;

  // ---- Phase B: recombination tree over group leaders ----
  //
  // Pair the surviving partial sums level by level; in each level the
  // non-surviving leader of every pair floods its partial over the
  // *full* topology (a single-origin Glossy flood reaches any diameter
  // at low NTX, which a many-origin chain round does not), and the
  // surviving leader — the one closer to the network center — absorbs
  // it. ceil(log2 G) levels bring everything to the global root. The
  // floods share one channel, so a level costs the sum of its floods;
  // that cost is tiny next to a group round (one 21-byte packet per
  // flood vs thousands of chain sub-slots).
  struct Partial {
    NodeId leader;
    field::Fp61 sum;
    bool complete;  // every contributing group's sum was correct
    std::vector<char> holders;  // nodes provably holding this sum
  };
  // Recombination and the result flood run on one lane. Classic mode:
  // right after the group phase. Pipelined mode: the dedicated flood
  // channel beyond the group channels, which may still be draining the
  // previous round's floods — the group phases of consecutive rounds
  // overlap with it, the floods themselves serialize.
  const std::uint16_t flood_ch = config_.num_channels;
  const SimTime flood_base_abs =
      pipelined ? std::max(timeline.channel_end_us(flood_ch), groups_end_abs)
                : groups_end_abs;

  std::vector<Partial> active;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const GroupOutcome& out = result.groups[g];
    if (!out.has_sum) continue;
    Partial p{out.leader, out.sum, out.sum_correct,
              std::vector<char>(n, 0)};
    for (std::size_t local = 0; local < groups_[g].members.size(); ++local) {
      if (ws.deputies[g][local] != 0) {
        p.holders[groups_[g].members[local]] = 1;
      }
    }
    p.holders[out.leader] = 1;
    active.push_back(std::move(p));
  }
  bool all_groups_in = active.size() == result.groups.size();

  const auto closer_to_center = [&](NodeId a, NodeId b) {
    const std::uint32_t ha = topo_->hops(a, topo_->center_node());
    const std::uint32_t hb = topo_->hops(b, topo_->center_node());
    return ha != hb ? ha < hb : a < b;
  };

  // Hand a partial to its most central up deputy when its leader is
  // churn-down at time `t` (no-op without churn, or when nobody
  // qualifies — the flood then runs from the dead leader and fails,
  // which the retry/loss accounting already covers).
  const auto reelect_holder = [&](Partial& p, SimTime t) {
    if (env.liveness == nullptr || !env.liveness->is_down(p.leader, t)) {
      return;
    }
    hand_off_to_nearest(
        *topo_, topo_->center_node(),
        [&](NodeId i) {
          return p.holders[i] != 0 && !env.liveness->is_down(i, t);
        },
        p.leader, result.leader_reelections);
  };

  while (active.size() > 1) {
    std::vector<Partial> next;
    for (std::size_t i = 0; i + 1 < active.size(); i += 2) {
      Partial& a = active[i];
      Partial& b = active[i + 1];
      const bool a_survives = closer_to_center(a.leader, b.leader);
      Partial& surv = a_survives ? a : b;
      Partial& sender = a_survives ? b : a;

      ct::GlossyConfig fcfg;
      fcfg.ntx = kFloodNtx;
      fcfg.payload_bytes = SumPacket::kWireSize;
      fcfg.max_slots = kMaxChainSlots;
      fcfg.channel_model = flood_channel;
      fcfg.liveness = env.liveness;
      bool delivered = false;
      ct::GlossyResult& flood = ws.flood;
      for (std::uint32_t attempt = 0;
           attempt <= kMaxRetries && !delivered; ++attempt) {
        // Recombination floods share one channel after the group phase;
        // each starts where the previous one ended on the trial clock.
        const SimTime t0 = flood_base_abs + result.recombine_us;
        reelect_holder(sender, t0);
        reelect_holder(surv, t0);
        fcfg.initiator = sender.leader;
        fcfg.start_time_us = t0;
        transport_->flood_into(*topo_, fcfg, sim.channel_rng(),
                               trial_scratch, flood);
        result.recombine_us += flood.duration_us;
        for (NodeId node = 0; node < n; ++node) {
          result.radio_on_us[node] += flood.radio_on_us[node];
        }
        delivered =
            flood.first_rx_slot[surv.leader] != ct::MiniCastResult::kNever;
      }

      next.push_back(std::move(surv));
      if (delivered) {
        Partial& merged = next.back();
        merged.sum += sender.sum;
        merged.complete = merged.complete && sender.complete;
        // Only nodes that both held the survivor's sum and heard the
        // sender's flood hold the merged value.
        for (NodeId node = 0; node < n; ++node) {
          if (merged.holders[node] != 0 && node != merged.leader &&
              flood.first_rx_slot[node] == ct::MiniCastResult::kNever) {
            merged.holders[node] = 0;
          }
        }
        merged.holders[merged.leader] = 1;
      } else {
        // Partner partial never arrived: the final total misses it.
        all_groups_in = false;
      }
    }
    if (active.size() % 2 == 1) next.push_back(std::move(active.back()));
    active = std::move(next);
  }

  NodeId root = kInvalidNode;
  if (!active.empty()) {
    // A root that died between recombination and the result flood hands
    // off to an up deputy holding the final sum.
    reelect_holder(active.front(), flood_base_abs + result.recombine_us);
    root = active.front().leader;
    result.has_aggregate = true;
    result.aggregate = active.front().sum;
    result.aggregate_correct = all_groups_in && active.front().complete &&
                               result.aggregate == result.expected_sum;
  }

  // ---- Phase C: flood the aggregate back from the global root ----
  SimTime flood_slot_us = 0;
  ct::GlossyResult& flood = ws.result_flood;
  if (root != kInvalidNode) {
    ct::GlossyConfig fcfg;
    fcfg.initiator = root;
    fcfg.ntx = kFloodNtx;
    fcfg.payload_bytes = SumPacket::kWireSize;
    fcfg.max_slots = kMaxChainSlots;
    fcfg.start_time_us = flood_base_abs + result.recombine_us;
    fcfg.channel_model = flood_channel;
    fcfg.liveness = env.liveness;
    transport_->flood_into(*topo_, fcfg, sim.channel_rng(), trial_scratch,
                           flood);
    result.flood_us = flood.duration_us;
    if (flood.slots_used > 0) {
      flood_slot_us = flood.duration_us /
                      static_cast<SimTime>(flood.slots_used);
    }
    for (NodeId i = 0; i < n; ++i) {
      result.radio_on_us[i] += flood.radio_on_us[i];
    }
  }
  result.total_duration_us =
      result.group_phase_us + result.recombine_us + result.flood_us;
  result.round_end_us = flood_base_abs + result.recombine_us + result.flood_us;
  if (pipelined) {
    // Serialize this round's floods on the shared lane so the next
    // round's recombination waits for them (its group phase does not).
    timeline.book(flood_ch, result.recombine_us + result.flood_us,
                  flood_base_abs);
  }

  const SimTime prefix_us =
      (flood_base_abs - env.start_time_us) + result.recombine_us;
  for (NodeId i = 0; i < n; ++i) {
    if (root == kInvalidNode) break;
    const std::int32_t rx = flood.first_rx_slot[i];
    if (i == root || rx == ct::MiniCastResult::kOwnEntry) {
      result.has_result[i] = 1;
      result.latency_us[i] = prefix_us;
    } else if (rx != ct::MiniCastResult::kNever) {
      result.has_result[i] = 1;
      result.latency_us[i] =
          prefix_us + static_cast<SimTime>(rx + 1) * flood_slot_us;
    } else {
      result.latency_us[i] = result.total_duration_us;
    }
  }
  return result;
}

}  // namespace mpciot::core
