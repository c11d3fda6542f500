// Hierarchical multi-group aggregation: sum equality against the flat
// protocol on a lossless topology, channel layout, and retry/robustness
// bookkeeping.
#include "core/hierarchical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "core/campaign.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "crypto/keystore.hpp"
#include "metrics/experiment.hpp"
#include "net/partition.hpp"
#include "net/testbeds.hpp"
#include "sim/dynamics.hpp"
#include "sim/simulator.hpp"

namespace mpciot::core {
namespace {

using field::Fp61;

/// Dense 4x4 grid with frozen shadowing disabled and short spacing:
/// every link's PRR is ~1, so delivery is effectively lossless and both
/// protocols must aggregate every secret.
net::Topology lossless_grid16() {
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  std::vector<net::Position> pos;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      pos.push_back(net::Position{c * 8.0, r * 8.0});
    }
  }
  return net::Topology(std::move(pos), radio, 5);
}

/// One round through the Session API; a fresh session per call matches
/// the retired one-shot run() overloads exactly.
AggregationResult session_round(const SssProtocol& proto,
                                const std::vector<Fp61>& secrets,
                                sim::Simulator& sim) {
  Session session(proto);
  return *session.run_round(secrets, sim).flat;
}

HierarchicalResult session_round(const HierarchicalProtocol& proto,
                                 const std::vector<Fp61>& secrets,
                                 sim::Simulator& sim) {
  Session session(proto);
  return *session.run_round(secrets, sim).hier;
}

/// Test double: forwards to an inner channel model and records, per
/// materialize call, the topology and the epoch its walk stood at on
/// entry (kNoEpoch: a fresh or restarted walk).
class CountingChannel final : public net::ChannelModel {
 public:
  struct Call {
    const net::Topology* topo;
    std::uint64_t from;
    std::uint64_t to;
  };

  explicit CountingChannel(const net::ChannelModel& inner) : inner_(inner) {}
  SimTime epoch_us() const override { return inner_.epoch_us(); }
  void materialize(const net::Topology& topo, std::uint64_t epoch,
                   net::LinkEpochTables& tables) const override {
    calls_.push_back(Call{&topo, tables.epoch, epoch});
    inner_.materialize(topo, epoch, tables);
  }
  const std::vector<Call>& calls() const { return calls_; }

 private:
  const net::ChannelModel& inner_;
  mutable std::vector<Call> calls_;
};

std::vector<Fp61> secrets_1_to_n(std::size_t n) {
  std::vector<Fp61> secrets;
  for (std::size_t i = 0; i < n; ++i) secrets.emplace_back(i + 1);
  return secrets;
}

TEST(Hierarchical, MatchesFlatProtocolOnLosslessTopology) {
  const net::Topology topo = lossless_grid16();
  const std::vector<Fp61> secrets = secrets_1_to_n(topo.size());
  const Fp61 expected{16 * 17 / 2};

  // Flat single-chain S3 over all 16 sources.
  const crypto::KeyStore keys(3, topo.size());
  std::vector<NodeId> sources(topo.size());
  for (NodeId i = 0; i < topo.size(); ++i) sources[i] = i;
  const SssProtocol flat(
      topo, keys, make_s3_config(topo, sources, paper_degree(16), 6));
  sim::Simulator flat_sim(11);
  const AggregationResult flat_res = session_round(flat, secrets, flat_sim);
  EXPECT_EQ(flat_res.expected_sum, expected);
  EXPECT_GT(flat_res.success_ratio(), 0.99);

  // Hierarchical at several group counts.
  for (const std::uint32_t g : {1u, 2u, 4u}) {
    core::HierarchicalConfig cfg;
    cfg.partition = net::partition::grid_blocks(topo, g);
    cfg.num_channels = static_cast<std::uint16_t>(g);
    const HierarchicalProtocol proto(topo, std::move(cfg));
    sim::Simulator sim(11);
    const HierarchicalResult res = session_round(proto, secrets, sim);
    ASSERT_TRUE(res.has_aggregate);
    EXPECT_EQ(res.aggregate, expected) << "g=" << g;
    EXPECT_TRUE(res.aggregate_correct);
    EXPECT_EQ(res.aggregate, flat_res.expected_sum);
    EXPECT_GT(res.success_ratio(), 0.99);
  }
}

TEST(Hierarchical, GroupPhaseOverlapsOnOrthogonalChannels) {
  const net::Topology topo = lossless_grid16();
  const std::vector<Fp61> secrets = secrets_1_to_n(topo.size());

  // Same 4-group partition, serialized on 1 channel vs parallel on 4:
  // with one channel the group phase must cost ~the sum of group rounds,
  // with four roughly the max.
  core::HierarchicalConfig serial_cfg;
  serial_cfg.partition = net::partition::grid_blocks(topo, 4);
  serial_cfg.num_channels = 1;
  core::HierarchicalConfig parallel_cfg;
  parallel_cfg.partition = net::partition::grid_blocks(topo, 4);
  parallel_cfg.num_channels = 4;

  const HierarchicalProtocol serial(topo, std::move(serial_cfg));
  const HierarchicalProtocol parallel(topo, std::move(parallel_cfg));
  sim::Simulator sim_a(21);
  sim::Simulator sim_b(21);
  const HierarchicalResult a = session_round(serial, secrets, sim_a);
  const HierarchicalResult b = session_round(parallel, secrets, sim_b);

  SimTime sum_us = 0;
  SimTime max_us = 0;
  for (const GroupOutcome& g : a.groups) {
    sum_us += g.duration_us;
    max_us = std::max(max_us, g.duration_us);
  }
  EXPECT_EQ(a.group_phase_us, sum_us);
  EXPECT_LT(b.group_phase_us, sum_us);
  EXPECT_GE(b.group_phase_us, max_us);
  // Same per-group randomness stream either way: identical group sums.
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].sum.value(), b.groups[g].sum.value());
  }
}

TEST(Hierarchical, LargeGroupsSplitIntoBatches) {
  // 9 nodes with max_batch 4 -> 3 batches (3+3+3), still the right sum.
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  std::vector<net::Position> pos;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      pos.push_back(net::Position{c * 8.0, r * 8.0});
    }
  }
  const net::Topology topo(std::move(pos), radio, 2);
  const std::vector<Fp61> secrets = secrets_1_to_n(topo.size());

  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 1);
  cfg.max_batch = 4;
  const HierarchicalProtocol proto(topo, std::move(cfg));
  sim::Simulator sim(31);
  const HierarchicalResult res = session_round(proto, secrets, sim);
  ASSERT_EQ(res.groups.size(), 1u);
  EXPECT_EQ(res.groups[0].batches, 3u);
  ASSERT_TRUE(res.has_aggregate);
  EXPECT_EQ(res.aggregate.value(), 45u);
  EXPECT_TRUE(res.aggregate_correct);
}

TEST(Hierarchical, LeadersAreGroupCenters) {
  const net::Topology topo = lossless_grid16();
  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 4);
  const net::partition::Partition part = cfg.partition;
  const HierarchicalProtocol proto(topo, std::move(cfg));
  for (std::size_t g = 0; g < part.size(); ++g) {
    const NodeId leader = proto.group_leader(g);
    // The leader must be a member of its group.
    EXPECT_NE(std::find(part.groups[g].begin(), part.groups[g].end(), leader),
              part.groups[g].end());
  }
}

TEST(Hierarchical, RejectsWrongSecretCount) {
  const net::Topology topo = lossless_grid16();
  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 2);
  const HierarchicalProtocol proto(topo, std::move(cfg));
  sim::Simulator sim(1);
  std::vector<Fp61> too_few(topo.size() - 1, Fp61{1});
  EXPECT_THROW(session_round(proto, too_few, sim), ContractViolation);
}

/// Test double: nodes in `down` are dead for all time.
class AlwaysDown final : public net::LivenessModel {
 public:
  explicit AlwaysDown(std::vector<char> down) : down_(std::move(down)) {}
  bool is_down(NodeId node, SimTime) const override {
    return down_[node] != 0;
  }

 private:
  std::vector<char> down_;
};

TEST(Hierarchical, RetryExhaustionGivesUpTheRound) {
  // Kill every member of one group: its leader can never reconstruct,
  // so the group must burn its full retry budget, report no sum, and
  // the global aggregate must be flagged incorrect — while the healthy
  // groups still finish their own rounds.
  const net::Topology topo = lossless_grid16();
  const std::vector<Fp61> secrets = secrets_1_to_n(topo.size());

  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 4);
  const net::partition::Partition part = cfg.partition;
  const HierarchicalProtocol proto(topo, std::move(cfg));

  std::vector<char> down(topo.size(), 0);
  for (const NodeId m : part.groups[1]) down[m] = 1;
  const AlwaysDown churn(down);

  sim::Simulator sim(13);
  sim.set_liveness(&churn);
  const HierarchicalResult res = session_round(proto, secrets, sim);

  const GroupOutcome& doomed = res.groups[1];
  EXPECT_FALSE(doomed.has_sum);
  EXPECT_FALSE(doomed.sum_correct);
  // Every batch exhausted its two retries: retries == batches * 2.
  EXPECT_EQ(doomed.retries, doomed.batches * 2u);
  // The round still produces an aggregate from the surviving groups —
  // it matches their dealt secrets (expected_sum only accumulates from
  // accepted rounds) — but a lost group means the round as a whole is
  // not correct and success collapses to 0.
  EXPECT_FALSE(res.aggregate_correct);
  ASSERT_TRUE(res.has_aggregate);
  Fp61 healthy_sum;
  for (std::size_t g = 0; g < part.groups.size(); ++g) {
    if (g == 1) continue;
    for (const NodeId m : part.groups[g]) healthy_sum += secrets[m];
  }
  EXPECT_EQ(res.expected_sum, healthy_sum);
  EXPECT_EQ(res.success_ratio(), 0.0);
  std::size_t healthy_ok = 0;
  for (std::size_t g = 0; g < res.groups.size(); ++g) {
    if (g != 1 && res.groups[g].has_sum && res.groups[g].sum_correct) {
      ++healthy_ok;
    }
  }
  EXPECT_EQ(healthy_ok, res.groups.size() - 1);
}

TEST(Hierarchical, DeadLeaderIsReelectedAndTheRoundStillSucceeds) {
  // Kill only the precomputed leader of one group: the group must hand
  // off to another member (leader_reelections > 0, a different final
  // leader) and the global aggregate of the *remaining* nodes' secrets
  // still forms. The dead leader dealt nothing, so the expected total
  // excludes exactly its secret.
  const net::Topology topo = lossless_grid16();
  const std::vector<Fp61> secrets = secrets_1_to_n(topo.size());

  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 4);
  const HierarchicalProtocol proto(topo, std::move(cfg));
  const NodeId victim = proto.group_leader(2);

  std::vector<char> down(topo.size(), 0);
  down[victim] = 1;
  const AlwaysDown churn(down);

  sim::Simulator sim(17);
  sim.set_liveness(&churn);
  const HierarchicalResult res = session_round(proto, secrets, sim);

  EXPECT_GE(res.leader_reelections, 1u);
  EXPECT_NE(res.groups[2].leader, victim);
  ASSERT_TRUE(res.groups[2].has_sum);
  // The dead node never dealt, so it is excluded from the expected
  // aggregate (failed_nodes semantics) and the reduced-but-consistent
  // total still counts as a correct round.
  Fp61 expected_total;
  for (std::size_t i = 0; i < secrets.size(); ++i) {
    if (static_cast<NodeId>(i) != victim) expected_total += secrets[i];
  }
  ASSERT_TRUE(res.has_aggregate);
  EXPECT_EQ(res.aggregate, expected_total);
  EXPECT_EQ(res.expected_sum, expected_total);
  EXPECT_TRUE(res.aggregate_correct);
  // The victim never receives the result flood; everyone else does.
  EXPECT_EQ(res.has_result[victim], 0);
  EXPECT_GT(res.success_ratio(), 0.9);
}

/// Test double: one node is down on [0, until) of the *trial* clock and
/// up afterwards — a genuinely time-varying schedule, unlike AlwaysDown.
class DownUntil final : public net::LivenessModel {
 public:
  DownUntil(NodeId victim, SimTime until) : victim_(victim), until_(until) {}
  bool is_down(NodeId node, SimTime t) const override {
    return node == victim_ && t < until_;
  }

 private:
  NodeId victim_;
  SimTime until_;
};

TEST(Hierarchical, LeaderDownOnlyAtRoundStartRecoversForTheResultFlood) {
  // The victim leader is down when its group round starts (so it never
  // deals and the group re-elects) but back up long before the result
  // flood. This pins the *trial-clock* placement of the phases: if any
  // phase evaluated liveness in round-local instead of trial time, the
  // recovered victim would either wrongly lead its group round or
  // wrongly miss the result flood.
  const net::Topology topo = lossless_grid16();
  const std::vector<Fp61> secrets = secrets_1_to_n(topo.size());

  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 4);
  cfg.num_channels = 4;  // all group rounds start at trial time 0
  const HierarchicalProtocol proto(topo, std::move(cfg));
  const NodeId victim = proto.group_leader(2);

  // Down only for the first 50 ms: group rounds last hundreds of ms,
  // so the recombination and result floods run well after recovery.
  const DownUntil churn(victim, 50 * kMillisecond);
  sim::Simulator sim(41);
  sim.set_liveness(&churn);
  const HierarchicalResult res = session_round(proto, secrets, sim);

  EXPECT_GE(res.leader_reelections, 1u);
  EXPECT_NE(res.groups[2].leader, victim);
  ASSERT_TRUE(res.has_aggregate);
  // The victim never dealt (down at its round's start), so the round's
  // expected sum excludes exactly its secret — and is still correct.
  Fp61 expected_total;
  for (std::size_t i = 0; i < secrets.size(); ++i) {
    if (static_cast<NodeId>(i) != victim) expected_total += secrets[i];
  }
  EXPECT_EQ(res.expected_sum, expected_total);
  EXPECT_EQ(res.aggregate, expected_total);
  EXPECT_TRUE(res.aggregate_correct);
  // Unlike a permanently dead leader, the recovered victim hears the
  // result flood: every single node ends up with the aggregate.
  EXPECT_EQ(res.has_result[victim], 1);
  EXPECT_EQ(res.success_ratio(), 1.0);
}

TEST(Hierarchical, NodeChurnRunsAreDeterministicAndConsistent) {
  // The full composition — HierarchicalProtocol under a real NodeChurn
  // schedule — must be reproducible from the seed, count re-elections
  // coherently, and keep the aggregate/expected-sum invariant: whenever
  // the round reports correct, the values match.
  const net::Topology topo = lossless_grid16();
  const std::vector<Fp61> secrets = secrets_1_to_n(topo.size());
  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 4);
  cfg.num_channels = 2;
  const HierarchicalProtocol proto(topo, std::move(cfg));

  sim::dynamics::NodeChurnParams cp;
  cp.seed = 4242;
  cp.crashes_per_sec = 1.0;
  cp.mean_downtime_us = 300 * kMillisecond;
  const sim::dynamics::NodeChurn churn(topo.size(), cp);

  const auto run_once = [&] {
    sim::Simulator sim(51);
    sim.set_liveness(&churn);
    return session_round(proto, secrets, sim);
  };
  const HierarchicalResult a = run_once();
  const HierarchicalResult b = run_once();
  EXPECT_EQ(a.total_duration_us, b.total_duration_us);
  EXPECT_EQ(a.leader_reelections, b.leader_reelections);
  EXPECT_EQ(a.radio_on_us, b.radio_on_us);
  EXPECT_EQ(a.has_result, b.has_result);
  EXPECT_EQ(a.aggregate_correct, b.aggregate_correct);
  if (a.aggregate_correct) {
    EXPECT_EQ(a.aggregate, a.expected_sum);
  }
  const double sr = a.success_ratio();
  EXPECT_GE(sr, 0.0);
  EXPECT_LE(sr, 1.0);
}

TEST(Hierarchical, DynamicCampaignWalksEachEpochOncePerTopology) {
  // Every round binds the trial's one RoundContext to each group
  // topology and to the root in turn. Each topology's fade chain must
  // be walked once over the whole campaign, never replayed from epoch 0
  // when a round comes back to it, so a round's host cost does not grow
  // with its index. The world is sustained_load's hierarchical dynamic
  // one: an 8x8 grid in 16 groups under bursty links and churn,
  // pipelined.
  const net::Topology grid = net::testbeds::grid(8, 8, 12.0, 64);
  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(grid, 16);
  cfg.num_channels = 16;
  cfg.ntx_sharing = 8;
  cfg.ntx_reconstruction = 8;
  const HierarchicalProtocol proto(grid, std::move(cfg));

  sim::dynamics::LinkDynamicsParams lp;
  lp.seed = 71;
  lp.p_bad_to_good = 1.0 / 8.0;
  lp.p_good_to_bad = lp.p_bad_to_good * 0.1 / 0.9;
  lp.bad_extra_loss_db = 12.0;
  lp.drift_sigma_db = 0.3;
  lp.drift_limit_db = 4.0;
  const sim::dynamics::LinkDynamics link(lp);
  const CountingChannel counted(link);
  sim::dynamics::NodeChurnParams cp;
  cp.seed = 72;
  cp.crashes_per_sec = 0.5;
  cp.mean_downtime_us = 500 * kMillisecond;
  const sim::dynamics::NodeChurn churn(grid.size(), cp);

  sim::Simulator sim(73);
  sim.set_channel_model(&counted);
  sim.set_liveness(&churn);
  Session session(proto);
  Campaign campaign(session, CampaignConfig{/*rounds=*/8,
                                            /*pipelined=*/true});
  const CampaignResult& res =
      campaign.run(sim, [](std::uint32_t r, std::vector<Fp61>& secrets) {
        for (std::size_t i = 0; i < secrets.size(); ++i) {
          secrets[i] = Fp61(i + 1 + r);
        }
      });
  EXPECT_EQ(res.rounds, 8u);
  EXPECT_GT(res.rounds_ok, 0u);

  // Per topology: epochs stepped (a fresh walk steps 0..to, a continued
  // one from+1..to), the last epoch reached, and fresh walks.
  struct Tally {
    const net::Topology* topo;
    std::uint64_t stepped = 0;
    std::uint64_t last = 0;
    std::size_t fresh = 0;
  };
  std::vector<Tally> tallies;
  for (const CountingChannel::Call& c : counted.calls()) {
    auto it = std::find_if(tallies.begin(), tallies.end(),
                           [&](const Tally& t) { return t.topo == c.topo; });
    if (it == tallies.end()) {
      tallies.push_back(Tally{c.topo});
      it = tallies.end() - 1;
    }
    if (c.from == net::LinkEpochTables::kNoEpoch) {
      ++it->fresh;
      it->stepped += c.to + 1;
    } else {
      it->stepped += c.to - c.from;
    }
    it->last = std::max(it->last, c.to);
  }
  EXPECT_EQ(tallies.size(), 17u);  // the root and its 16 groups
  for (const Tally& t : tallies) {
    EXPECT_EQ(t.fresh, 1u) << "a walk restarted on " << t.topo->size()
                           << "-node topology";
    EXPECT_LE(t.stepped, t.last + 1) << t.topo->size() << "-node topology";
  }
}

TEST(Hierarchical, JammedDynamicCampaignKeepsEachRoundsJammers) {
  // Group rounds rebuild their JammerChannel decorator every round, in
  // the same stack slot but with a new jam schedule. A view coming back
  // to a group's walk keeps the chain state, which lives in the wrapped
  // LinkDynamics, but must apply the new round's jammers from the first
  // slot on, even when that slot falls in the epoch the walk stopped
  // at. The figures were generated by a view that restarted a
  // topology's walk whenever another topology had been bound since.
  const net::Topology grid = net::testbeds::grid(8, 8, 12.0, 68);
  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(grid, 16);
  cfg.num_channels = 16;
  cfg.ntx_sharing = 8;
  cfg.ntx_reconstruction = 8;
  cfg.adversary.kind = AttackKind::kJamSlots;
  cfg.adversary.attackers = {18, 45};
  cfg.adversary.seed = 21;
  cfg.adversary.jam_duty = 0.3;
  const HierarchicalProtocol proto(grid, std::move(cfg));

  sim::dynamics::LinkDynamicsParams lp;
  lp.seed = 75;
  lp.p_bad_to_good = 1.0 / 8.0;
  lp.p_good_to_bad = lp.p_bad_to_good * 0.1 / 0.9;
  lp.bad_extra_loss_db = 12.0;
  const sim::dynamics::LinkDynamics link(lp);
  sim::Simulator sim(77);
  sim.set_channel_model(&link);
  Session session(proto);
  Campaign campaign(session, CampaignConfig{/*rounds=*/6,
                                            /*pipelined=*/true});
  const CampaignResult& res =
      campaign.run(sim, [](std::uint32_t r, std::vector<Fp61>& secrets) {
        for (std::size_t i = 0; i < secrets.size(); ++i) {
          secrets[i] = Fp61(i + 1 + r);
        }
      });
  EXPECT_EQ(res.round_latency_us,
            (std::vector<SimTime>{1018720, 1174000, 974672, 1039184,
                                  1071072, 1084784}));
  EXPECT_EQ(res.rounds_ok, 3u);
  EXPECT_EQ(res.makespan_us, 4597152);
}

TEST(Hierarchical, RadioOnAndLatencyAreReported) {
  const net::Topology topo = lossless_grid16();
  const std::vector<Fp61> secrets = secrets_1_to_n(topo.size());
  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 4);
  cfg.num_channels = 4;
  const HierarchicalProtocol proto(topo, std::move(cfg));
  sim::Simulator sim(77);
  const HierarchicalResult res = session_round(proto, secrets, sim);
  EXPECT_GT(res.max_radio_on_us(), 0);
  EXPECT_GT(res.mean_radio_on_us(), 0.0);
  EXPECT_GT(res.max_latency_us(), 0);
  EXPECT_EQ(res.total_duration_us,
            res.group_phase_us + res.recombine_us + res.flood_us);
  EXPECT_LE(res.max_latency_us(), res.total_duration_us);
}

TEST(HierarchicalAdversary, MalformedDealerExcludedWithVss) {
  const net::Topology topo = lossless_grid16();
  const std::vector<Fp61> secrets = secrets_1_to_n(topo.size());

  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 2);
  cfg.num_channels = 2;
  cfg.adversary.kind = AttackKind::kMalformedShares;
  cfg.adversary.attackers = {5};  // parent-topology id
  cfg.adversary.seed = 17;
  cfg.feldman_vss = true;
  const HierarchicalProtocol proto(topo, std::move(cfg));
  sim::Simulator sim(11);
  const HierarchicalResult res = session_round(proto, secrets, sim);

  // The attacker is convicted inside its group round, its secret never
  // enters the hierarchy, and the reduced aggregate is consistent.
  EXPECT_GT(res.shares_rejected, 0u);
  ASSERT_EQ(res.cheater_nodes.size(), topo.size());
  EXPECT_TRUE(res.cheater_nodes[5]);
  for (NodeId i = 0; i < topo.size(); ++i) {
    if (i != 5) {
      EXPECT_FALSE(res.cheater_nodes[i]) << i;
    }
  }
  ASSERT_TRUE(res.has_aggregate);
  EXPECT_TRUE(res.aggregate_correct);
  const Fp61 all_but_attacker{16 * 17 / 2 - 6};  // secrets are i+1
  EXPECT_EQ(res.aggregate, all_but_attacker);
  EXPECT_EQ(res.expected_sum, all_but_attacker);
}

TEST(HierarchicalAdversary, MalformedDealerCorruptsSilentlyWithoutVss) {
  const net::Topology topo = lossless_grid16();
  const std::vector<Fp61> secrets = secrets_1_to_n(topo.size());

  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 2);
  cfg.num_channels = 2;
  cfg.adversary.kind = AttackKind::kMalformedShares;
  cfg.adversary.attackers = {5};
  cfg.adversary.seed = 17;
  const HierarchicalProtocol proto(topo, std::move(cfg));
  sim::Simulator sim(11);
  const HierarchicalResult res = session_round(proto, secrets, sim);

  // The garbage rides all the way to the root undetected.
  EXPECT_EQ(res.shares_rejected, 0u);
  ASSERT_TRUE(res.has_aggregate);
  EXPECT_FALSE(res.aggregate_correct);
  EXPECT_NE(res.aggregate, Fp61{16 * 17 / 2});
}

TEST(HierarchicalAdversary, FullDutyJammerBreaksItsNeighborhood) {
  const net::Topology topo = lossless_grid16();
  const std::vector<Fp61> secrets = secrets_1_to_n(topo.size());

  core::HierarchicalConfig honest_cfg;
  honest_cfg.partition = net::partition::grid_blocks(topo, 2);
  honest_cfg.num_channels = 2;
  const HierarchicalProtocol honest(topo, std::move(honest_cfg));

  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 2);
  cfg.num_channels = 2;
  cfg.adversary.kind = AttackKind::kJamSlots;
  cfg.adversary.attackers = {5};
  cfg.adversary.seed = 17;
  cfg.adversary.jam_duty = 1.0;
  const HierarchicalProtocol jammed(topo, std::move(cfg));

  sim::Simulator sim_a(11);
  sim::Simulator sim_b(11);
  const double honest_success = session_round(honest, secrets, sim_a).success_ratio();
  const HierarchicalResult res = session_round(jammed, secrets, sim_b);
  // A permanently-jammed dense grid cannot reach everyone: the round
  // degrades without any crypto-layer conviction.
  EXPECT_LT(res.success_ratio(), honest_success);
  EXPECT_EQ(res.shares_rejected, 0u);
  EXPECT_EQ(res.sums_rejected, 0u);
}

// Recursive trees: a depth-2 run on the lossless grid must reproduce
// the flat protocol's sum exactly — every level's leader-tree
// recombination is sum-preserving when no flood fails.
TEST(HierarchicalRecursive, Depth2MatchesFlatSumOnLosslessGrid) {
  const net::Topology topo = lossless_grid16();
  const std::vector<Fp61> secrets = secrets_1_to_n(topo.size());
  const Fp61 expected{16 * 17 / 2};

  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 2);
  cfg.num_channels = 2;
  cfg.depth = 2;
  cfg.fanout = 2;
  cfg.min_nested_size = 4;  // force both 8-member groups to nest
  const HierarchicalProtocol proto(topo, std::move(cfg));
  EXPECT_EQ(proto.num_groups(), 2u);

  sim::Simulator sim(11);
  const HierarchicalResult res = session_round(proto, secrets, sim);
  ASSERT_TRUE(res.has_aggregate);
  EXPECT_EQ(res.aggregate, expected);
  EXPECT_EQ(res.expected_sum, expected);
  EXPECT_TRUE(res.aggregate_correct);
  EXPECT_GT(res.success_ratio(), 0.99);
  // Subtrees report their subgroup count as the group's batch count.
  for (const GroupOutcome& out : res.groups) {
    EXPECT_TRUE(out.has_sum);
    EXPECT_GE(out.batches, 2u);
  }
}

// Depth is capacity, not a mandate: groups below min_nested_size run
// flat even at depth 2, and the historic depth-1 configuration is
// byte-for-byte the single-level protocol.
TEST(HierarchicalRecursive, SmallGroupsDoNotNestAndDepth1IsUnchanged) {
  const net::Topology topo = lossless_grid16();
  const std::vector<Fp61> secrets = secrets_1_to_n(topo.size());

  core::HierarchicalConfig nested_cfg;
  nested_cfg.partition = net::partition::grid_blocks(topo, 4);
  nested_cfg.num_channels = 4;
  nested_cfg.depth = 3;
  nested_cfg.min_nested_size = 64;  // larger than any group: no nesting
  core::HierarchicalConfig flat_cfg;
  flat_cfg.partition = net::partition::grid_blocks(topo, 4);
  flat_cfg.num_channels = 4;

  const HierarchicalProtocol a(topo, std::move(nested_cfg));
  const HierarchicalProtocol b(topo, std::move(flat_cfg));
  sim::Simulator sim_a(31);
  sim::Simulator sim_b(31);
  const HierarchicalResult ra = session_round(a, secrets, sim_a);
  const HierarchicalResult rb = session_round(b, secrets, sim_b);
  ASSERT_TRUE(ra.has_aggregate);
  ASSERT_TRUE(rb.has_aggregate);
  EXPECT_EQ(ra.aggregate, rb.aggregate);
  EXPECT_EQ(ra.total_duration_us, rb.total_duration_us);
  EXPECT_EQ(ra.radio_on_us, rb.radio_on_us);
  EXPECT_EQ(ra.latency_us, rb.latency_us);
}

// A recursive round is reproducible: same seed, same result object.
TEST(HierarchicalRecursive, Depth2RunsAreDeterministic) {
  const net::Topology topo = lossless_grid16();
  const std::vector<Fp61> secrets = secrets_1_to_n(topo.size());
  auto run_once = [&]() {
    core::HierarchicalConfig cfg;
    cfg.partition = net::partition::grid_blocks(topo, 2);
    cfg.num_channels = 2;
    cfg.depth = 2;
    cfg.fanout = 2;
    cfg.min_nested_size = 4;
    const HierarchicalProtocol proto(topo, std::move(cfg));
    sim::Simulator sim(43);
    return session_round(proto, secrets, sim);
  };
  const HierarchicalResult a = run_once();
  const HierarchicalResult b = run_once();
  EXPECT_EQ(a.aggregate, b.aggregate);
  EXPECT_EQ(a.total_duration_us, b.total_duration_us);
  EXPECT_EQ(a.radio_on_us, b.radio_on_us);
  EXPECT_EQ(a.latency_us, b.latency_us);
  EXPECT_EQ(a.has_result, b.has_result);
}

}  // namespace
}  // namespace mpciot::core
