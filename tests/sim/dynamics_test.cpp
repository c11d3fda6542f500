// sim::dynamics: the Gilbert–Elliott link engine and the churn
// schedule, plus their contracts with net::ChannelView and the CT
// engines — in particular that the static world is the exact degenerate
// case (bit-identical results and RNG consumption) and that epoch state
// is a pure function of (seed, epoch) regardless of the walk.
#include "sim/dynamics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "ct/glossy.hpp"
#include "ct/minicast.hpp"
#include "ct/transport.hpp"
#include "net/partition.hpp"
#include "net/testbeds.hpp"
#include "net/topology.hpp"

namespace mpciot::sim::dynamics {
namespace {

net::Topology grid9() {
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  std::vector<net::Position> pos;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      pos.push_back(net::Position{c * 12.0, r * 12.0});
    }
  }
  return net::Topology(std::move(pos), radio, 7);
}

/// Test double: forwards to an inner model and records, per materialize
/// call, the topology and the epoch its walk stood at on entry
/// (kNoEpoch: a fresh or restarted walk).
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
  void clear() const { calls_.clear(); }

 private:
  const net::ChannelModel& inner_;
  mutable std::vector<Call> calls_;
};

/// Every PRR a -> b of two views at their current epochs agree.
void expect_same_tables(const net::ChannelView& got,
                        const net::ChannelView& want, std::size_t n) {
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      EXPECT_EQ(got.prr(a, b), want.prr(a, b)) << a << "->" << b;
    }
  }
}

/// FNV-1a over a view's PRR a -> b for every pair at its current epoch,
/// folded into `h`.
std::uint64_t fold_tables(std::uint64_t h, const net::ChannelView& view,
                          const net::Topology& topo) {
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  };
  for (NodeId a = 0; a < topo.size(); ++a) {
    for (NodeId b = 0; b < topo.size(); ++b) {
      mix(std::bit_cast<std::uint64_t>(view.prr(a, b)));
    }
  }
  return h;
}

/// Test double: a fixed always/never-down schedule per node.
class FixedLiveness final : public net::LivenessModel {
 public:
  explicit FixedLiveness(std::vector<char> down) : down_(std::move(down)) {}
  bool is_down(NodeId node, SimTime) const override {
    return down_[node] != 0;
  }

 private:
  std::vector<char> down_;
};

TEST(LinkDynamics, DegenerateParamsReproduceTheFrozenSnapshot) {
  const net::Topology topo = net::testbeds::flocklab();
  LinkDynamicsParams params;
  params.seed = 42;
  params.p_good_to_bad = 0.0;  // never leaves the good state
  params.drift_sigma_db = 0.0;
  const LinkDynamics model(params);

  for (const SimTime t : {SimTime{0}, 3 * params.epoch_us + 1,
                          100 * params.epoch_us}) {
    for (NodeId a = 0; a < topo.size(); a += 3) {
      for (NodeId b = 0; b < topo.size(); b += 5) {
        if (a == b) continue;
        EXPECT_EQ(topo.prr_at(a, b, t, &model), topo.prr(a, b))
            << a << "->" << b << " @" << t;
      }
    }
  }
}

TEST(LinkDynamics, StaticViewAliasesTheTopologyTables) {
  const net::Topology topo = grid9();
  net::ChannelView view;
  view.bind(topo, nullptr);
  EXPECT_FALSE(view.dynamic());
  view.seek(123456789);  // no-op without a model
  for (NodeId r = 0; r < topo.size(); ++r) {
    EXPECT_EQ(view.audible_entries(r).data(), topo.audible_entries(r).data());
  }
  EXPECT_EQ(view.in_prr(), topo.audibility().prr.data());
  EXPECT_EQ(view.in_rssi(), topo.audibility().rssi.data());
  for (NodeId a = 0; a < topo.size(); ++a) {
    for (NodeId b = 0; b < topo.size(); ++b) {
      EXPECT_EQ(view.prr(a, b), topo.prr(a, b)) << a << "->" << b;
    }
  }
  // Null model in the one-shot query: the frozen snapshot at any time.
  EXPECT_EQ(topo.prr_at(0, 1, 987654321), topo.prr(0, 1));
}

TEST(LinkDynamics, EpochStateIsAPureFunctionOfSeedAndEpoch) {
  const net::Topology topo = grid9();
  LinkDynamicsParams params;
  params.seed = 7;
  params.p_good_to_bad = 0.3;
  params.p_bad_to_good = 0.4;
  params.drift_sigma_db = 0.8;
  const LinkDynamics model(params);

  // One view jumps straight to epoch 9, the other visits every epoch on
  // the way: the materialized tables must agree (this is what makes
  // concurrent trials jobs-invariant).
  net::ChannelView jumper;
  jumper.bind(topo, &model);
  jumper.seek(9 * params.epoch_us);
  net::ChannelView walker;
  walker.bind(topo, &model);
  for (std::uint64_t e = 0; e <= 9; ++e) {
    walker.seek(static_cast<SimTime>(e) * params.epoch_us);
  }
  for (NodeId a = 0; a < topo.size(); ++a) {
    for (NodeId b = 0; b < topo.size(); ++b) {
      EXPECT_EQ(jumper.prr(a, b), walker.prr(a, b)) << a << "->" << b;
    }
  }
  // And a fresh one-shot query agrees too.
  EXPECT_EQ(topo.prr_at(0, 5, 9 * params.epoch_us, &model),
            jumper.prr(0, 5));
}

TEST(LinkDynamics, BurstsActuallyDegradeLinksAndTablesStayConsistent) {
  const net::Topology topo = grid9();
  LinkDynamicsParams params;
  params.seed = 11;
  params.p_good_to_bad = 0.5;
  params.p_bad_to_good = 0.5;
  params.bad_extra_loss_db = 200.0;  // a burst annihilates the link
  params.drift_sigma_db = 0.0;
  const LinkDynamics model(params);

  net::ChannelView view;
  view.bind(topo, &model);
  bool saw_dead_link = false;
  bool saw_live_link = false;
  for (std::uint64_t e = 0; e < 12; ++e) {
    view.seek(static_cast<SimTime>(e) * params.epoch_us);
    for (NodeId a = 0; a < topo.size(); ++a) {
      // The runs list exactly the transmitters a hears at this epoch,
      // with the PRRs that point queries read.
      std::vector<char> listed(topo.size(), 0);
      for (const net::AudWord& aw : view.audible_entries(a)) {
        std::uint64_t bits = aw.bits;
        std::uint32_t rank = 0;
        while (bits != 0) {
          const NodeId t = aw.word * 64 +
                           static_cast<NodeId>(std::countr_zero(bits));
          bits &= bits - 1;
          listed[t] = 1;
          EXPECT_GT(view.in_prr()[aw.slot + rank], 0.0);
          EXPECT_EQ(view.in_prr()[aw.slot + rank++], view.prr(t, a));
        }
      }
      for (NodeId t = 0; t < topo.size(); ++t) {
        if (view.prr(t, a) > 0.0) {
          EXPECT_TRUE(listed[t]) << a << "<-" << t << " @" << e;
        }
        if (a == t) continue;
        if (topo.prr(t, a) > 0.0) {
          (view.prr(t, a) == 0.0 ? saw_dead_link : saw_live_link) = true;
        }
      }
    }
  }
  EXPECT_TRUE(saw_dead_link);  // bursts hit
  EXPECT_TRUE(saw_live_link);  // but not everything at once
}

TEST(LinkDynamics, BackwardSeeksRestartTheWalkWithIdenticalTables) {
  // Epoch state is a pure function of (seed, epoch, link): seeking
  // backwards (a later round booked earlier on a less-loaded channel)
  // restarts the walk and must land on exactly the tables a fresh view
  // produces.
  const net::Topology topo = grid9();
  LinkDynamicsParams params;
  params.seed = 3;
  params.p_good_to_bad = 0.3;
  params.drift_sigma_db = 0.5;
  const LinkDynamics model(params);
  net::ChannelView view;
  view.bind(topo, &model);
  view.seek(7 * params.epoch_us);
  view.seek(2 * params.epoch_us);  // backwards: restart
  net::ChannelView fresh;
  fresh.bind(topo, &model);
  fresh.seek(2 * params.epoch_us);
  for (NodeId a = 0; a < topo.size(); ++a) {
    for (NodeId b = 0; b < topo.size(); ++b) {
      EXPECT_EQ(view.prr(a, b), fresh.prr(a, b)) << a << "->" << b;
    }
  }
}

TEST(LinkDynamics, RebindingSameWorldContinuesTheWalk) {
  // Sequential rounds of a trial reuse one view via RoundContext, and a
  // hierarchical trial alternates topologies on it: binding a topology
  // back under the same model must continue *that topology's* walk from
  // where it stopped, however many other topologies were bound in
  // between, and still agree with a fresh walk. A different model on
  // the topology must restart its walk.
  const net::Topology topo = grid9();
  const net::Topology other = net::testbeds::flocklab();
  LinkDynamicsParams params;
  params.seed = 29;
  params.p_good_to_bad = 0.25;
  params.drift_sigma_db = 0.4;
  const LinkDynamics model(params);
  const CountingChannel counted(model);

  net::ChannelView reused;
  reused.bind(topo, &counted);
  reused.seek(3 * params.epoch_us);
  reused.bind(other, &counted);  // another topology in between
  reused.seek(params.epoch_us);
  counted.clear();
  reused.bind(topo, &counted);  // next round, same world
  reused.seek(6 * params.epoch_us);
  ASSERT_EQ(counted.calls().size(), 1u);
  EXPECT_EQ(counted.calls()[0].topo, &topo);
  EXPECT_EQ(counted.calls()[0].from, 3u);  // continued, not replayed
  EXPECT_EQ(counted.calls()[0].to, 6u);

  net::ChannelView fresh;
  fresh.bind(topo, &model);
  fresh.seek(6 * params.epoch_us);
  expect_same_tables(reused, fresh, topo.size());

  // The other topology kept its own walk too.
  counted.clear();
  reused.bind(other, &counted);
  reused.seek(2 * params.epoch_us);
  ASSERT_EQ(counted.calls().size(), 1u);
  EXPECT_EQ(counted.calls()[0].from, 1u);
  net::ChannelView fresh_other;
  fresh_other.bind(other, &model);
  fresh_other.seek(2 * params.epoch_us);
  expect_same_tables(reused, fresh_other, other.size());

  // Coming back at the epoch the walk stopped at re-materializes it
  // once (the model at that address may be a rebuilt decorator); a
  // rebinding straight after keeps the tables.
  counted.clear();
  reused.bind(topo, &counted);
  reused.seek(6 * params.epoch_us);
  ASSERT_EQ(counted.calls().size(), 1u);
  EXPECT_EQ(counted.calls()[0].from, 6u);
  EXPECT_EQ(counted.calls()[0].to, 6u);
  reused.bind(topo, &counted);
  reused.seek(6 * params.epoch_us);
  EXPECT_EQ(counted.calls().size(), 1u);
  expect_same_tables(reused, fresh, topo.size());

  // A second model on grid9: its walk restarts, no stale state.
  LinkDynamicsParams params2 = params;
  params2.seed = 30;
  const LinkDynamics model2(params2);
  const CountingChannel counted2(model2);
  reused.bind(topo, &counted2);
  reused.seek(6 * params.epoch_us);
  ASSERT_FALSE(counted2.calls().empty());
  EXPECT_EQ(counted2.calls()[0].topo, &topo);
  EXPECT_EQ(counted2.calls()[0].from, net::LinkEpochTables::kNoEpoch);
  net::ChannelView fresh2;
  fresh2.bind(topo, &model2);
  fresh2.seek(6 * params.epoch_us);
  expect_same_tables(reused, fresh2, topo.size());
}

TEST(LinkDynamics, SkippingUnreachablePairsIsExact) {
  // The walk steps only the near pairs whose PRR can reach the floor at
  // rssi + drift_limit_db. The digests below fold every pair's PRR; they
  // were generated on the dense n x n tables this walk replaced, which
  // matched the full-triangle walk. Drift is pinned at its limit in the
  // first parameter set (a 20 dB sigma against a 4 dB bound), and has
  // no headroom at all in the second, so a cull one step too aggressive
  // changes a digest. FlockLab and DCube carry receiver-noise
  // penalties (directional links); the grid is the hierarchical
  // campaigns' 8x8 / 12 m class.
  std::vector<net::Topology> topos;
  topos.push_back(net::testbeds::flocklab());
  topos.push_back(net::testbeds::dcube());
  topos.push_back(net::testbeds::grid(8, 8, 12.0, 5));
  LinkDynamicsParams pinned;
  pinned.seed = 61;
  pinned.p_good_to_bad = 0.2;
  pinned.p_bad_to_good = 0.4;
  pinned.bad_extra_loss_db = 12.0;
  pinned.drift_sigma_db = 20.0;
  pinned.drift_limit_db = 4.0;
  LinkDynamicsParams no_headroom = pinned;
  no_headroom.drift_limit_db = 0.0;
  const std::vector<LinkDynamicsParams> param_sets = {pinned, no_headroom};
  const std::uint64_t expected[3][2] = {
      {0x308BCC8D99DB26B4ull, 0xE87D9F950B2DA7FBull},
      {0xDC9436F9DE25F79Dull, 0x1B1AEFF818744002ull},
      {0x43AB400D731F7B09ull, 0x73DFFBC64A94B775ull},
  };

  for (std::size_t t = 0; t < topos.size(); ++t) {
    const net::Topology& topo = topos[t];
    for (std::size_t k = 0; k < param_sets.size(); ++k) {
      const LinkDynamics model(param_sets[k]);
      net::ChannelView view;
      view.bind(topo, &model);
      std::uint64_t h = 0xCBF29CE484222325ull;
      bool lifted = false;  // a pair with static PRR 0 became audible
      for (const std::uint64_t e : {0u, 1u, 17u, 300u}) {
        view.seek(static_cast<SimTime>(e) * param_sets[k].epoch_us);
        h = fold_tables(h, view, topo);
        for (NodeId a = 0; a < topo.size(); ++a) {
          for (NodeId b = 0; b < topo.size(); ++b) {
            if (topo.prr(a, b) == 0.0 && view.prr(a, b) > 0.0) lifted = true;
          }
        }
      }
      EXPECT_EQ(h, expected[t][k]) << "topology " << t << " params " << k
                                   << std::hex << " got 0x" << h;
      // Drift pinned at +4 dB lifts some near pair over the floor; with
      // no headroom nothing can.
      EXPECT_EQ(lifted, k == 0) << "topology " << t << " params " << k;

      // And the walk does skip pairs: fewer than the full triangle.
      net::LinkEpochTables tables;
      model.materialize(topo, 0, tables);
      const std::size_t n = topo.size();
      EXPECT_GT(tables.state_reals.size(), 0u);
      EXPECT_LT(tables.state_reals.size(), n * (n - 1) / 2);
    }
  }
}

TEST(LinkDynamics, RejectsDriftBeyondTheNearHeadroom) {
  // The topology keeps RSSI only for pairs within kNearHeadroomDb of the
  // floor, so a walk that could lift links further would miss pairs.
  LinkDynamicsParams params;
  params.drift_limit_db = net::Topology::kNearHeadroomDb;
  EXPECT_THROW(LinkDynamics{params}, ContractViolation);
  params.drift_limit_db = net::Topology::kNearHeadroomDb - 1.0;
  EXPECT_NO_THROW(LinkDynamics{params});
}

TEST(LinkDynamics, InducedSubtopologySeesTheSamePhysicalLinks) {
  // Fade streams are keyed by global link identity: a group round on an
  // induced subtopology must see each shared physical link in exactly
  // the state the parent topology sees at the same epoch.
  const net::Topology parent = net::testbeds::flocklab();
  const std::vector<NodeId> members =
      net::partition::grid_blocks(parent, 2).groups[0];
  ASSERT_GE(members.size(), 2u);
  const net::Topology sub = net::Topology::induced(parent, members);

  LinkDynamicsParams params;
  params.seed = 37;
  params.p_good_to_bad = 0.3;
  params.p_bad_to_good = 0.4;
  params.drift_sigma_db = 0.6;
  const LinkDynamics model(params);

  const SimTime t = 5 * params.epoch_us;
  net::ChannelView parent_view;
  parent_view.bind(parent, &model);
  parent_view.seek(t);
  net::ChannelView sub_view;
  sub_view.bind(sub, &model);
  sub_view.seek(t);
  for (NodeId a = 0; a < sub.size(); ++a) {
    for (NodeId b = 0; b < sub.size(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(sub_view.prr(a, b), parent_view.prr(members[a], members[b]))
          << a << "->" << b;
      EXPECT_EQ(sub.global_id(a), members[a]);
    }
  }
}

TEST(NodeChurn, ZeroRateMeansNobodyEverCrashes) {
  NodeChurnParams params;
  params.seed = 1;
  params.crashes_per_sec = 0.0;
  const NodeChurn churn(50, params);
  for (NodeId i = 0; i < 50; ++i) {
    EXPECT_EQ(churn.crash_count(i), 0u);
    EXPECT_FALSE(churn.is_down(i, 0));
    EXPECT_FALSE(churn.is_down(i, params.horizon_us - 1));
  }
}

TEST(NodeChurn, SchedulesAreDeterministicDisjointAndQueryable) {
  NodeChurnParams params;
  params.seed = 99;
  params.crashes_per_sec = 5.0;
  params.mean_downtime_us = 200 * kMillisecond;
  params.horizon_us = 30 * kSecond;
  const NodeChurn a(20, params);
  const NodeChurn b(20, params);

  std::size_t total_crashes = 0;
  for (NodeId i = 0; i < 20; ++i) {
    const auto& iv = a.downtime(i);
    ASSERT_EQ(iv, b.downtime(i)) << i;  // same seed, same schedule
    total_crashes += iv.size();
    for (std::size_t k = 0; k < iv.size(); ++k) {
      EXPECT_LT(iv[k].first, iv[k].second);
      if (k > 0) {
        EXPECT_GE(iv[k].first, iv[k - 1].second);
      }
      // is_down agrees with the raw intervals at the edges.
      EXPECT_TRUE(a.is_down(i, iv[k].first));
      EXPECT_TRUE(a.is_down(i, iv[k].second - 1));
      EXPECT_FALSE(a.is_down(i, iv[k].second));
      if (iv[k].first > 0) {
        EXPECT_FALSE(a.is_down(i, iv[k].first - 1));
      }
    }
  }
  // 5 crashes/s over 30 s: every node should crash many times.
  EXPECT_GT(total_crashes, 20u * 10u);
}

TEST(NodeChurn, ImmortalNodeNeverCrashes) {
  NodeChurnParams params;
  params.seed = 5;
  params.crashes_per_sec = 10.0;
  params.immortal = 3;
  const NodeChurn churn(8, params);
  EXPECT_EQ(churn.crash_count(3), 0u);
  std::size_t others = 0;
  for (NodeId i = 0; i < 8; ++i) others += churn.crash_count(i);
  EXPECT_GT(others, 0u);
}

TEST(EngineDynamics, NeverDownLivenessMatchesTheStaticRoundExactly) {
  // A liveness model that never fires must not change one bit of the
  // round NOR one RNG draw — the churn seam only branches, never draws.
  const net::Topology topo = grid9();
  ct::MiniCastConfig plain;
  plain.initiator = 0;
  ct::MiniCastConfig churned = plain;
  const FixedLiveness nobody(std::vector<char>(topo.size(), 0));
  churned.liveness = &nobody;
  churned.start_time_us = 123456;  // start offset alone must not matter

  crypto::Xoshiro256 rng_a(404);
  crypto::Xoshiro256 rng_b(404);
  const std::vector<ct::ChainEntry> entries{ct::ChainEntry{0},
                                            ct::ChainEntry{8}};
  const ct::MiniCastResult a = run_minicast(topo, entries, plain, rng_a);
  const ct::MiniCastResult b = run_minicast(topo, entries, churned, rng_b);
  EXPECT_EQ(a.rx_slot, b.rx_slot);
  EXPECT_EQ(a.done_slot, b.done_slot);
  EXPECT_EQ(a.radio_on_us, b.radio_on_us);
  EXPECT_EQ(a.tx_count, b.tx_count);
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());  // same draw count
}

TEST(EngineDynamics, DegenerateChannelModelMatchesTheStaticRoundExactly) {
  const net::Topology topo = grid9();
  LinkDynamicsParams params;
  params.seed = 21;
  params.p_good_to_bad = 0.0;
  params.drift_sigma_db = 0.0;
  params.epoch_us = 5 * kMillisecond;  // several epoch advances per round
  const LinkDynamics model(params);

  ct::MiniCastConfig plain;
  plain.initiator = 0;
  ct::MiniCastConfig dynamic = plain;
  dynamic.channel_model = &model;

  crypto::Xoshiro256 rng_a(77);
  crypto::Xoshiro256 rng_b(77);
  const std::vector<ct::ChainEntry> entries{ct::ChainEntry{0},
                                            ct::ChainEntry{4}};
  const ct::MiniCastResult a = run_minicast(topo, entries, plain, rng_a);
  const ct::MiniCastResult b = run_minicast(topo, entries, dynamic, rng_b);
  EXPECT_EQ(a.rx_slot, b.rx_slot);
  EXPECT_EQ(a.radio_on_us, b.radio_on_us);
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
}

TEST(EngineDynamics, DownNodesAreSilentAndUnchargedMidRound) {
  const net::Topology topo = grid9();
  // Node 8 (a corner) is down for the whole round: it must receive
  // nothing, send nothing, and be charged no radio time — exactly like
  // `disabled`, but driven through the per-slot liveness seam.
  std::vector<char> down(topo.size(), 0);
  down[8] = 1;
  const FixedLiveness dead8(down);

  ct::GlossyConfig cfg;
  cfg.initiator = 0;
  cfg.liveness = &dead8;
  crypto::Xoshiro256 rng(9);
  const ct::GlossyResult res = run_glossy(topo, cfg, rng);
  EXPECT_EQ(res.first_rx_slot[8], ct::MiniCastResult::kNever);
  EXPECT_EQ(res.tx_count[8], 0u);
  EXPECT_EQ(res.radio_on_us[8], 0);
  // The rest of the flood still works.
  EXPECT_GT(res.coverage(), 0.8);
}

TEST(EngineDynamics, DownInitiatorKillsTheFloodImmediately) {
  const net::Topology topo = grid9();
  std::vector<char> down(topo.size(), 0);
  down[0] = 1;
  const FixedLiveness dead0(down);
  ct::GlossyConfig cfg;
  cfg.initiator = 0;
  cfg.liveness = &dead0;
  crypto::Xoshiro256 rng(9);
  const ct::GlossyResult res = run_glossy(topo, cfg, rng);
  EXPECT_EQ(res.slots_used, 0u);
  EXPECT_EQ(res.coverage(), 0.0);
}

TEST(EngineDynamics, EveryTransportHonoursChurnAndLinkDynamics) {
  // All four substrates must keep a whole-round-down node silent and
  // uncharged, and must run to completion with a bursty channel model
  // attached — minicast and glossy_floods via the chain engine's view,
  // gossip via the reception model's view, unicast via the routing
  // WalkEnv.
  const net::Topology topo = grid9();
  std::vector<char> down_mask(topo.size(), 0);
  down_mask[8] = 1;
  const FixedLiveness dead8(down_mask);

  LinkDynamicsParams params;
  params.seed = 13;
  params.epoch_us = 20 * kMillisecond;
  params.p_good_to_bad = 0.2;
  params.p_bad_to_good = 0.5;
  const LinkDynamics model(params);

  const std::vector<ct::ChainEntry> entries{ct::ChainEntry{0},
                                            ct::ChainEntry{4}};
  for (const std::string& name : ct::transport_names()) {
    const auto transport = ct::make_transport(name);
    ct::MiniCastConfig cfg;
    cfg.initiator = 0;
    cfg.ntx = 4;
    cfg.liveness = &dead8;
    cfg.channel_model = &model;
    cfg.start_time_us = 7 * kMillisecond;
    crypto::Xoshiro256 rng(19);
    const ct::MiniCastResult res =
        transport->chain_round(topo, entries, cfg, rng);
    EXPECT_EQ(res.tx_count[8], 0u) << name;
    EXPECT_EQ(res.radio_on_us[8], 0) << name;
    EXPECT_EQ(res.rx_slot[8][0], ct::MiniCastResult::kNever) << name;
    EXPECT_EQ(res.rx_slot[8][1], ct::MiniCastResult::kNever) << name;
    // The live part of the network still disseminates something.
    EXPECT_GT(res.delivery_ratio(), 0.0) << name;

    ct::GlossyConfig fcfg;
    fcfg.initiator = 4;
    fcfg.liveness = &dead8;
    fcfg.channel_model = &model;
    const ct::GlossyResult flood = transport->flood(topo, fcfg, rng);
    EXPECT_EQ(flood.tx_count[8], 0u) << name;
    EXPECT_EQ(flood.radio_on_us[8], 0) << name;
    EXPECT_EQ(flood.first_rx_slot[8], ct::MiniCastResult::kNever) << name;
  }
}

TEST(EngineDynamics, HeavyBurstsDegradeDeliveryUnderTheSameSeed) {
  const net::Topology topo = net::testbeds::flocklab();
  LinkDynamicsParams params;
  params.seed = 31;
  params.epoch_us = 10 * kMillisecond;
  params.p_good_to_bad = 0.45;
  params.p_bad_to_good = 0.3;
  params.bad_extra_loss_db = 25.0;
  const LinkDynamics model(params);

  std::vector<ct::ChainEntry> entries;
  for (NodeId i = 0; i < topo.size(); ++i) {
    entries.push_back(ct::ChainEntry{i});
  }
  ct::MiniCastConfig cfg;
  cfg.initiator = topo.center_node();
  cfg.ntx = 3;
  ct::MiniCastConfig stormy = cfg;
  stormy.channel_model = &model;

  crypto::Xoshiro256 rng_a(5);
  crypto::Xoshiro256 rng_b(5);
  const double calm =
      run_minicast(topo, entries, cfg, rng_a).delivery_ratio();
  const double storm =
      run_minicast(topo, entries, stormy, rng_b).delivery_ratio();
  EXPECT_LT(storm, calm);
  EXPECT_GT(storm, 0.0);  // bursty, not apocalyptic
}

}  // namespace
}  // namespace mpciot::sim::dynamics
