// core::Campaign: streaming rounds over one warm Session — determinism
// of the pipelined stream, equivalence of pipelined and sequential
// round results in a static world, genuine pipeline overlap, and
// recovery from churn mid-campaign without poisoning the warm state.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "core/hierarchical.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "net/partition.hpp"
#include "net/testbeds.hpp"
#include "sim/simulator.hpp"

namespace mpciot::core {
namespace {

using field::Fp61;

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

HierarchicalProtocol make_hier(const net::Topology& topo) {
  core::HierarchicalConfig cfg;
  cfg.partition = net::partition::grid_blocks(topo, 4);
  cfg.num_channels = 4;
  return HierarchicalProtocol(topo, std::move(cfg));
}

/// Round r's secrets: node i contributes i + 1 + r (deterministic and
/// round-dependent, so cross-round state bleed would change a sum).
void fill_round(std::uint32_t r, std::vector<Fp61>& secrets) {
  for (std::size_t i = 0; i < secrets.size(); ++i) {
    secrets[i] = Fp61(i + 1 + r);
  }
}

TEST(Campaign, PipelinedStreamIsDeterministic) {
  const net::Topology topo = lossless_grid16();
  const HierarchicalProtocol proto = make_hier(topo);
  const auto run_campaign = [&] {
    Session session(proto);
    Campaign campaign(session, CampaignConfig{/*rounds=*/6,
                                              /*pipelined=*/true});
    sim::Simulator sim(91);
    return campaign.run(sim, fill_round);
  };
  const CampaignResult a = run_campaign();
  const CampaignResult b = run_campaign();
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_EQ(a.serial_us, b.serial_us);
  EXPECT_EQ(a.rounds_ok, b.rounds_ok);
  EXPECT_EQ(a.round_latency_us, b.round_latency_us);
  EXPECT_EQ(a.round_ok, b.round_ok);
}

TEST(Campaign, PipelinedRoundsMatchSequentialRoundsInAStaticWorld) {
  // Pipelining only moves rounds earlier on the trial clock; in a
  // static world the protocol work itself must be identical round for
  // round — same ok flags, same per-round work duration (the latency
  // differs: pipelined rounds wait on the flood lane).
  const net::Topology topo = lossless_grid16();
  const HierarchicalProtocol proto = make_hier(topo);
  const auto run_campaign = [&](bool pipelined) {
    Session session(proto);
    Campaign campaign(session,
                      CampaignConfig{/*rounds=*/6, pipelined});
    sim::Simulator sim(91);
    return campaign.run(sim, fill_round);
  };
  const CampaignResult seq = run_campaign(false);
  const CampaignResult pip = run_campaign(true);
  EXPECT_EQ(seq.round_ok, pip.round_ok);
  EXPECT_EQ(seq.rounds_ok, pip.rounds_ok);
  EXPECT_EQ(seq.serial_us, pip.serial_us);
  EXPECT_EQ(seq.mean_success_ratio, pip.mean_success_ratio);
}

TEST(Campaign, PipeliningOverlapsRoundsAndBeatsTheSequentialStream) {
  const net::Topology topo = lossless_grid16();
  const HierarchicalProtocol proto = make_hier(topo);
  const auto run_campaign = [&](bool pipelined) {
    Session session(proto);
    Campaign campaign(session,
                      CampaignConfig{/*rounds=*/6, pipelined});
    sim::Simulator sim(91);
    return campaign.run(sim, fill_round);
  };
  const CampaignResult seq = run_campaign(false);
  const CampaignResult pip = run_campaign(true);
  // Sequential streams by definition: makespan == sum of round work.
  EXPECT_EQ(seq.makespan_us, seq.serial_us);
  EXPECT_EQ(seq.pipeline_speedup(), 1.0);
  // The pipelined stream overlaps round r+1's group phase with round
  // r's recombination + result floods: strictly shorter makespan.
  EXPECT_LT(pip.makespan_us, seq.makespan_us);
  EXPECT_GT(pip.pipeline_speedup(), 1.0);
  EXPECT_GT(pip.aggregates_per_sec(), seq.aggregates_per_sec());
  // All rounds still correct.
  EXPECT_EQ(pip.rounds_ok, 6u);
}

TEST(Campaign, FlatSessionsStreamSequentiallyEvenWhenAskedToPipeline) {
  // One chain occupies the whole band: nothing to overlap.
  const net::Topology topo = lossless_grid16();
  const crypto::KeyStore keys(3, topo.size());
  std::vector<NodeId> sources(topo.size());
  for (NodeId i = 0; i < topo.size(); ++i) sources[i] = i;
  const SssProtocol flat(
      topo, keys, make_s3_config(topo, sources, paper_degree(16), 6));
  Session session(flat);
  Campaign campaign(session, CampaignConfig{/*rounds=*/3,
                                            /*pipelined=*/true});
  sim::Simulator sim(7);
  const CampaignResult& res = campaign.run(sim, fill_round);
  EXPECT_EQ(res.makespan_us, res.serial_us);
  EXPECT_EQ(res.pipeline_speedup(), 1.0);
  EXPECT_EQ(res.rounds_ok, 3u);
}

/// Test double: one node is down on [0, until) of the trial clock.
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

TEST(Campaign, ChurnMidCampaignRecoversWithoutPoisoningWarmState) {
  // The precomputed leader of group 2 is down when round 0 starts (its
  // group re-elects) and back up for every later round. The stream must
  // absorb the churn — every round ok — and the session's warm state
  // (deputy buffers, elected-leader bookkeeping) must not leak round
  // 0's degraded view into later rounds: an extra round run on the same
  // warm session afterwards aggregates every node again.
  const net::Topology topo = lossless_grid16();
  const HierarchicalProtocol proto = make_hier(topo);
  const NodeId victim = proto.group_leader(2);
  const DownUntil churn(victim, 50 * kMillisecond);

  Session session(proto);
  Campaign campaign(session, CampaignConfig{/*rounds=*/3,
                                            /*pipelined=*/true});
  sim::Simulator sim(41);
  sim.set_liveness(&churn);
  const CampaignResult& res = campaign.run(sim, fill_round);
  EXPECT_EQ(res.rounds_ok, 3u);
  for (const char ok : res.round_ok) EXPECT_EQ(ok, 1);

  // One more warm round, long after recovery: the full sum — victim
  // included — reconstructs at every node. Advance the trial clock past
  // the churn window first (run_round starts at sim.now()).
  sim.advance(200 * kMillisecond);
  ASSERT_GE(sim.now(), 200 * kMillisecond);
  std::vector<Fp61> secrets(topo.size());
  fill_round(9, secrets);
  Fp61 expected;
  for (const Fp61& s : secrets) expected += s;
  const RoundReport& rep = session.run_round(secrets, sim);
  ASSERT_NE(rep.hier, nullptr);
  ASSERT_TRUE(rep.hier->has_aggregate);
  EXPECT_EQ(rep.hier->aggregate, expected);
  EXPECT_TRUE(rep.hier->aggregate_correct);
  EXPECT_EQ(rep.hier->success_ratio(), 1.0);
}

TEST(Campaign, RequiresAtLeastOneRound) {
  const net::Topology topo = lossless_grid16();
  const HierarchicalProtocol proto = make_hier(topo);
  Session session(proto);
  EXPECT_THROW(Campaign(session, CampaignConfig{/*rounds=*/0, true}),
               ContractViolation);
}

}  // namespace
}  // namespace mpciot::core
