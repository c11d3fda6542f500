// The lossy slotted-gossip engine behind the "gossip" transport.
#include "ct/gossip.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "net/testbeds.hpp"

namespace mpciot::ct {
namespace {

net::Topology make_line(std::size_t n = 5, double spacing = 14.0) {
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  std::vector<net::Position> pos;
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back(net::Position{static_cast<double>(i) * spacing, 0.0});
  }
  return net::Topology(std::move(pos), radio, 1);
}

TEST(Gossip, ValidatesConfig) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(1);
  MiniCastConfig cfg;
  EXPECT_THROW(run_gossip(topo, {}, cfg, rng), ContractViolation);
  cfg.ntx = 0;
  EXPECT_THROW(run_gossip(topo, {ChainEntry{0}}, cfg, rng), ContractViolation);
  cfg.ntx = 3;
  EXPECT_THROW(run_gossip(topo, {ChainEntry{77}}, cfg, rng), ContractViolation);
  cfg.disabled = {1};  // wrong size
  EXPECT_THROW(run_gossip(topo, {ChainEntry{0}}, cfg, rng), ContractViolation);
}

TEST(Gossip, DisseminatesAlongTheLine) {
  // Relayed push gossip with a healthy budget delivers the single entry
  // end to end in (nearly) every round.
  const net::Topology topo = make_line();
  int full = 0;
  for (int t = 0; t < 20; ++t) {
    crypto::Xoshiro256 rng(100 + t);
    MiniCastConfig cfg;
    cfg.ntx = 6;
    const MiniCastResult res =
        run_gossip(topo, {ChainEntry{0}}, cfg, rng);
    if (res.delivery_ratio() == 1.0) ++full;
  }
  EXPECT_GE(full, 18);
}

TEST(Gossip, DeterministicPerSeed) {
  const net::Topology topo = net::testbeds::random_uniform(10, 60, 60, 4);
  std::vector<ChainEntry> entries;
  for (NodeId i = 0; i < topo.size(); ++i) entries.push_back(ChainEntry{i});
  MiniCastConfig cfg;
  cfg.ntx = 3;
  crypto::Xoshiro256 rng1(11);
  crypto::Xoshiro256 rng2(11);
  const MiniCastResult a = run_gossip(topo, entries, cfg, rng1);
  const MiniCastResult b = run_gossip(topo, entries, cfg, rng2);
  EXPECT_EQ(a.rx_slot, b.rx_slot);
  EXPECT_EQ(a.tx_count, b.tx_count);
  EXPECT_EQ(a.radio_on_us, b.radio_on_us);
  EXPECT_EQ(a.chain_slots_used, b.chain_slots_used);
}

TEST(Gossip, DisabledNodeNeverParticipates) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(6);
  MiniCastConfig cfg;
  cfg.ntx = 6;
  cfg.disabled = {0, 0, 1, 0, 0};  // node 2 dead: line is cut
  const MiniCastResult res =
      run_gossip(topo, {ChainEntry{0}, ChainEntry{4}}, cfg, rng);
  EXPECT_EQ(res.tx_count[2], 0u);
  EXPECT_EQ(res.radio_on_us[2], 0);
  EXPECT_FALSE(res.node_has(3, 0));
  EXPECT_FALSE(res.node_has(4, 0));
}

TEST(Gossip, BudgetCapsTransmissions) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(9);
  std::vector<ChainEntry> entries{ChainEntry{0}, ChainEntry{1}};
  MiniCastConfig cfg;
  cfg.ntx = 2;
  const MiniCastResult res =
      run_gossip(topo, entries, cfg, rng);
  for (NodeId n = 0; n < topo.size(); ++n) {
    // At most ntx transmissions per entry the node ever held.
    EXPECT_LE(res.tx_count[n], 2u * entries.size()) << "node " << n;
  }
}

TEST(Gossip, EarlyOffLeavesOnlyAfterBudgetSpent) {
  // Under kEarlyOff a done node keeps relaying until its per-entry send
  // budget is gone — so origins always inject their data.
  const net::Topology topo = make_line();
  MiniCastConfig cfg;
  cfg.ntx = 2;
  cfg.radio_policy = RadioPolicy::kEarlyOff;
  // Relay-style predicate: everyone is "done" immediately.
  cfg.done = [](NodeId, BitView) { return true; };
  int delivered = 0;
  for (int t = 0; t < 20; ++t) {
    crypto::Xoshiro256 rng(50 + t);
    const MiniCastResult res =
        run_gossip(topo, {ChainEntry{0}}, cfg, rng);
    if (res.node_has(1, 0)) ++delivered;
  }
  // The origin's neighbour hears the entry in most rounds despite the
  // instant done predicate.
  EXPECT_GE(delivered, 15);
}

}  // namespace
}  // namespace mpciot::ct
