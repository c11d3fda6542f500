// The transport seam: registry contract, and the equivalences that pin
// the seam to the concrete engines — the default transport must be
// bit-identical to calling run_glossy/run_minicast directly, the
// single-entry MiniCast chain must equal a Glossy flood, and every
// substrate's by-value and result-writing entry points must agree.
#include "ct/transport.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/assert.hpp"
#include "ct/chain_schedule.hpp"
#include "ct/glossy.hpp"
#include "net/testbeds.hpp"

namespace mpciot::ct {
namespace {

net::Topology make_line(std::size_t n = 5, double spacing = 14.0) {
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;  // near-perfect adjacent links
  std::vector<net::Position> pos;
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back(net::Position{static_cast<double>(i) * spacing, 0.0});
  }
  return net::Topology(std::move(pos), radio, 1);
}

TEST(Transport, RegistryNamesRoundTrip) {
  const std::vector<std::string> names = transport_names();
  ASSERT_EQ(names.size(), 4u);
  for (const std::string& name : names) {
    const std::unique_ptr<Transport> t = make_transport(name);
    ASSERT_NE(t, nullptr) << name;
    EXPECT_EQ(t->name(), name);
  }
  EXPECT_THROW(make_transport("carrier-pigeon"), ContractViolation);
}

TEST(Transport, DefaultIsMiniCast) {
  EXPECT_STREQ(minicast_transport().name(), "minicast");
}

TEST(Transport, MiniCastFloodEqualsRunGlossy) {
  const net::Topology topo = net::testbeds::random_uniform(12, 70, 70, 5);
  GlossyConfig cfg;
  cfg.initiator = topo.center_node();
  cfg.ntx = 3;

  crypto::Xoshiro256 rng1(42);
  const GlossyResult direct = run_glossy(topo, cfg, rng1);
  crypto::Xoshiro256 rng2(42);
  const GlossyResult seam = minicast_transport().flood(topo, cfg, rng2);

  EXPECT_EQ(direct.first_rx_slot, seam.first_rx_slot);
  EXPECT_EQ(direct.tx_count, seam.tx_count);
  EXPECT_EQ(direct.radio_on_us, seam.radio_on_us);
  EXPECT_EQ(direct.slots_used, seam.slots_used);
  EXPECT_EQ(direct.duration_us, seam.duration_us);
}

TEST(Transport, MiniCastChainRoundEqualsRunMiniCast) {
  const net::Topology topo = net::testbeds::random_uniform(12, 70, 70, 5);
  std::vector<ChainEntry> entries;
  for (NodeId i = 0; i < topo.size(); ++i) entries.push_back(ChainEntry{i});
  MiniCastConfig cfg;
  cfg.initiator = topo.center_node();
  cfg.ntx = 4;

  crypto::Xoshiro256 rng1(7);
  const MiniCastResult direct = run_minicast(topo, entries, cfg, rng1);
  crypto::Xoshiro256 rng2(7);
  const MiniCastResult seam =
      minicast_transport().chain_round(topo, entries, cfg, rng2);

  EXPECT_EQ(direct.rx_slot, seam.rx_slot);
  EXPECT_EQ(direct.tx_count, seam.tx_count);
  EXPECT_EQ(direct.done_slot, seam.done_slot);
  EXPECT_EQ(direct.radio_on_us, seam.radio_on_us);
  EXPECT_EQ(direct.chain_slots_used, seam.chain_slots_used);
}

TEST(Transport, SingleEntryMiniCastChainEqualsGlossyFlood) {
  // Glossy is the single-entry special case of the chain engine: for
  // identical seeds the flood and the one-entry chain round must agree
  // on every per-node observable.
  const net::Topology topo = net::testbeds::random_uniform(14, 80, 80, 9);
  const NodeId initiator = topo.center_node();

  GlossyConfig gcfg;
  gcfg.initiator = initiator;
  gcfg.ntx = 3;
  crypto::Xoshiro256 rng1(99);
  const GlossyResult flood = run_glossy(topo, gcfg, rng1);

  MiniCastConfig mcfg;
  mcfg.initiator = initiator;
  mcfg.ntx = 3;
  mcfg.payload_bytes = gcfg.payload_bytes;
  mcfg.max_chain_slots = gcfg.max_slots;
  crypto::Xoshiro256 rng2(99);
  const MiniCastResult chain = minicast_transport().chain_round(
      topo, {ChainEntry{initiator}}, mcfg, rng2);

  ASSERT_EQ(chain.rx_slot.size(), flood.first_rx_slot.size());
  for (NodeId n = 0; n < topo.size(); ++n) {
    EXPECT_EQ(chain.rx_slot[n][0], flood.first_rx_slot[n]) << "node " << n;
  }
  EXPECT_EQ(chain.tx_count, flood.tx_count);
  EXPECT_EQ(chain.radio_on_us, flood.radio_on_us);
  EXPECT_EQ(chain.chain_slots_used, flood.slots_used);
  EXPECT_EQ(chain.duration_us, flood.duration_us);
}

TEST(Transport, GlossyFloodsSingleEntryEqualsGlossy) {
  const net::Topology topo = make_line();
  const std::unique_ptr<Transport> lwb = make_transport("glossy_floods");

  GlossyConfig gcfg;
  gcfg.initiator = 0;
  gcfg.ntx = 3;
  crypto::Xoshiro256 rng1(5);
  const GlossyResult flood = run_glossy(topo, gcfg, rng1);

  MiniCastConfig mcfg;
  mcfg.initiator = 0;
  mcfg.ntx = 3;
  mcfg.payload_bytes = gcfg.payload_bytes;
  mcfg.max_chain_slots = gcfg.max_slots;
  crypto::Xoshiro256 rng2(5);
  const MiniCastResult chain =
      lwb->chain_round(topo, {ChainEntry{0}}, mcfg, rng2);

  for (NodeId n = 0; n < topo.size(); ++n) {
    EXPECT_EQ(chain.rx_slot[n][0], flood.first_rx_slot[n]);
  }
  EXPECT_EQ(chain.duration_us, flood.duration_us);
}

TEST(Transport, GlossyFloodsChainsSequentially) {
  const net::Topology topo = make_line();
  const std::unique_ptr<Transport> lwb = make_transport("glossy_floods");
  std::vector<ChainEntry> entries{ChainEntry{0}, ChainEntry{4}};
  MiniCastConfig cfg;
  cfg.initiator = 0;
  cfg.ntx = 4;
  crypto::Xoshiro256 rng(3);
  const MiniCastResult res = lwb->chain_round(topo, entries, cfg, rng);
  EXPECT_EQ(res.delivery_ratio(), 1.0);
  // Entry 1's flood starts strictly after entry 0's finished: every
  // reception of entry 1 sits at a later cumulative slot than any of
  // entry 0's.
  std::int32_t last_e0 = 0;
  std::int32_t first_e1 = INT32_MAX;
  for (NodeId n = 0; n < topo.size(); ++n) {
    if (res.rx_slot[n][0] >= 0) last_e0 = std::max(last_e0, res.rx_slot[n][0]);
    if (res.rx_slot[n][1] >= 0) {
      first_e1 = std::min(first_e1, res.rx_slot[n][1]);
    }
  }
  EXPECT_GT(first_e1, last_e0);
}

TEST(Transport, UnicastChainRoundHonorsDestinations) {
  const net::Topology topo = make_line();
  const UnicastTransport unicast;
  // Entry 0: point-to-point 0 -> 2; entry 1: broadcast from 4.
  std::vector<ChainEntry> entries{ChainEntry{0, 2}, ChainEntry{4}};
  MiniCastConfig cfg;
  crypto::Xoshiro256 rng(8);
  const MiniCastResult res =
      unicast.chain_round(topo, entries, cfg, rng, nullptr);

  EXPECT_TRUE(res.node_has(2, 0));
  // Point-to-point delivery must not leak the entry to non-destinations.
  EXPECT_FALSE(res.node_has(1, 0) && res.rx_slot[1][0] >= 0);
  EXPECT_EQ(res.rx_slot[3][0], MiniCastResult::kNever);
  // Broadcast entry reaches everyone.
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_TRUE(res.node_has(n, 1)) << "node " << n;
  }
  EXPECT_GT(res.duration_us, 0);
}

TEST(Transport, UnicastNeverRoutesThroughDisabledRelays) {
  // On a line the only good-link path 0 -> 2 crosses node 1: with node 1
  // dead the message must drop, and the dead node must never forward or
  // accrue radio time.
  const net::Topology topo = make_line();
  const UnicastTransport unicast;
  std::vector<ChainEntry> entries{ChainEntry{0, 2}};
  MiniCastConfig cfg;
  cfg.disabled = {0, 1, 0, 0, 0};
  crypto::Xoshiro256 rng(13);
  const MiniCastResult res =
      unicast.chain_round(topo, entries, cfg, rng, nullptr);
  EXPECT_FALSE(res.node_has(2, 0));
  EXPECT_EQ(res.tx_count[1], 0u);
  EXPECT_EQ(res.radio_on_us[1], 0);
}

void expect_same(const GlossyResult& a, const GlossyResult& b,
                 const std::string& what) {
  EXPECT_EQ(a.first_rx_slot, b.first_rx_slot) << what;
  EXPECT_EQ(a.tx_count, b.tx_count) << what;
  EXPECT_EQ(a.radio_on_us, b.radio_on_us) << what;
  EXPECT_EQ(a.slots_used, b.slots_used) << what;
  EXPECT_EQ(a.duration_us, b.duration_us) << what;
  EXPECT_EQ(a.channel, b.channel) << what;
}

void expect_same(const MiniCastResult& a, const MiniCastResult& b,
                 const std::string& what) {
  EXPECT_EQ(a.rx_slot, b.rx_slot) << what;
  EXPECT_EQ(a.tx_count, b.tx_count) << what;
  EXPECT_EQ(a.done_slot, b.done_slot) << what;
  EXPECT_EQ(a.radio_on_us, b.radio_on_us) << what;
  EXPECT_EQ(a.chain_slots_used, b.chain_slots_used) << what;
  EXPECT_EQ(a.chain_slot_us, b.chain_slot_us) << what;
  EXPECT_EQ(a.duration_us, b.duration_us) << what;
  EXPECT_EQ(a.channel, b.channel) << what;
}

std::vector<NodeId> all_nodes(const net::Topology& topo) {
  std::vector<NodeId> nodes(topo.size());
  for (NodeId i = 0; i < topo.size(); ++i) nodes[i] = i;
  return nodes;
}

TEST(Transport, EveryEntryPointGivesTheSameResult) {
  // Each substrate implements flood_into / chain_round_into once; the
  // by-value forms wrap them. From equal RNG states, the by-value result
  // must equal the result-writing one with a null scratch, with a
  // scratch, and written over a result (and scratch) left warm by a
  // larger earlier round — and both must leave the RNG at the same draw.
  const net::Topology topo = net::testbeds::random_uniform(12, 70, 70, 5);
  const net::Topology big = net::testbeds::random_uniform(20, 90, 90, 3);
  const SharingSchedule sharing =
      make_sharing_schedule(all_nodes(topo), {0, 3, 6, 9});
  const SharingSchedule big_sharing =
      make_sharing_schedule(all_nodes(big), {0, 4, 8, 12, 16, 19});

  GlossyConfig gcfg;
  gcfg.initiator = topo.center_node();
  gcfg.channel = 2;
  gcfg.ntx = 3;
  GlossyConfig big_gcfg;
  big_gcfg.initiator = big.center_node();
  big_gcfg.ntx = 5;
  MiniCastConfig mcfg;
  mcfg.initiator = topo.center_node();
  mcfg.channel = 2;
  mcfg.ntx = 3;
  MiniCastConfig big_mcfg;
  big_mcfg.initiator = big.center_node();
  big_mcfg.ntx = 5;

  constexpr std::uint64_t kSeed = 17;
  const char* const kVariants[] = {"null scratch", "scratch", "warm"};
  for (const std::string& name : transport_names()) {
    const std::unique_ptr<Transport> t = make_transport(name);

    crypto::Xoshiro256 flood_rng(kSeed);
    const GlossyResult flood = t->flood(topo, gcfg, flood_rng);
    const std::uint64_t flood_next = flood_rng.next_u64();
    crypto::Xoshiro256 chain_rng(kSeed);
    const MiniCastResult chain =
        t->chain_round(topo, sharing.entries, mcfg, chain_rng);
    const std::uint64_t chain_next = chain_rng.next_u64();

    for (int v = 0; v < 3; ++v) {
      const std::string what = name + ", " + kVariants[v];
      RoundContext scratch;
      GlossyResult flood_out;
      MiniCastResult chain_out;
      if (v == 2) {
        crypto::Xoshiro256 warm_rng(kSeed + 1);
        t->flood_into(big, big_gcfg, warm_rng, &scratch, flood_out);
        t->chain_round_into(big, big_sharing.entries, big_mcfg, warm_rng,
                            &scratch, chain_out);
      }
      RoundContext* const ctx = v == 0 ? nullptr : &scratch;

      crypto::Xoshiro256 rng(kSeed);
      t->flood_into(topo, gcfg, rng, ctx, flood_out);
      expect_same(flood, flood_out, what);
      EXPECT_EQ(rng.next_u64(), flood_next) << what;

      rng = crypto::Xoshiro256(kSeed);
      t->chain_round_into(topo, sharing.entries, mcfg, rng, ctx, chain_out);
      expect_same(chain, chain_out, what);
      EXPECT_EQ(rng.next_u64(), chain_next) << what;
    }
  }
}

TEST(Transport, UnicastDeterministicPerSeed) {
  const net::Topology topo = make_line();
  const UnicastTransport unicast;
  std::vector<ChainEntry> entries{ChainEntry{0}, ChainEntry{2, 4}};
  MiniCastConfig cfg;
  crypto::Xoshiro256 rng1(21);
  crypto::Xoshiro256 rng2(21);
  const MiniCastResult a = unicast.chain_round(topo, entries, cfg, rng1,
                                               nullptr);
  const MiniCastResult b = unicast.chain_round(topo, entries, cfg, rng2,
                                               nullptr);
  EXPECT_EQ(a.rx_slot, b.rx_slot);
  EXPECT_EQ(a.radio_on_us, b.radio_on_us);
  EXPECT_EQ(a.duration_us, b.duration_us);
}

}  // namespace
}  // namespace mpciot::ct
