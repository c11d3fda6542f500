#include "ct/minicast.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>

#include "common/assert.hpp"
#include "net/testbeds.hpp"
#include "sim/dynamics.hpp"

namespace mpciot::ct {
namespace {

net::RadioParams ideal_radio() {
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  radio.tx_defer_prob = 0.0;  // deterministic waves for unit tests
  return radio;
}

/// 5-node line, adjacent links near-perfect.
net::Topology make_line(std::size_t n = 5, double spacing = 14.0) {
  std::vector<net::Position> pos;
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back(net::Position{static_cast<double>(i) * spacing, 0.0});
  }
  return net::Topology(std::move(pos), ideal_radio(), 1);
}

TEST(MiniCast, ValidatesConfig) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(1);
  MiniCastConfig cfg;
  EXPECT_THROW(run_minicast(topo, {}, cfg, rng), ContractViolation);
  cfg.initiator = 99;
  EXPECT_THROW(run_minicast(topo, {ChainEntry{0}}, cfg, rng),
               ContractViolation);
  cfg.initiator = 0;
  cfg.ntx = 0;
  EXPECT_THROW(run_minicast(topo, {ChainEntry{0}}, cfg, rng),
               ContractViolation);
  cfg.ntx = 1;
  EXPECT_THROW(run_minicast(topo, {ChainEntry{77}}, cfg, rng),
               ContractViolation);
  cfg.disabled = {1};  // wrong size
  EXPECT_THROW(run_minicast(topo, {ChainEntry{0}}, cfg, rng),
               ContractViolation);
}

TEST(MiniCast, SingleEntryFloodsWholeLine) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(2);
  MiniCastConfig cfg;
  cfg.initiator = 0;
  cfg.ntx = 4;
  const MiniCastResult res =
      run_minicast(topo, {ChainEntry{0}}, cfg, rng);
  EXPECT_EQ(res.rx_slot[0][0], MiniCastResult::kOwnEntry);
  for (NodeId n = 1; n < 5; ++n) {
    EXPECT_TRUE(res.node_has(n, 0)) << "node " << n;
    // Reception slot respects hop distance (can't arrive before the wave).
    EXPECT_GE(res.rx_slot[n][0], static_cast<std::int32_t>(n - 1));
  }
  EXPECT_EQ(res.delivery_ratio(), 1.0);
}

TEST(MiniCast, AllToAllOnLineDelivers) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(3);
  std::vector<ChainEntry> entries;
  for (NodeId n = 0; n < 5; ++n) entries.push_back(ChainEntry{n});
  MiniCastConfig cfg;
  cfg.initiator = 2;
  cfg.ntx = 8;
  cfg.scheduled_owners = {0, 1, 2, 3, 4};
  const MiniCastResult res = run_minicast(topo, entries, cfg, rng);
  EXPECT_EQ(res.delivery_ratio(), 1.0);
  EXPECT_EQ(res.done_ratio(), 1.0);
}

TEST(MiniCast, TxCountNeverExceedsNtx) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(4);
  MiniCastConfig cfg;
  cfg.initiator = 0;
  cfg.ntx = 3;
  const MiniCastResult res =
      run_minicast(topo, {ChainEntry{0}}, cfg, rng);
  for (NodeId n = 0; n < 5; ++n) {
    EXPECT_LE(res.tx_count[n], 3u);
  }
}

TEST(MiniCast, CoverageIsMonotoneInNtxOnAverage) {
  // Property: mean delivery at NTX=6 >= mean delivery at NTX=1 on a
  // lossy random topology.
  const net::Topology topo = net::testbeds::random_uniform(12, 70, 70, 5);
  auto mean_delivery = [&](std::uint32_t ntx) {
    double total = 0;
    for (int t = 0; t < 10; ++t) {
      crypto::Xoshiro256 rng(100 + t);
      std::vector<ChainEntry> entries;
      for (NodeId n = 0; n < topo.size(); ++n) entries.push_back(ChainEntry{n});
      MiniCastConfig cfg;
      cfg.initiator = topo.center_node();
      cfg.ntx = ntx;
      total += run_minicast(topo, entries, cfg, rng).delivery_ratio();
    }
    return total / 10;
  };
  EXPECT_GE(mean_delivery(6) + 0.02, mean_delivery(1));
  EXPECT_GT(mean_delivery(6), 0.5);
}

TEST(MiniCast, DisabledNodeNeverParticipates) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(6);
  std::vector<ChainEntry> entries{ChainEntry{0}, ChainEntry{4}};
  MiniCastConfig cfg;
  cfg.initiator = 0;
  cfg.ntx = 6;
  cfg.disabled = {0, 0, 1, 0, 0};  // node 2 dead: line is cut
  cfg.scheduled_owners = {0, 4};
  const MiniCastResult res = run_minicast(topo, entries, cfg, rng);
  EXPECT_EQ(res.tx_count[2], 0u);
  EXPECT_EQ(res.radio_on_us[2], 0);
  // Entry 0 cannot cross the dead node to reach node 3 or 4.
  EXPECT_FALSE(res.node_has(3, 0));
  EXPECT_FALSE(res.node_has(4, 0));
  // But node 1 still gets it.
  EXPECT_TRUE(res.node_has(1, 0));
}

TEST(MiniCast, EarlyOffReducesRadioOn) {
  const net::Topology topo = make_line();
  std::vector<ChainEntry> entries{ChainEntry{0}};
  MiniCastConfig base;
  base.initiator = 0;
  base.ntx = 6;
  base.done = [](NodeId, BitView have) { return have.test(0); };

  crypto::Xoshiro256 rng1(7);
  MiniCastConfig on = base;
  on.radio_policy = RadioPolicy::kUntilQuiescence;
  const MiniCastResult full = run_minicast(topo, entries, on, rng1);

  crypto::Xoshiro256 rng2(7);
  MiniCastConfig off = base;
  off.radio_policy = RadioPolicy::kEarlyOff;
  const MiniCastResult early = run_minicast(topo, entries, off, rng2);

  SimTime full_total = 0;
  SimTime early_total = 0;
  for (NodeId n = 0; n < 5; ++n) {
    full_total += full.radio_on_us[n];
    early_total += early.radio_on_us[n];
  }
  EXPECT_LT(early_total, full_total);
}

TEST(MiniCast, DoneSlotRecordsFirstSatisfaction) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(8);
  MiniCastConfig cfg;
  cfg.initiator = 0;
  cfg.ntx = 5;
  const MiniCastResult res =
      run_minicast(topo, {ChainEntry{0}}, cfg, rng);
  // Initiator owns the entry: done at slot 0 (checked before the round).
  EXPECT_EQ(res.done_slot[0], 0);
  // Last node in the line can only be done at or after its rx slot.
  ASSERT_TRUE(res.node_has(4, 0));
  EXPECT_GE(res.done_slot[4], res.rx_slot[4][0]);
}

TEST(MiniCast, ChainSlotDurationScalesWithEntries) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(9);
  MiniCastConfig cfg;
  cfg.initiator = 0;
  cfg.ntx = 2;
  cfg.payload_bytes = 16;
  const MiniCastResult one =
      run_minicast(topo, {ChainEntry{0}}, cfg, rng);
  const MiniCastResult three = run_minicast(
      topo, {ChainEntry{0}, ChainEntry{0}, ChainEntry{0}}, cfg, rng);
  EXPECT_EQ(three.chain_slot_us, 3 * one.chain_slot_us);
  EXPECT_EQ(one.chain_slot_us,
            topo.radio().subslot_us(16));
}

TEST(MiniCast, DeterministicGivenSameRngSeed) {
  const net::Topology topo = make_line();
  std::vector<ChainEntry> entries{ChainEntry{0}, ChainEntry{2}, ChainEntry{4}};
  MiniCastConfig cfg;
  cfg.initiator = 2;
  cfg.ntx = 4;
  cfg.scheduled_owners = {0, 2, 4};
  crypto::Xoshiro256 rng1(77);
  crypto::Xoshiro256 rng2(77);
  const MiniCastResult a = run_minicast(topo, entries, cfg, rng1);
  const MiniCastResult b = run_minicast(topo, entries, cfg, rng2);
  EXPECT_EQ(a.rx_slot, b.rx_slot);
  EXPECT_EQ(a.tx_count, b.tx_count);
  EXPECT_EQ(a.radio_on_us, b.radio_on_us);
  EXPECT_EQ(a.chain_slots_used, b.chain_slots_used);
}

TEST(MiniCast, MaxChainSlotsCapsRound) {
  const net::Topology topo = make_line();
  crypto::Xoshiro256 rng(10);
  MiniCastConfig cfg;
  cfg.initiator = 0;
  cfg.ntx = 100;
  cfg.max_chain_slots = 3;
  const MiniCastResult res =
      run_minicast(topo, {ChainEntry{0}}, cfg, rng);
  EXPECT_LE(res.chain_slots_used, 3u);
}

TEST(MiniCast, ScheduledOwnerInjectsDespiteDeafness) {
  // Node 4 hangs off the line with a degraded receiver: it rarely hears
  // the wave, but as a scheduled owner it must still get its entry out.
  net::RadioParams radio = ideal_radio();
  std::vector<net::Position> pos;
  for (int i = 0; i < 5; ++i) pos.push_back({i * 14.0, 0.0});
  const net::Topology topo(std::move(pos), radio, 1,
                           {0.0, 0.0, 0.0, 0.0, 9.0});
  // The timeout path is probabilistic; the property is that the entry
  // escapes the deaf owner in (almost) every round, not in a lucky one.
  int escaped = 0;
  for (int t = 0; t < 20; ++t) {
    crypto::Xoshiro256 rng(11 + t);
    std::vector<ChainEntry> entries{ChainEntry{4}};
    MiniCastConfig cfg;
    cfg.initiator = 0;
    cfg.ntx = 6;
    cfg.scheduled_owners = {4};
    const MiniCastResult res = run_minicast(topo, entries, cfg, rng);
    if (res.node_has(3, 0)) ++escaped;
  }
  EXPECT_GE(escaped, 18);
}

/// `base` rebuilt from its layout, radio and receiver penalties with
/// another CT loss correlation; `shadow_seed` is the shadowing seed the
/// testbed generator settled on for `base`, so every link is unchanged.
net::Topology with_correlation(const net::Topology& base,
                               std::uint64_t shadow_seed,
                               std::vector<double> rx_penalty, double corr) {
  std::vector<net::Position> pos;
  for (NodeId i = 0; i < base.size(); ++i) pos.push_back(base.position(i));
  net::RadioParams radio = base.radio();
  radio.ct_loss_correlation = corr;
  return net::Topology(std::move(pos), radio, shadow_seed,
                       std::move(rx_penalty));
}

/// FNV-1a over every MiniCastResult field plus the RNG's next word after
/// the round: a change in who received what when, in radio time, or in
/// the number of draws the round consumed moves it.
std::uint64_t round_digest(const MiniCastResult& res, crypto::Xoshiro256& rng) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  };
  for (const auto& row : res.rx_slot) {
    mix(row.size());
    for (std::int32_t s : row) mix(static_cast<std::uint32_t>(s));
  }
  for (std::uint32_t t : res.tx_count) mix(t);
  for (std::int32_t d : res.done_slot) mix(static_cast<std::uint32_t>(d));
  for (SimTime r : res.radio_on_us) mix(static_cast<std::uint64_t>(r));
  mix(res.chain_slots_used);
  mix(static_cast<std::uint64_t>(res.chain_slot_us));
  mix(static_cast<std::uint64_t>(res.duration_us));
  mix(res.channel);
  mix(rng.next_u64());
  return h;
}

// Pins the chain engine's arbitration bit for bit: each configuration's
// digest was recorded from the per-entry arbitration loop, before the
// per-slot memo replaced it. The matrix spans multi-word transmitter
// sets (the 144-node grid), the pow() correlation path, link dynamics
// and churn (per-slot view seeks and listener sets), both radio
// policies, disabled nodes and scheduled owners.
TEST(MiniCast, ArbitrationDigestsArePinned) {
  struct Case {
    const char* name;
    std::uint64_t digest;
  };
  static const Case kExpected[] = {
      {"flocklab/corr1/static/until_quiet", 0x885DFD210D107504ull},
      {"flocklab/corr1/static/early_off", 0x450FD3E7C4226C43ull},
      {"flocklab/corr1/dynamics/until_quiet", 0xF0CACEDD453273B0ull},
      {"flocklab/corr1/dynamics/early_off", 0xCCB2166025630133ull},
      {"flocklab/corr1/dynamics+churn/until_quiet", 0x46C66399F646BA3Full},
      {"flocklab/corr1/dynamics+churn/early_off", 0x7ADBF64C1351871Eull},
      {"flocklab/corr3/static/until_quiet", 0xB863A03E9B85D35Full},
      {"flocklab/corr3/static/early_off", 0xAAC5285FCE3D9059ull},
      {"flocklab/corr3/dynamics/until_quiet", 0xF4A75D0BA8D0FE6Eull},
      {"flocklab/corr3/dynamics/early_off", 0x8E5202CA8E1BFC17ull},
      {"flocklab/corr3/dynamics+churn/until_quiet", 0x257CF944C32CC9F7ull},
      {"flocklab/corr3/dynamics+churn/early_off", 0xE0F491402B471F16ull},
      {"dcube/corr1/static/until_quiet", 0x49F8D4E918207AB9ull},
      {"dcube/corr1/static/early_off", 0x48C223F0A2AFFC5Bull},
      {"dcube/corr1/dynamics/until_quiet", 0xDC5A51285D100CD8ull},
      {"dcube/corr1/dynamics/early_off", 0x9DEF16580C0EECF5ull},
      {"dcube/corr1/dynamics+churn/until_quiet", 0x4394869E63555B14ull},
      {"dcube/corr1/dynamics+churn/early_off", 0xE5ED1F62A7A57EE2ull},
      {"dcube/corr3/static/until_quiet", 0xF53818196F2C2C5Bull},
      {"dcube/corr3/static/early_off", 0x9DD2F93807DE41AFull},
      {"dcube/corr3/dynamics/until_quiet", 0xE18A5485CBF66CC6ull},
      {"dcube/corr3/dynamics/early_off", 0xEB5A4A848E760A87ull},
      {"dcube/corr3/dynamics+churn/until_quiet", 0x0D114F915EDAC2A6ull},
      {"dcube/corr3/dynamics+churn/early_off", 0x2005AA3B4457FAFBull},
      {"grid12/corr1/static/until_quiet", 0xA91C239A20EF4AB6ull},
      {"grid12/corr1/static/early_off", 0x46F9FA10B2C10720ull},
      {"grid12/corr1/dynamics/until_quiet", 0x90CB0AAA6929EEA9ull},
      {"grid12/corr1/dynamics/early_off", 0x08865F2E94727C8Aull},
      {"grid12/corr1/dynamics+churn/until_quiet", 0xA5021349DF2F44FFull},
      {"grid12/corr1/dynamics+churn/early_off", 0xBFB9B9A48AB8B371ull},
      {"grid12/corr3/static/until_quiet", 0xFE20EAFA1DB5FB1Eull},
      {"grid12/corr3/static/early_off", 0x672CA0BFB5C32CA1ull},
      {"grid12/corr3/dynamics/until_quiet", 0x960AA9777BCEF43Eull},
      {"grid12/corr3/dynamics/early_off", 0x0CD67FE247546D6Full},
      {"grid12/corr3/dynamics+churn/until_quiet", 0xC4E090BE6A675C95ull},
      {"grid12/corr3/dynamics+churn/early_off", 0xD894EA45B5635DC8ull},
  };

  std::vector<std::pair<std::string, std::uint64_t>> got;
  for (const char* testbed : {"flocklab", "dcube", "grid12"}) {
    for (double corr : {1.0, 3.0}) {
      net::Topology topo = [&] {
        if (std::string(testbed) == "grid12") {
          net::RadioParams radio;
          radio.ct_loss_correlation = corr;
          return net::testbeds::grid(12, 12, 10.0, 5, radio);
        }
        const bool dcube = std::string(testbed) == "dcube";
        const net::Topology base =
            dcube ? net::testbeds::dcube() : net::testbeds::flocklab();
        std::vector<double> penalty(base.size(), 0.0);
        for (NodeId a = dcube ? 41 : 24; a < base.size(); ++a) {
          penalty[a] = 5.0;
        }
        const std::uint64_t shadow = dcube ? 0xDD07'3775ull : 0xF12A'4BE2ull;
        net::Topology rebuilt = with_correlation(base, shadow, penalty, corr);
        for (NodeId a = 0; a < base.size(); ++a) {
          for (NodeId b = 0; b < base.size(); ++b) {
            EXPECT_EQ(rebuilt.prr(a, b), base.prr(a, b)) << testbed;
          }
        }
        return rebuilt;
      }();
      const std::size_t n = topo.size();
      const NodeId initiator = topo.center_node();
      std::vector<ChainEntry> entries;
      const std::size_t per_node = n > 64 ? 1 : 2;
      for (NodeId i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < per_node; ++k) {
          entries.push_back(ChainEntry{i});
        }
      }

      for (const char* channel : {"static", "dynamics", "dynamics+churn"}) {
        sim::dynamics::LinkDynamicsParams lp;
        lp.seed = 17;
        const sim::dynamics::LinkDynamics links(lp);
        sim::dynamics::NodeChurnParams cp;
        cp.seed = 23;
        cp.crashes_per_sec = 0.3;
        cp.mean_downtime_us = 300 * kMillisecond;
        cp.immortal = initiator;
        const sim::dynamics::NodeChurn churn(n, cp);

        for (bool early : {false, true}) {
          std::string name = std::string(testbed) + "/corr";
          name += std::to_string(static_cast<int>(corr)) + "/" + channel;
          name += early ? "/early_off" : "/until_quiet";
          MiniCastConfig cfg;
          cfg.initiator = initiator;
          cfg.ntx = 4;
          cfg.start_time_us = kSecond;
          if (std::string(channel) != "static") cfg.channel_model = &links;
          if (std::string(channel) == "dynamics+churn") cfg.liveness = &churn;
          if (early) {
            // Early radio-off, owners on a timeout, and two dead nodes off
            // the initiator.
            cfg.radio_policy = RadioPolicy::kEarlyOff;
            for (NodeId i = 0; i < n; ++i) cfg.scheduled_owners.push_back(i);
            cfg.disabled.assign(n, 0);
            for (NodeId d : {NodeId{1}, static_cast<NodeId>(n - 2)}) {
              if (d != initiator) cfg.disabled[d] = 1;
            }
          }
          crypto::Xoshiro256 rng(0xA4B1 + got.size());
          RoundContext scratch;
          MiniCastResult res;
          run_minicast_into(topo, entries, cfg, rng, scratch, res);
          got.emplace_back(name, round_digest(res, rng));
        }
      }
    }
  }

  ASSERT_EQ(got.size(), std::size(kExpected));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, kExpected[i].name);
    EXPECT_EQ(got[i].second, kExpected[i].digest)
        << got[i].first << " digest 0x" << std::hex << got[i].second;
  }
}

}  // namespace
}  // namespace mpciot::ct
