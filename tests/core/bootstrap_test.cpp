#include "core/bootstrap.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"
#include "core/wire.hpp"
#include "ct/chain_schedule.hpp"
#include "net/testbeds.hpp"

namespace mpciot::core {
namespace {

net::Topology make_line(std::size_t n = 5) {
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  radio.tx_defer_prob = 0.0;
  std::vector<net::Position> pos;
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back(net::Position{static_cast<double>(i) * 14.0, 0.0});
  }
  return net::Topology(std::move(pos), radio, 1);
}

TEST(ElectShareHolders, PicksCentralNodesOnLine) {
  const net::Topology topo = make_line(7);
  const std::vector<NodeId> sources{0, 1, 2, 3, 4, 5, 6};
  const auto holders = elect_share_holders(topo, sources, 3);
  ASSERT_EQ(holders.size(), 3u);
  // On a line, total-hop-minimizing nodes are the middle ones.
  EXPECT_EQ(holders, (std::vector<NodeId>{2, 3, 4}));
}

TEST(ElectShareHolders, DeterministicAndSorted) {
  const net::Topology topo = net::testbeds::flocklab();
  std::vector<NodeId> sources;
  for (NodeId i = 0; i < topo.size(); ++i) sources.push_back(i);
  const auto a = elect_share_holders(topo, sources, 9);
  const auto b = elect_share_holders(topo, sources, 9);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(ElectShareHolders, CountBoundsChecked) {
  const net::Topology topo = make_line(4);
  EXPECT_THROW(elect_share_holders(topo, {0}, 0), ContractViolation);
  EXPECT_THROW(elect_share_holders(topo, {0}, 5), ContractViolation);
  EXPECT_THROW(elect_share_holders(topo, {}, 1), ContractViolation);
}

TEST(ElectShareHolders, SubsetSourcesBiasTowardThem) {
  const net::Topology topo = make_line(9);
  // Sources clustered at the left end: the single holder should be left
  // of center.
  const auto holders = elect_share_holders(topo, {0, 1, 2}, 1);
  EXPECT_LE(holders[0], 2u);
}

TEST(CalibrateNtx, FindsSmallNtxForEasyGoal) {
  const net::Topology topo = make_line(5);
  crypto::Xoshiro256 rng(7);
  const std::vector<ct::ChainEntry> entries{ct::ChainEntry{0}};
  ct::MiniCastConfig base;
  base.initiator = 0;
  base.payload_bytes = 16;
  const NtxCalibration cal =
      calibrate_ntx(topo, entries, base, 1.0, 3, 10, rng);
  EXPECT_TRUE(cal.satisfied);
  EXPECT_LE(cal.ntx, 4u);
}

TEST(CalibrateNtx, ReportsUnsatisfiedWhenGoalImpossible) {
  // A chain whose origin is disabled can never deliver: calibration must
  // hit the cap and say so.
  const net::Topology topo = make_line(5);
  crypto::Xoshiro256 rng(9);
  const std::vector<ct::ChainEntry> entries{ct::ChainEntry{4}};
  ct::MiniCastConfig base;
  base.initiator = 0;
  base.payload_bytes = 16;
  base.disabled = {0, 0, 0, 0, 1};  // entry origin dead
  const NtxCalibration cal =
      calibrate_ntx(topo, entries, base, 1.0, 2, 5, rng);
  EXPECT_FALSE(cal.satisfied);
  EXPECT_EQ(cal.ntx, 5u);
}

TEST(CalibrateNtx, MonotoneGoalYieldsMonotoneNtx) {
  // Requiring a stricter done-ratio can only raise the calibrated NTX.
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  radio.tx_defer_prob = 0.0;
  std::vector<net::Position> pos;
  for (int i = 0; i < 8; ++i) pos.push_back({i * 19.0, 0.0});
  const net::Topology topo(std::move(pos), radio, 3);
  std::vector<ct::ChainEntry> entries;
  for (NodeId i = 0; i < 8; ++i) entries.push_back(ct::ChainEntry{i});
  ct::MiniCastConfig base;
  base.initiator = 3;
  base.payload_bytes = 16;
  base.scheduled_owners = {0, 1, 2, 3, 4, 5, 6, 7};
  crypto::Xoshiro256 rng1(11);
  crypto::Xoshiro256 rng2(11);
  const NtxCalibration loose =
      calibrate_ntx(topo, entries, base, 0.5, 3, 16, rng1);
  const NtxCalibration strict =
      calibrate_ntx(topo, entries, base, 1.0, 3, 16, rng2);
  EXPECT_LE(loose.ntx, strict.ntx);
}

}  // namespace
}  // namespace mpciot::core
