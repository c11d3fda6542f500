#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "common/assert.hpp"

namespace mpciot::sim {
namespace {

TEST(Simulator, SeedIsStored) {
  Simulator sim(12345);
  EXPECT_EQ(sim.seed(), 12345u);
}

TEST(Simulator, ChannelRngDeterministicPerSeed) {
  Simulator a(7);
  Simulator b(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.channel_rng().next_u64(), b.channel_rng().next_u64());
  }
}

TEST(Simulator, DifferentSeedsGiveDifferentChannels) {
  Simulator a(7);
  Simulator b(8);
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.channel_rng().next_u64() == b.channel_rng().next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Simulator, AdvanceMovesTheClock) {
  Simulator sim(1);
  EXPECT_EQ(sim.now(), 0);
  sim.advance(10);
  sim.advance(0);
  sim.advance(15);
  EXPECT_EQ(sim.now(), 25);
  EXPECT_THROW(sim.advance(-1), ContractViolation);
  EXPECT_EQ(sim.now(), 25);
}

}  // namespace
}  // namespace mpciot::sim
