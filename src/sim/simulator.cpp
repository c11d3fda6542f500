#include "sim/simulator.hpp"

#include "common/assert.hpp"

namespace mpciot::sim {

Simulator::Simulator(std::uint64_t seed)
    : seed_(seed), channel_rng_(seed ^ 0xC0FFEE1234567890ull) {}

void Simulator::advance(SimTime dt) {
  MPCIOT_REQUIRE(dt >= 0, "Simulator: the clock cannot run backwards");
  now_ += dt;
}

}  // namespace mpciot::sim
