// Simulation context: the trial clock, the channel RNG stream and the
// run's dynamics models.
//
// One `Simulator` owns the clock for one experiment run. Protocol code
// takes a Simulator& and never touches wall-clock time or global RNGs,
// which keeps runs deterministic and parallelizable at the process level.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "crypto/prng.hpp"
#include "net/channel_model.hpp"

namespace mpciot::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed);

  /// The trial clock: where the next round starts.
  SimTime now() const { return now_; }
  /// Move the clock `dt` forward. Precondition: dt >= 0.
  void advance(SimTime dt);

  /// Channel/link randomness (statistical PRNG).
  crypto::Xoshiro256& channel_rng() { return channel_rng_; }

  std::uint64_t seed() const { return seed_; }

  /// Time-varying channel model of this run; null = the frozen static
  /// snapshot. Owned by the caller (typically a per-trial
  /// sim::dynamics::LinkDynamics) and must outlive the run. Protocols
  /// read it here and thread it into every transport round.
  void set_channel_model(const net::ChannelModel* model) {
    channel_model_ = model;
  }
  const net::ChannelModel* channel_model() const { return channel_model_; }

  /// Node crash/recover schedule of this run; null = no churn. Owned by
  /// the caller (typically a per-trial sim::dynamics::NodeChurn).
  void set_liveness(const net::LivenessModel* liveness) {
    liveness_ = liveness;
  }
  const net::LivenessModel* liveness() const { return liveness_; }

 private:
  std::uint64_t seed_;
  SimTime now_ = 0;
  crypto::Xoshiro256 channel_rng_;
  const net::ChannelModel* channel_model_ = nullptr;
  const net::LivenessModel* liveness_ = nullptr;
};

}  // namespace mpciot::sim
