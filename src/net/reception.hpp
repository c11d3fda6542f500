// Per-sub-slot reception arbitration: given the set of concurrent
// transmitters, decide for each listening node whether it decodes the
// packet.
//
// Three regimes, matching the CT literature (Glossy, survey by
// Zimmerling et al.):
//  * single transmitter     -> Bernoulli(static link PRR + fast fade)
//  * identical payloads (CT) -> constructive interference: the receiver
//    succeeds unless *all* incoming copies fail; correlation knob makes
//    the copies less-than-independent
//  * differing payloads     -> capture: the strongest signal must beat
//    the power sum of the rest by `capture_threshold_db`
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "crypto/prng.hpp"
#include "net/channel_model.hpp"
#include "net/topology.hpp"

namespace mpciot::net {

/// One concurrent transmission inside a sub-slot. `content_id` identifies
/// the payload bits; equal ids mean bit-identical packets (the CT case).
struct Transmission {
  NodeId sender = kInvalidNode;
  std::uint64_t content_id = 0;
};

struct ReceptionOutcome {
  bool received = false;
  NodeId from = kInvalidNode;       // decoded sender
  std::uint64_t content_id = 0;     // decoded payload id
};

class ReceptionModel {
 public:
  explicit ReceptionModel(const Topology& topo) : topo_(&topo) {}

  /// Arbitrate a sub-slot for `receiver`. `transmitters` must ascend by
  /// sender and must not contain the receiver itself (half-duplex
  /// radio). `view`, when non-null, supplies the current epoch's PRRs
  /// instead of the frozen tables (capture power ratios still use the
  /// frozen RSSI: bursts are modeled as loss, not as a change in who
  /// captures).
  ReceptionOutcome arbitrate(NodeId receiver,
                             const std::vector<Transmission>& transmitters,
                             crypto::Xoshiro256& rng,
                             const ChannelView* view = nullptr) const;

 private:
  const Topology* topo_;
};

}  // namespace mpciot::net
