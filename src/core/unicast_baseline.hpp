// Non-CT comparison baseline: Shamir Secret Sharing over conventional
// multi-hop unicast (collection-tree style routing with per-hop ARQ),
// the kind of stack a non-CT Contiki deployment would use.
//
// The paper's premise is that SMPC is communication-heavy and CT makes
// that affordable; this baseline quantifies the premise. Model:
//   * shortest-path routing over good links (from the topology tables);
//   * per-hop stop-and-wait ARQ: data + ack airtime, Bernoulli(link PRR)
//     per attempt, bounded retries;
//   * single collision domain (transmissions serialize network-wide) —
//     conservative for dense indoor testbeds;
//   * radio-on per node = its own TX/RX time + an idle-listening duty
//     cycle for the rest of the round (low-power-listening stacks pay
//     this to stay addressable).
//
// Both phases run as ct::UnicastTransport chain rounds behind the
// transport seam; the round then advances the trial clock
// (sim::Simulator::advance) by its total duration.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/protocol.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mpciot::core {

/// Fraction of elapsed round time a node's radio is on just to stay
/// addressable (ContikiMAC-class duty cycling).
inline constexpr double kIdleDutyCycle = 0.01;

struct UnicastResult {
  /// Messages that reached their destination / total messages.
  double delivery_ratio = 0.0;
  SimTime total_duration_us = 0;
  std::vector<SimTime> radio_on_us;  // per node
  std::vector<NodeOutcome> nodes;    // aggregate availability per node
  double success_ratio() const;
  SimTime max_radio_on_us() const;
};

/// Run one full SSS aggregation round (sharing + reconstruction) over
/// unicast routing. Configuration reuses ProtocolConfig (NTX fields are
/// ignored); the MAC runs at the net::routing::MacParams defaults.
UnicastResult run_unicast_sss(const net::Topology& topo,
                              const ProtocolConfig& config,
                              const std::vector<field::Fp61>& secrets,
                              sim::Simulator& sim);

}  // namespace mpciot::core
