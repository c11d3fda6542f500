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

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/protocol.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace mpciot::core {

struct UnicastParams {
  std::uint32_t max_retries_per_hop = 8;
  std::uint32_t ack_payload_bytes = 2;
  /// Fraction of elapsed round time a node's radio is on just to stay
  /// addressable (ContikiMAC-class duty cycling).
  double idle_duty_cycle = 0.01;
  /// Receiver wake-up interval of the duty-cycled MAC (ContikiMAC
  /// default: 8 Hz). A sender must strobe for half of it on average
  /// before the receiver's ear is open — the dominant per-hop latency of
  /// low-power unicast, and the cost CT protocols avoid by keeping the
  /// whole network time-synchronized.
  SimTime wakeup_interval_us = 125000;
};

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
/// ignored; retries come from UnicastParams).
UnicastResult run_unicast_sss(const net::Topology& topo,
                              const ProtocolConfig& config,
                              const std::vector<field::Fp61>& secrets,
                              const UnicastParams& params,
                              sim::Simulator& sim);

}  // namespace mpciot::core
