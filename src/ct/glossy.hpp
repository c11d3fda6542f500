// Glossy (Ferrari et al., IPSN 2011): one-to-all concurrent-transmission
// flooding. In this library Glossy is the single-entry special case of
// the MiniCast chain engine — the trigger rule, NTX budget and timing are
// identical, so modelling it once keeps the two protocols consistent.
//
// Used directly by the bootstrapping phase (initiator election, NTX
// calibration) and by the NTX-vs-coverage bench that reproduces the
// non-linear behaviour §III exploits.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "crypto/prng.hpp"
#include "ct/minicast.hpp"
#include "net/topology.hpp"

namespace mpciot::ct {

struct GlossyConfig {
  NodeId initiator = 0;
  /// Radio channel (orthogonality metadata; see MiniCastConfig::channel).
  std::uint16_t channel = 0;
  std::uint32_t ntx = 3;
  std::uint32_t payload_bytes = 16;
  std::uint32_t max_slots = 256;
  /// Dynamics seams, mirroring MiniCastConfig: flood start on the trial
  /// clock, time-varying channel, and node churn. All default to the
  /// static world.
  SimTime start_time_us = 0;
  const net::ChannelModel* channel_model = nullptr;
  const net::LivenessModel* liveness = nullptr;
};

struct GlossyResult {
  /// Slot of first reception per node (kNever if missed; kOwnEntry for
  /// the initiator).
  std::vector<std::int32_t> first_rx_slot;
  std::vector<std::uint32_t> tx_count;
  std::vector<SimTime> radio_on_us;
  std::uint32_t slots_used = 0;
  SimTime duration_us = 0;
  /// Channel the flood ran on (echoed from the config).
  std::uint16_t channel = 0;

  /// Fraction of non-initiator nodes that received the flood.
  double coverage() const;
};

/// Run one Glossy flood. `scratch`, when non-null, reuses per-round
/// allocations and continues an epoch-walked channel view across
/// rounds (see RoundContext / ChannelView).
GlossyResult run_glossy(const net::Topology& topo, const GlossyConfig& config,
                        crypto::Xoshiro256& rng,
                        RoundContext* scratch = nullptr);

/// As above, writing into a caller-owned result. The one-entry chain and
/// the intermediate chain result live in `scratch`, so a warmed-up flood
/// performs zero heap allocations.
void run_glossy_into(const net::Topology& topo, const GlossyConfig& config,
                     crypto::Xoshiro256& rng, RoundContext& scratch,
                     GlossyResult& out);

/// Every substrate runs a flood as a chain round over the one entry
/// {ChainEntry{config.initiator}}. This maps the flood config onto that
/// round's config; substrates differ only in the radio `policy`.
MiniCastConfig flood_chain_config(const GlossyConfig& config,
                                  RadioPolicy policy);

/// Writes the one-entry chain result `chain` into `out`, overwriting
/// every field (a warm `out` reuses its buffers).
void flood_result_from_chain(const MiniCastResult& chain, GlossyResult& out);

}  // namespace mpciot::ct
