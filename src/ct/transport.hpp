// The transport seam: one interface over every communication substrate
// the aggregation protocols can run on.
//
// A transport provides the two primitives the paper's round structure
// needs — a one-to-all synchronization *flood* and a many-to-many
// *chain round* over a TDMA-style entry schedule — and returns the
// common result views (GlossyResult / MiniCastResult). core::protocol,
// core::bootstrap and core::unicast_baseline are written against this
// seam, so a new workload means registering a transport, not editing
// the protocol engine.
//
// Registered substrates:
//   * "minicast"      — MiniCast chains, Glossy sync floods (the paper's
//                       substrate; the default everywhere).
//   * "glossy_floods" — one sequential Glossy flood per entry, LWB
//                       style: no chaining, every packet pays its own
//                       flood.
//   * "gossip"        — lossy slotted push-gossip; one entry per slot,
//                       collisions resolved by capture (see gossip.hpp).
//   * "unicast"       — routed stop-and-wait unicast over good links
//                       (the duty-cycled baseline; honours per-entry
//                       destinations).
//
// Transports are stateless and thread-safe: concurrent trials may share
// one instance. Each substrate implements each primitive once, as the
// result-writing flood_into / chain_round_into; the by-value flood /
// chain_round are base-class wrappers over them. Callers running many
// rounds can pass a RoundContext to reuse scratch allocations where the
// substrate supports it.
//
// Every substrate honours the dynamics seams in its config
// (start_time_us + channel_model + liveness, see MiniCastConfig): link
// tables are queried per slot through an epoch-cached net::ChannelView
// and churn-down nodes fall silent mid-round. With the seams unset the
// substrates consume exactly the static RNG stream — frozen-topology
// results are byte-identical.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "crypto/prng.hpp"
#include "ct/glossy.hpp"
#include "ct/gossip.hpp"
#include "ct/minicast.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"

namespace mpciot::ct {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Registry name (see the list above).
  virtual const char* name() const = 0;

  /// One-to-all synchronization flood from config.initiator, written
  /// into `out`. `scratch` follows the chain_round_into contract below;
  /// substrates that keep no per-round state ignore it.
  virtual void flood_into(const net::Topology& topo,
                          const GlossyConfig& config, crypto::Xoshiro256& rng,
                          RoundContext* scratch, GlossyResult& out) const = 0;

  /// One many-to-many round over the chain `entries`, written into
  /// `out`. `scratch`, when non-null, lets the substrate reuse per-round
  /// allocations; passing the same context from concurrent threads is
  /// the caller's bug. Every field of `out` is overwritten, so streaming
  /// callers (core::Session) keep one result warm across rounds; the
  /// MiniCast substrate reuses its buffers, so a warmed-up session round
  /// performs zero heap allocations on the paper's substrate.
  virtual void chain_round_into(const net::Topology& topo,
                                const std::vector<ChainEntry>& entries,
                                const MiniCastConfig& config,
                                crypto::Xoshiro256& rng, RoundContext* scratch,
                                MiniCastResult& out) const = 0;

  /// By-value forms of the two primitives for one-shot callers.
  /// Substrates do not override them; they stay virtual so a decorator
  /// (perfbench's TimedTransport) can wrap every entry point.
  virtual GlossyResult flood(const net::Topology& topo,
                             const GlossyConfig& config,
                             crypto::Xoshiro256& rng,
                             RoundContext* scratch = nullptr) const {
    GlossyResult out;
    flood_into(topo, config, rng, scratch, out);
    return out;
  }
  virtual MiniCastResult chain_round(const net::Topology& topo,
                                     const std::vector<ChainEntry>& entries,
                                     const MiniCastConfig& config,
                                     crypto::Xoshiro256& rng,
                                     RoundContext* scratch = nullptr) const {
    MiniCastResult out;
    chain_round_into(topo, entries, config, rng, scratch, out);
    return out;
  }
};

/// Time overlay for rounds running on orthogonal radio channels.
///
/// The chain engines simulate one round in isolation; when a composition
/// layer (e.g. core::HierarchicalProtocol) runs many rounds "at the same
/// time", rounds on distinct channels genuinely overlap while rounds
/// sharing a channel contend and must be serialized. ChannelTimeline
/// does that bookkeeping: book() appends a round to its channel's
/// timeline and returns the start offset; end_us() is the makespan over
/// all channels.
class ChannelTimeline {
 public:
  explicit ChannelTimeline(std::uint16_t num_channels);

  /// Reserve `duration_us` on `channel`, starting at the later of the
  /// channel's current end and `earliest_us` (e.g. a dependency on an
  /// earlier phase). Returns the booked start time.
  SimTime book(std::uint16_t channel, SimTime duration_us,
               SimTime earliest_us = 0);

  std::uint16_t num_channels() const {
    return static_cast<std::uint16_t>(end_.size());
  }
  SimTime channel_end_us(std::uint16_t channel) const;
  /// Makespan: when the busiest channel goes quiet.
  SimTime end_us() const;
  /// Clear every channel back to t=0, keeping the allocation — lets a
  /// streaming campaign reuse one timeline across trials.
  void reset();
  /// Re-shape to `num_channels` channels, all cleared to t=0 (the
  /// allocation is kept unless the channel count grows).
  void resize(std::uint16_t num_channels);

 private:
  std::vector<SimTime> end_;
};

/// The paper's substrate (MiniCast chains + Glossy floods), shared
/// process-wide. What every seam consumer defaults to when handed no
/// transport.
const Transport& minicast_transport();

/// Instantiate a registered substrate by name; throws ContractViolation
/// for unknown names. `gossip` runs at the constants in gossip.cpp,
/// `unicast` at the net::routing::MacParams defaults.
std::unique_ptr<Transport> make_transport(const std::string& name);

/// Names accepted by make_transport, in registry order.
std::vector<std::string> transport_names();

/// Lossy slotted push-gossip substrate (see gossip.hpp).
class GossipTransport : public Transport {
 public:
  const char* name() const override { return "gossip"; }
  void flood_into(const net::Topology& topo, const GlossyConfig& config,
                  crypto::Xoshiro256& rng, RoundContext* scratch,
                  GlossyResult& out) const override;
  void chain_round_into(const net::Topology& topo,
                        const std::vector<ChainEntry>& entries,
                        const MiniCastConfig& config, crypto::Xoshiro256& rng,
                        RoundContext* scratch,
                        MiniCastResult& out) const override;
};

/// Routed stop-and-wait unicast substrate over net::routing. Entries
/// with a destination go point-to-point; broadcast entries
/// (destination == kInvalidNode) are delivered to every node in turn.
/// Results use chain_slot_us == 1 ms, with rx/done "slots" being
/// cumulative elapsed milliseconds.
class UnicastTransport : public Transport {
 public:
  const char* name() const override { return "unicast"; }
  void flood_into(const net::Topology& topo, const GlossyConfig& config,
                  crypto::Xoshiro256& rng, RoundContext* scratch,
                  GlossyResult& out) const override;
  void chain_round_into(const net::Topology& topo,
                        const std::vector<ChainEntry>& entries,
                        const MiniCastConfig& config, crypto::Xoshiro256& rng,
                        RoundContext* scratch,
                        MiniCastResult& out) const override;
};

}  // namespace mpciot::ct
