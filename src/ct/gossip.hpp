// Lossy slotted gossip: a non-CT broadcast baseline for the transport
// seam. Where MiniCast packs all entries into one synchronized TDMA
// chain, gossip sends ONE entry per slot per transmitter, chosen
// round-robin from what the node holds, with a per-slot transmission
// probability — the classic push-gossip dissemination pattern on a
// shared channel. Concurrent transmitters usually carry *different*
// entries, so reception runs through the capture regime of
// net::ReceptionModel instead of constructive interference; collisions
// are real, which is exactly the cost CT chains avoid.
//
// Budget: a node transmits each entry at most `ntx` times (mirroring
// MiniCast's per-chain NTX). Under kEarlyOff a node leaves the
// protocol — radio off, no more relaying — once its `done` predicate
// holds AND it has fully spent its send budget on data it actually
// held, so owners always inject first (MiniCast's "NTX spent" rule);
// done nodes holding nothing yet stay on as relays-in-waiting. Under
// kUntilQuiescence everyone keeps relaying until the round ends. The
// round ends when nobody is eligible to transmit or at the sub-slot
// cap.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/prng.hpp"
#include "ct/minicast.hpp"
#include "net/topology.hpp"

namespace mpciot::ct {

/// Run one gossip round. Reuses MiniCastConfig for the shared knobs
/// (ntx = per-entry budget, payload_bytes, radio_policy, done, disabled;
/// initiator/scheduled_owners/max_chain_slots are ignored — gossip needs
/// no trigger wave). Results use the common chain-round schema with one
/// sub-slot per slot: chain_slot_us == subslot_us(payload).
MiniCastResult run_gossip(const net::Topology& topo,
                          const std::vector<ChainEntry>& entries,
                          const MiniCastConfig& config,
                          crypto::Xoshiro256& rng);

}  // namespace mpciot::ct
