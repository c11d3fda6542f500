// MiniCast: concurrent-transmission many-to-many data sharing
// (Saha et al., DCOSS 2017), the communication substrate of the paper.
//
// MiniCast interleaves multiple Glossy-style floods by arranging all
// packets in a TDMA *chain*: a chain slot consists of E sub-slots, one
// per chain entry; a node that is transmitting in a chain slot sends, in
// sub-slot k, the entry-k packet if it has it (and stays silent in the
// sub-slots it cannot fill). Nodes transmit the full chain in the chain
// slot after one in which they received at least one packet — the
// Glossy trigger rule lifted to chains — and stop after NTX chain
// transmissions. The round starts from a designated initiator and ends
// at quiescence (no transmitter) or at `max_chain_slots`.
//
// The engine reports, for every (node, entry), the chain slot of first
// reception, plus per-node radio-on time under one of two shutdown
// policies (the S4 optimization switches the policy).
//
// Reception state is kept in packed 64-bit bitmaps (one bit per chain
// entry per node); `done` predicates observe them through `BitView`.
// Per-round scratch lives in a `RoundContext` so sweeps that run many
// rounds (NTX calibration, streaming sessions) reuse the allocations.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "crypto/prng.hpp"
#include "net/channel_model.hpp"
#include "net/topology.hpp"

namespace mpciot::ct {

/// One packet position in the TDMA chain.
struct ChainEntry {
  /// The node whose packet occupies this sub-slot. Only the origin can
  /// inject the entry; everyone else learns it over the air.
  NodeId origin = kInvalidNode;
  /// Intended recipient, or kInvalidNode for "everyone". Broadcast
  /// substrates (CT chains, gossip) deliver every entry to whoever
  /// hears it and ignore this; point-to-point substrates (the unicast
  /// transport) route the entry only to its destination.
  NodeId destination = kInvalidNode;
};

/// Read-only view of one node's packed reception bitmap, one bit per
/// chain entry. Bits above size() are guaranteed clear.
class BitView {
 public:
  BitView() = default;
  BitView(const std::uint64_t* words, std::size_t bits)
      : words_(words), bits_(bits) {}

  std::size_t size() const { return bits_; }
  bool test(std::size_t i) const {
    return ((words_[i / 64] >> (i % 64)) & 1u) != 0;
  }
  /// Number of entries present.
  std::size_t count() const;
  /// True when every entry is present.
  bool all() const;
  /// True when every bit set in mask[0, words) is present here.
  bool covers(const std::uint64_t* mask, std::size_t words) const;
  /// Number of entries present among the bits set in mask[0, words).
  std::size_t count_and(const std::uint64_t* mask, std::size_t words) const;

 private:
  const std::uint64_t* words_ = nullptr;
  std::size_t bits_ = 0;
};

/// Packed-bitmap primitives shared by every chain-round engine
/// (MiniCast, gossip, the transports).
inline bool bit_test(const std::uint64_t* words, std::size_t i) {
  return ((words[i / 64] >> (i % 64)) & 1u) != 0;
}
inline void bit_set(std::uint64_t* words, std::size_t i) {
  words[i / 64] |= std::uint64_t{1} << (i % 64);
}

/// When may a node switch its radio off during a round?
enum class RadioPolicy {
  /// Stay on until the round ends (the naive S3 behaviour: full-coverage
  /// rounds keep every node listening to the very end).
  kUntilQuiescence,
  /// Switch off once the node has (a) transmitted NTX chains and
  /// (b) satisfied its `done` predicate — the S4 energy optimization.
  kEarlyOff,
};

struct MiniCastConfig {
  NodeId initiator = 0;
  /// Radio channel the round runs on. Rounds on distinct channels are
  /// orthogonal — they can occupy the same simulated time without
  /// contending — while rounds sharing a channel must be serialized by
  /// the caller (see ct::ChannelTimeline). The engine itself simulates
  /// one round in isolation either way; the channel is carried into the
  /// result so composition layers can lay rounds out in time.
  std::uint16_t channel = 0;
  /// Number of full-chain transmissions per node.
  std::uint32_t ntx = 3;
  /// Payload bytes of each sub-slot packet (uniform across the chain).
  std::uint32_t payload_bytes = 16;
  /// Hard cap on chain slots (safety net; rounds normally end earlier).
  std::uint32_t max_chain_slots = 256;
  RadioPolicy radio_policy = RadioPolicy::kUntilQuiescence;
  /// Per-node completion predicate, given the node's current reception
  /// bitmap (indexed by entry). Used for `done_slot` reporting and, under
  /// kEarlyOff, for radio shutdown. Defaults to "has every entry".
  std::function<bool(NodeId, BitView have)> done;
  /// Failure injection: disabled[i] != 0 means node i is dead for the
  /// whole round (never transmits, never receives, radio off). Empty
  /// means all nodes alive; otherwise must have one flag per node.
  std::vector<char> disabled;
  /// Slot-synchronized data owners. CT rounds are started by a Glossy
  /// sync flood; every node that received it knows the TDMA schedule's
  /// absolute slot times. A node listed here additionally transmits on a
  /// *timeout*: if it has neither received nor transmitted for two
  /// consecutive chain slots (it is outside the current wave), it injects
  /// its chain at the next scheduled slot. This keeps poorly-reachable
  /// sources from being starved by the reception-trigger rule without
  /// ever producing an everyone-transmits (nobody-listens) slot.
  std::vector<NodeId> scheduled_owners;
  /// Round start on the trial clock (us): chain slot s runs at
  /// start_time_us + s * chain_slot_us. Only consulted by the dynamics
  /// seams below; a fully static round may leave it 0.
  SimTime start_time_us = 0;
  /// Time-varying channel the round runs under; null = the topology's
  /// frozen snapshot. The engine seeks a cached per-round view once per
  /// chain slot and re-materializes PRRs only when the model's epoch
  /// advances, so the arbitration loop is untouched between epochs.
  const net::ChannelModel* channel_model = nullptr;
  /// Node crash/recover schedule; null = no churn. A node down for a
  /// chain slot neither transmits nor listens and is charged no
  /// radio-on time; it keeps what it already received, and a
  /// slot-synchronized owner rejoins through the timeout path after it
  /// recovers. Unlike `disabled` (dead for the whole round), liveness
  /// is evaluated per slot.
  const net::LivenessModel* liveness = nullptr;
};

struct MiniCastResult {
  /// rx_slot[node][entry]: chain slot of first reception; kOwnEntry for
  /// the origin's own entries; kNever if not received by round end.
  static constexpr std::int32_t kNever = -1;
  static constexpr std::int32_t kOwnEntry = -2;
  std::vector<std::vector<std::int32_t>> rx_slot;

  /// Chain transmissions performed per node.
  std::vector<std::uint32_t> tx_count;

  /// First chain slot at which the node's `done` predicate held
  /// (kNever if never). Origins whose predicate holds initially get 0.
  std::vector<std::int32_t> done_slot;

  /// Per-node radio-on time for this round (us).
  std::vector<SimTime> radio_on_us;

  std::uint32_t chain_slots_used = 0;
  SimTime chain_slot_us = 0;
  SimTime duration_us = 0;
  /// Channel the round ran on (echoed from the config).
  std::uint16_t channel = 0;

  bool node_has(NodeId n, std::size_t entry) const {
    return rx_slot[n][entry] != kNever;
  }

  /// Fraction of (node, entry) pairs delivered, own entries excluded.
  double delivery_ratio() const;

  /// Fraction of nodes whose `done` predicate held by round end.
  double done_ratio() const;
};

/// Per-slot arbitration memo of the chain engine: one row per distinct
/// transmitter set seen in the current chain slot, holding the listeners
/// that hear the set (ascending) and each one's success probability.
/// Rows are found through an open-addressed table whose buckets are
/// tagged with the slot that wrote them, so starting a slot clears
/// nothing. Its room per slot is bounded (see minicast.cpp); a set met
/// once it is full is computed for that entry alone.
struct ArbitrationMemo {
  struct Bucket {
    std::uint32_t tag = 0;  // chain slot + 1 that wrote it; else empty
    std::uint32_t row = 0;
  };
  std::vector<Bucket> table;        // power-of-two size
  std::vector<std::uint64_t> sets;  // rows x node-words sender sets
  // Row r's cells are [row_cells[r], row_cells[r + 1]); a slot starts
  // from {0}.
  std::vector<std::size_t> row_cells;
  std::vector<NodeId> rx;    // cells: listener that hears the set
  std::vector<double> prob;  // cells: its success probability
};

/// Reusable scratch for the chain engine. One context serves any number
/// of sequential rounds over any topologies; buffers grow to the largest
/// round seen and are reused thereafter. With a channel model, its view
/// keeps one epoch walk per topology (see net::ChannelView), so rounds
/// that alternate topologies each continue their own topology's walk;
/// a topology bound under a model must outlive the context.
struct RoundContext {
  std::vector<std::uint64_t> have;           // n x entry-words bitmaps
  std::vector<std::uint64_t> entry_senders;  // node-words: current sub-slot
  std::vector<NodeId> tx_nodes;              // this slot's transmitters
  std::vector<NodeId> listeners;             // this slot's radio-on listeners
  std::vector<char> radio_on;
  std::vector<char> tx_this_slot;
  std::vector<char> received_any;
  std::vector<char> tx_next;
  std::vector<char> scheduled;
  std::vector<std::uint32_t> silent_slots;
  std::vector<std::uint32_t> timeout_budget;
  ArbitrationMemo memo;
  net::ChannelView view;   // epoch-cached link tables (static: aliases)
  std::vector<char> down;  // per-slot churn mask (liveness rounds only)
  // Warm buffers for run_glossy_into: the one-entry chain and the chain
  // result a flood is internally run through.
  std::vector<ChainEntry> flood_entries;
  MiniCastResult flood_tmp;
};

/// Run one MiniCast round to quiescence. Deterministic given `rng` state.
MiniCastResult run_minicast(const net::Topology& topo,
                            const std::vector<ChainEntry>& entries,
                            const MiniCastConfig& config,
                            crypto::Xoshiro256& rng);

/// As above, reusing caller-owned scratch across rounds and writing into
/// a caller-owned result whose buffers are reused too — the steady-state
/// entry point: after the first round on a given shape, no heap
/// allocation is performed.
void run_minicast_into(const net::Topology& topo,
                       const std::vector<ChainEntry>& entries,
                       const MiniCastConfig& config, crypto::Xoshiro256& rng,
                       RoundContext& scratch, MiniCastResult& out);

}  // namespace mpciot::ct
