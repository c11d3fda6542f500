#include "ct/gossip.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "net/reception.hpp"

namespace mpciot::ct {

namespace {
/// Per-slot transmission probability of a node holding sendable data.
constexpr double kTxProb = 0.35;
/// Sub-slot cap as a multiple of the entry count (a MiniCast chain slot
/// is `entries` sub-slots, so this compares 1:1 with
/// MiniCastConfig::max_chain_slots).
constexpr std::uint64_t kMaxSlotFactor = 64;
}  // namespace

MiniCastResult run_gossip(const net::Topology& topo,
                          const std::vector<ChainEntry>& entries,
                          const MiniCastConfig& config,
                          crypto::Xoshiro256& rng) {
  const std::size_t n = topo.size();
  const std::size_t num_entries = entries.size();
  MPCIOT_REQUIRE(num_entries > 0, "gossip: empty chain");
  MPCIOT_REQUIRE(config.ntx > 0, "gossip: ntx must be positive");
  for (const ChainEntry& e : entries) {
    MPCIOT_REQUIRE(e.origin < n, "gossip: entry origin out of range");
  }
  MPCIOT_REQUIRE(config.disabled.empty() || config.disabled.size() == n,
                 "gossip: disabled mask size mismatch");
  const auto is_disabled = [&](NodeId i) {
    return !config.disabled.empty() && config.disabled[i] != 0;
  };

  const SimTime slot_us = topo.radio().subslot_us(config.payload_bytes);
  const auto done_fn =
      config.done ? config.done
                  : [](NodeId, BitView have) { return have.all(); };

  MiniCastResult result;
  result.rx_slot.assign(n, std::vector<std::int32_t>(
                               num_entries, MiniCastResult::kNever));
  result.tx_count.assign(n, 0);
  result.done_slot.assign(n, MiniCastResult::kNever);
  result.radio_on_us.assign(n, 0);
  result.chain_slot_us = slot_us;
  result.channel = config.channel;

  const std::size_t words = (num_entries + 63) / 64;
  std::vector<std::uint64_t> have(n * words, 0);
  const auto have_row = [&](NodeId i) { return have.data() + i * words; };
  const auto have_bit = [&](NodeId i, std::size_t e) {
    return bit_test(have_row(i), e);
  };
  for (std::size_t e = 0; e < num_entries; ++e) {
    bit_set(have_row(entries[e].origin), e);
    result.rx_slot[entries[e].origin][e] = MiniCastResult::kOwnEntry;
  }

  // Remaining transmissions per (node, entry), a round-robin cursor so a
  // node cycles through its sendable entries deterministically, and an
  // exact per-node count of sendable entries (held with budget left) so
  // the quiescence check is O(n).
  std::vector<std::uint8_t> budget(
      n * num_entries,
      static_cast<std::uint8_t>(std::min<std::uint32_t>(config.ntx, 255)));
  std::vector<std::size_t> cursor(n, 0);
  std::vector<std::uint32_t> sendable(n, 0);
  std::vector<std::uint32_t> held(n, 0);
  for (std::size_t e = 0; e < num_entries; ++e) {
    ++sendable[entries[e].origin];
    ++held[entries[e].origin];
  }
  std::vector<char> active(n, 1);  // radio on, still in the protocol
  for (NodeId i = 0; i < n; ++i) {
    if (is_disabled(i)) active[i] = 0;
  }
  // Initial done check. Nobody can leave here even under kEarlyOff:
  // every held entry starts with budget, so owners always inject first.
  for (NodeId i = 0; i < n; ++i) {
    if (active[i] && done_fn(i, BitView(have_row(i), num_entries))) {
      result.done_slot[i] = 0;
    }
  }

  /// Next sendable entry of node i (budget left, entry held), advancing
  /// the cursor; num_entries when nothing is sendable.
  const auto pick_entry = [&](NodeId i) {
    for (std::size_t step = 0; step < num_entries; ++step) {
      const std::size_t e = (cursor[i] + step) % num_entries;
      if (have_bit(i, e) && budget[i * num_entries + e] > 0) {
        cursor[i] = (e + 1) % num_entries;
        return e;
      }
    }
    return num_entries;
  };

  const net::ReceptionModel model(topo);
  // Dynamics seams (see MiniCastConfig): the view aliases the frozen
  // tables without a channel model; the churn mask only exists with a
  // liveness schedule. Static rounds draw exactly the same RNG stream
  // as before.
  net::ChannelView view;
  view.bind(topo, config.channel_model);
  const net::ChannelView* viewp =
      config.channel_model != nullptr ? &view : nullptr;
  const net::LivenessModel* churn = config.liveness;
  std::vector<char> down(churn != nullptr ? n : 0, 0);
  const std::uint64_t max_slots = kMaxSlotFactor * num_entries;
  std::vector<net::Transmission> slot_txs;
  std::vector<char> tx_this_slot(n, 0);
  std::uint64_t slot = 0;
  for (; slot < max_slots; ++slot) {
    const SimTime slot_start_us =
        config.start_time_us + static_cast<SimTime>(slot) * slot_us;
    if (config.channel_model != nullptr) view.seek(slot_start_us);
    if (churn != nullptr) {
      for (NodeId i = 0; i < n; ++i) {
        down[i] = churn->is_down(i, slot_start_us) ? 1 : 0;
      }
    }

    // Anyone still eligible to send? (No RNG consumed: pure state. When
    // nobody is, the dissemination has died out.) Down holders cannot
    // keep the round open while they are down.
    bool any_eligible = false;
    for (NodeId i = 0; i < n; ++i) {
      if (churn != nullptr && down[i]) continue;
      if (active[i] && sendable[i] > 0) {
        any_eligible = true;
        break;
      }
    }
    if (!any_eligible) break;

    slot_txs.clear();
    for (NodeId i = 0; i < n; ++i) {
      tx_this_slot[i] = 0;
      // A node with nothing sendable does not contend for the channel.
      if (!active[i] || sendable[i] == 0) continue;
      if (churn != nullptr && down[i]) continue;
      if (!rng.next_bool(kTxProb)) continue;
      const std::size_t e = pick_entry(i);
      if (e == num_entries) continue;  // defensive; sendable > 0 forbids it
      tx_this_slot[i] = 1;
      if (--budget[i * num_entries + e] == 0) --sendable[i];
      ++result.tx_count[i];
      slot_txs.push_back(
          net::Transmission{i, static_cast<std::uint64_t>(e)});
    }

    for (NodeId r = 0; r < n; ++r) {
      if (!active[r] || tx_this_slot[r]) continue;
      if (churn != nullptr && down[r]) continue;
      if (slot_txs.empty()) continue;
      const net::ReceptionOutcome outcome =
          model.arbitrate(r, slot_txs, rng, viewp);
      if (outcome.received) {
        const std::size_t e = static_cast<std::size_t>(outcome.content_id);
        if (!have_bit(r, e)) {
          bit_set(have_row(r), e);
          result.rx_slot[r][e] = static_cast<std::int32_t>(slot);
          ++sendable[r];  // fresh entry, full budget
          ++held[r];
        }
      }
    }

    // Radio accounting + completion. Down nodes are charged nothing and
    // cannot complete (their bitmap did not change).
    for (NodeId i = 0; i < n; ++i) {
      if (!active[i]) continue;
      if (churn != nullptr && down[i]) continue;
      result.radio_on_us[i] += slot_us;
      if (result.done_slot[i] == MiniCastResult::kNever &&
          done_fn(i, BitView(have_row(i), num_entries))) {
        result.done_slot[i] = static_cast<std::int32_t>(slot);
      }
      if (config.radio_policy == RadioPolicy::kEarlyOff &&
          result.done_slot[i] != MiniCastResult::kNever && held[i] > 0 &&
          sendable[i] == 0) {
        active[i] = 0;
      }
    }

    // No global completion check: a real gossip node cannot observe
    // network-wide done-ness. The round ends at budget quiescence (the
    // any_eligible probe above) or the slot cap.
  }

  result.chain_slots_used = static_cast<std::uint32_t>(slot);
  result.duration_us = static_cast<SimTime>(slot) * slot_us;
  return result;
}

}  // namespace mpciot::ct
