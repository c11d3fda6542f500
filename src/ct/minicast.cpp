#include "ct/minicast.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/assert.hpp"

// Hardware POPCNT for the arbitration loop's rank lookups: the default
// x86-64 target has none, and std::popcount then compiles to a libgcc
// call per heard transmitter. The loader picks the popcnt clone once per
// process where the CPU has it; the arithmetic is the same either way.
// ThreadSanitizer builds skip the clones: GCC instruments the ifunc
// resolver, which then runs before the TSan runtime and crashes.
#if defined(CTAGG_SIMD) && defined(__x86_64__) && defined(__ELF__) && \
    (defined(__GNUC__) || defined(__clang__)) &&                      \
    !defined(__SANITIZE_THREAD__)
#define CTAGG_POPCNT_CLONES \
  __attribute__((target_clones("popcnt", "default")))
#else
#define CTAGG_POPCNT_CLONES
#endif

namespace mpciot::ct {

std::size_t BitView::count() const {
  std::size_t total = 0;
  for (std::size_t w = 0; w < (bits_ + 63) / 64; ++w) {
    total += static_cast<std::size_t>(std::popcount(words_[w]));
  }
  return total;
}

bool BitView::all() const { return count() == bits_; }

bool BitView::covers(const std::uint64_t* mask, std::size_t words) const {
  for (std::size_t w = 0; w < words; ++w) {
    if ((mask[w] & ~words_[w]) != 0) return false;
  }
  return true;
}

std::size_t BitView::count_and(const std::uint64_t* mask,
                               std::size_t words) const {
  std::size_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::size_t>(std::popcount(words_[w] & mask[w]));
  }
  return total;
}

double MiniCastResult::delivery_ratio() const {
  std::size_t delivered = 0;
  std::size_t total = 0;
  for (const auto& row : rx_slot) {
    for (std::int32_t s : row) {
      if (s == kOwnEntry) continue;
      ++total;
      if (s != kNever) ++delivered;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(delivered) /
                                static_cast<double>(total);
}

double MiniCastResult::done_ratio() const {
  if (done_slot.empty()) return 1.0;
  std::size_t done = 0;
  for (std::int32_t s : done_slot) {
    if (s != kNever) ++done;
  }
  return static_cast<double>(done) / static_cast<double>(done_slot.size());
}

MiniCastResult run_minicast(const net::Topology& topo,
                            const std::vector<ChainEntry>& entries,
                            const MiniCastConfig& config,
                            crypto::Xoshiro256& rng) {
  RoundContext scratch;
  MiniCastResult result;
  run_minicast_into(topo, entries, config, rng, scratch, result);
  return result;
}

namespace {

/// Per-slot room of the arbitration memo (RoundContext::memo): distinct
/// transmitter sets, and listener probabilities across them. Naive S3's
/// 2025-entry DCube chain peaks at about 1300 sets and 15k probabilities
/// in one slot; the caps bound the probabilities a huge chain reserves
/// to about 1.6 MB.
constexpr std::size_t kMemoSets = 4096;
constexpr std::size_t kMemoCells = std::size_t{1} << 17;

/// Bucket of a transmitter set in a table of 2^(64 - shift) buckets
/// (Fibonacci hashing over its node-words).
std::size_t set_bucket(const std::uint64_t* set, std::size_t words, int shift) {
  std::uint64_t h = 0;
  for (std::size_t w = 0; w < words; ++w) {
    h = (std::rotl(h, 29) ^ set[w]) * 0x9E3779B97F4A7C15ull;
  }
  return static_cast<std::size_t>(h >> shift);
}

bool same_set(const std::uint64_t* a, const std::uint64_t* b,
              std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    if (a[w] != b[w]) return false;
  }
  return true;
}

}  // namespace

CTAGG_POPCNT_CLONES
void run_minicast_into(const net::Topology& topo,
                       const std::vector<ChainEntry>& entries,
                       const MiniCastConfig& config, crypto::Xoshiro256& rng,
                       RoundContext& scratch, MiniCastResult& result) {
  const std::size_t n = topo.size();
  const std::size_t num_entries = entries.size();
  MPCIOT_REQUIRE(num_entries > 0, "minicast: empty chain");
  MPCIOT_REQUIRE(config.initiator < n, "minicast: initiator out of range");
  MPCIOT_REQUIRE(config.ntx > 0, "minicast: ntx must be positive");
  for (const ChainEntry& e : entries) {
    MPCIOT_REQUIRE(e.origin < n, "minicast: entry origin out of range");
  }
  MPCIOT_REQUIRE(config.disabled.empty() || config.disabled.size() == n,
                 "minicast: disabled mask size mismatch");
  const auto is_disabled = [&](NodeId i) {
    return !config.disabled.empty() && config.disabled[i] != 0;
  };

  const net::RadioParams& radio = topo.radio();
  const SimTime subslot_us = radio.subslot_us(config.payload_bytes);
  const SimTime chain_slot_us =
      subslot_us * static_cast<SimTime>(num_entries);

  // The default predicate lives in a function-local static so binding it
  // never copies a std::function on the hot path.
  static const std::function<bool(NodeId, BitView)> kAllEntries =
      [](NodeId, BitView have) { return have.all(); };
  const std::function<bool(NodeId, BitView)>& done_fn =
      config.done ? config.done : kAllEntries;

  // Reset the (possibly warm) result in place: resize keeps each row's
  // capacity, so a steady-state round on a fixed shape never allocates.
  result.rx_slot.resize(n);
  for (auto& row : result.rx_slot) {
    row.assign(num_entries, MiniCastResult::kNever);
  }
  result.tx_count.assign(n, 0);
  result.done_slot.assign(n, MiniCastResult::kNever);
  result.radio_on_us.assign(n, 0);
  result.chain_slot_us = chain_slot_us;
  result.channel = config.channel;

  // have: packed reception bitmaps, `words` 64-bit words per node.
  const std::size_t words = (num_entries + 63) / 64;
  const std::size_t nwords = topo.node_words();
  scratch.have.assign(n * words, 0);
  const auto have_row = [&](NodeId i) {
    return scratch.have.data() + static_cast<std::size_t>(i) * words;
  };
  for (std::size_t e = 0; e < num_entries; ++e) {
    bit_set(have_row(entries[e].origin), e);
    result.rx_slot[entries[e].origin][e] = MiniCastResult::kOwnEntry;
  }

  scratch.radio_on.assign(n, 1);
  scratch.tx_this_slot.assign(n, 0);
  scratch.received_any.assign(n, 0);
  scratch.tx_next.assign(n, 0);
  scratch.tx_next[config.initiator] = 1;
  scratch.scheduled.assign(n, 0);
  for (NodeId t : config.scheduled_owners) {
    MPCIOT_REQUIRE(t < n, "minicast: scheduled owner out of range");
    scratch.scheduled[t] = 1;
  }
  scratch.silent_slots.assign(n, 0);
  // Timeout transmissions are for injecting straggler data, not for
  // sustaining the flood: bound them so degenerate everyone-transmits
  // dynamics cannot arise.
  scratch.timeout_budget.assign(n, 4);
  scratch.entry_senders.assign(nwords, 0);
  for (NodeId i = 0; i < n; ++i) {
    if (is_disabled(i)) {
      scratch.radio_on[i] = 0;
      scratch.tx_next[i] = 0;
      scratch.scheduled[i] = 0;
    }
  }

  // Arbitration memo: per slot it keeps up to min(entries, kMemoSets)
  // transmitter sets and min(entries * n, kMemoCells) listener
  // probabilities, plus room for one uncached row, all reserved here so a
  // warm context never allocates in the loop. The table has twice as
  // many buckets as sets kept; its tags are slot numbers, so each round
  // starts it cleared.
  ArbitrationMemo& memo = scratch.memo;
  const std::size_t memo_sets = std::min(num_entries, kMemoSets);
  const std::size_t memo_cells = std::min(num_entries * n, kMemoCells);
  memo.table.assign(std::bit_ceil(2 * memo_sets), ArbitrationMemo::Bucket{});
  const int table_shift = 64 - std::countr_zero(memo.table.size());
  const std::size_t table_mask = memo.table.size() - 1;
  memo.sets.reserve(memo_sets * nwords);
  memo.row_cells.reserve(memo_sets + 1);
  memo.rx.reserve(memo_cells + n);
  memo.prob.reserve(memo_cells + n);

  // Dynamics seams: the view aliases the frozen tables when no channel
  // model is set, and the churn mask is only maintained when a liveness
  // schedule is present — a static round takes neither branch nor extra
  // RNG draws anywhere below.
  net::ChannelView& view = scratch.view;
  view.bind(topo, config.channel_model);
  const net::LivenessModel* churn = config.liveness;
  if (churn != nullptr) scratch.down.assign(n, 0);

  // Initial done check (origins of everything / trivial predicates).
  for (NodeId i = 0; i < n; ++i) {
    if (is_disabled(i)) continue;
    if (churn != nullptr && churn->is_down(i, config.start_time_us)) continue;
    if (done_fn(i, BitView(have_row(i), num_entries))) {
      result.done_slot[i] = 0;
    }
  }

  const double inv_corr = 1.0 / radio.ct_loss_correlation;
  // At a correlation of 1.0 the exponent is exactly 1.0, and
  // IEEE-754 guarantees pow(x, 1.0) == x bit-for-bit — so the arbitration
  // loop can skip the libm call entirely without changing a single
  // delivered packet. Any other correlation keeps the pow.
  const bool corr_is_one = inv_corr == 1.0;
  std::uint32_t slot = 0;
  for (; slot < config.max_chain_slots; ++slot) {
    // Advance the dynamics clock to this slot: re-materialize the link
    // view when the epoch moved, refresh the churn mask. A node that
    // goes down loses any pending trigger (its radio heard nothing).
    const SimTime slot_start_us =
        config.start_time_us + static_cast<SimTime>(slot) * chain_slot_us;
    if (config.channel_model != nullptr) view.seek(slot_start_us);
    if (churn != nullptr) {
      for (NodeId i = 0; i < n; ++i) {
        const bool down = churn->is_down(i, slot_start_us);
        scratch.down[i] = down ? 1 : 0;
        if (down) scratch.tx_next[i] = 0;
      }
    }

    // Who transmits this chain slot? Wave-triggered nodes, plus
    // scheduled owners that timed out of the wave. The timeout path uses
    // a randomized backoff (p = 1/2 per slot once timed out): a
    // deterministic timeout can synchronize all stragglers into an
    // everyone-transmits slot in which nobody listens and the flood dies.
    bool any_tx = false;
    scratch.tx_nodes.clear();
    for (NodeId i = 0; i < n; ++i) {
      if (churn != nullptr && scratch.down[i]) {
        scratch.tx_this_slot[i] = 0;
        scratch.received_any[i] = 0;
        continue;
      }
      // The defer draw models missing a *reception-derived* trigger; the
      // initiator's opening transmission is clock-scheduled and immune.
      const bool scheduled_start = (slot == 0 && i == config.initiator);
      const bool wave =
          scratch.tx_next[i] != 0 &&
          (scheduled_start || !rng.next_bool(radio.tx_defer_prob));
      bool timeout = false;
      if (!wave && scratch.scheduled[i] && scratch.timeout_budget[i] > 0 &&
          scratch.silent_slots[i] >= 2 && result.tx_count[i] < config.ntx &&
          rng.next_bool(0.5)) {
        timeout = true;
        --scratch.timeout_budget[i];
      }
      const bool tx =
          (wave || timeout) && result.tx_count[i] < config.ntx;
      scratch.tx_this_slot[i] = tx ? 1 : 0;
      if (tx) {
        any_tx = true;
        scratch.tx_nodes.push_back(i);
      }
      scratch.received_any[i] = 0;
    }
    if (!any_tx) {
      // Quiescence — unless a scheduled owner still has data credit, in
      // which case the provisioned round idles a slot and lets the
      // owner's timeout fire (its backoff draw may simply have deferred).
      bool pending_owner = false;
      for (NodeId i = 0; i < n; ++i) {
        if (churn != nullptr && scratch.down[i]) continue;  // can't inject now
        if (scratch.scheduled[i] && result.tx_count[i] < config.ntx &&
            scratch.timeout_budget[i] > 0) {
          pending_owner = true;
          break;
        }
      }
      if (!pending_owner) break;
    }

    // Listener set is fixed for the whole chain slot (radio state only
    // changes at slot boundaries).
    scratch.listeners.clear();
    for (NodeId i = 0; i < n; ++i) {
      if (scratch.tx_this_slot[i] || !scratch.radio_on[i]) continue;
      if (churn != nullptr && scratch.down[i]) continue;
      scratch.listeners.push_back(i);
    }

    // Sub-slot by sub-slot arbitration. All concurrent copies of entry e
    // carry identical bytes, so this is always the constructive-
    // interference regime of net::ReceptionModel, inlined over the
    // packed transmitter set: a receiver fails only if every audible
    // copy fails, with the correlation knob degrading towards the
    // single-best case (same arithmetic, same RNG draws).
    //
    // Within one chain slot the listeners, the link view and its
    // audibility runs are fixed (the view seeks and churn is evaluated
    // only at slot start; transmitters never receive), so a listener's
    // success probability depends only on (listener, transmitter set).
    // The memo therefore computes it once per distinct set per slot, and
    // every entry with that set draws from the row, entry-major and
    // listener-ascending: the same draws, in the same order, as
    // computing each entry's probabilities afresh.
    const std::uint32_t tag = slot + 1;
    memo.sets.clear();
    memo.row_cells.assign(1, 0);
    memo.rx.clear();
    memo.prob.clear();
    const double* in_prr = view.in_prr();
    std::uint64_t* senders = scratch.entry_senders.data();
    for (std::size_t e = 0; e < num_entries; ++e) {
      std::fill(senders, senders + nwords, 0);
      bool any_sender = false;
      for (NodeId i : scratch.tx_nodes) {
        if (bit_test(have_row(i), e)) {
          bit_set(senders, i);
          any_sender = true;
        }
      }
      if (!any_sender) continue;

      // The set's bucket, or the empty one where it belongs.
      std::size_t b = set_bucket(senders, nwords, table_shift);
      for (; memo.table[b].tag == tag; b = (b + 1) & table_mask) {
        const std::size_t row = memo.table[b].row;
        if (same_set(senders, &memo.sets[row * nwords], nwords)) break;
      }
      ArbitrationMemo::Bucket& bucket = memo.table[b];
      const bool fresh = bucket.tag != tag;
      if (fresh) {
        // First entry with this set in the slot: append its row.
        for (NodeId r : scratch.listeners) {
          std::size_t heard = 0;
          double fail_product = 1.0;
          double single_prr = 0.0;
          // Only the receiver's audible in-links exist, as word runs over
          // ascending transmitter ids: the fail_product multiply chain —
          // doubles, order-sensitive — always runs in that order.
          for (const net::AudWord& aw : view.audible_entries(r)) {
            std::uint64_t m = aw.bits & senders[aw.word];
            while (m != 0) {
              const std::uint64_t low = m & (~m + 1);
              m &= m - 1;
              const double p =
                  in_prr[aw.slot + static_cast<std::size_t>(
                                       std::popcount(aw.bits & (low - 1)))];
              ++heard;
              fail_product *= (1.0 - p);
              single_prr = p;
            }
          }
          if (heard == 0) continue;  // no draw
          const double success_prob =
              heard == 1     ? single_prr
              : corr_is_one ? 1.0 - fail_product
                             : 1.0 - std::pow(fail_product, inv_corr);
          memo.rx.push_back(r);
          memo.prob.push_back(success_prob);
        }
      }
      const std::size_t begin =
          fresh ? memo.row_cells.back() : memo.row_cells[bucket.row];
      const std::size_t end =
          fresh ? memo.rx.size() : memo.row_cells[bucket.row + 1];
      for (std::size_t c = begin; c < end; ++c) {
        if (rng.next_bool(memo.prob[c])) {
          const NodeId r = memo.rx[c];
          scratch.received_any[r] = 1;
          if (!bit_test(have_row(r), e)) {
            bit_set(have_row(r), e);
            result.rx_slot[r][e] = static_cast<std::int32_t>(slot);
          }
        }
      }
      if (!fresh) continue;
      const std::size_t rows = memo.row_cells.size() - 1;
      if (rows < memo_sets && end <= memo_cells) {
        bucket.tag = tag;
        bucket.row = static_cast<std::uint32_t>(rows);
        memo.sets.insert(memo.sets.end(), senders, senders + nwords);
        memo.row_cells.push_back(end);
      } else {
        // Memo full: the row served this entry alone.
        memo.rx.resize(begin);
        memo.prob.resize(begin);
      }
    }

    // Accounting: transmitters spend the chain slot sending the filled
    // sub-slots and guard-listening the rest; listeners spend the whole
    // chain slot in RX.
    for (NodeId i : scratch.tx_nodes) {
      result.radio_on_us[i] += chain_slot_us;
      ++result.tx_count[i];
    }
    for (NodeId r : scratch.listeners) {
      result.radio_on_us[r] += chain_slot_us;
    }

    // Completion tracking and (optionally) early radio shutdown. Down
    // nodes are skipped: their bitmap cannot have changed, and a crashed
    // radio cannot be switched "more off".
    for (NodeId i = 0; i < n; ++i) {
      if (is_disabled(i)) continue;
      if (churn != nullptr && scratch.down[i]) continue;
      if (result.done_slot[i] == MiniCastResult::kNever &&
          done_fn(i, BitView(have_row(i), num_entries))) {
        result.done_slot[i] = static_cast<std::int32_t>(slot);
      }
      if (config.radio_policy == RadioPolicy::kEarlyOff &&
          scratch.radio_on[i] && result.tx_count[i] >= config.ntx &&
          result.done_slot[i] != MiniCastResult::kNever) {
        scratch.radio_on[i] = 0;
      }
    }

    // Glossy trigger rule: transmit next chain slot iff received in this
    // one. (Transmitters received nothing — half duplex.)
    for (NodeId i = 0; i < n; ++i) {
      scratch.tx_next[i] = scratch.received_any[i];
      if (scratch.tx_this_slot[i] || scratch.received_any[i]) {
        scratch.silent_slots[i] = 0;
      } else {
        ++scratch.silent_slots[i];
      }
    }
  }

  result.chain_slots_used = slot;
  result.duration_us = static_cast<SimTime>(slot) * chain_slot_us;
}

}  // namespace mpciot::ct
