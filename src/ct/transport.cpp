#include "ct/transport.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/assert.hpp"

namespace mpciot::ct {

namespace {

std::function<bool(NodeId, BitView)> done_or_default(
    const MiniCastConfig& config) {
  return config.done ? config.done
                     : [](NodeId, BitView have) { return have.all(); };
}

/// The paper's substrate: MiniCast chains with Glossy as the
/// single-entry special case.
class MiniCastTransport : public Transport {
 public:
  const char* name() const override { return "minicast"; }

  void flood_into(const net::Topology& topo, const GlossyConfig& config,
                  crypto::Xoshiro256& rng, RoundContext* scratch,
                  GlossyResult& out) const override {
    std::optional<RoundContext> local;  // built only when scratch is null
    run_glossy_into(topo, config, rng,
                    scratch != nullptr ? *scratch : local.emplace(), out);
  }

  void chain_round_into(const net::Topology& topo,
                        const std::vector<ChainEntry>& entries,
                        const MiniCastConfig& config, crypto::Xoshiro256& rng,
                        RoundContext* scratch,
                        MiniCastResult& out) const override {
    std::optional<RoundContext> local;  // built only when scratch is null
    run_minicast_into(topo, entries, config, rng,
                      scratch != nullptr ? *scratch : local.emplace(), out);
  }
};

/// LWB-style baseline: every entry pays a full sequential Glossy flood
/// from its origin — no chaining, so airtime and radio-on scale with
/// the entry count times the flood cost.
class GlossyFloodsTransport : public Transport {
 public:
  const char* name() const override { return "glossy_floods"; }

  void flood_into(const net::Topology& topo, const GlossyConfig& config,
                  crypto::Xoshiro256& rng, RoundContext* scratch,
                  GlossyResult& out) const override {
    minicast_transport().flood_into(topo, config, rng, scratch, out);
  }

  void chain_round_into(const net::Topology& topo,
                        const std::vector<ChainEntry>& entries,
                        const MiniCastConfig& config, crypto::Xoshiro256& rng,
                        RoundContext* scratch,
                        MiniCastResult& out) const override {
    const std::size_t n = topo.size();
    const std::size_t num_entries = entries.size();
    MPCIOT_REQUIRE(num_entries > 0, "glossy_floods: empty chain");
    const auto is_disabled = [&](NodeId i) {
      return !config.disabled.empty() && config.disabled[i] != 0;
    };
    const auto done_fn = done_or_default(config);

    MiniCastResult result;
    result.rx_slot.assign(n, std::vector<std::int32_t>(
                                 num_entries, MiniCastResult::kNever));
    result.tx_count.assign(n, 0);
    result.done_slot.assign(n, MiniCastResult::kNever);
    result.radio_on_us.assign(n, 0);
    result.chain_slot_us = topo.radio().subslot_us(config.payload_bytes);
    result.channel = config.channel;

    const std::size_t words = (num_entries + 63) / 64;
    std::vector<std::uint64_t> have(n * words, 0);
    const auto have_row = [&](NodeId i) { return have.data() + i * words; };
    for (std::size_t e = 0; e < num_entries; ++e) {
      bit_set(have_row(entries[e].origin), e);
      result.rx_slot[entries[e].origin][e] = MiniCastResult::kOwnEntry;
    }
    const auto down_at = [&](NodeId i, SimTime t) {
      return config.liveness != nullptr && config.liveness->is_down(i, t);
    };
    for (NodeId i = 0; i < n; ++i) {
      if (is_disabled(i) || down_at(i, config.start_time_us)) continue;
      if (done_fn(i, BitView(have_row(i), num_entries))) {
        result.done_slot[i] = 0;
      }
    }

    std::optional<RoundContext> local;
    RoundContext& ctx = scratch != nullptr ? *scratch : local.emplace();
    std::vector<ChainEntry> one(1);
    MiniCastResult sub;
    std::uint32_t slots_so_far = 0;
    for (std::size_t e = 0; e < num_entries; ++e) {
      MiniCastConfig flood_cfg;
      flood_cfg.initiator = entries[e].origin;
      flood_cfg.channel = config.channel;
      flood_cfg.ntx = config.ntx;
      flood_cfg.payload_bytes = config.payload_bytes;
      flood_cfg.max_chain_slots = config.max_chain_slots;
      flood_cfg.radio_policy = config.radio_policy;
      flood_cfg.disabled = config.disabled;
      // Each entry's flood starts where the previous one ended on the
      // trial clock, so dynamics epochs line up across the sequence.
      flood_cfg.start_time_us = config.start_time_us + result.duration_us;
      flood_cfg.channel_model = config.channel_model;
      flood_cfg.liveness = config.liveness;
      // A dead origin's flood never starts (its entry is simply lost);
      // the chain engine quiesces immediately without consuming randomness.
      one[0] = ChainEntry{entries[e].origin};
      run_minicast_into(topo, one, flood_cfg, rng, ctx, sub);

      for (NodeId r = 0; r < n; ++r) {
        if (sub.rx_slot[r][0] >= 0) {
          result.rx_slot[r][e] = static_cast<std::int32_t>(
              slots_so_far + static_cast<std::uint32_t>(sub.rx_slot[r][0]));
          bit_set(have_row(r), e);
        }
        result.tx_count[r] += sub.tx_count[r];
        result.radio_on_us[r] += sub.radio_on_us[r];
      }
      slots_so_far += sub.chain_slots_used;
      result.duration_us += sub.duration_us;

      const std::int32_t now_slot =
          slots_so_far == 0 ? 0 : static_cast<std::int32_t>(slots_so_far - 1);
      for (NodeId i = 0; i < n; ++i) {
        if (is_disabled(i)) continue;
        if (down_at(i, config.start_time_us + result.duration_us)) continue;
        if (result.done_slot[i] == MiniCastResult::kNever &&
            done_fn(i, BitView(have_row(i), num_entries))) {
          result.done_slot[i] = now_slot;
        }
      }
    }
    result.chain_slots_used = slots_so_far;
    out = std::move(result);
  }
};

}  // namespace

void GossipTransport::flood_into(const net::Topology& topo,
                                 const GlossyConfig& config,
                                 crypto::Xoshiro256& rng,
                                 RoundContext* /*scratch*/,
                                 GlossyResult& out) const {
  MiniCastConfig mc;
  mc.initiator = config.initiator;
  mc.channel = config.channel;
  mc.ntx = config.ntx;
  mc.payload_bytes = config.payload_bytes;
  mc.max_chain_slots = config.max_slots;
  // Flood completion is per node: leave the round once the packet is in.
  mc.radio_policy = RadioPolicy::kEarlyOff;
  mc.start_time_us = config.start_time_us;
  mc.channel_model = config.channel_model;
  mc.liveness = config.liveness;
  const std::vector<ChainEntry> entries{ChainEntry{config.initiator}};
  MiniCastResult r = run_gossip(topo, entries, mc, params_, rng);

  GlossyResult result;
  result.first_rx_slot.reserve(r.rx_slot.size());
  for (const auto& row : r.rx_slot) result.first_rx_slot.push_back(row[0]);
  result.tx_count = std::move(r.tx_count);
  result.radio_on_us = std::move(r.radio_on_us);
  result.slots_used = r.chain_slots_used;
  result.duration_us = r.duration_us;
  result.channel = r.channel;
  out = std::move(result);
}

void GossipTransport::chain_round_into(const net::Topology& topo,
                                       const std::vector<ChainEntry>& entries,
                                       const MiniCastConfig& config,
                                       crypto::Xoshiro256& rng,
                                       RoundContext* /*scratch*/,
                                       MiniCastResult& out) const {
  out = run_gossip(topo, entries, config, params_, rng);
}

void UnicastTransport::flood_into(const net::Topology& topo,
                                  const GlossyConfig& config,
                                  crypto::Xoshiro256& rng,
                                  RoundContext* /*scratch*/,
                                  GlossyResult& out) const {
  const std::size_t n = topo.size();
  const net::routing::HopTiming timing =
      net::routing::hop_timing(topo.radio(), config.payload_bytes, mac_);
  net::ChannelView view;
  net::routing::WalkEnv env;
  const net::routing::WalkEnv* envp = nullptr;
  if (config.channel_model != nullptr || config.liveness != nullptr) {
    view.bind(topo, config.channel_model);
    env.base_us = config.start_time_us;
    env.view = config.channel_model != nullptr ? &view : nullptr;
    env.liveness = config.liveness;
    envp = &env;
  }

  GlossyResult result;
  result.channel = config.channel;
  result.first_rx_slot.assign(n, MiniCastResult::kNever);
  result.first_rx_slot[config.initiator] = MiniCastResult::kOwnEntry;
  result.tx_count.assign(n, 0);
  result.radio_on_us.assign(n, 0);
  SimTime elapsed = 0;
  for (NodeId dst = 0; dst < n; ++dst) {
    if (dst == config.initiator) continue;
    if (net::routing::walk_route(topo, config.initiator, dst, timing,
                                 mac_.max_retries_per_hop, rng,
                                 result.radio_on_us, elapsed,
                                 &result.tx_count, nullptr, envp)) {
      result.first_rx_slot[dst] =
          static_cast<std::int32_t>(elapsed / kMillisecond);
    }
  }
  result.duration_us = elapsed;
  result.slots_used = static_cast<std::uint32_t>(elapsed / kMillisecond);
  out = std::move(result);
}

void UnicastTransport::chain_round_into(const net::Topology& topo,
                                        const std::vector<ChainEntry>& entries,
                                        const MiniCastConfig& config,
                                        crypto::Xoshiro256& rng,
                                        RoundContext* /*scratch*/,
                                        MiniCastResult& out) const {
  const std::size_t n = topo.size();
  const std::size_t num_entries = entries.size();
  MPCIOT_REQUIRE(num_entries > 0, "unicast transport: empty chain");
  const auto is_disabled = [&](NodeId i) {
    return !config.disabled.empty() && config.disabled[i] != 0;
  };
  const auto done_fn = done_or_default(config);
  const net::routing::HopTiming timing =
      net::routing::hop_timing(topo.radio(), config.payload_bytes, mac_);
  net::ChannelView view;
  net::routing::WalkEnv env;
  const net::routing::WalkEnv* envp = nullptr;
  if (config.channel_model != nullptr || config.liveness != nullptr) {
    view.bind(topo, config.channel_model);
    env.base_us = config.start_time_us;
    env.view = config.channel_model != nullptr ? &view : nullptr;
    env.liveness = config.liveness;
    envp = &env;
  }

  MiniCastResult result;
  result.rx_slot.assign(n, std::vector<std::int32_t>(
                               num_entries, MiniCastResult::kNever));
  result.tx_count.assign(n, 0);
  result.done_slot.assign(n, MiniCastResult::kNever);
  result.radio_on_us.assign(n, 0);
  result.channel = config.channel;
  // Routed delivery has no TDMA slot grid; report rx/done positions as
  // cumulative elapsed milliseconds so latency math stays meaningful.
  result.chain_slot_us = kMillisecond;

  const std::size_t words = (num_entries + 63) / 64;
  std::vector<std::uint64_t> have(n * words, 0);
  const auto have_row = [&](NodeId i) { return have.data() + i * words; };
  for (std::size_t e = 0; e < num_entries; ++e) {
    bit_set(have_row(entries[e].origin), e);
    result.rx_slot[entries[e].origin][e] = MiniCastResult::kOwnEntry;
  }
  // Down nodes' done stamps are deferred until they are up, matching
  // the chain engines' convention.
  const auto down_at = [&](NodeId i, SimTime t) {
    return config.liveness != nullptr &&
           config.liveness->is_down(i, config.start_time_us + t);
  };
  for (NodeId i = 0; i < n; ++i) {
    if (is_disabled(i) || down_at(i, 0)) continue;
    if (done_fn(i, BitView(have_row(i), num_entries))) {
      result.done_slot[i] = 0;
    }
  }

  SimTime elapsed = 0;
  const std::vector<char>* blocked =
      config.disabled.empty() ? nullptr : &config.disabled;
  const auto deliver = [&](std::size_t e, NodeId origin, NodeId dst) {
    if (dst == origin || is_disabled(dst)) return;
    if (net::routing::walk_route(topo, origin, dst, timing,
                                 mac_.max_retries_per_hop, rng,
                                 result.radio_on_us, elapsed,
                                 &result.tx_count, blocked, envp)) {
      if (!bit_test(have_row(dst), e)) {
        bit_set(have_row(dst), e);
        result.rx_slot[dst][e] =
            static_cast<std::int32_t>(elapsed / kMillisecond);
      }
    }
  };

  for (std::size_t e = 0; e < num_entries; ++e) {
    const NodeId origin = entries[e].origin;
    if (is_disabled(origin)) continue;  // dead sources never send
    if (entries[e].destination != kInvalidNode) {
      deliver(e, origin, entries[e].destination);
    } else {
      for (NodeId dst = 0; dst < n; ++dst) deliver(e, origin, dst);
    }
    const std::int32_t now_ms =
        static_cast<std::int32_t>(elapsed / kMillisecond);
    for (NodeId i = 0; i < n; ++i) {
      if (is_disabled(i) || down_at(i, elapsed)) continue;
      if (result.done_slot[i] == MiniCastResult::kNever &&
          done_fn(i, BitView(have_row(i), num_entries))) {
        result.done_slot[i] = now_ms;
      }
    }
  }
  result.duration_us = elapsed;
  result.chain_slots_used = static_cast<std::uint32_t>(elapsed / kMillisecond);
  out = std::move(result);
}

ChannelTimeline::ChannelTimeline(std::uint16_t num_channels)
    : end_(num_channels, 0) {
  MPCIOT_REQUIRE(num_channels >= 1,
                 "ChannelTimeline: need at least one channel");
}

SimTime ChannelTimeline::book(std::uint16_t channel, SimTime duration_us,
                              SimTime earliest_us) {
  MPCIOT_REQUIRE(channel < end_.size(),
                 "ChannelTimeline: channel out of range");
  MPCIOT_REQUIRE(duration_us >= 0 && earliest_us >= 0,
                 "ChannelTimeline: negative time");
  const SimTime start = std::max(end_[channel], earliest_us);
  end_[channel] = start + duration_us;
  return start;
}

SimTime ChannelTimeline::channel_end_us(std::uint16_t channel) const {
  MPCIOT_REQUIRE(channel < end_.size(),
                 "ChannelTimeline: channel out of range");
  return end_[channel];
}

SimTime ChannelTimeline::end_us() const {
  return *std::max_element(end_.begin(), end_.end());
}

void ChannelTimeline::reset() { std::fill(end_.begin(), end_.end(), 0); }

void ChannelTimeline::resize(std::uint16_t num_channels) {
  end_.assign(num_channels, 0);
}

const Transport& minicast_transport() {
  static const MiniCastTransport instance;
  return instance;
}

std::unique_ptr<Transport> make_transport(const std::string& name) {
  if (name == "minicast") return std::make_unique<MiniCastTransport>();
  if (name == "glossy_floods") {
    return std::make_unique<GlossyFloodsTransport>();
  }
  if (name == "gossip") return std::make_unique<GossipTransport>();
  if (name == "unicast") return std::make_unique<UnicastTransport>();
  MPCIOT_REQUIRE(false, "make_transport: unknown transport name");
  return nullptr;  // unreachable
}

std::vector<std::string> transport_names() {
  return {"minicast", "glossy_floods", "gossip", "unicast"};
}

}  // namespace mpciot::ct
