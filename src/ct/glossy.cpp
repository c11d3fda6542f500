#include "ct/glossy.hpp"

namespace mpciot::ct {

double GlossyResult::coverage() const {
  if (first_rx_slot.size() <= 1) return 1.0;
  std::size_t received = 0;
  std::size_t total = 0;
  for (std::int32_t s : first_rx_slot) {
    if (s == MiniCastResult::kOwnEntry) continue;  // initiator
    ++total;
    if (s != MiniCastResult::kNever) ++received;
  }
  return total == 0 ? 1.0 : static_cast<double>(received) /
                                static_cast<double>(total);
}

GlossyResult run_glossy(const net::Topology& topo, const GlossyConfig& config,
                        crypto::Xoshiro256& rng, RoundContext* scratch) {
  RoundContext local;
  GlossyResult out;
  run_glossy_into(topo, config, rng, scratch != nullptr ? *scratch : local,
                  out);
  return out;
}

void run_glossy_into(const net::Topology& topo, const GlossyConfig& config,
                     crypto::Xoshiro256& rng, RoundContext& scratch,
                     GlossyResult& out) {
  scratch.flood_entries.assign(1, ChainEntry{config.initiator});
  run_minicast_into(topo, scratch.flood_entries,
                    flood_chain_config(config, RadioPolicy::kUntilQuiescence),
                    rng, scratch, scratch.flood_tmp);
  flood_result_from_chain(scratch.flood_tmp, out);
}

MiniCastConfig flood_chain_config(const GlossyConfig& config,
                                  RadioPolicy policy) {
  MiniCastConfig mc;
  mc.initiator = config.initiator;
  mc.channel = config.channel;
  mc.ntx = config.ntx;
  mc.payload_bytes = config.payload_bytes;
  mc.max_chain_slots = config.max_slots;
  mc.radio_policy = policy;
  mc.start_time_us = config.start_time_us;
  mc.channel_model = config.channel_model;
  mc.liveness = config.liveness;
  return mc;
}

void flood_result_from_chain(const MiniCastResult& chain, GlossyResult& out) {
  out.first_rx_slot.clear();
  out.first_rx_slot.reserve(chain.rx_slot.size());
  for (const auto& row : chain.rx_slot) out.first_rx_slot.push_back(row[0]);
  out.tx_count = chain.tx_count;
  out.radio_on_us = chain.radio_on_us;
  out.slots_used = chain.chain_slots_used;
  out.duration_us = chain.duration_us;
  out.channel = chain.channel;
}

}  // namespace mpciot::ct
