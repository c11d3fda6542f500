#include "core/unicast_baseline.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/roles.hpp"
#include "core/wire.hpp"
#include "ct/chain_schedule.hpp"
#include "ct/transport.hpp"

namespace mpciot::core {

double UnicastResult::success_ratio() const {
  if (nodes.empty()) return 0.0;
  std::size_t ok = 0;
  for (const NodeOutcome& o : nodes) {
    if (o.has_aggregate && o.aggregate_correct) ++ok;
  }
  return static_cast<double>(ok) / static_cast<double>(nodes.size());
}

SimTime UnicastResult::max_radio_on_us() const {
  SimTime best = 0;
  for (SimTime t : radio_on_us) best = std::max(best, t);
  return best;
}

UnicastResult run_unicast_sss(const net::Topology& topo,
                              const ProtocolConfig& config,
                              const std::vector<field::Fp61>& secrets,
                              sim::Simulator& sim) {
  MPCIOT_REQUIRE(secrets.size() == config.sources.size(),
                 "unicast: one secret per source");
  const std::size_t n = topo.size();
  const std::size_t num_sources = config.sources.size();
  const std::size_t num_holders = config.share_holders.size();

  // Deal shares through the CT protocol's dealing rule.
  const auto wire_round = static_cast<std::uint16_t>(config.round & 0xFFFFu);
  const roles::RoundSpec spec{config.sources, config.share_holders,
                              config.degree, wire_round};
  std::vector<roles::SourceRole> sources;
  sources.reserve(num_sources);
  field::Fp61 expected_sum;
  for (std::size_t i = 0; i < num_sources; ++i) {
    crypto::CtrDrbg drbg(
        sim.seed(),
        0x0D1C000000000000ull |
            (static_cast<std::uint64_t>(config.round) << 32) |
            config.sources[i]);
    sources.emplace_back(spec, config.sources[i])
        .deal(wire_round, secrets[i], drbg);
    expected_sum += secrets[i];
  }

  // Both phases run over the unicast substrate behind the transport
  // seam: the sharing chain routes each (source, holder) share
  // point-to-point, the reconstruction chain broadcasts each holder's
  // sum to every node — the same message pattern a non-CT collection-
  // tree deployment would generate, with identical per-hop ARQ walks.
  const ct::UnicastTransport transport;

  const ct::SharingSchedule sharing =
      ct::make_sharing_schedule(config.sources, config.share_holders);
  ct::MiniCastConfig share_cfg;
  share_cfg.payload_bytes = SharePacket::kWireSize;
  const ct::MiniCastResult share_round = transport.chain_round(
      topo, sharing.entries, share_cfg, sim.channel_rng(), nullptr);

  const ct::ReconstructionSchedule recon =
      ct::make_reconstruction_schedule(config.share_holders);
  ct::MiniCastConfig recon_cfg;
  recon_cfg.payload_bytes = SumPacket::kWireSize;
  const ct::MiniCastResult recon_round = transport.chain_round(
      topo, recon.entries, recon_cfg, sim.channel_rng(), nullptr);

  UnicastResult result;
  result.radio_on_us.assign(n, 0);
  result.nodes.assign(n, NodeOutcome{});
  for (NodeId i = 0; i < n; ++i) {
    result.radio_on_us[i] =
        share_round.radio_on_us[i] + recon_round.radio_on_us[i];
  }

  // Keep the simulation clock aligned with the channel occupancy the
  // two phases accumulated (single collision domain: walks serialize).
  result.total_duration_us = share_round.duration_us + recon_round.duration_us;
  sim.advance(result.total_duration_us);

  // Holder sums from delivered shares, through the shared accumulation
  // rule. Own shares never travel on air, and the unicast model carries
  // no ciphertext, so every share enters through accept_local.
  std::vector<roles::HolderRole> holders;
  holders.reserve(num_holders);
  std::size_t delivered = 0;
  std::size_t total_messages = 0;
  for (std::size_t h = 0; h < num_holders; ++h) {
    roles::HolderRole& holder =
        holders.emplace_back(spec, config.share_holders[h]);
    for (std::size_t s = 0; s < num_sources; ++s) {
      if (config.sources[s] != config.share_holders[h]) {
        ++total_messages;
        if (!share_round.node_has(config.share_holders[h],
                                  sharing.entry_index(s, h))) {
          continue;
        }
        ++delivered;
      }
      holder.accept_local(config.sources[s], sources[s].share(h));
    }
  }

  // Sum delivery per node (holders trivially have their own sum).
  for (std::size_t h = 0; h < num_holders; ++h) {
    for (NodeId dst = 0; dst < n; ++dst) {
      if (dst == config.share_holders[h]) continue;
      ++total_messages;
      if (recon_round.node_has(dst, h)) ++delivered;
    }
  }
  result.delivery_ratio =
      total_messages == 0
          ? 1.0
          : static_cast<double>(delivered) /
                static_cast<double>(total_messages);

  // Idle-listening overhead.
  for (NodeId i = 0; i < n; ++i) {
    result.radio_on_us[i] += static_cast<SimTime>(
        kIdleDutyCycle * static_cast<double>(result.total_duration_us));
  }

  // Per-node reconstruction through the CT path's rule. A holder that
  // summed nothing has no point-sum to deliver.
  roles::AggregatorRole aggregator(spec);
  for (NodeId node = 0; node < n; ++node) {
    aggregator.reset(wire_round);
    for (std::size_t h = 0; h < num_holders; ++h) {
      if (holders[h].contributor_mask() == 0) continue;
      const bool own = (config.share_holders[h] == node);
      if (!own && !recon_round.node_has(node, h)) continue;
      aggregator.accept(holders[h].sum_packet());
    }
    NodeOutcome& out = result.nodes[node];
    out.radio_on_us = result.radio_on_us[node];
    const std::optional<roles::AggregateOutcome> agg =
        aggregator.try_reconstruct();
    if (!agg.has_value()) continue;
    out.has_aggregate = true;
    out.sums_used = agg->sums_used;
    out.aggregate = agg->aggregate;
    out.contributor_mask = agg->contributor_mask;
    out.aggregate_correct = (agg->contributor_mask == aggregator.full_mask()) &&
                            (agg->aggregate == expected_sum);
    out.latency_us = result.total_duration_us;
  }
  return result;
}

}  // namespace mpciot::core
