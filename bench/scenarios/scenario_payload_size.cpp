// Share-width ablation: CT round time is chain_slots x entries x
// sub-slot airtime, and airtime is linear in payload bytes — so the
// field the shares live in is a first-order performance knob. Compares
// the S4 sharing round on FlockLab for Fp61 (18 B packets), GF(65521)
// (12 B) and GF(251) (11 B) share encodings.
#include <cstdint>
#include <vector>

#include "core/protocol.hpp"
#include "core/wire.hpp"
#include "ct/chain_schedule.hpp"
#include "metrics/stats.hpp"
#include "net/testbeds.hpp"
#include "scenarios/scenarios.hpp"

namespace mpciot::bench {

namespace {

using bench_core::Row;
using bench_core::Rows;
using bench_core::ScenarioContext;

Rows run_payload_size(const ScenarioContext& ctx) {
  const net::Topology topo = net::testbeds::flocklab();
  std::vector<NodeId> sources(topo.size());
  for (NodeId i = 0; i < topo.size(); ++i) sources[i] = i;
  const std::size_t degree = core::paper_degree(sources.size());
  const auto cfg = core::make_s4_config(topo, sources, degree, 6);
  const auto sched = ct::make_sharing_schedule(cfg.sources, cfg.share_holders);

  struct Variant {
    const char* name;
    std::size_t value_bytes;
  };

  Rows rows;
  // Packet = 6 B header (u16 ids) + ciphertext (share width) + 4 B tag.
  for (const Variant v : {Variant{"fp61", 8}, Variant{"gf65521", 2},
                          Variant{"gf251", 1}}) {
    const std::uint32_t payload =
        static_cast<std::uint32_t>(10 + v.value_bytes);
    metrics::Summary round_ms;
    metrics::Summary delivery;
    for (std::uint32_t t = 0; t < ctx.reps; ++t) {
      // Same trial stream for every payload width: the ablation is paired.
      crypto::Xoshiro256 rng(crypto::derive_seed(ctx.seed, 0x50415953ull, t));
      ct::MiniCastConfig mc;
      mc.initiator = topo.center_node();
      mc.ntx = cfg.ntx_sharing;
      mc.payload_bytes = payload;
      mc.radio_policy = ct::RadioPolicy::kEarlyOff;
      mc.scheduled_owners = cfg.sources;
      const ct::MiniCastResult res = run_minicast(topo, sched.entries, mc, rng);
      round_ms.add(static_cast<double>(res.duration_us) / 1e3);
      delivery.add(res.delivery_ratio());
    }
    Row row;
    row.set("field", v.name)
        .set("share_bytes", static_cast<std::uint64_t>(v.value_bytes))
        .set("packet_bytes", payload)
        .set("subslot_us",
             static_cast<std::uint64_t>(topo.radio().subslot_us(payload)))
        .set("sharing_round_ms", round3(round_ms.mean()))
        .set("delivery_pct", round3(delivery.mean() * 100));
    rows.push_back(std::move(row));
  }

  return rows;
}

}  // namespace

void register_payload_size(bench_core::Registry& registry) {
  registry.add(bench_core::ScenarioSpec{
      "payload_size",
      "Ablation: share width vs S4 sharing-round time (FlockLab-like)",
      /*default_reps=*/10,
      /*deterministic=*/true,
      /*param_names=*/{}, run_payload_size});
}

}  // namespace mpciot::bench
