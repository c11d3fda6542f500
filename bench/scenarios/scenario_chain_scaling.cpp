// §II/§III chain-size claim: the naive sharing phase needs an O(n^2)
// chain while the scalable variant trims it to O(n * m) with
// m = k + 1 + slack, k = floor(n/3). Analytic rows for a size sweep,
// cross-check rows from the real schedule builder on both testbeds,
// and simulated "sim_grid" rows that actually run the O(n^2) sharing
// chain through the MiniCast engine on growing grids — the hot-path
// workload the bitmap engine rewrite targets. Deterministic; reps
// averages the simulated rows.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "core/wire.hpp"
#include "crypto/prng.hpp"
#include "ct/chain_schedule.hpp"
#include "ct/minicast.hpp"
#include "net/testbeds.hpp"
#include "scenarios/scenarios.hpp"

namespace mpciot::bench {

namespace {

using bench_core::Row;
using bench_core::Rows;
using bench_core::ScenarioContext;

Row make_row(const char* config, std::size_t n, std::size_t k,
             std::size_t s3_chain, std::size_t s4_chain, SimTime subslot) {
  Row row;
  row.set("config", config)
      .set("n_sources", static_cast<std::uint64_t>(n))
      .set("degree", static_cast<std::uint64_t>(k))
      .set("s3_chain_subslots", static_cast<std::uint64_t>(s3_chain))
      .set("s4_chain_subslots", static_cast<std::uint64_t>(s4_chain))
      .set("ratio", round3(static_cast<double>(s3_chain) /
                           static_cast<double>(s4_chain)))
      .set("s3_slot_ms", round3(static_cast<double>(s3_chain) *
                                static_cast<double>(subslot) / 1e3))
      .set("s4_slot_ms", round3(static_cast<double>(s4_chain) *
                                static_cast<double>(subslot) / 1e3));
  return row;
}

/// One simulated all-to-all sharing round (the naive O(n^2) chain) on a
/// rows x cols jittered grid, repeated `reps` times; reports the mean
/// delivery/slot/duration so the row stays deterministic per seed.
Row run_sim_grid(std::uint32_t grid_rows, std::uint32_t grid_cols,
                 const ScenarioContext& ctx) {
  const net::Topology topo = net::testbeds::grid(
      grid_rows, grid_cols, /*spacing_m=*/12.0, /*seed=*/ctx.seed ^ 0x51D0u);
  const std::size_t n = topo.size();
  std::vector<NodeId> sources(n);
  for (NodeId i = 0; i < n; ++i) sources[i] = i;
  const ct::SharingSchedule sched = ct::make_sharing_schedule(sources, sources);

  ct::MiniCastConfig cfg;
  cfg.initiator = topo.center_node();
  cfg.ntx = 4;
  cfg.payload_bytes = core::SharePacket::kWireSize;
  cfg.max_chain_slots = 192;
  cfg.scheduled_owners = sources;

  const std::uint32_t reps = std::max<std::uint32_t>(ctx.reps, 1);
  double delivery = 0.0;
  double slots = 0.0;
  double duration_ms = 0.0;
  ct::RoundContext scratch;  // reused across reps (identical results)
  ct::MiniCastResult res;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    crypto::Xoshiro256 rng(crypto::derive_seed(ctx.seed, n, rep));
    run_minicast_into(topo, sched.entries, cfg, rng, scratch, res);
    delivery += res.delivery_ratio();
    slots += static_cast<double>(res.chain_slots_used);
    duration_ms += static_cast<double>(res.duration_us) / 1e3;
  }
  Row row;
  row.set("config", "sim_grid")
      .set("n_sources", static_cast<std::uint64_t>(n))
      .set("s3_chain_subslots", static_cast<std::uint64_t>(sched.size()))
      .set("sim_delivery_pct", round3(delivery / reps * 100.0))
      .set("sim_chain_slots", round3(slots / reps))
      .set("sim_duration_ms", round3(duration_ms / reps));
  return row;
}

Rows run_chain_scaling(const ScenarioContext& ctx) {
  const net::RadioParams radio;
  const SimTime subslot = radio.subslot_us(core::SharePacket::kWireSize);

  Rows rows;
  for (const std::size_t n : {3u, 6u, 10u, 16u, 24u, 26u, 32u, 45u, 64u}) {
    const std::size_t k = core::paper_degree(n);
    const std::size_t m = std::min<std::size_t>(k + 3, n);
    rows.push_back(make_row("analytic", n, k, n * n, n * m, subslot));
  }

  // Cross-check against the real schedule builder on the two testbeds.
  for (const auto& [name, topo] :
       {std::pair<const char*, net::Topology>{"flocklab",
                                              net::testbeds::flocklab()},
        std::pair<const char*, net::Topology>{"dcube",
                                              net::testbeds::dcube()}}) {
    std::vector<NodeId> sources(topo.size());
    for (NodeId i = 0; i < topo.size(); ++i) sources[i] = i;
    const std::size_t k = core::paper_degree(sources.size());
    const auto s3_cfg = core::make_s3_config(topo, sources, k, 8);
    const auto s4_cfg = core::make_s4_config(topo, sources, k, 6);
    const auto s3_sched =
        ct::make_sharing_schedule(s3_cfg.sources, s3_cfg.share_holders);
    const auto s4_sched =
        ct::make_sharing_schedule(s4_cfg.sources, s4_cfg.share_holders);
    rows.push_back(make_row(name, sources.size(), k, s3_sched.size(),
                            s4_sched.size(), subslot));
  }

  // Simulated hot-path rows: run the naive chain for real on grids up to
  // 100 nodes (a 10,000-entry chain). These are the engine-bound rows the
  // wall-clock speedup of the bitmap rewrite shows up on.
  for (const auto& [grid_rows, grid_cols] :
       {std::pair<std::uint32_t, std::uint32_t>{4u, 4u},
        std::pair<std::uint32_t, std::uint32_t>{6u, 6u},
        std::pair<std::uint32_t, std::uint32_t>{8u, 8u},
        std::pair<std::uint32_t, std::uint32_t>{10u, 10u}}) {
    rows.push_back(run_sim_grid(grid_rows, grid_cols, ctx));
  }
  return rows;
}

}  // namespace

void register_chain_scaling(bench_core::Registry& registry) {
  registry.add(bench_core::ScenarioSpec{
      "chain_scaling",
      "§II/§III: O(n^2) naive sharing chain vs O(n*m) scalable chain",
      /*default_reps=*/1,
      /*deterministic=*/true,
      /*param_names=*/{}, run_chain_scaling});
}

}  // namespace mpciot::bench
