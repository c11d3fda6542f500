// Hierarchical multi-group aggregation at scale: n x G sweep on
// synthetic grid deployments. G = 1 is the flat single-chain baseline
// (one group covering the whole network, 64-source rounds back to back
// on one channel); G > 1 shards the network into grid-block groups that
// aggregate concurrently on orthogonal channels, recombine the group
// sums up a pairwise tree and flood the total back. The flat protocol's
// O(n^2) chain entries make n = 1024 infeasible in one chain; this
// scenario runs it as a routine bench row and reports how the sharded
// configurations beat the baseline on round latency and max radio-on.
//
// Above 1024 nodes the sweep switches to keyed-draw topologies and
// recursive trees: depth x fanout configurations at n in {4096, 65536,
// 262144}, one rep each (a single trial at these sizes already costs
// minutes of wall-clock; the paired-seed scheme keeps it deterministic).
// Those rows carry extra `depth`/`fanout` columns and no vs-flat ratios
// (a flat chain over 2^16+ nodes would both overflow the u16 wire ids
// and never finish). Peak RSS for the big runs lands on the runner's
// stderr progress line, outside this deterministic document.
//
// Params: max_nodes (default 1024) trims the n sweep from above, e.g.
// for smoke runs on slow machines; min_nodes (default 0) trims it from
// below so CI can run exactly one big configuration.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/hierarchical.hpp"
#include "core/session.hpp"
#include "crypto/prng.hpp"
#include "metrics/experiment.hpp"
#include "metrics/stats.hpp"
#include "net/partition.hpp"
#include "net/testbeds.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/simulator.hpp"

namespace mpciot::bench {

namespace {

using bench_core::Row;
using bench_core::Rows;
using bench_core::ScenarioContext;

struct GridSpec {
  std::uint32_t rows;
  std::uint32_t cols;
};

/// A recursive configuration of the big-n sweep: root partition target
/// plus the nesting knobs handed to HierarchicalConfig.
struct TreeSpec {
  std::uint32_t target_groups;
  std::uint32_t depth;
  std::uint32_t fanout;
};

struct SweepPoint {
  std::uint32_t n = 0;
  std::uint32_t target_groups = 0;
  std::uint32_t depth = 1;
  std::uint32_t fanout = 16;
  std::uint32_t reps = 1;
  bool big = false;  // big rows carry depth/fanout columns, no ratios
  std::unique_ptr<core::HierarchicalProtocol> protocol;
  std::uint32_t groups = 0;
  std::uint16_t channels = 0;
  std::uint32_t largest_group = 0;
};

struct TrialRecord {
  double latency_max_ms = 0.0;
  double radio_on_max_ms = 0.0;
  double radio_on_mean_ms = 0.0;
  double group_phase_ms = 0.0;
  double recombine_ms = 0.0;
  double success = 0.0;
};

TrialRecord run_one(const SweepPoint& point, std::uint64_t base_seed,
                    std::uint32_t trial) {
  // Seeds are derived per (n, trial) and shared across G so the G = 1
  // baseline and the sharded runs of the same n stay paired.
  const std::uint64_t base =
      crypto::derive_seed(base_seed, 0x48494552ull /*"HIER"*/, point.n);
  sim::Simulator sim(metrics::trial_sim_seed(base, trial));
  const std::vector<field::Fp61> secrets =
      metrics::random_secrets(metrics::trial_secret_seed(base, trial),
                              point.n);
  core::Session session(*point.protocol);
  const core::HierarchicalResult& res =
      *session.run_round(secrets, sim).hier;

  TrialRecord rec;
  rec.latency_max_ms = static_cast<double>(res.max_latency_us()) / 1e3;
  rec.radio_on_max_ms = static_cast<double>(res.max_radio_on_us()) / 1e3;
  rec.radio_on_mean_ms = res.mean_radio_on_us() / 1e3;
  rec.group_phase_ms = static_cast<double>(res.group_phase_us) / 1e3;
  rec.recombine_ms = static_cast<double>(res.recombine_us) / 1e3;
  rec.success = res.success_ratio();
  return rec;
}

Rows run_hierarchy_scaling(const ScenarioContext& ctx) {
  const std::uint32_t max_nodes = ctx.param_u32("max_nodes", 1024);
  const std::uint32_t min_nodes = ctx.param_u32("min_nodes", 0);
  const std::uint32_t reps = std::max<std::uint32_t>(ctx.reps, 1);

  const auto build_topo = [&](std::uint32_t n, GridSpec grid) {
    return std::make_shared<const net::Topology>(
        net::testbeds::retry_topology(
            "hierarchy_scaling: could not build grid", 64,
            [&, n, grid](std::uint64_t attempt) {
              return net::testbeds::grid(
                  grid.rows, grid.cols, /*spacing_m=*/12.0,
                  crypto::derive_seed(ctx.seed, 0x544F504Full /*"TOPO"*/,
                                      n + attempt),
                  net::RadioParams{});
            }));
  };

  // Build the sweep: shared topology per n, one protocol per
  // configuration. `topos` is declared before `points` so the
  // topologies outlive the protocols that reference them.
  std::vector<std::shared_ptr<const net::Topology>> topos;
  std::vector<SweepPoint> points;
  const std::vector<std::pair<std::uint32_t, GridSpec>> sizes{
      {64, {8, 8}}, {256, {16, 16}}, {512, {16, 32}}, {1024, {32, 32}}};
  for (const auto& [n, grid] : sizes) {
    if (n > max_nodes || n < min_nodes) continue;
    auto topo = build_topo(n, grid);
    topos.push_back(topo);
    for (const std::uint32_t g : {1u, 4u, 16u}) {
      core::HierarchicalConfig cfg;
      cfg.partition = net::partition::grid_blocks(*topo, g);
      cfg.num_channels = static_cast<std::uint16_t>(
          std::min<std::size_t>(cfg.partition.size(), 16));
      // The paper's NTX = 6 is calibrated for its dense 26/45-node
      // testbeds; on these sparser 12 m grids, 8 is the smallest value
      // that reliably leaves >= degree+1 holders with identical
      // contributor sets in every group (deep groups are additionally
      // raised by the diameter rule in HierarchicalConfig).
      cfg.ntx_sharing = 8;
      cfg.ntx_reconstruction = 8;
      SweepPoint point;
      point.n = n;
      point.target_groups = g;
      point.reps = reps;
      point.groups = static_cast<std::uint32_t>(cfg.partition.size());
      point.channels = cfg.num_channels;
      for (const auto& members : cfg.partition.groups) {
        point.largest_group = std::max(
            point.largest_group, static_cast<std::uint32_t>(members.size()));
      }
      point.protocol = std::make_unique<core::HierarchicalProtocol>(
          *topo, std::move(cfg));
      points.push_back(std::move(point));
    }
  }

  // Big-n sweep: keyed-draw topologies, recursive trees, one rep. Root
  // groups are kept above Topology::kExactMaxNodes (their subtopologies
  // take the keyed draw slices and double-sweep centers) while the
  // innermost leaf groups stay small.
  struct BigSize {
    std::uint32_t n;
    GridSpec grid;
    std::vector<TreeSpec> trees;
  };
  const std::vector<BigSize> big_sizes{
      {4096, {64, 64}, {{16, 1, 16}, {4, 2, 16}, {8, 2, 8}}},
      {65536, {256, 256}, {{16, 2, 16}, {16, 2, 32}, {16, 3, 16}}},
      {262144, {512, 512}, {{64, 2, 16}}}};
  for (const BigSize& size : big_sizes) {
    if (size.n > max_nodes || size.n < min_nodes) continue;
    auto topo = build_topo(size.n, size.grid);
    topos.push_back(topo);
    for (const TreeSpec& tree : size.trees) {
      core::HierarchicalConfig cfg;
      cfg.partition = net::partition::grid_blocks(*topo, tree.target_groups);
      cfg.num_channels = static_cast<std::uint16_t>(
          std::min<std::size_t>(cfg.partition.size(), 16));
      cfg.ntx_sharing = 8;
      cfg.ntx_reconstruction = 8;
      cfg.depth = tree.depth;
      cfg.fanout = tree.fanout;
      SweepPoint point;
      point.n = size.n;
      point.target_groups = tree.target_groups;
      point.depth = tree.depth;
      point.fanout = tree.fanout;
      point.reps = 1;  // trimmed: one deterministic trial per big config
      point.big = true;
      point.groups = static_cast<std::uint32_t>(cfg.partition.size());
      point.channels = cfg.num_channels;
      for (const auto& members : cfg.partition.groups) {
        point.largest_group = std::max(
            point.largest_group, static_cast<std::uint32_t>(members.size()));
      }
      point.protocol = std::make_unique<core::HierarchicalProtocol>(
          *topo, std::move(cfg));
      points.push_back(std::move(point));
    }
  }

  // One unit per (sweep point, trial), computed possibly in parallel and
  // folded in unit order — rows are bit-identical for any job count.
  // Points carry different rep counts, so units map through prefix
  // offsets instead of a fixed stride.
  std::vector<std::size_t> offsets(points.size() + 1, 0);
  for (std::size_t p = 0; p < points.size(); ++p) {
    offsets[p + 1] = offsets[p] + points[p].reps;
  }
  const std::size_t units = offsets.back();
  std::vector<TrialRecord> records(units);
  const unsigned jobs =
      metrics::resolve_jobs(ctx.jobs, static_cast<std::uint32_t>(units));
  metrics::parallel_for(units, jobs, [&](std::size_t unit) {
    const std::size_t p =
        static_cast<std::size_t>(
            std::upper_bound(offsets.begin(), offsets.end(), unit) -
            offsets.begin()) -
        1;
    records[unit] = run_one(points[p], ctx.seed,
                            static_cast<std::uint32_t>(unit - offsets[p]));
  });

  Rows rows;
  std::uint32_t flat_n = 0;
  double flat_latency_ms = 0.0;
  double flat_radio_max_ms = 0.0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const SweepPoint& point = points[p];
    metrics::Summary latency;
    metrics::Summary radio_max;
    metrics::Summary radio_mean;
    metrics::Summary group_phase;
    metrics::Summary recombine;
    metrics::Summary success;
    for (std::uint32_t t = 0; t < point.reps; ++t) {
      const TrialRecord& rec = records[offsets[p] + t];
      latency.add(rec.latency_max_ms);
      radio_max.add(rec.radio_on_max_ms);
      radio_mean.add(rec.radio_on_mean_ms);
      group_phase.add(rec.group_phase_ms);
      recombine.add(rec.recombine_ms);
      success.add(rec.success);
    }
    if (point.target_groups == 1) {
      flat_n = point.n;
      flat_latency_ms = latency.mean();
      flat_radio_max_ms = radio_max.mean();
    }
    Row row;
    row.set("n_nodes", static_cast<std::uint64_t>(point.n))
        .set("groups", static_cast<std::uint64_t>(point.groups))
        .set("channels", static_cast<std::uint64_t>(point.channels))
        .set("largest_group", static_cast<std::uint64_t>(point.largest_group))
        .set("latency_ms", round3(latency.mean()))
        .set("group_phase_ms", round3(group_phase.mean()))
        .set("recombine_ms", round3(recombine.mean()))
        .set("max_radio_on_ms", round3(radio_max.mean()))
        .set("mean_radio_on_ms", round3(radio_mean.mean()))
        .set("success_pct", round3(success.mean() * 100));
    if (point.big) {
      // The big sizes have no flat comparator (a single chain past the
      // u16 wire window cannot exist); depth/fanout make the tree shape
      // explicit instead.
      row.set("depth", static_cast<std::uint64_t>(point.depth))
          .set("fanout", static_cast<std::uint64_t>(point.fanout));
    } else {
      const bool have_flat = flat_n == point.n;
      row.set("latency_vs_flat",
              have_flat
                  ? round3(flat_latency_ms / std::max(latency.mean(), 1e-9))
                  : 0.0)
          .set("radio_vs_flat",
               have_flat
                   ? round3(flat_radio_max_ms /
                            std::max(radio_max.mean(), 1e-9))
                   : 0.0);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

void register_hierarchy_scaling(bench_core::Registry& registry) {
  registry.add(bench_core::ScenarioSpec{
      "hierarchy_scaling",
      // NOTE: the description is serialized into the deterministic
      // result documents; changing it would break their byte-identity.
      "Hierarchical multi-group aggregation: n x G sweep vs the flat "
      "single-chain baseline (params: max_nodes)",
      /*default_reps=*/3,
      /*deterministic=*/true,
      /*param_names=*/{"max_nodes", "min_nodes"},
      run_hierarchy_scaling});
}

}  // namespace mpciot::bench
