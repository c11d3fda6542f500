// Extra baseline (not in the paper's evaluation, but its premise): the
// same SSS aggregation run over a conventional duty-cycled multi-hop
// unicast stack versus the CT substrate. Quantifies why the paper
// builds on concurrent transmissions at all.
#include <cstdint>
#include <vector>

#include "core/protocol.hpp"
#include "core/unicast_baseline.hpp"
#include "crypto/keystore.hpp"
#include "metrics/experiment.hpp"
#include "metrics/stats.hpp"
#include "net/testbeds.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/simulator.hpp"

namespace mpciot::bench {

namespace {

using bench_core::Row;
using bench_core::Rows;
using bench_core::ScenarioContext;

Rows run_unicast_vs_ct(const ScenarioContext& ctx) {
  const net::Topology topo = net::testbeds::flocklab();
  const crypto::KeyStore keys(ctx.seed, topo.size());
  std::vector<NodeId> sources(topo.size());
  for (NodeId i = 0; i < topo.size(); ++i) sources[i] = i;
  const std::size_t degree = core::paper_degree(sources.size());

  // CT: the S4 protocol over the parallel trial engine.
  const core::SssProtocol s4(topo, keys,
                             core::make_s4_config(topo, sources, degree, 6));
  metrics::ExperimentSpec spec;
  spec.repetitions = ctx.reps;
  spec.base_seed = ctx.seed;
  spec.jobs = ctx.jobs;
  const metrics::TrialStats ct_stats = metrics::run_trials(s4, spec);

  // Unicast: same shares/sums over routed stop-and-wait hops.
  metrics::Summary uc_latency_ms;
  metrics::Summary uc_radio_ms;
  metrics::Summary uc_success;
  const auto uc_cfg = core::make_s4_config(topo, sources, degree, 6);
  for (std::uint32_t t = 0; t < ctx.reps; ++t) {
    // Mirror run_trials' per-trial streams so the baseline stays paired
    // with the CT run above (same secrets, same channel draws per trial).
    sim::Simulator sim(metrics::trial_sim_seed(ctx.seed, t));
    const auto secrets = metrics::random_secrets(
        metrics::trial_secret_seed(ctx.seed, t), sources.size());
    const core::UnicastResult res =
        core::run_unicast_sss(topo, uc_cfg, secrets, sim);
    uc_latency_ms.add(static_cast<double>(res.total_duration_us) / 1e3);
    uc_radio_ms.add(static_cast<double>(res.max_radio_on_us()) / 1e3);
    uc_success.add(res.success_ratio());
  }

  Rows rows;
  Row ct_row;
  ct_row.set("substrate", "ct_minicast_s4")
      .set("latency_ms", round3(ct_stats.latency_max_ms.mean()))
      .set("max_radio_on_ms", round3(ct_stats.radio_on_max_ms.mean()))
      .set("success_pct", round3(ct_stats.success_ratio.mean() * 100));
  rows.push_back(std::move(ct_row));
  Row uc_row;
  uc_row.set("substrate", "unicast_routing")
      .set("latency_ms", round3(uc_latency_ms.mean()))
      .set("max_radio_on_ms", round3(uc_radio_ms.mean()))
      .set("success_pct", round3(uc_success.mean() * 100));
  rows.push_back(std::move(uc_row));
  return rows;
}

}  // namespace

void register_unicast_vs_ct(bench_core::Registry& registry) {
  registry.add(bench_core::ScenarioSpec{
      "unicast_vs_ct",
      "Baseline: SSS over duty-cycled unicast vs the CT substrate",
      /*default_reps=*/10,
      /*deterministic=*/true,
      /*param_names=*/{}, run_unicast_vs_ct});
}

}  // namespace mpciot::bench
