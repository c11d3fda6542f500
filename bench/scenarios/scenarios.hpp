// The benchmark scenarios, registered explicitly (no static-init
// tricks, so static-library linking cannot drop them). Each scenario
// returns rows of data; the bench_core runner renders JSON and tables.
#pragma once

#include <cmath>

#include "bench_core/registry.hpp"

namespace mpciot::bench {

/// Register every scenario: fig1_flocklab, fig1_dcube, adversary_sweep,
/// chain_scaling, degree_sweep, distributed_loopback, dynamics_sweep,
/// fault_tolerance, he_vs_mpc, hierarchy_scaling, ntx_coverage,
/// payload_size, sustained_load, transport_matrix, unicast_vs_ct.
void register_all_scenarios(bench_core::Registry& registry);

void register_fig1_scenarios(bench_core::Registry& registry);
void register_adversary_sweep(bench_core::Registry& registry);
void register_chain_scaling(bench_core::Registry& registry);
void register_degree_sweep(bench_core::Registry& registry);
void register_distributed_loopback(bench_core::Registry& registry);
void register_dynamics_sweep(bench_core::Registry& registry);
void register_fault_tolerance(bench_core::Registry& registry);
void register_he_vs_mpc(bench_core::Registry& registry);
void register_hierarchy_scaling(bench_core::Registry& registry);
void register_ntx_coverage(bench_core::Registry& registry);
void register_payload_size(bench_core::Registry& registry);
void register_sustained_load(bench_core::Registry& registry);
void register_transport_matrix(bench_core::Registry& registry);
void register_unicast_vs_ct(bench_core::Registry& registry);

/// Round to 3 decimals so JSON rows stay readable; deterministic.
inline double round3(double v) { return std::round(v * 1000.0) / 1000.0; }

}  // namespace mpciot::bench
