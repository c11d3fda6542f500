#include "scenarios/scenarios.hpp"

namespace mpciot::bench {

void register_all_scenarios(bench_core::Registry& registry) {
  register_fig1_scenarios(registry);
  register_adversary_sweep(registry);
  register_chain_scaling(registry);
  register_degree_sweep(registry);
  register_distributed_loopback(registry);
  register_dynamics_sweep(registry);
  register_fault_tolerance(registry);
  register_he_vs_mpc(registry);
  register_hierarchy_scaling(registry);
  register_ntx_coverage(registry);
  register_payload_size(registry);
  register_sustained_load(registry);
  register_transport_matrix(registry);
  register_unicast_vs_ct(registry);
}

}  // namespace mpciot::bench
