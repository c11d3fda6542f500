// Cross-module integration tests: the paper's headline claims, run small.
#include <gtest/gtest.h>

#include "core/protocol.hpp"
#include "core/session.hpp"
#include "core/unicast_baseline.hpp"
#include "ct/chain_schedule.hpp"
#include "metrics/experiment.hpp"
#include "net/testbeds.hpp"

namespace mpciot {
namespace {

using core::AggregationResult;
using core::SssProtocol;

std::vector<NodeId> all_nodes(const net::Topology& topo) {
  std::vector<NodeId> out(topo.size());
  for (NodeId i = 0; i < topo.size(); ++i) out[i] = i;
  return out;
}

TEST(EndToEnd, S4BeatsS3OnFlocklabFullNetwork) {
  const net::Topology topo = net::testbeds::flocklab();
  const crypto::KeyStore keys(1, topo.size());
  const auto sources = all_nodes(topo);
  const std::size_t degree = core::paper_degree(sources.size());

  // Paper configuration: S4 at NTX 6, S3 provisioned for full coverage
  // (use a fixed large NTX to keep the test fast and deterministic).
  const SssProtocol s3(topo, keys,
                       core::make_s3_config(topo, sources, degree, 16));
  const SssProtocol s4(topo, keys,
                       core::make_s4_config(topo, sources, degree, 6));

  metrics::ExperimentSpec spec;
  spec.repetitions = 5;
  spec.base_seed = 42;
  const auto stats3 = metrics::run_trials(s3, spec);
  const auto stats4 = metrics::run_trials(s4, spec);

  // The headline shape: S4 several times faster and lighter on radio.
  EXPECT_GT(stats3.latency_max_ms.mean(), 3.0 * stats4.latency_max_ms.mean());
  EXPECT_GT(stats3.radio_on_max_ms.mean(),
            3.0 * stats4.radio_on_max_ms.mean());
  // Both must actually work.
  EXPECT_GT(stats3.success_ratio.mean(), 0.95);
  EXPECT_GT(stats4.success_ratio.mean(), 0.8);
}

TEST(EndToEnd, S4ChainIsSubQuadratic) {
  const net::Topology topo = net::testbeds::flocklab();
  const auto sources = all_nodes(topo);
  const std::size_t degree = core::paper_degree(sources.size());
  const auto s3_cfg = core::make_s3_config(topo, sources, degree, 8);
  const auto s4_cfg = core::make_s4_config(topo, sources, degree, 6);
  const auto s3_chain =
      ct::make_sharing_schedule(s3_cfg.sources, s3_cfg.share_holders);
  const auto s4_chain =
      ct::make_sharing_schedule(s4_cfg.sources, s4_cfg.share_holders);
  EXPECT_EQ(s3_chain.size(), sources.size() * sources.size());
  EXPECT_LT(s4_chain.size(), s3_chain.size() / 2);
}

TEST(EndToEnd, NtxCoverageIsNonLinear) {
  // §III: delivery rises fast at low NTX, full coverage comes much later.
  const net::Topology topo = net::testbeds::flocklab();
  const auto sources = all_nodes(topo);
  const auto sched = ct::make_sharing_schedule(sources, sources);
  auto delivery_at = [&](std::uint32_t ntx) {
    double total = 0;
    for (int t = 0; t < 3; ++t) {
      crypto::Xoshiro256 rng(500 + t);
      ct::MiniCastConfig cfg;
      cfg.initiator = topo.center_node();
      cfg.ntx = ntx;
      cfg.payload_bytes = 16;
      cfg.scheduled_owners = sources;
      total += run_minicast(topo, sched.entries, cfg, rng).delivery_ratio();
    }
    return total / 3;
  };
  const double d2 = delivery_at(2);
  const double d5 = delivery_at(5);
  EXPECT_GT(d5, 0.9);            // most data arrives quickly...
  EXPECT_GT(d5 - d2, 0.05);      // ...rising steeply at first...
  EXPECT_LT(delivery_at(8), 1.0 + 1e-9);  // ...with a long tail to 100%.
}

TEST(EndToEnd, UnicastBaselineIsSlowerThanCt) {
  // The paper's premise: CT makes communication-heavy MPC affordable.
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;
  std::vector<net::Position> pos;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) pos.push_back({c * 12.0, r * 12.0});
  }
  const net::Topology topo(std::move(pos), radio, 7);
  const crypto::KeyStore keys(1, topo.size());
  const auto sources = all_nodes(topo);
  const auto cfg = core::make_s3_config(topo, sources, 2, 5);
  const SssProtocol s3(topo, keys, cfg);

  const auto secrets = metrics::random_secrets(1, sources.size());
  sim::Simulator sim_ct(5);
  core::Session session(s3);
  const AggregationResult ct_res = *session.run_round(secrets, sim_ct).flat;
  sim::Simulator sim_uc(5);
  const core::UnicastResult uc_res =
      core::run_unicast_sss(topo, cfg, secrets, sim_uc);

  EXPECT_EQ(ct_res.success_ratio(), 1.0);
  EXPECT_EQ(uc_res.success_ratio(), 1.0);
  EXPECT_GT(uc_res.total_duration_us, ct_res.total_duration_us);
}

TEST(EndToEnd, DcubeSupportsPaperNtxFive) {
  const net::Topology topo = net::testbeds::dcube();
  const crypto::KeyStore keys(1, topo.size());
  const auto sources = all_nodes(topo);
  const std::size_t degree = core::paper_degree(sources.size());
  const SssProtocol s4(topo, keys,
                       core::make_s4_config(topo, sources, degree, 5));
  metrics::ExperimentSpec spec;
  spec.repetitions = 3;
  spec.base_seed = 7;
  const auto stats = metrics::run_trials(s4, spec);
  EXPECT_GT(stats.success_ratio.mean(), 0.85);
  EXPECT_GT(stats.share_delivery.mean(), 0.98);
}

TEST(EndToEnd, FullRunIsDeterministicAcrossProcessRepeats) {
  const net::Topology topo = net::testbeds::flocklab();
  const crypto::KeyStore keys(9, topo.size());
  const auto sources = all_nodes(topo);
  const SssProtocol s4(topo, keys,
                       core::make_s4_config(topo, sources, 8, 6));
  const auto secrets = metrics::random_secrets(3, sources.size());
  sim::Simulator a(123);
  sim::Simulator b(123);
  core::Session sa(s4);
  core::Session sb(s4);
  const AggregationResult ra = *sa.run_round(secrets, a).flat;
  const AggregationResult rb = *sb.run_round(secrets, b).flat;
  EXPECT_EQ(ra.total_duration_us, rb.total_duration_us);
  EXPECT_EQ(ra.share_delivery_ratio, rb.share_delivery_ratio);
  EXPECT_EQ(ra.complete_holders, rb.complete_holders);
}

}  // namespace
}  // namespace mpciot
