// Registration and smoke coverage for the real benchmark scenarios
// (bench/scenarios/). Heavier end-to-end runs happen in CI's
// bench-smoke job; here we pin the registry contents, CLI-visible
// metadata, and one fast scenario end to end.
#include <gtest/gtest.h>

#include "bench_core/runner.hpp"
#include "scenarios/scenarios.hpp"

namespace mpciot::bench {
namespace {

using bench_core::Registry;
using bench_core::ScenarioContext;

Registry make_registry() {
  Registry reg;
  register_all_scenarios(reg);
  return reg;
}

TEST(Scenarios, AllFifteenRegistered) {
  const Registry reg = make_registry();
  const char* expected[] = {
      "fig1_flocklab",  "fig1_dcube",   "adversary_sweep",
      "chain_scaling",  "degree_sweep", "distributed_loopback",
      "dynamics_sweep", "fault_tolerance", "he_vs_mpc",
      "hierarchy_scaling", "ntx_coverage", "payload_size",
      "sustained_load", "transport_matrix", "unicast_vs_ct"};
  EXPECT_EQ(reg.all().size(), 15u);
  for (const char* name : expected) {
    ASSERT_NE(reg.find(name), nullptr) << name;
    EXPECT_FALSE(reg.find(name)->description.empty()) << name;
    EXPECT_GT(reg.find(name)->default_reps, 0u) << name;
  }
}

TEST(Scenarios, OnlyWallClockScenariosAreNonDeterministic) {
  // he_vs_mpc times real bignum arithmetic; distributed_loopback runs
  // real processes over real sockets. Everything else must stay
  // byte-reproducible.
  const Registry reg = make_registry();
  for (const auto& spec : reg.all()) {
    const bool wall_clock =
        spec.name == "he_vs_mpc" || spec.name == "distributed_loopback";
    EXPECT_EQ(spec.deterministic, !wall_clock) << spec.name;
  }
}

TEST(Scenarios, ChainScalingRowsMatchTheClaim) {
  const Registry reg = make_registry();
  ScenarioContext ctx;
  ctx.reps = 1;
  const auto rows = reg.find("chain_scaling")->run(ctx);
  // 9 analytic sweep points + 2 testbed cross-checks + 4 simulated grids.
  ASSERT_EQ(rows.size(), 15u);
  for (const auto& row : rows) {
    const auto* s3 = row.json().find("s3_chain_subslots");
    ASSERT_NE(s3, nullptr);
    const auto* s4 = row.json().find("s4_chain_subslots");
    if (s4 == nullptr) {
      // Simulated hot-path row: ran the naive chain through the engine.
      const auto* delivery = row.json().find("sim_delivery_pct");
      ASSERT_NE(delivery, nullptr);
      EXPECT_GT(delivery->as_double(), 50.0);
      continue;
    }
    EXPECT_GE(s3->as_uint(), s4->as_uint());
  }
  // n=64: 64^2 vs 64*(21+3).
  const auto& last_analytic = rows[8].json();
  EXPECT_EQ(last_analytic.find("config")->as_string(), "analytic");
  EXPECT_EQ(last_analytic.find("s3_chain_subslots")->as_uint(), 4096u);
  EXPECT_EQ(last_analytic.find("s4_chain_subslots")->as_uint(), 64u * 24u);
}

TEST(Scenarios, HierarchyScalingSmokeAtSmallScale) {
  const Registry reg = make_registry();
  ScenarioContext ctx;
  ctx.reps = 1;
  ctx.params = {{"max_nodes", "64"}};
  const auto rows = reg.find("hierarchy_scaling")->run(ctx);
  // One n (64) x three group counts.
  ASSERT_EQ(rows.size(), 3u);
  double flat_latency = 0.0;
  for (const auto& row : rows) {
    ASSERT_NE(row.json().find("groups"), nullptr);
    const double success = row.json().find("success_pct")->as_double();
    EXPECT_GT(success, 99.0);
    const double latency = row.json().find("latency_ms")->as_double();
    EXPECT_GT(latency, 0.0);
    if (row.json().find("groups")->as_uint() == 1) {
      flat_latency = latency;
    } else {
      // Sharded configurations beat the flat baseline.
      EXPECT_LT(latency, flat_latency);
      EXPECT_GT(row.json().find("latency_vs_flat")->as_double(), 1.0);
    }
  }
}

TEST(Scenarios, DynamicsSweepDegradesMonotonicallyWithChurn) {
  const Registry reg = make_registry();
  ScenarioContext ctx;
  ctx.reps = 4;
  const auto rows = reg.find("dynamics_sweep")->run(ctx);
  // 2 testbeds x 5 link configurations x 3 churn rates.
  ASSERT_EQ(rows.size(), 30u);
  // Within each (testbed, burst, bad-fraction) block the churn axis is
  // innermost and success must degrade monotonically (small tolerance:
  // the blocks are paired but the churn schedules are independent).
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    const auto& a = rows[i].json();
    const auto& b = rows[i + 1].json();
    if (a.find("testbed")->as_string() != b.find("testbed")->as_string() ||
        a.find("burst_epochs")->as_uint() !=
            b.find("burst_epochs")->as_uint() ||
        a.find("bad_frac_pct")->as_double() !=
            b.find("bad_frac_pct")->as_double()) {
      continue;  // block boundary
    }
    ASSERT_LT(a.find("churn_per_sec")->as_double(),
              b.find("churn_per_sec")->as_double());
    EXPECT_LE(b.find("success_pct")->as_double(),
              a.find("success_pct")->as_double() + 5.0)
        << "row " << i << " -> " << i + 1;
  }
  // The static baseline rows exist and anchor the vs_static columns.
  EXPECT_EQ(rows[0].json().find("burst_epochs")->as_uint(), 0u);
  EXPECT_EQ(rows[0].json().find("latency_vs_static")->as_double(), 1.0);
}

TEST(Scenarios, AdversarySweepDetectsCheatersAndRecovers) {
  const Registry reg = make_registry();
  ScenarioContext ctx;
  ctx.reps = 2;
  ctx.jobs = 0;
  const auto rows = reg.find("adversary_sweep")->run(ctx);
  // 2 testbeds x 4 transports x 17 axis points.
  ASSERT_EQ(rows.size(), 136u);

  // The sharp claims hold on the CT substrates, whose honest baseline
  // completes at 100% (gossip cannot carry an S4 round even with
  // nobody cheating — see transport_matrix — and unicast's baseline
  // already drops nodes).
  auto is_ct = [](const std::string& t) {
    return t == "minicast" || t == "glossy_floods";
  };
  // shares_rejected per (testbed, transport) malformed+VSS block, in
  // attacker-fraction order — pinned strictly increasing below.
  std::vector<double> rejected_block;
  std::size_t ct_malformed_vss = 0;
  for (const auto& row : rows) {
    const auto& j = row.json();
    const std::string transport = j.find("transport")->as_string();
    const std::string attack = j.find("attack")->as_string();
    const bool vss = j.find("vss")->as_uint() == 1;
    const double detect = j.find("detect_pct")->as_double();
    const double honest = j.find("honest_success_pct")->as_double();

    // Commitments travel iff VSS is on: 16 B x (degree+1).
    EXPECT_EQ(j.find("commit_bytes")->as_uint(), vss ? 96u : 0u);
    if (!is_ct(transport)) continue;

    if (attack == "none") {
      EXPECT_EQ(honest, 100.0);
      EXPECT_EQ(j.find("shares_rejected")->as_double(), 0.0);
      EXPECT_EQ(j.find("sums_rejected")->as_double(), 0.0);
    } else if (attack == "malformed" && vss) {
      // The headline acceptance bound: essentially every malformed-
      // share injector is caught and the round still aggregates
      // correctly for every honest node.
      ++ct_malformed_vss;
      EXPECT_GE(detect, 99.0) << transport;
      EXPECT_GE(honest, 99.0) << transport;
      rejected_block.push_back(j.find("shares_rejected")->as_double());
      if (rejected_block.size() > 1) {
        EXPECT_GT(rejected_block.back(),
                  rejected_block[rejected_block.size() - 2])
            << "rejections must grow with the attacker fraction";
      }
      if (rejected_block.size() == 3) rejected_block.clear();
    } else if (attack == "malformed" && !vss) {
      // Without verification the same attack corrupts every node's
      // aggregate silently — nothing rejected, nothing correct.
      EXPECT_EQ(detect, 0.0);
      EXPECT_EQ(honest, 0.0) << transport;
      EXPECT_EQ(j.find("shares_rejected")->as_double(), 0.0);
    } else if (attack == "inconsistent") {
      // Equivocating dealers are always caught by the holders they
      // target; recovery needs complaint rounds (out of scope), so
      // only detection is pinned.
      EXPECT_GE(detect, 99.0) << transport;
    } else if (attack == "polluted") {
      EXPECT_GE(detect, 99.0) << transport;
      EXPECT_GE(honest, 99.0) << transport;
      EXPECT_GT(j.find("sums_rejected")->as_double(), 0.0);
    } else if (attack == "jam") {
      // Jamming is a pure availability attack: invisible to the
      // commitment layer.
      EXPECT_EQ(detect, 0.0);
      EXPECT_EQ(j.find("shares_rejected")->as_double(), 0.0);
      EXPECT_EQ(j.find("sums_rejected")->as_double(), 0.0);
    }
  }
  // 2 testbeds x 2 CT transports x 3 fractions.
  EXPECT_EQ(ct_malformed_vss, 12u);
}

TEST(Scenarios, NtxCoverageHonorsMaxNtxParam) {
  const Registry reg = make_registry();
  ScenarioContext ctx;
  ctx.reps = 1;
  ctx.params = {{"max_ntx", "2"}};
  const auto rows = reg.find("ntx_coverage")->run(ctx);
  // 2 NTX values x 2 testbeds.
  EXPECT_EQ(rows.size(), 4u);
}

}  // namespace
}  // namespace mpciot::bench
