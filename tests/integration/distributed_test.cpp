// Multi-process integration tests of the distributed runtime: fork/exec
// the real mpciot-coordinator and mpciot-node binaries (paths injected
// by CMake), run share+sum rounds over loopback TCP, and pin
//
//   * the reconstructed aggregate == the simulator's expected sum for
//     the same deterministic secrets (run per group through the full
//     core::Session engine on a lossless topology);
//   * byte-identical JSON across repeat runs of the same deployment;
//   * threshold recovery when a node is killed mid-round (reduced but
//     consistent aggregate, crash reported in the JSON);
//   * generation fencing: a coordinator of a newer generation refuses
//     stale Hellos.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_core/json.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "crypto/prng.hpp"
#include "net/testbeds.hpp"
#include "rt/deployment.hpp"
#include "rt/node.hpp"
#include "sim/simulator.hpp"

namespace mpciot::rt {
namespace {

using bench_core::JsonValue;

std::string temp_path(const std::string& tag) {
  std::ostringstream os;
  os << "distributed_" << getpid() << "_" << tag;
  return os.str();
}

pid_t spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

int wait_exit(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
}

std::uint16_t read_port_file(const std::string& path) {
  // The coordinator writes the port after bind(); poll for it.
  for (int i = 0; i < 750; ++i) {
    std::ifstream in(path);
    std::uint32_t port = 0;
    if (in && in >> port && port != 0 && port <= 0xFFFF) {
      return static_cast<std::uint16_t>(port);
    }
    usleep(20 * 1000);
  }
  return 0;
}

std::string arg(std::uint64_t v) { return std::to_string(v); }

struct CampaignResult {
  int coordinator_exit = -1;
  std::vector<int> node_exits;
  std::string json;
};

/// Launch one coordinator + `nodes` node processes, wait everything
/// out, return exit codes and the coordinator's report document.
CampaignResult run_campaign(std::uint32_t nodes, std::uint32_t rounds,
                            std::uint64_t seed, const std::string& tag,
                            NodeId crash_node = kInvalidNode,
                            std::uint32_t crash_round = 0) {
  const std::string port_file = temp_path(tag + ".port");
  const std::string out_file = temp_path(tag + ".json");
  std::remove(port_file.c_str());

  CampaignResult result;
  const pid_t coordinator = spawn({
      MPCIOT_COORD_BIN, "--nodes", arg(nodes), "--rounds", arg(rounds),
      "--seed", arg(seed), "--port-file", port_file, "--out", out_file,
      "--t1-ms", "500", "--t2-ms", "5000", "--join-timeout-ms", "30000",
  });
  const std::uint16_t port = read_port_file(port_file);
  EXPECT_NE(port, 0) << "coordinator never wrote its port";

  std::vector<pid_t> pids;
  for (NodeId n = 0; n < nodes; ++n) {
    std::vector<std::string> args = {
        MPCIOT_NODE_BIN,  "--node", arg(n),    "--nodes",
        arg(nodes),       "--port", arg(port), "--seed",
        arg(seed),
    };
    if (n == crash_node) {
      args.push_back("--crash-at-round");
      args.push_back(arg(crash_round));
    }
    pids.push_back(spawn(args));
  }
  result.coordinator_exit = wait_exit(coordinator);
  for (const pid_t pid : pids) result.node_exits.push_back(wait_exit(pid));

  std::ifstream in(out_file);
  std::ostringstream content;
  content << in.rdbuf();
  result.json = content.str();
  std::remove(port_file.c_str());
  std::remove(out_file.c_str());
  return result;
}

const JsonValue::Array& rows_of(const JsonValue& doc) {
  const JsonValue* scenarios = doc.find("scenarios");
  EXPECT_NE(scenarios, nullptr);
  const JsonValue* rows = scenarios->as_array()[0].find("rows");
  EXPECT_NE(rows, nullptr);
  return rows->as_array();
}

/// The simulator's expected sum for one group: run the same secrets
/// through the full core::Session engine on a lossless line deployment
/// of the group's size and read AggregationResult::expected_sum.
std::uint64_t simulator_expected_sum(std::uint64_t seed, std::uint32_t round,
                                     const core::roles::RoundSpec& group) {
  const std::uint32_t n = static_cast<std::uint32_t>(group.sources.size());
  net::RadioParams radio;
  radio.shadowing_sigma_db = 0.0;  // loss-free short links
  const net::Topology topo = net::testbeds::line(n, 4.0, 0x51ED, radio);
  std::vector<NodeId> all;
  for (NodeId i = 0; i < n; ++i) all.push_back(i);
  const auto cfg =
      core::make_s3_config(topo, all, group.degree, /*ntx_full=*/8);
  const crypto::KeyStore keys(1, n);
  const core::SssProtocol protocol(topo, keys, cfg);
  std::vector<field::Fp61> secrets;
  for (const NodeId node : group.sources) {
    secrets.push_back(deterministic_secret(seed, round, node));
  }
  sim::Simulator sim(3);
  core::Session session(protocol);
  const auto outcome = session.run_round(secrets, sim);
  EXPECT_EQ(outcome.flat->success_ratio(), 1.0);
  return outcome.flat->expected_sum.value();
}

class DistributedRound : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DistributedRound, AggregateMatchesTheSimulatorExpectedSum) {
  const std::uint32_t n = GetParam();
  const std::uint64_t seed = 0xD15C0 + n;
  const std::uint32_t rounds = 2;
  std::string tag = "n";
  tag += std::to_string(n);
  const auto result = run_campaign(n, rounds, seed, tag);
  ASSERT_EQ(result.coordinator_exit, 0) << result.json;
  for (const int code : result.node_exits) EXPECT_EQ(code, kExitOk);

  const auto doc = bench_core::parse_json(result.json);
  ASSERT_TRUE(doc.has_value());
  const auto& rows = rows_of(*doc);
  ASSERT_EQ(rows.size(), rounds);

  const DeploymentPlan plan = plan_deployment(seed, n);
  for (std::uint32_t r = 0; r < rounds; ++r) {
    const JsonValue& row = rows[r];
    EXPECT_TRUE(row.find("ok")->as_bool());
    EXPECT_TRUE(row.find("full_coverage")->as_bool());
    EXPECT_EQ(row.find("contributors")->as_uint(), n);
    EXPECT_EQ(row.find("crashed")->as_array().size(), 0u);
    // The distributed aggregate must equal the sum of the simulator's
    // expected sums over the deployment's groups, run with the same
    // deterministic secrets.
    field::Fp61 expected{0};
    for (const auto& group : plan.groups) {
      expected += field::Fp61{simulator_expected_sum(seed, r, group)};
    }
    EXPECT_EQ(row.find("aggregate")->as_uint(), expected.value());
    EXPECT_EQ(row.find("expected")->as_uint(), expected.value());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DistributedRound,
                         ::testing::Values(4u, 16u, 64u));

TEST(Distributed, RepeatRunsEmitByteIdenticalJson) {
  const auto first = run_campaign(16, 2, 0xBEEF, "repeat_a");
  const auto second = run_campaign(16, 2, 0xBEEF, "repeat_b");
  ASSERT_EQ(first.coordinator_exit, 0);
  ASSERT_EQ(second.coordinator_exit, 0);
  EXPECT_FALSE(first.json.empty());
  EXPECT_EQ(first.json, second.json);

  // The report is also pinned across revisions: the coordinator's
  // reconstruction rule and report schema must not drift silently.
  std::ifstream golden(MPCIOT_RT_GOLDEN);
  ASSERT_TRUE(golden) << MPCIOT_RT_GOLDEN;
  std::ostringstream pinned;
  pinned << golden.rdbuf();
  EXPECT_EQ(first.json, pinned.str())
      << "if intentional, regenerate with: tools/distributed_launch.py "
         "--nodes 16 --rounds 2 --seed 48879 --out "
      << MPCIOT_RT_GOLDEN;
}

TEST(Distributed, NodeKilledMidRoundRecoversViaThreshold) {
  const std::uint32_t n = 8;
  const std::uint64_t seed = 0xC4A5;
  const NodeId victim = 3;
  const auto result =
      run_campaign(n, /*rounds=*/3, seed, "crash", victim,
                   /*crash_round=*/1);
  ASSERT_EQ(result.coordinator_exit, 0) << result.json;
  EXPECT_EQ(result.node_exits[victim], kExitCrashed);
  for (NodeId i = 0; i < n; ++i) {
    if (i != victim) {
      EXPECT_EQ(result.node_exits[i], kExitOk);
    }
  }

  const auto doc = bench_core::parse_json(result.json);
  ASSERT_TRUE(doc.has_value());
  const auto& rows = rows_of(*doc);
  ASSERT_EQ(rows.size(), 3u);

  // Round 0: healthy, full coverage.
  EXPECT_TRUE(rows[0].find("ok")->as_bool());
  EXPECT_TRUE(rows[0].find("full_coverage")->as_bool());
  EXPECT_EQ(rows[0].find("contributors")->as_uint(), n);

  // Round 1: the victim died mid-round. The coordinator must still
  // report ok — a reduced-but-consistent aggregate covering the
  // surviving contributors, reconstructed through the threshold path —
  // and the crash must be reported in the JSON.
  EXPECT_TRUE(rows[1].find("ok")->as_bool());
  EXPECT_FALSE(rows[1].find("full_coverage")->as_bool());
  EXPECT_EQ(rows[1].find("contributors")->as_uint(), n - 1);
  EXPECT_EQ(rows[1].find("aggregate")->as_uint(),
            rows[1].find("expected")->as_uint());
  const auto& crashed = rows[1].find("crashed")->as_array();
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0].as_uint(), victim);

  // Round 2: steady state without the victim.
  EXPECT_TRUE(rows[2].find("ok")->as_bool());
  EXPECT_EQ(rows[2].find("contributors")->as_uint(), n - 1);
  EXPECT_EQ(rows[2].find("crashed")->as_array().size(), 0u);

  // The reduced aggregate is exactly the surviving secrets' sum.
  const DeploymentPlan plan = plan_deployment(seed, n);
  field::Fp61 reduced{0};
  for (const auto& group : plan.groups) {
    for (const NodeId node : group.sources) {
      if (node != victim) reduced += deterministic_secret(seed, 1, node);
    }
  }
  EXPECT_EQ(rows[1].find("aggregate")->as_uint(), reduced.value());
}

TEST(Distributed, CoordinatorRefusesStaleGenerationHellos) {
  // Simulates a coordinator restart: generation 2 is live, a node from
  // generation 1 tries to rejoin and must be refused (exit kExitRefused)
  // while the current-generation nodes complete the campaign.
  const std::uint32_t n = 4;
  const std::uint64_t seed = 0x9E4E;
  const std::string port_file = temp_path("stale.port");
  const std::string out_file = temp_path("stale.json");
  std::remove(port_file.c_str());

  const pid_t coordinator = spawn({
      MPCIOT_COORD_BIN, "--nodes", arg(n), "--rounds", "1", "--seed",
      arg(seed), "--generation", "2", "--port-file", port_file, "--out",
      out_file, "--join-timeout-ms", "30000",
  });
  const std::uint16_t port = read_port_file(port_file);
  ASSERT_NE(port, 0);

  // The stale node first: it must be refused and exit on its own.
  const pid_t stale = spawn({
      MPCIOT_NODE_BIN, "--node", "0", "--nodes", arg(n), "--port",
      arg(port), "--seed", arg(seed), "--generation", "1",
  });
  EXPECT_EQ(wait_exit(stale), kExitRefused);

  std::vector<pid_t> pids;
  for (NodeId i = 0; i < n; ++i) {
    pids.push_back(spawn({
        MPCIOT_NODE_BIN, "--node", arg(i), "--nodes", arg(n), "--port",
        arg(port), "--seed", arg(seed), "--generation", "2",
    }));
  }
  EXPECT_EQ(wait_exit(coordinator), 0);
  for (const pid_t pid : pids) EXPECT_EQ(wait_exit(pid), kExitOk);

  std::ifstream in(out_file);
  std::ostringstream content;
  content << in.rdbuf();
  const auto doc = bench_core::parse_json(content.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("refused_hellos")->as_uint(), 1u);
  EXPECT_TRUE(rows_of(*doc)[0].find("ok")->as_bool());
  std::remove(port_file.c_str());
  std::remove(out_file.c_str());
}

}  // namespace
}  // namespace mpciot::rt
