// rt_loopback: the real-socket runtime. The rt::Coordinator runs in this
// process and nproc - 1 forked children run rt::run_node, so coordinator
// plus nodes never exceed the core count. A campaign is one deployment:
// bind, fork, join, then a closed-loop stream of rounds (the coordinator
// starts round r + 1 when round r is final). Round ends are the
// coordinator's "round r" progress lines, stamped by a LineClock.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "crypto/prng.hpp"
#include "probes.hpp"
#include "rt/coordinator.hpp"
#include "rt/deployment.hpp"
#include "rt/node.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace rt = mpciot::rt;
using mpciot::NodeId;

constexpr std::uint64_t kStreamDeploy = 0x44504C59ull;  // "DPLY"
constexpr std::uint32_t kCampaignRounds = 2000;

std::uint32_t node_processes() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 2;
  return static_cast<std::uint32_t>(std::max(2, cpus - 1));
}

struct Totals {
  double coordinator_cpu_s = 0.0;
  double nodes_cpu_s = 0.0;
  double run_wall_s = 0.0;
  long wakeups = 0;
  std::vector<double> join_ms;
};

struct CampaignOutcome {
  double setup_s = 0.0;
  std::vector<double> round_ms;
  std::string digest;
  std::uint64_t not_ok = 0;
};

CampaignOutcome run_campaign(std::uint64_t deployment_seed,
                             std::uint32_t nodes, Totals& totals,
                             std::vector<std::string>& errors) {
  LineClock clock;
  std::ostream progress(&clock);
  const Clock::time_point t0 = Clock::now();

  rt::CoordinatorConfig config;
  config.node_count = nodes;
  config.rounds = kCampaignRounds;
  config.deployment_seed = deployment_seed;
  rt::Coordinator coordinator(config);
  const Clock::time_point bind0 = Clock::now();
  const std::uint16_t port = coordinator.bind();

  std::vector<pid_t> children;
  for (NodeId n = 0; n < nodes; ++n) {
    const pid_t pid = fork();
    if (pid == 0) {
      rt::NodeConfig node;
      node.node = n;
      node.node_count = nodes;
      node.deployment_seed = deployment_seed;
      node.port = port;
      _exit(rt::run_node(node));
    }
    if (pid < 0) {
      errors.push_back("fork failed");
      break;
    }
    children.push_back(pid);
  }

  const CpuUsage self0 = CpuUsage::self();
  const CpuUsage children0 = CpuUsage::children();
  const Clock::time_point run0 = Clock::now();
  const int exit_code = coordinator.run(&progress);
  const Clock::time_point run1 = Clock::now();
  const CpuUsage self1 = CpuUsage::self();
  for (const pid_t pid : children) {
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != rt::kExitOk) {
      errors.push_back("node process did not exit cleanly");
    }
  }
  const CpuUsage children1 = CpuUsage::children();

  CampaignOutcome out;
  if (exit_code != 0) errors.push_back("coordinator exit code " +
                                       std::to_string(exit_code));
  if (children.size() != nodes) return out;

  // "coordinator: N nodes joined after ..." then one "coordinator: round
  // r ok|FAILED after ..." line per round.
  const LineClock::Line* joined = nullptr;
  std::vector<const LineClock::Line*> round_lines;
  for (const LineClock::Line& line : clock.lines()) {
    if (line.text.find(" nodes joined ") != std::string::npos) {
      joined = &line;
    } else if (line.text.rfind("coordinator: round ", 0) == 0) {
      round_lines.push_back(&line);
    }
  }
  if (joined == nullptr || round_lines.size() != kCampaignRounds) {
    errors.push_back("progress stream missing join or round lines");
    return out;
  }
  out.setup_s = ms_between(t0, joined->at) / 1e3;
  totals.join_ms.push_back(ms_between(bind0, joined->at));
  Clock::time_point prev = joined->at;
  for (const LineClock::Line* line : round_lines) {
    out.round_ms.push_back(ms_between(prev, line->at));
    prev = line->at;
  }

  std::uint32_t matched = 0;
  for (const rt::RoundOutcome& o : coordinator.outcomes()) {
    if (!o.ok) ++out.not_ok;
    if (o.aggregate == o.expected) ++matched;
  }
  if (coordinator.outcomes().size() != kCampaignRounds ||
      matched != kCampaignRounds || out.not_ok != 0) {
    errors.push_back("rt rounds not all ok and matched");
  }
  const std::string report = coordinator.report().dump_string();
  out.digest = hex64(fnv1a(report.data(), report.size()));

  totals.coordinator_cpu_s += self1.cpu_s - self0.cpu_s;
  totals.nodes_cpu_s += children1.cpu_s - children0.cpu_s;
  totals.run_wall_s += ms_between(run0, run1) / 1e3;
  totals.wakeups += self1.voluntary_switches - self0.voluntary_switches;
  return out;
}

}  // namespace

RunRecord run_rt_workload(const RunSpec& spec) {
  RunRecord rec;
  const std::uint32_t nodes = node_processes();
  const std::uint64_t deployment_seed =
      mpciot::crypto::derive_seed(spec.seed, kStreamDeploy, 0);

  Totals totals;
  // Warm-up deployment: pages in the code paths and socket buffers.
  rec.digests.push_back(
      run_campaign(deployment_seed, nodes, totals, rec.errors).digest);
  totals = Totals{};
  do {
    CampaignOutcome c = run_campaign(deployment_seed, nodes, totals, rec.errors);
    if (c.round_ms.empty()) break;  // the error is recorded
    rec.setup_s.push_back(c.setup_s);
    rec.add_campaign(std::move(c.round_ms));
    rec.rounds_not_ok += c.not_ok;
    rec.digests.push_back(c.digest);
  } while (rec.stream_s < spec.seconds);

  if (!spec.traced || rec.campaigns.empty()) return rec;

  const double rounds = static_cast<double>(rec.rounds());
  rec.layers.set("rt.coordinator_cpu_us_per_round",
                 totals.coordinator_cpu_s * 1e6 / rounds);
  rec.layers.set("rt.nodes_cpu_us_per_round",
                 totals.nodes_cpu_s * 1e6 / rounds);
  rec.layers.set("rt.coordinator_busy_frac",
                 totals.coordinator_cpu_s / totals.run_wall_s);
  rec.layers.set("rt.wakeups_per_round",
                 static_cast<double>(totals.wakeups) / rounds);
  rec.layers.set("rt.join_ms", median(totals.join_ms));
  return rec;
}

}  // namespace perfbench
