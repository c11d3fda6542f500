// The coordinator daemon: accepts one connection per node, computes the
// deployment plan (net::partition over the seeded placement), assigns
// groups, and drives the round state machine:
//
//                 +-- all Hellos --+
//   [joining] ----+                +---> [round r: sharing+summing]
//       |  stale/duplicate Hello         |        |           |
//       |  -> Refuse, count it           | early  | T1        | T2
//       v                                v        v           v
//   (refused peers closed)          finalize   SumRequest  finalize
//                                   (full-mask (straggler  (best
//                                   threshold)  re-request) effort)
//                                        |
//                                        +--> RoundResult -> next round
//                                             ... -> Shutdown, report
//
// Determinism: the emitted JSON document is a pure function of the
// campaign outcome — aggregates are reconstructed through
// core::roles::AggregatorRole (arrival-order independent), rows carry
// no wall-clock fields (timing goes to stderr), and per-round expected
// sums are recomputed locally from rt::deterministic_secret. Two runs
// of the same healthy deployment produce byte-identical reports.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <vector>

#include "bench_core/json.hpp"
#include "common/types.hpp"
#include "core/roles.hpp"
#include "rt/deployment.hpp"
#include "rt/event_loop.hpp"
#include "rt/messages.hpp"

namespace mpciot::rt {

struct CoordinatorConfig {
  std::uint32_t node_count = 0;
  std::uint32_t rounds = 1;
  std::uint32_t generation = 1;
  std::uint64_t deployment_seed = 1;
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via port())
  /// Phase timeouts (wall clock; they bound recovery, never the JSON).
  std::int64_t t1_straggler_ms = 2000;  ///< round start -> SumRequest
  std::int64_t t2_finalize_ms = 4000;   ///< round start -> best effort
  std::int64_t join_timeout_ms = 60000;
};

/// One group's outcome in one round.
struct GroupOutcome {
  bool ok = false;  ///< reconstructed and matched the expected sum
  std::uint64_t aggregate = 0;
  std::uint64_t contributor_mask = 0;
  std::uint32_t sums_used = 0;
};

/// One round's outcome.
struct RoundOutcome {
  std::uint32_t round = 0;
  bool ok = false;           ///< every group ok
  bool full_coverage = false;  ///< every source of every group covered
  std::uint64_t aggregate = 0;  ///< sum over reconstructed groups
  std::uint64_t expected = 0;   ///< expected sum for the covered masks
  std::uint32_t contributors = 0;
  std::vector<GroupOutcome> groups;
  std::vector<NodeId> crashed;  ///< nodes lost during this round, sorted
};

class Coordinator {
 public:
  explicit Coordinator(const CoordinatorConfig& config);

  /// Bind the listen socket; returns the bound port. Call before run().
  std::uint16_t bind();
  std::uint16_t port() const { return port_; }

  /// Drive the campaign to completion. Returns the process exit code
  /// (0 iff every round of every group reconstructed and matched).
  /// `progress` (may be null) receives human-readable timing lines —
  /// never part of the deterministic report.
  int run(std::ostream* progress);

  /// The deterministic campaign report ("mpciot-bench/1" schema).
  const bench_core::JsonValue& report() const { return report_; }
  const std::vector<RoundOutcome>& outcomes() const { return outcomes_; }
  std::uint32_t refused_hellos() const { return refused_hellos_; }

 private:
  enum class State { kJoining, kRunning, kDone };

  void on_accept(std::uint64_t conn);
  void on_frame(std::uint64_t conn, Frame&& frame);
  void on_close(std::uint64_t conn);
  void on_hello(std::uint64_t conn, const Hello& hello);
  void start_campaign();
  void start_round();
  void on_share_fwd(std::uint64_t conn, const ShareFwd& msg);
  void on_sum_report(std::uint64_t conn, const SumReport& msg);
  void maybe_finalize_early(std::uint32_t group);
  void request_stragglers();
  void finalize_round();
  void finish_campaign();
  void build_report();

  CoordinatorConfig config_;
  DeploymentPlan plan_;
  EventLoop loop_;
  std::uint16_t port_ = 0;
  State state_ = State::kJoining;

  std::vector<std::uint64_t> conn_of_node_;  ///< 0 = not connected
  std::map<std::uint64_t, NodeId> node_of_conn_;
  std::uint32_t joined_ = 0;
  std::uint32_t refused_hellos_ = 0;
  std::vector<char> crashed_;  ///< per node

  std::uint32_t round_ = 0;
  /// One per group, built once and re-armed every round.
  std::vector<core::roles::AggregatorRole> aggregators_;
  std::vector<char> group_final_;
  std::vector<std::optional<GroupOutcome>> group_outcome_;
  std::vector<char> reported_;  ///< per node, this round
  std::vector<NodeId> crashed_this_round_;
  std::uint64_t t1_token_ = 0;
  std::uint64_t t2_token_ = 0;
  std::int64_t campaign_start_ms_ = 0;

  std::vector<RoundOutcome> outcomes_;
  bench_core::JsonValue report_;
  std::ostream* progress_ = nullptr;
  int exit_code_ = 0;
};

}  // namespace mpciot::rt
