// The benchmark's workloads and the record one run of a workload fills.
//
// A run is one fresh process: it sets the workload up several times
// (timing each set-up), runs one untimed warm-up stream, then streams
// fixed-length campaigns back to back until `seconds` of stream time
// have been measured. Every campaign of a run replays the same inputs,
// so every campaign must produce the same outcome digest, and round r
// of every campaign does the same work. Interference from other load
// on the machine only ever adds time, so a round's cost is taken as its
// fastest replay and the stream rate as the fastest campaign's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_core/json.hpp"

namespace perfbench {

struct RunSpec {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Attach the layer probes (decorators, per-round counters).
  bool traced = false;
};

struct RunRecord {
  std::vector<double> setup_s;    ///< one per set-up repetition
  /// Host wall time of each measured round, one vector per campaign.
  std::vector<std::vector<double>> campaigns;
  double stream_s = 0.0;  ///< measured stream time (set-ups excluded)
  std::uint64_t rounds_not_ok = 0;  ///< rounds whose aggregate was not correct
  double sim_latency_ms = 0.0;    ///< simulated submit-to-result p50
  /// Outcome digest of every campaign (warm-up included), hex.
  std::vector<std::string> digests;
  /// Output-check failures; a run with any is not correct.
  std::vector<std::string> errors;
  /// Per-layer numbers (set-up timers always; the rest when traced).
  mpciot::bench_core::JsonValue layers =
      mpciot::bench_core::JsonValue::object();

  void add_campaign(std::vector<double> round_ms);
  std::size_t rounds() const;

  /// Summary document run.py reads.
  mpciot::bench_core::JsonValue to_json(const RunSpec& spec) const;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Simulator workloads (s3_dcube, hier64_dynamic, hier2304_sparse).
bool is_sim_workload(const std::string& name);
RunRecord run_sim_workload(const RunSpec& spec);

/// The real-socket runtime workload (rt_loopback).
RunRecord run_rt_workload(const RunSpec& spec);

/// Median of `values` (copied), 0 when empty.
double median(std::vector<double> values);

std::string hex64(std::uint64_t v);

}  // namespace perfbench
