// ctagg-perfbench: runs one benchmark workload in this process and
// prints one JSON summary line (see workloads.hpp). perfbench/run.py
// drives it; it can also be run by hand:
//
//   ctagg-perfbench --workload s3_dcube --seed 1 --seconds 5 --traced 0
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

using mpciot::bench_core::JsonValue;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "s3_dcube", "hier64_dynamic", "hier2304_sparse", "rt_loopback"};
  return names;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) s[i] = digits[v & 0xF];
  return s;
}

void RunRecord::add_campaign(std::vector<double> round_ms) {
  for (const double ms : round_ms) stream_s += ms / 1e3;
  campaigns.push_back(std::move(round_ms));
}

std::size_t RunRecord::rounds() const {
  std::size_t n = 0;
  for (const auto& c : campaigns) n += c.size();
  return n;
}

JsonValue RunRecord::to_json(const RunSpec& spec) const {
  JsonValue doc = JsonValue::object();
  doc.set("workload", spec.workload);
  doc.set("seed", spec.seed);
  doc.set("traced", spec.traced);
  doc.set("setup_s", median(setup_s));
  doc.set("setup_samples", static_cast<std::uint64_t>(setup_s.size()));
  doc.set("rounds", static_cast<std::uint64_t>(rounds()));
  doc.set("stream_s", stream_s);
  if (!campaigns.empty()) {
    // Campaigns of a run have equal length and replay the same rounds.
    std::vector<double> fastest = campaigns.front();
    double best_rate = 0.0;
    std::vector<double> pooled;
    for (const auto& c : campaigns) {
      double ms = 0.0;
      for (std::size_t r = 0; r < c.size(); ++r) {
        fastest[r] = std::min(fastest[r], c[r]);
        ms += c[r];
      }
      best_rate = std::max(best_rate, 1e3 * static_cast<double>(c.size()) / ms);
      pooled.insert(pooled.end(), c.begin(), c.end());
    }
    doc.set("rounds_per_s", best_rate);
    doc.set("round_ms_p50", median(fastest));
    std::sort(pooled.begin(), pooled.end());
    doc.set("round_ms_p90", quantile(pooled, 0.90));
    doc.set("round_ms_p99", quantile(pooled, 0.99));
  }
  doc.set("rounds_not_ok", rounds_not_ok);
  doc.set("sim_latency_ms", sim_latency_ms);
  doc.set("peak_rss_mb", peak_rss_mb());
  JsonValue d = JsonValue::array();
  for (const std::string& s : digests) d.push_back(s);
  doc.set("digests", std::move(d));
  JsonValue e = JsonValue::array();
  for (const std::string& s : errors) e.push_back(s);
  doc.set("errors", std::move(e));
  doc.set("layers", layers);
  return doc;
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: ctagg-perfbench --workload NAME --seed N "
               "--seconds S --traced 0|1\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunSpec spec;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        spec.workload = value;
      } else if (flag == "--seed") {
        spec.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        spec.seconds = std::stod(value);
      } else if (flag == "--traced") {
        spec.traced = value == "1";
      } else {
        usage();
      }
    } catch (const std::exception&) {
      usage();
    }
  }
  if (argc % 2 == 0) usage();

  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), spec.workload) == names.end()) {
    usage();
  }
  try {
    const perfbench::RunRecord rec =
        perfbench::is_sim_workload(spec.workload)
            ? perfbench::run_sim_workload(spec)
            : perfbench::run_rt_workload(spec);
    std::cout << rec.to_json(spec).dump_string() << "\n";
  } catch (const std::exception& e) {
    std::cerr << "ctagg-perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
