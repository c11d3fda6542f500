// Scenario registry for the unified benchmark runner.
//
// A scenario is a named, parameterized experiment that returns its
// results as data (rows of key->JSON-value pairs) instead of printing
// them. The runner turns rows into the BENCH JSON document and/or a
// human table.
//
// Registration is explicit (bench/scenarios/ exposes
// register_all_scenarios) rather than via static initializers, so
// scenarios linked from a static library cannot be silently dropped by
// the linker.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_core/json.hpp"

namespace mpciot::bench_core {

/// One result row: an insertion-ordered set of named cells. The cell
/// order of the first row defines the column order of printed tables.
class Row {
 public:
  Row& set(std::string_view key, JsonValue v) {
    value_.set(key, std::move(v));
    return *this;
  }

  const JsonValue& json() const { return value_; }

 private:
  JsonValue value_ = JsonValue::object();
};

using Rows = std::vector<Row>;

/// Everything a scenario needs to run. `reps`/`seed`/`jobs` come from
/// the CLI; `params` carries scenario-specific overrides (--param k=v).
struct ScenarioContext {
  std::uint32_t reps = 0;
  std::uint64_t seed = 1;
  /// Worker threads for trial-level parallelism (ExperimentSpec::jobs):
  /// 1 = serial, 0 = hardware concurrency. Scenarios must stay
  /// jobs-invariant: same rows for any value.
  unsigned jobs = 1;
  std::vector<std::pair<std::string, std::string>> params;

  /// Typed param lookup with default. A present-but-malformed value is
  /// a contract violation: the CLI validates params up front, so a bad
  /// value reaching here means a caller bypassed that validation.
  std::uint32_t param_u32(const std::string& key, std::uint32_t def) const;
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  /// Used when the CLI does not override --reps.
  std::uint32_t default_reps = 10;
  /// False for wall-clock benches (e.g. he_vs_mpc) whose rows differ
  /// run to run; the determinism CI check skips those.
  bool deterministic = true;
  /// Names of the --param keys this scenario reads (all u32-valued).
  /// The CLI rejects keys no selected scenario declares, so typos
  /// cannot silently fall back to defaults.
  std::vector<std::string> param_names;
  std::function<Rows(const ScenarioContext&)> run;
};

class Registry {
 public:
  /// Rejects duplicate names (contract violation).
  void add(ScenarioSpec spec);

  const std::vector<ScenarioSpec>& all() const { return scenarios_; }
  const ScenarioSpec* find(const std::string& name) const;
  /// Case-sensitive substring match on the scenario name; empty filter
  /// matches everything. Order of registration is preserved.
  std::vector<const ScenarioSpec*> match(const std::string& filter) const;

 private:
  std::vector<ScenarioSpec> scenarios_;
};

}  // namespace mpciot::bench_core
