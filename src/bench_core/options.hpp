// One strict command-line option parser shared by every CLI (the
// unified bench runner and the rt daemons). Unknown options, missing
// values, and malformed or out-of-range numerics are all hard errors
// with a usage line — "abc" never parses as 0.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mpciot::bench_core {

/// Strict decimal parse of a full token into an unsigned integer.
/// Rejects empty strings, signs, trailing garbage ("12abc"), and values
/// above `max`.
bool parse_u64(const std::string& text, std::uint64_t* out,
               std::uint64_t max = UINT64_MAX);
bool parse_u32(const std::string& text, std::uint32_t* out);

class OptionParser {
 public:
  /// `summary` is a one-line description printed atop the usage text.
  explicit OptionParser(std::string summary);

  /// All add_* calls borrow `out`; it must outlive parse().
  void add_flag(const std::string& name, bool* out, const std::string& help);
  void add_u32(const std::string& name, std::uint32_t* out,
               const std::string& help);
  void add_u64(const std::string& name, std::uint64_t* out,
               const std::string& help);
  void add_string(const std::string& name, std::string* out,
                  const std::string& help);
  /// Repeatable "key=value" option (e.g. --param max_ntx=12).
  void add_key_value_list(const std::string& name,
                          std::vector<std::pair<std::string, std::string>>* out,
                          const std::string& help);

  /// Returns true when every argv token was consumed; on failure,
  /// error() describes the first offending token.
  bool parse(int argc, char** argv);

  const std::string& error() const { return error_; }
  std::string usage(const char* argv0) const;

 private:
  enum class Type { kFlag, kU32, kU64, kString, kKeyValueList };
  struct Option {
    std::string name;
    Type type;
    void* out;
    std::string help;
  };

  const Option* find(const std::string& name) const;

  std::string summary_;
  std::vector<Option> options_;
  std::string error_;
};

}  // namespace mpciot::bench_core
