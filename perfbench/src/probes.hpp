// Probes the benchmark attaches to the program from outside: clocks,
// decorators over the program's public layer interfaces, a line-
// timestamping progress stream, and process resource counters.
//
// Nothing here is part of the program. The decorators forward every
// call unchanged to the wrapped implementation, so a traced run draws
// the same random numbers and produces the same outcomes as an untraced
// one (run.py checks this); they only add clock reads and counters.
#pragma once

#include <chrono>
#include <cstdint>
#include <streambuf>
#include <string>
#include <vector>

#include "ct/transport.hpp"
#include "net/channel_model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// ct::Transport decorator: times and counts flood and chain-round calls
/// into the wrapped substrate (the layer boundary between core and ct).
class TimedTransport final : public mpciot::ct::Transport {
 public:
  struct Counters {
    double chain_ms = 0.0;
    std::uint64_t chain_calls = 0;
    /// Sum over chain calls of chain_slots_used x entries: the (slot,
    /// entry) arbitrations the engine performed.
    std::uint64_t slot_entries = 0;
    /// Sum of per-call delivery ratios (mean = delivery_sum / calls).
    double delivery_sum = 0.0;
    double flood_ms = 0.0;
    std::uint64_t flood_calls = 0;
    /// Sharing-chain entries whose packet goes over the air (origin !=
    /// destination): the SharePackets sealed and opened per round.
    std::uint64_t share_packets = 0;
  };

  explicit TimedTransport(const mpciot::ct::Transport& inner)
      : inner_(&inner) {}

  const char* name() const override { return inner_->name(); }

  mpciot::ct::GlossyResult flood(const mpciot::net::Topology& topo,
                                 const mpciot::ct::GlossyConfig& config,
                                 mpciot::crypto::Xoshiro256& rng,
                                 mpciot::ct::RoundContext* scratch) const override;
  mpciot::ct::MiniCastResult chain_round(
      const mpciot::net::Topology& topo,
      const std::vector<mpciot::ct::ChainEntry>& entries,
      const mpciot::ct::MiniCastConfig& config,
      mpciot::crypto::Xoshiro256& rng,
      mpciot::ct::RoundContext* scratch) const override;
  void flood_into(const mpciot::net::Topology& topo,
                  const mpciot::ct::GlossyConfig& config,
                  mpciot::crypto::Xoshiro256& rng,
                  mpciot::ct::RoundContext* scratch,
                  mpciot::ct::GlossyResult& out) const override;
  void chain_round_into(const mpciot::net::Topology& topo,
                        const std::vector<mpciot::ct::ChainEntry>& entries,
                        const mpciot::ct::MiniCastConfig& config,
                        mpciot::crypto::Xoshiro256& rng,
                        mpciot::ct::RoundContext* scratch,
                        mpciot::ct::MiniCastResult& out) const override;

  const Counters& counters() const { return counters_; }
  void reset() { counters_ = {}; }

 private:
  void count_chain(const std::vector<mpciot::ct::ChainEntry>& entries,
                   const mpciot::ct::MiniCastConfig& config,
                   const mpciot::ct::MiniCastResult& out, double ms) const;

  const mpciot::ct::Transport* inner_;
  mutable Counters counters_;
};

/// net::ChannelModel decorator: times and counts epoch materializations
/// of the wrapped model (sim::dynamics). Called from inside the chain
/// engine, so this time is nested in TimedTransport's.
class TimedChannelModel final : public mpciot::net::ChannelModel {
 public:
  explicit TimedChannelModel(const mpciot::net::ChannelModel& inner)
      : inner_(&inner) {}

  mpciot::SimTime epoch_us() const override { return inner_->epoch_us(); }
  void materialize(const mpciot::net::Topology& topo, std::uint64_t epoch,
                   mpciot::net::LinkEpochTables& tables) const override;

  double ms() const { return ms_; }
  std::uint64_t calls() const { return calls_; }

 private:
  const mpciot::net::ChannelModel* inner_;
  mutable double ms_ = 0.0;
  mutable std::uint64_t calls_ = 0;
};

/// Output stream buffer that stamps every completed line with the time
/// its newline arrived. Handed to rt::Coordinator::run as its progress
/// stream, it turns the coordinator's "round r" lines into round ends.
class LineClock final : public std::streambuf {
 public:
  struct Line {
    Clock::time_point at;
    std::string text;
  };

  const std::vector<Line>& lines() const { return lines_; }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void put(char c);

  std::string pending_;
  std::vector<Line> lines_;
};

/// getrusage snapshot: CPU seconds and voluntary context switches.
struct CpuUsage {
  double cpu_s = 0.0;
  long voluntary_switches = 0;

  static CpuUsage self();
  /// Reaped children only (RUSAGE_CHILDREN).
  static CpuUsage children();
};

/// Peak resident set of this process image (VmHWM), in MB.
double peak_rss_mb();

/// Nearest-rank quantile of `sorted` (ascending, non-empty), q in [0, 1].
double quantile(const std::vector<double>& sorted, double q);

/// 64-bit FNV-1a, for outcome digests.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 0xcbf29ce484222325ull);

}  // namespace perfbench
