#include "probes.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

#include "core/wire.hpp"

namespace perfbench {

namespace ct = mpciot::ct;

ct::GlossyResult TimedTransport::flood(const mpciot::net::Topology& topo,
                                       const ct::GlossyConfig& config,
                                       mpciot::crypto::Xoshiro256& rng,
                                       ct::RoundContext* scratch) const {
  const Clock::time_point t0 = Clock::now();
  ct::GlossyResult out = inner_->flood(topo, config, rng, scratch);
  counters_.flood_ms += ms_between(t0, Clock::now());
  ++counters_.flood_calls;
  return out;
}

ct::MiniCastResult TimedTransport::chain_round(
    const mpciot::net::Topology& topo,
    const std::vector<ct::ChainEntry>& entries,
    const ct::MiniCastConfig& config, mpciot::crypto::Xoshiro256& rng,
    ct::RoundContext* scratch) const {
  const Clock::time_point t0 = Clock::now();
  ct::MiniCastResult out =
      inner_->chain_round(topo, entries, config, rng, scratch);
  count_chain(entries, config, out, ms_between(t0, Clock::now()));
  return out;
}

void TimedTransport::flood_into(const mpciot::net::Topology& topo,
                                const ct::GlossyConfig& config,
                                mpciot::crypto::Xoshiro256& rng,
                                ct::RoundContext* scratch,
                                ct::GlossyResult& out) const {
  const Clock::time_point t0 = Clock::now();
  inner_->flood_into(topo, config, rng, scratch, out);
  counters_.flood_ms += ms_between(t0, Clock::now());
  ++counters_.flood_calls;
}

void TimedTransport::chain_round_into(
    const mpciot::net::Topology& topo,
    const std::vector<ct::ChainEntry>& entries,
    const ct::MiniCastConfig& config, mpciot::crypto::Xoshiro256& rng,
    ct::RoundContext* scratch, ct::MiniCastResult& out) const {
  const Clock::time_point t0 = Clock::now();
  inner_->chain_round_into(topo, entries, config, rng, scratch, out);
  count_chain(entries, config, out, ms_between(t0, Clock::now()));
}

void TimedTransport::count_chain(const std::vector<ct::ChainEntry>& entries,
                                 const ct::MiniCastConfig& config,
                                 const ct::MiniCastResult& out,
                                 double ms) const {
  counters_.chain_ms += ms;
  ++counters_.chain_calls;
  counters_.slot_entries +=
      static_cast<std::uint64_t>(out.chain_slots_used) * entries.size();
  counters_.delivery_sum += out.delivery_ratio();
  // Sharing chains are the ones carrying SharePackets (the workloads run
  // without Feldman commitments, so the payload is exactly the packet).
  if (config.payload_bytes == mpciot::core::SharePacket::kWireSize) {
    for (const ct::ChainEntry& e : entries) {
      if (e.origin != e.destination) ++counters_.share_packets;
    }
  }
}

void TimedChannelModel::materialize(const mpciot::net::Topology& topo,
                                    std::uint64_t epoch,
                                    mpciot::net::LinkEpochTables& tables) const {
  const Clock::time_point t0 = Clock::now();
  inner_->materialize(topo, epoch, tables);
  ms_ += ms_between(t0, Clock::now());
  ++calls_;
}

LineClock::int_type LineClock::overflow(int_type ch) {
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    put(traits_type::to_char_type(ch));
  }
  return traits_type::not_eof(ch);
}

std::streamsize LineClock::xsputn(const char* s, std::streamsize n) {
  for (std::streamsize i = 0; i < n; ++i) put(s[i]);
  return n;
}

void LineClock::put(char c) {
  if (c != '\n') {
    pending_.push_back(c);
    return;
  }
  lines_.push_back(Line{Clock::now(), pending_});
  pending_.clear();
}

namespace {

CpuUsage usage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  CpuUsage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.voluntary_switches = ru.ru_nvcsw;
  return u;
}

}  // namespace

CpuUsage CpuUsage::self() { return usage(RUSAGE_SELF); }
CpuUsage CpuUsage::children() { return usage(RUSAGE_CHILDREN); }

double peak_rss_mb() {
  // VmHWM is the high-water mark of this process image. getrusage's
  // maxrss would do, except Linux carries it across fork + exec, so a
  // large parent (run.py) would set the floor.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double quantile(const std::vector<double>& sorted, double q) {
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) *
                                static_cast<double>(sorted.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
