#include "core/bootstrap.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mpciot::core {

std::vector<NodeId> elect_share_holders(const net::Topology& topo,
                                        const std::vector<NodeId>& sources,
                                        std::size_t count) {
  MPCIOT_REQUIRE(!sources.empty(), "elect_share_holders: no sources");
  MPCIOT_REQUIRE(count >= 1 && count <= topo.size(),
                 "elect_share_holders: bad holder count");

  // Score every node by total hop distance to the sources. Sources that
  // hang off the network through weak links only (no good-link path)
  // contribute a flat penalty instead of disqualifying the candidate —
  // they are equally awkward for every choice of holder.
  struct Candidate {
    NodeId node;
    std::uint64_t score;
  };
  const std::uint64_t penalty = topo.diameter() + 3;
  // Accumulate per source over whole hop rows (hops_from): the same
  // integer sums as the candidate-major loop, but one BFS per source
  // instead of |sources| point queries per candidate.
  std::vector<std::uint64_t> scores(topo.size(), 0);
  for (NodeId src : sources) {
    const std::uint32_t* row = topo.hops_from(src);
    for (NodeId cand = 0; cand < topo.size(); ++cand) {
      const std::uint32_t h = row[cand];
      scores[cand] += (h == net::Topology::kInvalidHops) ? penalty : h;
    }
  }
  std::vector<Candidate> candidates;
  candidates.reserve(topo.size());
  for (NodeId cand = 0; cand < topo.size(); ++cand) {
    candidates.push_back(Candidate{cand, scores[cand]});
  }
  MPCIOT_REQUIRE(candidates.size() >= count,
                 "elect_share_holders: not enough candidates");

  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.node < b.node;
            });
  std::vector<NodeId> holders;
  holders.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    holders.push_back(candidates[i].node);
  }
  std::sort(holders.begin(), holders.end());
  return holders;
}

NtxCalibration calibrate_ntx(const net::Topology& topo,
                             const std::vector<ct::ChainEntry>& entries,
                             const ct::MiniCastConfig& base_config,
                             double required_done_ratio, std::uint32_t trials,
                             std::uint32_t max_ntx, crypto::Xoshiro256& rng,
                             const ct::Transport* transport) {
  const ct::Transport& substrate =
      transport != nullptr ? *transport : ct::minicast_transport();
  // Common random numbers: every NTX candidate sees the same per-trial
  // channel draws, so the calibration is (near-)monotone in NTX instead
  // of jittering with independent channel luck.
  const std::uint64_t crn_base = rng.next_u64();
  // One warm context and result serve every trial.
  ct::RoundContext scratch;
  ct::MiniCastResult res;
  ct::MiniCastConfig cfg = base_config;
  for (std::uint32_t ntx = 1; ntx <= max_ntx; ++ntx) {
    cfg.ntx = ntx;
    bool all_ok = true;
    for (std::uint32_t t = 0; t < trials && all_ok; ++t) {
      crypto::Xoshiro256 trial_rng(crn_base + t);
      substrate.chain_round_into(topo, entries, cfg, trial_rng, &scratch, res);
      if (res.done_ratio() < required_done_ratio) all_ok = false;
    }
    if (all_ok) return NtxCalibration{ntx, true};
  }
  return NtxCalibration{max_ntx, false};
}

}  // namespace mpciot::core
