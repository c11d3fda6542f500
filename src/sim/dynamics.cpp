#include "sim/dynamics.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"
#include "crypto/prng.hpp"
#include "net/topology.hpp"

namespace mpciot::sim::dynamics {

namespace {

/// derive_seed stream tags of the dynamics models.
constexpr std::uint64_t kStreamGeInit = 0x47454930ull;   // "GEI0": epoch-0 draw
constexpr std::uint64_t kStreamGeStep = 0x47455354ull;   // "GEST": chain steps
constexpr std::uint64_t kStreamChurn = 0x43485255ull;    // "CHRU": schedules

/// Safety margin (dB) of the walk's reachability decision: a pair is
/// walked when its PRR clears the floor at this much more signal than
/// the walk can ever produce.
constexpr double kReachMarginDb = 1.0;

/// Fade-stream key of link (a, b): its global identity, root-topology
/// node ids packed hi << 32 | lo.
std::uint64_t link_key(const net::Topology& topo, NodeId a, NodeId b) {
  return (static_cast<std::uint64_t>(topo.global_id(a)) << 32) |
         topo.global_id(b);
}

/// Exponential draw with the given mean; never returns less than 1 us so
/// schedules always advance.
SimTime draw_exp_us(crypto::Xoshiro256& rng, double mean_us) {
  const double u = rng.next_double();  // [0, 1)
  const double v = -std::log(1.0 - u) * mean_us;
  return std::max<SimTime>(1, static_cast<SimTime>(v));
}

}  // namespace

LinkDynamics::LinkDynamics(LinkDynamicsParams params) : params_(params) {
  MPCIOT_REQUIRE(params_.epoch_us > 0,
                 "LinkDynamics: epoch_us must be positive");
  MPCIOT_REQUIRE(params_.p_good_to_bad >= 0.0 && params_.p_good_to_bad <= 1.0,
                 "LinkDynamics: p_good_to_bad must be a probability");
  MPCIOT_REQUIRE(params_.p_bad_to_good > 0.0 && params_.p_bad_to_good <= 1.0,
                 "LinkDynamics: p_bad_to_good must be in (0, 1]");
  MPCIOT_REQUIRE(params_.bad_extra_loss_db >= 0.0 &&
                     params_.drift_sigma_db >= 0.0 &&
                     params_.drift_limit_db >= 0.0,
                 "LinkDynamics: dB knobs must be non-negative");
  // The walk draws its pairs from the topology's near pairs, which cover
  // every pair that can clear the floor within this much extra signal.
  MPCIOT_REQUIRE(params_.drift_limit_db + kReachMarginDb <=
                     net::Topology::kNearHeadroomDb,
                 "LinkDynamics: drift_limit_db exceeds the near-pair headroom");
}

void LinkDynamics::materialize(const net::Topology& topo, std::uint64_t epoch,
                               net::LinkEpochTables& tables) const {
  const std::size_t n = topo.size();

  // state_bits: one bad-state bit per walked undirected pair;
  // state_reals: the pair's drift (dB); state_keys: the pair's
  // fade-stream key — its *global* link identity (link_key) — then its
  // local ids (a << 32 | index of b in topo.near(a)). Keying by global
  // identity means an induced subtopology (a group round on its own
  // channel) sees the same physical link in the same state as a
  // parent-level flood, and no two links ever share a stream; local pair
  // order preserves global order because induced() members are
  // ascending. tables.epoch is the previously materialized epoch
  // (kNoEpoch on a fresh walk), which tells us where the chain stands.
  //
  // The walk covers, in ascending (a, b) order, only the near pairs
  // whose PRR can clear link_floor_prr in at least one direction at the
  // strongest signal the walk can produce (rssi + drift_limit_db: a
  // burst only subtracts). Every other pair is 0 in both directions in
  // every state — the constructor keeps that bound inside the near
  // headroom, so no pair outside the near set qualifies — and each pair
  // draws from its own streams, so skipping it changes no PRR and no
  // other pair's draws. The decision is made once per walk and
  // evaluated kReachMarginDb above that bound instead of inverting the
  // logistic, so it stays exact where exp rounding is not monotone.
  const net::RadioParams& radio = topo.radio();
  std::uint64_t next_step = 1;
  if (tables.epoch == net::LinkEpochTables::kNoEpoch) {
    tables.state_keys.clear();
    std::vector<std::uint64_t> local;
    const double reach_db = params_.drift_limit_db + kReachMarginDb;
    for (NodeId a = 0; a < n; ++a) {
      const auto partners = topo.near(a);
      const auto rssi = topo.near_rssi(a);
      for (std::size_t k = static_cast<std::size_t>(
               std::upper_bound(partners.begin(), partners.end(), a) -
               partners.begin());
           k < partners.size(); ++k) {
        const NodeId b = partners[k];
        const double power = rssi[k] + reach_db;
        if (radio.prr_from_rssi(power - topo.rx_noise_penalty_db(b)) <
                radio.link_floor_prr &&
            radio.prr_from_rssi(power - topo.rx_noise_penalty_db(a)) <
                radio.link_floor_prr) {
          continue;
        }
        tables.state_keys.push_back(link_key(topo, a, b));
        local.push_back((static_cast<std::uint64_t>(a) << 32) | k);
      }
    }
    const std::size_t walked = local.size();
    tables.state_keys.insert(tables.state_keys.end(), local.begin(),
                             local.end());
    tables.state_bits.assign((walked + 63) / 64, 0);
    tables.state_reals.assign(walked, 0.0);
    const double stationary_bad =
        params_.p_good_to_bad /
        (params_.p_good_to_bad + params_.p_bad_to_good);
    const std::uint64_t init_base =
        crypto::derive_seed(params_.seed, kStreamGeInit, 0);
    for (std::size_t p = 0; p < walked; ++p) {
      crypto::Xoshiro256 rng(
          crypto::derive_seed(init_base, tables.state_keys[p], 0));
      if (rng.next_bool(stationary_bad)) {
        tables.state_bits[p / 64] |= std::uint64_t{1} << (p % 64);
      }
    }
  } else {
    MPCIOT_REQUIRE(epoch >= tables.epoch,
                   "LinkDynamics: epochs must be materialized in order");
    next_step = tables.epoch + 1;
  }
  const std::size_t pairs = tables.state_reals.size();

  // Walk the Gilbert–Elliott chain (and the drift walk) up to `epoch`.
  // Each (link, step) gets its own derive_seed stream, so the state at
  // `epoch` depends on neither the walk's starting point nor the
  // topology the view is bound to.
  for (std::uint64_t e = next_step; e <= epoch; ++e) {
    const std::uint64_t step_base =
        crypto::derive_seed(params_.seed, kStreamGeStep, e);
    for (std::size_t p = 0; p < pairs; ++p) {
      crypto::Xoshiro256 rng(
          crypto::derive_seed(step_base, tables.state_keys[p], 0));
      const std::uint64_t mask = std::uint64_t{1} << (p % 64);
      const bool bad = (tables.state_bits[p / 64] & mask) != 0;
      const bool flip =
          rng.next_bool(bad ? params_.p_bad_to_good : params_.p_good_to_bad);
      if (flip) tables.state_bits[p / 64] ^= mask;
      // Box-Muller; both uniforms are always consumed so the draw
      // schedule stays fixed even with drift disabled.
      const double u1 = std::max(rng.next_double(), 1e-12);
      const double u2 = rng.next_double();
      if (params_.drift_sigma_db > 0.0) {
        const double gauss =
            std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
        double d = tables.state_reals[p] + gauss * params_.drift_sigma_db;
        const double lim = params_.drift_limit_db;
        // Reflect into [-lim, lim].
        if (d > lim) d = 2.0 * lim - d;
        if (d < -lim) d = -2.0 * lim - d;
        tables.state_reals[p] = std::clamp(d, -lim, lim);
      }
    }
  }

  // Materialize the effective PRRs: drifted RSSI through the same
  // logistic curve + receiver penalty + floor rule the frozen tables
  // used, so delta == 0 reproduces the static PRR exactly. Only live
  // directions (PRR > 0) enter the epoch's runs; taking the pairs in
  // (a, b) order lists each receiver's transmitters ascending.
  const std::uint64_t* local = tables.state_keys.data() + pairs;
  std::vector<net::Link> live;
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto a = static_cast<NodeId>(local[p] >> 32);
    const std::size_t k = local[p] & 0xFFFFFFFFu;
    const NodeId b = topo.near(a)[k];
    const bool bad = (tables.state_bits[p / 64] &
                      (std::uint64_t{1} << (p % 64))) != 0;
    const double delta = tables.state_reals[p] -
                         (bad ? params_.bad_extra_loss_db : 0.0);
    const double rssi = topo.near_rssi(a)[k];
    const double power = rssi + delta;
    double p_ab = radio.prr_from_rssi(power - topo.rx_noise_penalty_db(b));
    double p_ba = radio.prr_from_rssi(power - topo.rx_noise_penalty_db(a));
    if (p_ab < radio.link_floor_prr) p_ab = 0.0;
    if (p_ba < radio.link_floor_prr) p_ba = 0.0;
    if (p_ab > 0.0) live.push_back({a, b, p_ab, rssi});
    if (p_ba > 0.0) live.push_back({b, a, p_ba, rssi});
  }
  tables.runs.assign(n, live);
}

NodeChurn::NodeChurn(std::size_t node_count, NodeChurnParams params)
    : params_(params), down_(node_count) {
  MPCIOT_REQUIRE(params_.crashes_per_sec >= 0.0,
                 "NodeChurn: crash rate must be non-negative");
  MPCIOT_REQUIRE(params_.mean_downtime_us > 0,
                 "NodeChurn: mean downtime must be positive");
  MPCIOT_REQUIRE(params_.horizon_us > 0,
                 "NodeChurn: horizon must be positive");
  if (params_.crashes_per_sec <= 0.0) return;

  const double mean_up_us =
      static_cast<double>(kSecond) / params_.crashes_per_sec;
  for (NodeId node = 0; node < node_count; ++node) {
    if (node == params_.immortal) continue;
    crypto::Xoshiro256 rng(
        crypto::derive_seed(params_.seed, kStreamChurn, node));
    SimTime t = 0;
    while (t < params_.horizon_us) {
      t += draw_exp_us(rng, mean_up_us);
      if (t >= params_.horizon_us) break;
      const SimTime dur =
          draw_exp_us(rng, static_cast<double>(params_.mean_downtime_us));
      down_[node].emplace_back(t, t + dur);
      t += dur;
    }
  }
}

bool NodeChurn::is_down(NodeId node, SimTime t) const {
  const auto& intervals = down_[node];
  if (intervals.empty()) return false;
  // First interval starting after t; the candidate is its predecessor.
  auto it = std::upper_bound(
      intervals.begin(), intervals.end(), t,
      [](SimTime v, const std::pair<SimTime, SimTime>& iv) {
        return v < iv.first;
      });
  if (it == intervals.begin()) return false;
  --it;
  return t < it->second;
}

}  // namespace mpciot::sim::dynamics
