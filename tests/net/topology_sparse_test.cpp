// Topology identity: every accessor of the CSR / word-run topology must
// answer exactly what a test-local dense reference computes — the
// historic pairwise draw arithmetic into full n x n RSSI/PRR matrices,
// BFS hop counts over good links, and the minimum-eccentricity center.
// The comparison is exact (==, not near) for both draw streams and for
// induced() subtopologies, which is what keeps every deterministic
// scenario byte-identical to the matrices it was first run on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <tuple>
#include <vector>

#include "common/assert.hpp"
#include "crypto/prng.hpp"
#include "net/testbeds.hpp"
#include "net/topology.hpp"

namespace mpciot::net {
namespace {

/// Dense reference tables: row-major [a * n + b].
struct Reference {
  std::size_t n = 0;
  RadioParams radio;
  std::vector<double> rssi;  // near pairs only, -200 elsewhere
  std::vector<double> prr;
  std::vector<std::uint32_t> hops;
  std::uint32_t diameter = 0;
  NodeId center = 0;
};

/// Hops over good links (prr >= 0.5) of usable links, then the
/// eccentricity center (ties: lowest id) and diameter.
void finish(Reference& ref) {
  const std::size_t n = ref.n;
  ref.hops.assign(n * n, Topology::kInvalidHops);
  for (NodeId src = 0; src < n; ++src) {
    ref.hops[src * n + src] = 0;
    std::deque<NodeId> queue{src};
    while (!queue.empty()) {
      const NodeId cur = queue.front();
      queue.pop_front();
      for (NodeId nb = 0; nb < n; ++nb) {
        const double p = ref.prr[cur * n + nb];
        if (nb == cur || p < ref.radio.link_floor_prr || p < 0.5) continue;
        if (ref.hops[src * n + nb] != Topology::kInvalidHops) continue;
        ref.hops[src * n + nb] = ref.hops[src * n + cur] + 1;
        queue.push_back(nb);
      }
    }
  }
  std::uint32_t best_ecc = Topology::kInvalidHops;
  for (NodeId a = 0; a < n; ++a) {
    std::uint32_t ecc = 0;
    for (NodeId b = 0; b < n; ++b) {
      const std::uint32_t h = ref.hops[a * n + b];
      if (h != Topology::kInvalidHops && h > ecc) ecc = h;
      if (h != Topology::kInvalidHops && h > ref.diameter) ref.diameter = h;
    }
    if (ecc < best_ecc) {
      best_ecc = ecc;
      ref.center = a;
    }
  }
}

/// The historic pairwise draw over `topo`'s placement: one Box–Muller
/// shadowing value per (a < b) pair, from the sequential stream or from
/// the pair's keyed stream (drawn for every pair — no cull).
Reference reference(const Topology& topo, std::uint64_t shadow_seed,
                    LinkDraw draw) {
  Reference ref;
  const std::size_t n = ref.n = topo.size();
  const RadioParams& radio = ref.radio = topo.radio();
  ref.rssi.assign(n * n, -200.0);
  ref.prr.assign(n * n, 0.0);
  crypto::Xoshiro256 sequential(shadow_seed);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      crypto::Xoshiro256 keyed(crypto::derive_seed(
          shadow_seed, 0x4C494E4B, (std::uint64_t{a} << 32) | b));
      crypto::Xoshiro256& rng =
          draw == LinkDraw::kKeyed ? keyed : sequential;
      const double u1 = std::max(rng.next_double(), 1e-12);
      const double u2 = rng.next_double();
      const double gauss =
          std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
      const double power = radio.rx_power_dbm(topo.distance(a, b),
                                              gauss * radio.shadowing_sigma_db);
      const double pen_a = topo.rx_noise_penalty_db(a);
      const double pen_b = topo.rx_noise_penalty_db(b);
      double p_ab = radio.prr_from_rssi(power - pen_b);
      double p_ba = radio.prr_from_rssi(power - pen_a);
      if (p_ab < radio.link_floor_prr) p_ab = 0.0;
      if (p_ba < radio.link_floor_prr) p_ba = 0.0;
      ref.prr[a * n + b] = p_ab;
      ref.prr[b * n + a] = p_ba;
      const double lifted = power + Topology::kNearHeadroomDb;
      if (p_ab > 0.0 || p_ba > 0.0 ||
          radio.prr_from_rssi(lifted - pen_b) >= radio.link_floor_prr ||
          radio.prr_from_rssi(lifted - pen_a) >= radio.link_floor_prr) {
        ref.rssi[a * n + b] = ref.rssi[b * n + a] = power;
      }
    }
  }
  finish(ref);
  return ref;
}

/// The reference restricted to `members`, derived tables recomputed.
Reference induced_reference(const Reference& parent,
                            const std::vector<NodeId>& members) {
  Reference ref;
  const std::size_t m = ref.n = members.size();
  ref.radio = parent.radio;
  ref.rssi.assign(m * m, -200.0);
  ref.prr.assign(m * m, 0.0);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      if (a == b) continue;
      ref.rssi[a * m + b] = parent.rssi[members[a] * parent.n + members[b]];
      ref.prr[a * m + b] = parent.prr[members[a] * parent.n + members[b]];
    }
  }
  finish(ref);
  return ref;
}

/// Audible transmitters of receiver r with their inbound PRR and RSSI,
/// decoded from the word runs.
std::vector<std::tuple<NodeId, double, double>> audible(const Topology& topo,
                                                        NodeId r) {
  std::vector<std::tuple<NodeId, double, double>> out;
  for (const AudWord& aw : topo.audible_entries(r)) {
    std::uint64_t bits = aw.bits;
    std::uint32_t rank = 0;
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const std::size_t slot = aw.slot + rank++;
      out.emplace_back(static_cast<NodeId>(aw.word * 64 + b),
                       topo.audibility().prr[slot],
                       topo.audibility().rssi[slot]);
    }
  }
  return out;
}

void expect_matches(const Topology& topo, const Reference& ref) {
  ASSERT_EQ(topo.size(), ref.n);
  const std::size_t n = ref.n;
  const double floor = ref.radio.link_floor_prr;
  for (NodeId a = 0; a < n; ++a) {
    std::vector<NodeId> want_nbrs;
    std::vector<std::tuple<NodeId, double, double>> want_audible;
    for (NodeId b = 0; b < n; ++b) {
      if (b != a && ref.prr[a * n + b] >= floor) want_nbrs.push_back(b);
      if (ref.prr[b * n + a] > 0.0) {
        want_audible.emplace_back(b, ref.prr[b * n + a], ref.rssi[b * n + a]);
      }
      // Bit-exact PRR and RSSI (same draws), identical BFS hop counts.
      ASSERT_EQ(topo.prr(a, b), ref.prr[a * n + b])
          << "prr(" << a << "," << b << ")";
      ASSERT_EQ(topo.rssi(a, b), ref.rssi[a * n + b])
          << "rssi(" << a << "," << b << ")";
      ASSERT_EQ(topo.hops(a, b), ref.hops[a * n + b])
          << "hops(" << a << "," << b << ")";
    }
    const auto nbrs = topo.neighbors(a);
    EXPECT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()), want_nbrs)
        << "node " << a;
    EXPECT_EQ(audible(topo, a), want_audible) << "node " << a;
  }
  EXPECT_EQ(topo.center_node(), ref.center);
  EXPECT_EQ(topo.diameter(), ref.diameter);
}

TopologyOptions with_draw(LinkDraw draw) {
  TopologyOptions options;
  options.draw = draw;
  return options;
}

TEST(TopologySparse, AnswersMatchDenseOnShadowedGrid) {
  const RadioParams radio;  // default shadowing: varied link qualities
  const Topology topo = testbeds::grid(12, 12, 12.0, /*seed=*/7, radio);
  expect_matches(topo, reference(topo, 7, LinkDraw::kSequential));
}

TEST(TopologySparse, KeyedDrawAgreesAcrossTiers) {
  // The keyed (per-pair seeded, culled) draw is a different RNG stream
  // than the sequential one; the cull must drop no link and no near
  // pair the uncut reference draws.
  const RadioParams radio;
  const Topology topo = testbeds::grid(12, 12, 12.0, /*seed=*/7, radio,
                                       with_draw(LinkDraw::kKeyed));
  expect_matches(topo, reference(topo, 7, LinkDraw::kKeyed));
}

TEST(TopologySparse, InducedSubtopologyMatchesDenseInduced) {
  const RadioParams radio;
  for (const LinkDraw draw : {LinkDraw::kSequential, LinkDraw::kKeyed}) {
    const Topology topo =
        testbeds::grid(12, 12, 12.0, 7, radio, with_draw(draw));
    const Reference ref = reference(topo, 7, draw);
    // A contiguous block plus a scattered set.
    std::vector<NodeId> block;
    for (NodeId i = 0; i < 36; ++i) block.push_back(i);
    std::vector<NodeId> scattered;
    for (NodeId i = 0; i < topo.size(); i += 3) scattered.push_back(i);
    for (const std::vector<NodeId>& members : {block, scattered}) {
      const Topology sub = Topology::induced(topo, members);
      expect_matches(sub, induced_reference(ref, members));
    }
  }
}

TEST(TopologySparse, NearPairsKeepTheirRssiFarPairsDoNot) {
  const Topology topo = testbeds::grid(8, 8, 12.0, 7);
  // Some pair with no link in either direction still keeps its frozen
  // RSSI (a channel model may lift it into range); pairs beyond the
  // headroom report the no-link sentinel.
  bool found_near = false;
  bool found_far = false;
  for (NodeId a = 0; a < topo.size(); ++a) {
    for (NodeId b = a + 1; b < topo.size(); ++b) {
      if (topo.prr(a, b) > 0.0 || topo.prr(b, a) > 0.0) continue;
      (topo.rssi(a, b) == -200.0 ? found_far : found_near) = true;
    }
  }
  EXPECT_TRUE(found_near);
  EXPECT_TRUE(found_far);
}

TEST(TopologySparse, AutoTierSelectsBySize) {
  // kAuto draws from the historic sequential stream at every scenario
  // size; the keyed stream is a different draw.
  EXPECT_GT(Topology::kExactMaxNodes, 1024u);
  const RadioParams radio;
  const Topology automatic = testbeds::grid(8, 8, 12.0, 7, radio);
  const Topology sequential = testbeds::grid(
      8, 8, 12.0, 7, radio, with_draw(LinkDraw::kSequential));
  bool any_difference = false;
  for (NodeId a = 0; a < automatic.size(); ++a) {
    for (NodeId b = 0; b < automatic.size(); ++b) {
      ASSERT_EQ(automatic.prr(a, b), sequential.prr(a, b));
      ASSERT_EQ(automatic.rssi(a, b), sequential.rssi(a, b));
    }
  }
  const Topology keyed =
      testbeds::grid(8, 8, 12.0, 7, radio, with_draw(LinkDraw::kKeyed));
  for (NodeId a = 0; a < keyed.size() && !any_difference; ++a) {
    for (NodeId b = 0; b < keyed.size(); ++b) {
      if (keyed.rssi(a, b) != sequential.rssi(a, b)) any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace mpciot::net
