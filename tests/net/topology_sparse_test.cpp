// Sparse-vs-dense bit-identity: the same placement, radio and shadow
// seed built on both storage tiers must answer every accessor question
// identically — link PRR, hop counts, neighbor lists, audibility and
// center/diameter. The sparse tier over *sequential* draws consumes the
// exact RNG stream of the dense builder, so the comparison is exact
// (==, not near), which is what lets kAuto pick a tier by size without
// perturbing any deterministic scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "common/assert.hpp"
#include "ct/glossy.hpp"
#include "ct/transport.hpp"
#include "net/testbeds.hpp"
#include "net/topology.hpp"

namespace mpciot::net {
namespace {

TopologyOptions sparse_sequential() {
  TopologyOptions options;
  options.storage = TopologyStorage::kSparse;
  options.draw = LinkDraw::kSequential;
  return options;
}

/// Audible-transmitter set of receiver r, decoded from either tier.
std::vector<NodeId> audible_set(const Topology& topo, NodeId r) {
  std::vector<NodeId> out;
  if (topo.sparse()) {
    for (const AudWord& aw : topo.audible_entries(r)) {
      std::uint64_t bits = aw.bits;
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        out.push_back(static_cast<NodeId>(aw.word * 64 + b));
      }
    }
  } else {
    const std::uint64_t* words = topo.audible_words(r);
    for (NodeId t = 0; t < topo.size(); ++t) {
      if ((words[t / 64] >> (t % 64)) & 1) out.push_back(t);
    }
  }
  return out;
}

void expect_identical_answers(const Topology& dense, const Topology& sparse) {
  ASSERT_EQ(dense.size(), sparse.size());
  ASSERT_FALSE(dense.sparse());
  ASSERT_TRUE(sparse.sparse());
  const std::size_t n = dense.size();
  for (NodeId a = 0; a < n; ++a) {
    // Neighbor lists (CSR on both tiers) must match exactly.
    const auto dn = dense.neighbors(a);
    const auto sn = sparse.neighbors(a);
    ASSERT_EQ(dn.size(), sn.size()) << "node " << a;
    EXPECT_TRUE(std::equal(dn.begin(), dn.end(), sn.begin()));
    EXPECT_EQ(audible_set(dense, a), audible_set(sparse, a)) << "node " << a;
    for (NodeId b = 0; b < n; ++b) {
      // Bit-exact PRR (same RNG draws), identical BFS hop counts.
      ASSERT_EQ(dense.prr(a, b), sparse.prr(a, b))
          << "prr(" << a << "," << b << ")";
      ASSERT_EQ(dense.hops(a, b), sparse.hops(a, b))
          << "hops(" << a << "," << b << ")";
      if (dense.prr(a, b) > 0.0) {
        EXPECT_EQ(dense.rssi(a, b), sparse.rssi(a, b))
            << "rssi(" << a << "," << b << ")";
      }
    }
  }
  EXPECT_EQ(dense.center_node(), sparse.center_node());
  EXPECT_EQ(dense.diameter(), sparse.diameter());
}

TEST(TopologySparse, AnswersMatchDenseOnShadowedGrid) {
  const RadioParams radio;  // default shadowing: varied link qualities
  const Topology dense =
      testbeds::grid(12, 12, 12.0, /*seed=*/7, radio);
  const Topology sparse =
      testbeds::grid(12, 12, 12.0, /*seed=*/7, radio, sparse_sequential());
  expect_identical_answers(dense, sparse);
}

TEST(TopologySparse, KeyedDrawAgreesAcrossTiers) {
  // The keyed (per-pair seeded, culled) draw is a different RNG stream
  // than the sequential one, but dense and sparse storage over the
  // *same* keyed stream must still agree exactly.
  TopologyOptions dense_keyed;
  dense_keyed.storage = TopologyStorage::kDense;
  dense_keyed.draw = LinkDraw::kKeyed;
  TopologyOptions sparse_keyed;
  sparse_keyed.storage = TopologyStorage::kSparse;
  sparse_keyed.draw = LinkDraw::kKeyed;
  const RadioParams radio;
  const Topology dense =
      testbeds::grid(10, 10, 12.0, /*seed=*/21, radio, dense_keyed);
  const Topology sparse =
      testbeds::grid(10, 10, 12.0, /*seed=*/21, radio, sparse_keyed);
  expect_identical_answers(dense, sparse);
}

TEST(TopologySparse, InducedSubtopologyMatchesDenseInduced) {
  const RadioParams radio;
  const Topology dense = testbeds::grid(12, 12, 12.0, 7, radio);
  const Topology sparse =
      testbeds::grid(12, 12, 12.0, 7, radio, sparse_sequential());
  // A contiguous block plus a scattered set, extracted from both tiers.
  std::vector<NodeId> block;
  for (NodeId i = 0; i < 36; ++i) block.push_back(i);
  std::vector<NodeId> scattered;
  for (NodeId i = 0; i < dense.size(); i += 3) scattered.push_back(i);
  for (const std::vector<NodeId>& members : {block, scattered}) {
    const Topology a = Topology::induced(dense, members);
    const Topology b = Topology::induced(sparse, members);
    ASSERT_EQ(a.size(), b.size());
    for (NodeId x = 0; x < a.size(); ++x) {
      for (NodeId y = 0; y < a.size(); ++y) {
        ASSERT_EQ(a.prr(x, y), b.prr(x, y));
        ASSERT_EQ(a.hops(x, y), b.hops(x, y));
      }
    }
    EXPECT_EQ(a.center_node(), b.center_node());
    EXPECT_EQ(a.diameter(), b.diameter());
  }
}

TEST(TopologySparse, FloodResultsAreBitIdenticalAcrossTiers) {
  // The CT arbitration loop takes a different code path on the sparse
  // tier (word-list iteration instead of dense row scans) but must
  // consume the same RNG draws in the same order: identical first-rx
  // slots, durations and radio-on times.
  const RadioParams radio;
  const Topology dense = testbeds::grid(12, 12, 12.0, 7, radio);
  const Topology sparse =
      testbeds::grid(12, 12, 12.0, 7, radio, sparse_sequential());
  for (const NodeId initiator : {NodeId{0}, NodeId{77}}) {
    ct::GlossyConfig cfg;
    cfg.initiator = initiator;
    cfg.ntx = 3;
    crypto::Xoshiro256 rng_a(99);
    crypto::Xoshiro256 rng_b(99);
    const ct::GlossyResult a =
        ct::minicast_transport().flood(dense, cfg, rng_a);
    const ct::GlossyResult b =
        ct::minicast_transport().flood(sparse, cfg, rng_b);
    EXPECT_EQ(a.duration_us, b.duration_us);
    EXPECT_EQ(a.slots_used, b.slots_used);
    EXPECT_EQ(a.first_rx_slot, b.first_rx_slot);
    EXPECT_EQ(a.radio_on_us, b.radio_on_us);
  }
}

TEST(TopologySparse, DenseOnlyAccessorsRejectSparseTier) {
  const Topology sparse =
      testbeds::grid(8, 8, 12.0, 7, RadioParams{}, sparse_sequential());
  // rssi of an unstored pair degrades to the no-link sentinel instead
  // of a dense table read.
  double floor_rssi = 0.0;
  bool found_unstored = false;
  for (NodeId b = 1; b < sparse.size() && !found_unstored; ++b) {
    if (sparse.prr(0, b) == 0.0 && sparse.prr(b, 0) == 0.0) {
      floor_rssi = sparse.rssi(0, b);
      found_unstored = true;
    }
  }
  ASSERT_TRUE(found_unstored);
  EXPECT_EQ(floor_rssi, -200.0);
}

TEST(TopologySparse, AutoTierSelectsBySize) {
  // kAuto keeps every existing (<= 2048 node) scenario on the dense
  // tier; the explicit override is what the tests above exercise.
  const Topology small = testbeds::grid(8, 8, 12.0, 7);
  EXPECT_FALSE(small.sparse());
  EXPECT_GT(Topology::kDenseMaxNodes, 1024u);
}

}  // namespace
}  // namespace mpciot::net
