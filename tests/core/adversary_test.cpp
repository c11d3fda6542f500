#include "core/adversary.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "crypto/prng.hpp"
#include "net/testbeds.hpp"
#include "sim/dynamics.hpp"

namespace mpciot::core {
namespace {

using field::Fp61;

TEST(CanReconstruct, ThresholdPredicate) {
  EXPECT_FALSE(can_reconstruct(3, 0));
  EXPECT_FALSE(can_reconstruct(3, 3));
  EXPECT_TRUE(can_reconstruct(3, 4));
  EXPECT_TRUE(can_reconstruct(3, 10));
  static_assert(can_reconstruct(1, 2));
  static_assert(!can_reconstruct(1, 1));
}

TEST(ConsistentPolynomial, UnderdeterminedViewMatchesAnySecret) {
  // A coalition of `degree` holders: for every candidate secret there is
  // a polynomial agreeing with the whole view — the view leaks nothing.
  constexpr std::size_t kDegree = 4;
  crypto::CtrDrbg drbg(1, 0);
  const Fp61 true_secret{1234567};
  const ShamirDealer dealer(true_secret, kDegree, drbg);

  CollusionView view;
  view.dealer = 0;
  for (NodeId h : {2u, 5u, 9u, 11u}) {  // exactly degree = 4 shares
    view.observed_shares.push_back(dealer.share_for(h));
  }

  for (std::uint64_t candidate : {0ull, 1ull, 999ull, 1234567ull}) {
    const auto poly =
        consistent_polynomial_for(view, kDegree, Fp61{candidate});
    ASSERT_TRUE(poly.has_value()) << "candidate " << candidate;
    EXPECT_EQ(poly->constant_term().value(), candidate);
    EXPECT_LE(poly->degree(), static_cast<int>(kDegree));
    // It agrees with every observed share.
    for (const Share& s : view.observed_shares) {
      EXPECT_EQ(poly->evaluate(public_point(s.holder)), s.value);
    }
  }
}

TEST(ConsistentPolynomial, OverdeterminedViewPinsTheSecret) {
  constexpr std::size_t kDegree = 3;
  crypto::CtrDrbg drbg(2, 0);
  const Fp61 secret{42};
  const ShamirDealer dealer(secret, kDegree, drbg);

  CollusionView view;
  for (NodeId h = 0; h < kDegree + 1; ++h) {  // degree+1 shares
    view.observed_shares.push_back(dealer.share_for(h));
  }
  // The true secret is consistent...
  EXPECT_TRUE(consistent_polynomial_for(view, kDegree, secret).has_value());
  // ...and any other candidate is not.
  EXPECT_FALSE(
      consistent_polynomial_for(view, kDegree, Fp61{43}).has_value());
}

TEST(ConsistentPolynomial, EmptyViewTriviallyConsistent) {
  CollusionView view;
  const auto poly = consistent_polynomial_for(view, 2, Fp61{77});
  ASSERT_TRUE(poly.has_value());
  EXPECT_EQ(poly->constant_term().value(), 77u);
}

TEST(ConsistentPolynomial, SingleShareOfHighDegreeLeaksNothing) {
  crypto::CtrDrbg drbg(3, 0);
  const ShamirDealer dealer(Fp61{500}, 8, drbg);
  CollusionView view;
  view.observed_shares.push_back(dealer.share_for(3));
  for (std::uint64_t candidate = 0; candidate < 20; ++candidate) {
    EXPECT_TRUE(
        consistent_polynomial_for(view, 8, Fp61{candidate}).has_value());
  }
}

TEST(AttemptReconstruction, MatchesThresholdPredicate) {
  constexpr std::size_t kDegree = 3;
  crypto::CtrDrbg drbg(4, 0);
  const Fp61 secret{987654321};
  const ShamirDealer dealer(secret, kDegree, drbg);
  CollusionView view;
  for (NodeId h = 0; h < 6; ++h) {
    view.observed_shares.push_back(dealer.share_for(h));
    const ReconstructionAttempt attempt =
        attempt_reconstruction(view, kDegree);
    EXPECT_EQ(attempt.meets_threshold,
              can_reconstruct(kDegree, view.observed_shares.size()));
    EXPECT_EQ(attempt.value == secret, attempt.meets_threshold);
  }
}

TEST(AdversaryEngine, InactiveConfigurationsDoNothing) {
  // kNone with attackers, and an attack kind with no attackers, are
  // both inert — the byte-identity guarantee for every frozen scenario.
  AdversaryConfig with_nodes;
  with_nodes.kind = AttackKind::kNone;
  with_nodes.attackers = {1, 2};
  EXPECT_FALSE(with_nodes.active());
  AdversaryConfig no_nodes;
  no_nodes.kind = AttackKind::kMalformedShares;
  EXPECT_FALSE(no_nodes.active());
  const AdversaryEngine engine(with_nodes, 8);
  EXPECT_FALSE(engine.active());
  EXPECT_TRUE(engine.is_attacker(1));  // membership still answers
}

TEST(AdversaryEngine, DrawsAreDeterministicAndDomainSeparated) {
  AdversaryConfig cfg;
  cfg.kind = AttackKind::kMalformedShares;
  cfg.attackers = {3};
  cfg.seed = 77;
  const AdversaryEngine a(cfg, 16);
  const AdversaryEngine b(cfg, 16);
  const Fp61 honest{1000};

  // Same (trial, round, attacker, holder) -> same draw, across engine
  // instances: the engine is stateless.
  EXPECT_EQ(a.malformed_share(5, 0, 3, 7, honest),
            b.malformed_share(5, 0, 3, 7, honest));
  EXPECT_EQ(a.sum_pollution(5, 0, 3), b.sum_pollution(5, 0, 3));
  // Different coordinates -> (overwhelmingly) different draws.
  EXPECT_NE(a.malformed_share(5, 0, 3, 7, honest),
            a.malformed_share(6, 0, 3, 7, honest));
  EXPECT_NE(a.malformed_share(5, 0, 3, 7, honest),
            a.malformed_share(5, 0, 3, 8, honest));
  // The malformed value never equals the honest share it replaces, and
  // pollution offsets are never zero — detection must be guaranteed.
  for (std::uint64_t t = 0; t < 200; ++t) {
    EXPECT_NE(a.malformed_share(t, 1, 3, 2, honest), honest);
    EXPECT_NE(a.sum_pollution(t, 1, 3), Fp61{0});
  }
}

TEST(AdversaryEngine, EquivocationSplitsHoldersAndKeepsTheSecret) {
  AdversaryConfig cfg;
  cfg.kind = AttackKind::kInconsistentShares;
  cfg.attackers = {0};
  cfg.seed = 9;
  const AdversaryEngine engine(cfg, 32);

  // The target set is a fixed, engine-independent function: some but
  // not all of a reasonable holder list gets the second polynomial.
  std::size_t targeted = 0;
  for (std::size_t h = 0; h < 20; ++h) {
    if (engine.equivocation_target(0, h)) ++targeted;
  }
  EXPECT_GT(targeted, 0u);
  EXPECT_LT(targeted, 20u);

  // The equivocation polynomial shares the secret and degree but not
  // the coefficients: below-threshold shares differ, reconstruction
  // from either polynomial yields the same secret.
  const Fp61 secret{321};
  constexpr std::size_t kDegree = 2;
  crypto::CtrDrbg honest_drbg(10, 0);
  const ShamirDealer honest(secret, kDegree, honest_drbg);
  crypto::CtrDrbg equiv_drbg = engine.equivocation_drbg(55, 0, 0);
  const ShamirDealer equiv(secret, kDegree, equiv_drbg);
  EXPECT_EQ(equiv.degree(), kDegree);
  std::vector<Share> shares = equiv.shares_for({1, 2, 3});
  EXPECT_EQ(reconstruct(shares, kDegree), secret);
  EXPECT_NE(equiv.share_for(1).value, honest.share_for(1).value);
}

/// PRR tx -> rx in materialized tables (0 when rx's runs omit tx).
double prr_of(const net::LinkEpochTables& tables, NodeId tx, NodeId rx) {
  const std::size_t slot = tables.runs.slot(rx, tx);
  return slot == net::kNoSlot ? 0.0 : tables.runs.prr[slot];
}

TEST(JammerChannel, JamDeafensEveryoneInRangeDuringActiveEpochs) {
  const net::Topology topo = net::testbeds::flocklab();
  const NodeId jammer = 5;
  // duty 1.0: always jamming. Every receiver that could hear the
  // jammer statically — including the jammer itself — goes deaf.
  const JammerChannel always(nullptr, {jammer}, /*seed=*/3, /*duty=*/1.0);
  EXPECT_TRUE(always.jam_active(jammer, 0));
  net::LinkEpochTables tables;
  always.materialize(topo, 0, tables);
  net::LinkEpochTables clean;
  const JammerChannel never(nullptr, {jammer}, /*seed=*/3, /*duty=*/0.0);
  EXPECT_FALSE(never.jam_active(jammer, 0));
  never.materialize(topo, 0, clean);

  const std::size_t n = topo.size();
  std::size_t deafened = 0;
  for (NodeId rx = 0; rx < n; ++rx) {
    const bool audible = rx != jammer && prr_of(clean, jammer, rx) > 0.0;
    if (audible || rx == jammer) {
      ++deafened;
      for (NodeId tx = 0; tx < n; ++tx) {
        EXPECT_EQ(prr_of(tables, tx, rx), 0.0) << "rx " << rx << " tx " << tx;
      }
    }
  }
  EXPECT_GT(deafened, 1u);   // the jammer reaches someone
  EXPECT_LT(deafened, n);    // but not the whole testbed
}

TEST(JammerChannel, JamsKeyedTopologiesAboveTheExactThreshold) {
  // A 48x48 grid draws keyed links. At an epoch where a jammer is
  // active, it and every receiver in its static range hear nothing; every
  // other receiver sees exactly the inner tables — the frozen snapshot
  // or a bursty world.
  const net::Topology topo = net::testbeds::grid(48, 48, 12.0, /*seed=*/5);
  ASSERT_GT(topo.size(), net::Topology::kExactMaxNodes);
  sim::dynamics::LinkDynamicsParams params;
  params.seed = 17;
  const sim::dynamics::LinkDynamics bursty(params);
  const std::vector<NodeId> jammers{100, 1500};
  for (const net::ChannelModel* inner :
       {static_cast<const net::ChannelModel*>(nullptr),
        static_cast<const net::ChannelModel*>(&bursty)}) {
    const JammerChannel jam(inner, jammers, /*seed=*/9, /*duty=*/0.5);
    std::uint64_t epoch = 0;
    while (!jam.jam_active(jammers[0], epoch)) ++epoch;
    net::LinkEpochTables jammed;
    jam.materialize(topo, epoch, jammed);
    net::LinkEpochTables clean;
    if (inner != nullptr) {
      inner->materialize(topo, epoch, clean);
    } else {
      clean.runs = topo.audibility();
    }

    std::vector<char> deaf(topo.size(), 0);
    for (const NodeId j : jammers) {
      if (!jam.jam_active(j, epoch)) continue;
      deaf[j] = 1;
      for (const NodeId r : topo.neighbors(j)) deaf[r] = 1;
    }
    std::size_t deafened = 0;
    for (NodeId r = 0; r < topo.size(); ++r) {
      deafened += deaf[r];
      for (const net::AudWord& aw : clean.runs.row(r)) {
        std::uint64_t bits = aw.bits;
        for (std::uint32_t rank = 0; bits != 0; ++rank) {
          const auto t = static_cast<NodeId>(aw.word * 64 +
                                             std::countr_zero(bits));
          bits &= bits - 1;
          EXPECT_EQ(prr_of(jammed, t, r),
                    deaf[r] ? 0.0 : clean.runs.prr[aw.slot + rank])
              << "rx " << r << " tx " << t;
        }
      }
      if (deaf[r]) {
        for (const net::AudWord& aw : jammed.runs.row(r)) {
          EXPECT_EQ(aw.bits, 0u) << "rx " << r;
        }
      }
    }
    EXPECT_GT(deafened, 2u);
  }
}

TEST(JammerChannel, DutyCycleGatesJamEpochsDeterministically) {
  const JammerChannel jam(nullptr, {2}, /*seed=*/11, /*duty=*/0.3);
  const JammerChannel same(nullptr, {2}, /*seed=*/11, /*duty=*/0.3);
  std::size_t active = 0;
  for (std::uint64_t e = 0; e < 400; ++e) {
    EXPECT_EQ(jam.jam_active(2, e), same.jam_active(2, e));
    if (jam.jam_active(2, e)) ++active;
  }
  // ~120 of 400 expected; wide deterministic band.
  EXPECT_GT(active, 70u);
  EXPECT_LT(active, 180u);
}

}  // namespace
}  // namespace mpciot::core
