// Property-based randomized tests: thousands of derive_seed-driven
// cases over the algebra the protocols stand on. Where the unit tests
// pin hand-picked examples, these loops search the input space —
// random thresholds, random holder sets, random missing-share subsets,
// random field elements — for violations of the *laws*:
//
//  * Shamir share -> sum -> reconstruct round-trips for every degree
//    and every sufficient holder subset, and fails-safe semantics below
//    the threshold are exercised elsewhere (privacy tests);
//  * Fp61 obeys the field axioms (associativity, commutativity,
//    distributivity, identities, inverses) — the Mersenne folding in
//    Fp61 is exactly the kind of carry-edge code a fixed test vector
//    misses.
//
// Every case's RNG comes from crypto::derive_seed(base, stream, case),
// so a red run reproduces from the printed case index, and no two
// cases share a stream. See docs/TESTING.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/adversary.hpp"
#include "core/shamir.hpp"
#include "crypto/feldman.hpp"
#include "crypto/prng.hpp"

namespace mpciot::core {
namespace {

constexpr std::uint64_t kPropBase = 0x50524F50ull;  // "PROP"

/// Random ascending holder subset of size `take` out of `universe`.
std::vector<NodeId> pick_holders(std::size_t universe, std::size_t take,
                                 crypto::Xoshiro256& rng) {
  std::vector<NodeId> all(universe);
  std::iota(all.begin(), all.end(), NodeId{0});
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + rng.next_below(universe - i);
    std::swap(all[i], all[j]);
  }
  all.resize(take);
  std::sort(all.begin(), all.end());
  return all;
}

TEST(PropertyShamir, ReconstructsFromAnySufficientSubset) {
  constexpr int kCases = 1500;
  for (int c = 0; c < kCases; ++c) {
    crypto::Xoshiro256 rng(crypto::derive_seed(kPropBase, 1, c));
    const std::size_t holders = 2 + rng.next_below(24);    // [2, 25]
    const std::size_t degree = 1 + rng.next_below(holders - 1);
    const field::Fp61 secret = rng.next_fp61();

    crypto::CtrDrbg drbg(crypto::derive_seed(kPropBase, 2, c));
    const ShamirDealer dealer(secret, degree, drbg);
    EXPECT_EQ(dealer.degree(), degree);

    // Deal to a random holder-id universe (ids need not be dense).
    const std::vector<NodeId> ids = pick_holders(200, holders, rng);
    const std::vector<Share> shares = dealer.shares_for(ids);

    // Drop a random subset, keeping at least degree+1 shares: the
    // missing-share recovery path must not care *which* survive.
    const std::size_t keep =
        degree + 1 + rng.next_below(holders - degree);
    std::vector<Share> subset = shares;
    for (std::size_t i = 0; i < keep; ++i) {
      const std::size_t j = i + rng.next_below(subset.size() - i);
      std::swap(subset[i], subset[j]);
    }
    subset.resize(keep);
    EXPECT_EQ(reconstruct(subset, degree), secret)
        << "case " << c << " degree " << degree << " keep " << keep;
  }
}

TEST(PropertyShamir, SumOfSharingsReconstructsSumOfSecrets) {
  constexpr int kCases = 400;
  for (int c = 0; c < kCases; ++c) {
    crypto::Xoshiro256 rng(crypto::derive_seed(kPropBase, 3, c));
    const std::size_t sources = 2 + rng.next_below(10);
    const std::size_t holders = 3 + rng.next_below(12);
    const std::size_t degree = 1 + rng.next_below(holders - 1);
    const std::vector<NodeId> ids = pick_holders(64, holders, rng);

    field::Fp61 expected;
    std::vector<field::Fp61> sums(holders);
    for (std::size_t s = 0; s < sources; ++s) {
      const field::Fp61 secret = rng.next_fp61();
      expected += secret;
      crypto::CtrDrbg drbg(
          crypto::derive_seed(kPropBase, 4, (c << 8) | s));
      const ShamirDealer dealer(secret, degree, drbg);
      for (std::size_t h = 0; h < holders; ++h) {
        sums[h] += dealer.share_for(ids[h]).value;
      }
    }
    std::vector<Share> sum_shares;
    for (std::size_t h = 0; h < holders && sum_shares.size() <= degree;
         ++h) {
      sum_shares.push_back(Share{ids[h], sums[h]});
    }
    EXPECT_EQ(reconstruct(sum_shares, degree), expected) << "case " << c;
  }
}

TEST(PropertyFp61, FieldLaws) {
  constexpr int kCases = 4000;
  for (int c = 0; c < kCases; ++c) {
    crypto::Xoshiro256 rng(crypto::derive_seed(kPropBase, 7, c));
    // Bias towards carry edges: mix uniform draws with near-modulus
    // values, which is where the Mersenne folds can go wrong.
    const auto draw = [&] {
      switch (rng.next_below(4)) {
        case 0:
          return field::Fp61{field::Fp61::kModulus - rng.next_below(4)};
        case 1:
          return field::Fp61{rng.next_below(4)};
        default:
          return rng.next_fp61();
      }
    };
    const field::Fp61 a = draw();
    const field::Fp61 b = draw();
    const field::Fp61 x = draw();

    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + x, a + (b + x));
    EXPECT_EQ((a * b) * x, a * (b * x));
    EXPECT_EQ(a * (b + x), a * b + a * x);
    EXPECT_EQ(a + field::Fp61::zero(), a);
    EXPECT_EQ(a * field::Fp61::one(), a);
    EXPECT_EQ(a + (-a), field::Fp61::zero());
    EXPECT_EQ(a - b, a + (-b));
    if (!a.is_zero()) {
      EXPECT_EQ(a * a.inverse(), field::Fp61::one()) << a.value();
      EXPECT_EQ((a * b) / a, b);
    }
    // Fermat: a^p == a (in particular pow handles the full exponent).
    EXPECT_EQ(field::Fp61::pow(a, field::Fp61::kModulus), a);
  }
}

TEST(PropertyOracle, ReconstructionBoundaryIsExactForAnyView) {
  // The coalition oracle flips from "statistically independent value"
  // to "provably the secret" at exactly degree+1 pooled shares, for
  // every degree and every holder subset.
  constexpr int kCases = 1200;
  for (int c = 0; c < kCases; ++c) {
    crypto::Xoshiro256 rng(crypto::derive_seed(kPropBase, 9, c));
    const std::size_t holders = 2 + rng.next_below(20);  // [2, 21]
    const std::size_t degree = 1 + rng.next_below(holders - 1);
    const field::Fp61 secret = rng.next_fp61();
    crypto::CtrDrbg drbg(crypto::derive_seed(kPropBase, 10, c));
    const ShamirDealer dealer(secret, degree, drbg);

    const std::size_t pooled = 1 + rng.next_below(holders);
    CollusionView view;
    view.dealer = 0;
    for (const NodeId h : pick_holders(200, pooled, rng)) {
      view.observed_shares.push_back(dealer.share_for(h));
    }
    const ReconstructionAttempt attempt =
        attempt_reconstruction(view, degree);
    ASSERT_EQ(attempt.meets_threshold, can_reconstruct(degree, pooled))
        << "case " << c;
    if (attempt.meets_threshold) {
      EXPECT_EQ(attempt.value, secret) << "case " << c;
    } else {
      // A sub-threshold Lagrange guess hits the secret w.p. 2^-61 per
      // (deterministic) case; a hit here means the oracle leaks.
      EXPECT_NE(attempt.value, secret) << "case " << c;
      // And the view stays consistent with any candidate secret.
      EXPECT_TRUE(consistent_polynomial_for(view, degree, attempt.value +
                                                              field::Fp61{1})
                      .has_value())
          << "case " << c;
    }
  }
}

TEST(PropertyFeldman, CombinedCommitmentVerifiesAggregateShares) {
  // The homomorphic law the polluted-sum check in the protocol rests
  // on: the componentwise product of per-dealer commitments verifies
  // exactly the holder-wise SUM of the dealers' shares — and stops
  // verifying the moment any one sum is offset.
  constexpr int kCases = 250;
  for (int c = 0; c < kCases; ++c) {
    crypto::Xoshiro256 rng(crypto::derive_seed(kPropBase, 11, c));
    const std::size_t sources = 1 + rng.next_below(8);
    const std::size_t holders = 2 + rng.next_below(10);
    const std::size_t degree = 1 + rng.next_below(holders - 1);
    const std::vector<NodeId> ids = pick_holders(300, holders, rng);

    std::vector<crypto::feldman::Commitment> commitments;
    std::vector<field::Fp61> sums(holders);
    for (std::size_t s = 0; s < sources; ++s) {
      crypto::CtrDrbg drbg(
          crypto::derive_seed(kPropBase, 12, (c << 8) | s));
      const ShamirDealer dealer(rng.next_fp61(), degree, drbg);
      commitments.push_back(crypto::feldman::commit(dealer.polynomial()));
      for (std::size_t h = 0; h < holders; ++h) {
        sums[h] += dealer.share_for(ids[h]).value;
      }
    }
    std::vector<const crypto::feldman::Commitment*> parts;
    for (const auto& com : commitments) parts.push_back(&com);
    const crypto::feldman::Commitment combined =
        crypto::feldman::combine(parts);

    for (std::size_t h = 0; h < holders; ++h) {
      EXPECT_TRUE(crypto::feldman::verify_share(
          combined, public_point(ids[h]), sums[h]))
          << "case " << c << " holder " << h;
    }
    // One polluted sum at a random holder must break verification.
    const std::size_t victim = rng.next_below(holders);
    const field::Fp61 offset{1 + rng.next_below(field::Fp61::kModulus - 1)};
    EXPECT_FALSE(crypto::feldman::verify_share(
        combined, public_point(ids[victim]), sums[victim] + offset))
        << "case " << c;
  }
}

}  // namespace
}  // namespace mpciot::core
