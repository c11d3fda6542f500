// Feldman VSS commitments: group sanity against externally computed
// vectors, then derive_seed-keyed property sweeps over the laws the
// protocol's cheater detection stands on — every honest share verifies,
// every single-field tamper (share value, evaluation point, commitment
// coefficient) is caught, and commitments combine homomorphically so
// aggregated point-sums verify against the product commitment.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/hex.hpp"
#include "core/shamir.hpp"
#include "crypto/feldman.hpp"
#include "crypto/prng.hpp"
#include "field/fp61.hpp"
#include "field/polynomial.hpp"

namespace mpciot::crypto::feldman {
namespace {

using field::Fp61;
using field::Polynomial;

constexpr std::uint64_t kBase = 0x46454C44ull;  // "FELD"

constexpr GroupElement kIdentity{0, 1};

Polynomial random_poly(Fp61 secret, std::size_t degree, Xoshiro256& rng) {
  return Polynomial::random_with_secret(secret, degree,
                                        [&] { return rng.next_fp61(); });
}

TEST(FeldmanGroup, GeneratorHasOrderExactlyP) {
  const GroupElement g = generator();
  EXPECT_NE(g, kIdentity);
  EXPECT_TRUE(in_group(g));
  EXPECT_EQ(pow(g, Fp61::kModulus), kIdentity);
  // Order p is prime, so any power g^e with e != 0 mod p is not 1.
  EXPECT_NE(pow(g, 1), kIdentity);
  EXPECT_NE(pow(g, Fp61::kModulus - 1), kIdentity);
}

TEST(FeldmanGroup, MatchesExternallyComputedVectors) {
  // Computed independently with arbitrary-precision integers:
  // q = 73786976294838206446 * (2^61 - 1) + 1, g = 2^h mod q.
  const GroupElement c0{0x38a2f0aa4e699d2bull, 0x285085a83d2d50d2ull};
  const GroupElement c1{0x57cc13be910c9b62ull, 0x02d84138efcabf56ull};
  EXPECT_EQ(power_of_g(Fp61{5}), c0);
  EXPECT_EQ(power_of_g(Fp61{7}), c1);
  const GroupElement g26{0x1190f8167701526eull, 0x22df8742177fa6f4ull};
  EXPECT_EQ(power_of_g(Fp61{26}), g26);
  // The commitment identity for P(x) = 5 + 7x at x = 3: P(3) = 26.
  EXPECT_EQ(mul(c0, pow(c1, 3)), g26);
}

TEST(FeldmanGroup, ExponentLawsHoldOnRandomInputs) {
  constexpr int kCases = 600;
  for (int c = 0; c < kCases; ++c) {
    Xoshiro256 rng(derive_seed(kBase, 1, c));
    const Fp61 a = rng.next_fp61();
    const Fp61 b = rng.next_fp61();
    const GroupElement ga = power_of_g(a);
    const GroupElement gb = power_of_g(b);
    EXPECT_TRUE(in_group(ga));
    // g^a * g^b == g^{a+b} (exponents add in Fp61: the group has order p).
    EXPECT_EQ(mul(ga, gb), power_of_g(a + b)) << "case " << c;
    EXPECT_EQ(mul(ga, gb), mul(gb, ga)) << "case " << c;
    // (g^a)^e == g^{a*e mod p}.
    const std::uint64_t e = rng.next_below(1u << 20);
    EXPECT_EQ(pow(ga, e), power_of_g(a * Fp61{e})) << "case " << c;
  }
}

TEST(FeldmanProperty, EveryHonestShareVerifies) {
  constexpr int kCases = 800;
  for (int c = 0; c < kCases; ++c) {
    Xoshiro256 rng(derive_seed(kBase, 2, c));
    const std::size_t degree = 1 + rng.next_below(12);
    const Polynomial poly = random_poly(rng.next_fp61(), degree, rng);
    const Commitment com = commit(poly);
    ASSERT_EQ(com.elements.size(), degree + 1);
    // A random holder subset out of a sparse id universe.
    const std::size_t holders = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < holders; ++i) {
      const NodeId holder =
          static_cast<NodeId>(rng.next_below(1000));
      const Fp61 x = core::public_point(holder);
      EXPECT_TRUE(verify_share(com, x, poly.evaluate(x)))
          << "case " << c << " holder " << holder;
    }
  }
}

TEST(FeldmanProperty, TamperedShareValueIsDetected) {
  constexpr int kCases = 800;
  for (int c = 0; c < kCases; ++c) {
    Xoshiro256 rng(derive_seed(kBase, 3, c));
    const std::size_t degree = 1 + rng.next_below(10);
    const Polynomial poly = random_poly(rng.next_fp61(), degree, rng);
    const Commitment com = commit(poly);
    const Fp61 x = core::public_point(
        static_cast<NodeId>(rng.next_below(500)));
    // Any nonzero additive offset moves the share off the polynomial.
    const Fp61 delta{1 + rng.next_below(Fp61::kModulus - 1)};
    EXPECT_FALSE(verify_share(com, x, poly.evaluate(x) + delta))
        << "case " << c;
  }
}

TEST(FeldmanProperty, ShareAtWrongIndexIsDetected) {
  constexpr int kCases = 600;
  for (int c = 0; c < kCases; ++c) {
    Xoshiro256 rng(derive_seed(kBase, 4, c));
    const std::size_t degree = 1 + rng.next_below(10);
    const Polynomial poly = random_poly(rng.next_fp61(), degree, rng);
    const Commitment com = commit(poly);
    const NodeId holder =
        static_cast<NodeId>(rng.next_below(500));
    const NodeId other =
        static_cast<NodeId>(501 + rng.next_below(500));
    // Replaying holder A's share as holder B's fails B's check unless the
    // polynomial takes the same value at both points — excluded below.
    const Fp61 xa = core::public_point(holder);
    const Fp61 xb = core::public_point(other);
    if (poly.evaluate(xa) == poly.evaluate(xb)) continue;
    EXPECT_FALSE(verify_share(com, xb, poly.evaluate(xa))) << "case " << c;
  }
}

TEST(FeldmanProperty, TamperedCommitmentCoefficientIsDetected) {
  constexpr int kCases = 600;
  for (int c = 0; c < kCases; ++c) {
    Xoshiro256 rng(derive_seed(kBase, 5, c));
    const std::size_t degree = 1 + rng.next_below(10);
    const Polynomial poly = random_poly(rng.next_fp61(), degree, rng);
    Commitment com = commit(poly);
    const Fp61 x = core::public_point(
        static_cast<NodeId>(rng.next_below(500)));
    const Fp61 share = poly.evaluate(x);
    ASSERT_TRUE(verify_share(com, x, share));
    // Multiply one coefficient commitment by g^d (d != 0): the product
    // side moves by g^{d * x^j} != 1, so verification must fail.
    const std::size_t j = rng.next_below(com.elements.size());
    const Fp61 d{1 + rng.next_below(Fp61::kModulus - 1)};
    com.elements[j] = mul(com.elements[j], power_of_g(d));
    EXPECT_FALSE(verify_share(com, x, share)) << "case " << c << " j " << j;
  }
}

TEST(FeldmanProperty, CombinedCommitmentVerifiesAggregatedSums) {
  constexpr int kCases = 250;
  for (int c = 0; c < kCases; ++c) {
    Xoshiro256 rng(derive_seed(kBase, 6, c));
    const std::size_t degree = 1 + rng.next_below(8);
    const std::size_t dealers = 2 + rng.next_below(6);
    std::vector<Polynomial> polys;
    std::vector<Commitment> coms;
    for (std::size_t d = 0; d < dealers; ++d) {
      polys.push_back(random_poly(rng.next_fp61(), degree, rng));
      coms.push_back(commit(polys.back()));
    }
    std::vector<const Commitment*> parts;
    for (const Commitment& com : coms) parts.push_back(&com);
    const Commitment sum_com = combine(parts);

    const Fp61 x = core::public_point(
        static_cast<NodeId>(rng.next_below(200)));
    Fp61 sum;
    for (const Polynomial& poly : polys) sum += poly.evaluate(x);
    EXPECT_TRUE(verify_share(sum_com, x, sum)) << "case " << c;
    EXPECT_FALSE(verify_share(sum_com, x, sum + Fp61{1})) << "case " << c;
  }
}

TEST(FeldmanWire, SerializeRoundTripsAndSizesMatch) {
  for (int c = 0; c < 50; ++c) {
    Xoshiro256 rng(derive_seed(kBase, 7, c));
    const std::size_t degree = 1 + rng.next_below(10);
    const Commitment com = commit(random_poly(rng.next_fp61(), degree, rng));
    EXPECT_EQ(com.wire_size(), (degree + 1) * Commitment::kElementBytes);
    const std::vector<std::uint8_t> wire = serialize(com);
    ASSERT_EQ(wire.size(), com.wire_size());
    EXPECT_EQ(deserialize(wire.data(), wire.size()), com);
  }
  // Known answer: each element is its hi then lo word, big-endian.
  const Commitment fixed =
      commit(Polynomial(std::vector<Fp61>{Fp61{7}, Fp61{11}}));
  const char* hex =
      "57cc13be910c9b6202d84138efcabf56"   // C_0 = g^7
      "02a4e00228f2d4bc6af79b9045c0448b";  // C_1 = g^11
  EXPECT_EQ(to_hex(serialize(fixed)), hex);
  const std::vector<std::uint8_t> wire = from_hex(hex);
  EXPECT_EQ(deserialize(wire.data(), wire.size()), fixed);
}

TEST(FeldmanWire, DeserializeRejectsMalformedInput) {
  Xoshiro256 rng(derive_seed(kBase, 8, 0));
  const Commitment com = commit(random_poly(Fp61{42}, 3, rng));
  std::vector<std::uint8_t> wire = serialize(com);

  // Truncation off the element boundary.
  EXPECT_TRUE(deserialize(wire.data(), wire.size() - 1).elements.empty());
  EXPECT_TRUE(deserialize(wire.data(), 0).elements.empty());

  // Element outside the subgroup: the value 2 generates a different
  // subgroup of Z_q^* (2^p != 1 mod q — verified externally).
  std::vector<std::uint8_t> bad = wire;
  for (std::size_t i = 0; i < Commitment::kElementBytes; ++i) bad[i] = 0;
  bad[Commitment::kElementBytes - 1] = 2;
  EXPECT_TRUE(deserialize(bad.data(), bad.size()).elements.empty());

  // The zero word is never a group element.
  bad[Commitment::kElementBytes - 1] = 0;
  EXPECT_TRUE(deserialize(bad.data(), bad.size()).elements.empty());

  // Out-of-range value >= q (all-ones is > q since q < 2^127).
  std::vector<std::uint8_t> big = wire;
  for (std::size_t i = 0; i < Commitment::kElementBytes; ++i) big[i] = 0xFF;
  EXPECT_TRUE(deserialize(big.data(), big.size()).elements.empty());
}

TEST(FeldmanShamir, VerifiesDealerSharesEndToEnd) {
  // The exact arrangement the protocol uses: a ShamirDealer's polynomial
  // committed with commit(), shares checked at public_point(holder).
  for (int c = 0; c < 40; ++c) {
    CtrDrbg drbg(derive_seed(kBase, 9, c));
    const Fp61 secret{static_cast<std::uint64_t>(c) * 1000003ull};
    const std::size_t degree = 1 + static_cast<std::size_t>(c % 9);
    const core::ShamirDealer dealer(secret, degree, drbg);
    const Commitment com = commit(dealer.polynomial());
    for (NodeId h = 0; h < 20; ++h) {
      const core::Share s = dealer.share_for(h);
      EXPECT_TRUE(verify_share(com, core::public_point(h), s.value));
    }
    // The constant-term commitment is g^secret: binding to the secret.
    EXPECT_EQ(com.elements.front(), power_of_g(secret));
  }
}

}  // namespace
}  // namespace mpciot::crypto::feldman
