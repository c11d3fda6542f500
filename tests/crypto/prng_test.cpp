#include "crypto/prng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/assert.hpp"
#include "common/hex.hpp"

namespace mpciot::crypto {
namespace {

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Xoshiro, NextBelowRespectsBound) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Xoshiro, NextBelowOneAlwaysZero) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Xoshiro, NextBelowZeroViolatesContract) {
  Xoshiro256 rng(9);
  EXPECT_THROW(rng.next_below(0), ContractViolation);
}

TEST(Xoshiro, NextDoubleInUnitInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, NextDoubleMeanIsRoughlyHalf) {
  Xoshiro256 rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Xoshiro, NextFp61InRange) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_fp61().value(), field::Fp61::kModulus);
  }
}

TEST(Xoshiro, NextBoolExtremes) {
  Xoshiro256 rng(19);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Xoshiro, NextBoolFrequencyTracksP) {
  Xoshiro256 rng(23);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Xoshiro, UniformBitsChiSquaredSane) {
  // Count set bits over many draws; expect ~50% with tight tolerance.
  Xoshiro256 rng(29);
  std::uint64_t ones = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    ones += static_cast<std::uint64_t>(__builtin_popcountll(rng.next_u64()));
  }
  const double frac = static_cast<double>(ones) / (64.0 * n);
  EXPECT_NEAR(frac, 0.5, 0.01);
}

TEST(Splitmix, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const std::uint64_t first = splitmix64(s);
  const std::uint64_t second = splitmix64(s);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), first);
  EXPECT_EQ(splitmix64(s2), second);
  EXPECT_NE(first, second);
}

TEST(CtrDrbg, DeterministicForSeedAndPersonalization) {
  CtrDrbg a(123, 7);
  CtrDrbg b(123, 7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(CtrDrbg, SeededStreamIsPinned) {
  // Known answer: dealers seeded alike must draw alike on every host.
  CtrDrbg drbg(0x0123456789ABCDEFull, 0x1122334455667788ull);
  std::uint8_t bytes[32];
  drbg.fill(bytes, sizeof bytes);
  EXPECT_EQ(to_hex(bytes), "c1f77b9432768cb26bd6397c9b929003"
                           "bc6564c937ec5bcd75c5d0608033b86f");
  // next_u64 reads the same keystream bytes little-endian.
  CtrDrbg again(0x0123456789ABCDEFull, 0x1122334455667788ull);
  EXPECT_EQ(again.next_u64(), 0xB28C7632947BF7C1ull);
}

TEST(CtrDrbg, PersonalizationSeparatesStreams) {
  CtrDrbg a(123, 1);
  CtrDrbg b(123, 2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(CtrDrbg, FillProducesRequestedBytes) {
  CtrDrbg drbg(5, 0);
  for (std::size_t len : {1u, 15u, 16u, 17u, 100u}) {
    std::vector<std::uint8_t> buf(len, 0);
    drbg.fill(buf.data(), buf.size());
    // Not all zeros (probability ~2^-8len).
    bool nonzero = false;
    for (auto b : buf) {
      if (b) nonzero = true;
    }
    EXPECT_TRUE(nonzero);
  }
}

TEST(CtrDrbg, UnalignedFillsMatchAlignedStream) {
  CtrDrbg a(99, 0);
  CtrDrbg b(99, 0);
  std::vector<std::uint8_t> joint(48);
  a.fill(joint.data(), joint.size());
  std::vector<std::uint8_t> pieces(48);
  b.fill(pieces.data(), 5);
  b.fill(pieces.data() + 5, 11);
  b.fill(pieces.data() + 16, 32);
  EXPECT_EQ(joint, pieces);
}

TEST(CtrDrbg, NextFp61InRange) {
  CtrDrbg drbg(31, 0);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LT(drbg.next_fp61().value(), field::Fp61::kModulus);
  }
}

TEST(CtrDrbg, NextBelowRespectsBound) {
  CtrDrbg drbg(37, 0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(drbg.next_below(97), 97u);
  }
}

TEST(DeriveSeed, Deterministic) {
  EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
}

TEST(DeriveSeed, EveryComponentSeparatesStreams) {
  const std::uint64_t base = derive_seed(10, 20, 30);
  EXPECT_NE(derive_seed(11, 20, 30), base);
  EXPECT_NE(derive_seed(10, 21, 30), base);
  EXPECT_NE(derive_seed(10, 20, 31), base);
}

TEST(DeriveSeed, ArithmeticAliasesDoNotCollide) {
  // The failure mode of base+index seeding: (S, t+1) and (S+1, t) alias.
  // derive_seed must keep all such tuples apart.
  for (std::uint64_t s = 1; s < 20; ++s) {
    for (std::uint64_t t = 0; t < 20; ++t) {
      EXPECT_NE(derive_seed(s, 0, t + 1), derive_seed(s + 1, 0, t));
      EXPECT_NE(derive_seed(s * 1000, 0, t), derive_seed(s, 0, t * 1000));
      // The `seed * 7919 + 13` flavour of aliasing, too.
      EXPECT_NE(derive_seed(s, 7919, t + 7919), derive_seed(s + 1, 7919, t));
    }
  }
}

TEST(DeriveSeed, NoCollisionsAcrossADenseSweepGrid) {
  // A bench sweep's worth of (seed, trial) tuples must produce unique
  // generator seeds (the birthday bound for 64-bit outputs is ~2^32, so
  // any collision here would indicate a structural flaw).
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 64; ++s) {
    for (std::uint64_t t = 0; t < 64; ++t) {
      EXPECT_TRUE(seen.insert(derive_seed(s, 42, t)).second)
          << "collision at seed=" << s << " trial=" << t;
    }
  }
  EXPECT_EQ(seen.size(), 64u * 64u);
}

}  // namespace
}  // namespace mpciot::crypto
