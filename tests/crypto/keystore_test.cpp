#include "crypto/keystore.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/assert.hpp"
#include "common/hex.hpp"

namespace mpciot::crypto {
namespace {

TEST(KeyStore, PairwiseKeyIsSymmetric) {
  const KeyStore ks(1234, 10);
  for (NodeId a = 0; a < 10; ++a) {
    for (NodeId b = 0; b < 10; ++b) {
      if (a == b) continue;
      EXPECT_EQ(ks.pairwise_key(a, b), ks.pairwise_key(b, a));
    }
  }
}

TEST(KeyStore, PairwiseKeysAreDistinctAcrossPairs) {
  const KeyStore ks(1234, 12);
  std::set<Aes128::Key> keys;
  for (NodeId a = 0; a < 12; ++a) {
    for (NodeId b = a + 1; b < 12; ++b) {
      keys.insert(ks.pairwise_key(a, b));
    }
  }
  EXPECT_EQ(keys.size(), 12u * 11u / 2u);
}

TEST(KeyStore, SeededPairwiseKeyIsPinned) {
  // Known answer for the seed -> master key -> pairwise KDF chain, so
  // every rt node and simulated dealer derives the same keys on any host.
  const KeyStore ks(0x0123456789ABCDEFull, 8);
  EXPECT_EQ(to_hex(ks.pairwise_key(5, 2)), "53d7be6737c3e5a9d5484bb90169cd25");
}

TEST(KeyStore, SelfPairViolatesContract) {
  const KeyStore ks(1, 4);
  EXPECT_THROW(ks.pairwise_key(2, 2), ContractViolation);
}

TEST(KeyStore, OutOfRangeViolatesContract) {
  const KeyStore ks(1, 4);
  EXPECT_THROW(ks.pairwise_key(0, 4), ContractViolation);
}

TEST(KeyStore, DifferentDeploymentSeedsGiveDifferentKeys) {
  const KeyStore a(1, 4);
  const KeyStore b(2, 4);
  EXPECT_NE(a.pairwise_key(0, 1), b.pairwise_key(0, 1));
}

TEST(KeyStore, SameSeedReproducesKeys) {
  const KeyStore a(77, 4);
  const KeyStore b(77, 4);
  EXPECT_EQ(a.pairwise_key(1, 3), b.pairwise_key(1, 3));
}

TEST(KeyStore, RequiresAtLeastTwoNodes) {
  EXPECT_THROW(KeyStore(1, 1), ContractViolation);
}

}  // namespace
}  // namespace mpciot::crypto
