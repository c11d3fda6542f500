#include "crypto/keystore.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "crypto/prng.hpp"

namespace mpciot::crypto {

KeyStore::KeyStore(const Aes128::Key& master_key, std::uint32_t node_count)
    : kdf_(master_key), node_count_(node_count) {
  MPCIOT_REQUIRE(node_count >= 2, "KeyStore: need at least two nodes");
}

KeyStore::KeyStore(std::uint64_t deployment_seed, std::uint32_t node_count)
    : KeyStore(key_from_seed(deployment_seed), node_count) {}

Aes128::Key KeyStore::pairwise_key(NodeId a, NodeId b) const {
  MPCIOT_REQUIRE(a != b, "KeyStore: pairwise key of a node with itself");
  MPCIOT_REQUIRE(a < node_count_ && b < node_count_,
                 "KeyStore: node id out of range");
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  std::uint8_t msg[16] = {};
  store_be(msg + 0, lo);
  store_be(msg + 4, hi);
  std::memcpy(msg + 8, "pairwise", 8);
  return kdf_.compute(std::span<const std::uint8_t>{msg, sizeof msg});
}

}  // namespace mpciot::crypto
