// Pairwise key pre-distribution.
//
// The paper assumes pairwise AES keys are "already shared with the
// destination node during the bootstrapping phase". We model the standard
// way a deployment tool provisions such keys: every pair (i, j) gets
// K_{i,j} = CMAC(master, min(i,j) || max(i,j) || "pairwise"), so the key
// is symmetric in the pair, derivable offline, and compromise of one node
// reveals only that node's O(n) keys.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "crypto/aes128.hpp"
#include "crypto/cmac.hpp"

namespace mpciot::crypto {

class KeyStore {
 public:
  /// Create a keystore rooted at `master_key` for `node_count` nodes.
  KeyStore(const Aes128::Key& master_key, std::uint32_t node_count);

  /// Root at key_from_seed(deployment_seed) (test/simulation convenience).
  KeyStore(std::uint64_t deployment_seed, std::uint32_t node_count);

  std::uint32_t node_count() const { return node_count_; }

  /// Pairwise key shared by nodes a and b. Symmetric: key(a,b)==key(b,a).
  /// Precondition: a != b, both < node_count.
  Aes128::Key pairwise_key(NodeId a, NodeId b) const;

 private:
  Cmac kdf_;
  std::uint32_t node_count_;
};

}  // namespace mpciot::crypto
