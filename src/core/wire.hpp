// Wire formats for the two SSS phases, with the real cryptography the
// paper specifies: sharing-phase packets are AES-128 protected (CTR
// encryption + truncated CMAC tag under the pairwise key), reconstruction
// packets travel in plaintext and carry no tag.
//
// Sizes drive the simulator's airtime, so the structs encode/decode to
// exact byte layouts (node ids are u16 on the wire — the hierarchical
// protocol runs deployments far beyond the 255-node ceiling u8 ids
// imposed). Every multi-byte field is serialized little-endian through
// common/bytes so the same frame decodes identically on heterogeneous
// hosts — a requirement now that the rt layer carries these packets
// over real sockets:
//
//   SharePacket (18 B):  src u16 | dst u16 | round u16 | ct u64 | tag u32
//   SumPacket   (21 B):  holder u16 | count u8 | round u16 | sum u64
//                        | contributors u64 (bitmap over the round's
//                          source list — lets reconstructors combine only
//                          sums over identical source sets, the condition
//                          for Lagrange interpolation to be meaningful
//                          when nodes fail mid-round)
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "crypto/aes_ctr.hpp"
#include "crypto/cmac.hpp"
#include "crypto/keystore.hpp"
#include "field/fp61.hpp"

namespace mpciot::core {

/// Encrypted share carried by one sharing-phase sub-slot.
struct SharePacket {
  static constexpr std::size_t kWireSize = 18;

  NodeId source = kInvalidNode;
  NodeId destination = kInvalidNode;
  std::uint16_t round = 0;
  field::Fp61 share;  // plaintext value (encrypted on the wire)

  /// Encrypt and serialize under the (source, destination) pairwise key.
  Bytes encode(const crypto::KeyStore& keys) const;

  /// As encode, reusing `wire`'s storage (allocation-free when warm).
  void encode_into(const crypto::KeyStore& keys, Bytes& wire) const;

  /// Parse + decrypt + authenticate. Returns nullopt on a size
  /// mismatch, out-of-range/self-addressed ids, a failed tag, or a
  /// non-canonical (>= p) share encoding.
  static std::optional<SharePacket> decode(const Bytes& wire,
                                           const crypto::KeyStore& keys);
};

/// Plaintext point-sum carried by one reconstruction-phase sub-slot.
struct SumPacket {
  static constexpr std::size_t kWireSize = 21;

  NodeId holder = kInvalidNode;
  /// Number of source contributions folded into `sum` (== popcount of
  /// `contributors`; kept explicit for cheap on-air filtering).
  std::uint8_t contribution_count = 0;
  std::uint16_t round = 0;
  field::Fp61 sum;
  /// Bit i set iff the i-th source of the round's schedule contributed.
  /// Limits a round to 64 sources — far above the 45-node testbeds.
  std::uint64_t contributors = 0;

  Bytes encode() const;
  /// As encode, reusing `wire`'s storage (allocation-free when warm).
  void encode_into(Bytes& wire) const;
  /// Returns nullopt on a size mismatch, a non-canonical (>= p) sum
  /// encoding, or a count that disagrees with the contributor bitmap.
  static std::optional<SumPacket> decode(const Bytes& wire);
};

}  // namespace mpciot::core
