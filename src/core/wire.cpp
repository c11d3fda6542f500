#include "core/wire.hpp"

#include <bit>
#include <cstring>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace mpciot::core {

Bytes SharePacket::encode(const crypto::KeyStore& keys) const {
  Bytes wire;
  encode_into(keys, wire);
  return wire;
}

void SharePacket::encode_into(const crypto::KeyStore& keys,
                              Bytes& wire) const {
  MPCIOT_REQUIRE(source != destination,
                 "SharePacket: self-shares do not travel on air");
  MPCIOT_REQUIRE(source <= 0xFFFF && destination <= 0xFFFF,
                 "SharePacket: node ids are u16 on the wire");
  wire.assign(kWireSize, 0);
  store_le(wire.data(), static_cast<std::uint16_t>(source));
  store_le(wire.data() + 2, static_cast<std::uint16_t>(destination));
  store_le(wire.data() + 4, round);

  // Encrypt the 8-byte share value with AES-CTR under the pairwise key.
  const auto key = keys.pairwise_key(source, destination);
  const crypto::AesCtr ctr(key);
  std::uint8_t plain[8];
  store_le(plain, share.value());
  const auto nonce = crypto::AesCtr::make_nonce(source, destination, round,
                                                /*sequence=*/0);
  ctr.crypt(nonce, std::span<const std::uint8_t>{plain, 8},
            std::span<std::uint8_t>{wire.data() + 6, 8});

  // Truncated CMAC over header + ciphertext.
  const crypto::Cmac mac(key);
  const auto tag =
      mac.compute(std::span<const std::uint8_t>{wire.data(), 14});
  std::memcpy(wire.data() + 14, tag.data(), 4);
}

std::optional<SharePacket> SharePacket::decode(const Bytes& wire,
                                               const crypto::KeyStore& keys) {
  if (wire.size() != kWireSize) return std::nullopt;
  SharePacket pkt;
  pkt.source = load_le<std::uint16_t>(wire.data());
  pkt.destination = load_le<std::uint16_t>(wire.data() + 2);
  pkt.round = load_le<std::uint16_t>(wire.data() + 4);
  if (pkt.source == pkt.destination) return std::nullopt;
  if (pkt.source >= keys.node_count() || pkt.destination >= keys.node_count()) {
    return std::nullopt;
  }

  const auto key = keys.pairwise_key(pkt.source, pkt.destination);
  const crypto::Cmac mac(key);
  const auto tag =
      mac.compute(std::span<const std::uint8_t>{wire.data(), 14});
  crypto::Cmac::Tag sent{};
  std::memcpy(sent.data(), wire.data() + 14, 4);
  crypto::Cmac::Tag expect{};
  std::memcpy(expect.data(), tag.data(), 4);
  if (!crypto::Cmac::verify(sent, expect)) return std::nullopt;

  const crypto::AesCtr ctr(key);
  std::uint8_t plain[8];
  const auto nonce = crypto::AesCtr::make_nonce(pkt.source, pkt.destination,
                                                pkt.round, /*sequence=*/0);
  ctr.crypt(nonce, std::span<const std::uint8_t>{wire.data() + 6, 8},
            std::span<std::uint8_t>{plain, 8});
  // Canonical field encoding only: Fp61's constructor would silently
  // reduce an out-of-range word, letting a non-canonical encoding alias
  // a legitimate share (the truncated tag makes forgery cheap enough
  // that defense in depth here is warranted).
  const auto share_raw = load_le<std::uint64_t>(plain);
  if (share_raw >= field::Fp61::kModulus) return std::nullopt;
  pkt.share = field::Fp61{share_raw};
  return pkt;
}

Bytes SumPacket::encode() const {
  Bytes wire;
  encode_into(wire);
  return wire;
}

void SumPacket::encode_into(Bytes& wire) const {
  MPCIOT_REQUIRE(holder <= 0xFFFF, "SumPacket: node ids are u16 on the wire");
  wire.assign(kWireSize, 0);
  store_le(wire.data(), static_cast<std::uint16_t>(holder));
  wire[2] = contribution_count;
  store_le(wire.data() + 3, round);
  store_le(wire.data() + 5, sum.value());
  store_le(wire.data() + 13, contributors);
}

std::optional<SumPacket> SumPacket::decode(const Bytes& wire) {
  if (wire.size() != kWireSize) return std::nullopt;
  SumPacket pkt;
  pkt.holder = load_le<std::uint16_t>(wire.data());
  pkt.contribution_count = wire[2];
  pkt.round = load_le<std::uint16_t>(wire.data() + 3);
  // SumPackets travel in plaintext, so internal consistency is the only
  // line of defense: the sum must be a canonical field encoding and the
  // explicit count must match the bitmap it summarizes.
  const auto sum_raw = load_le<std::uint64_t>(wire.data() + 5);
  if (sum_raw >= field::Fp61::kModulus) return std::nullopt;
  pkt.sum = field::Fp61{sum_raw};
  pkt.contributors = load_le<std::uint64_t>(wire.data() + 13);
  if (pkt.contribution_count !=
      static_cast<std::uint8_t>(std::popcount(pkt.contributors))) {
    return std::nullopt;
  }
  return pkt;
}

}  // namespace mpciot::core
