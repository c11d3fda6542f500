#include "crypto/aes_ctr.hpp"

#include <array>
#include <cstring>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace mpciot::crypto {

namespace {
void increment_be(Aes128::Block& ctr) {
  for (std::size_t i = ctr.size(); i-- > 0;) {
    if (++ctr[i] != 0) break;
  }
}
}  // namespace

void AesCtr::crypt(const Nonce& nonce, std::span<const std::uint8_t> data,
                   std::span<std::uint8_t> out) const {
  MPCIOT_REQUIRE(out.size() >= data.size(), "AesCtr: output too small");
  // Materialise a batch of counter blocks and push them through the
  // cipher in one encrypt_blocks call (8-wide AES-NI interleave when
  // available). CTR's counters are known upfront — the mode has no
  // feedback — so batching changes nothing about the keystream: same
  // per-block big-endian increment, same bytes out.
  constexpr std::size_t kBatchBlocks = 8;
  std::array<std::uint8_t, kBatchBlocks * Aes128::kBlockSize> counters;
  std::array<std::uint8_t, kBatchBlocks * Aes128::kBlockSize> keystream;
  Aes128::Block counter = nonce;
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t want = data.size() - off;
    const std::size_t nblocks = std::min<std::size_t>(
        kBatchBlocks, (want + Aes128::kBlockSize - 1) / Aes128::kBlockSize);
    for (std::size_t b = 0; b < nblocks; ++b) {
      std::memcpy(counters.data() + Aes128::kBlockSize * b, counter.data(),
                  Aes128::kBlockSize);
      increment_be(counter);
    }
    cipher_.encrypt_blocks(counters.data(), keystream.data(), nblocks);
    const std::size_t chunk =
        std::min<std::size_t>(nblocks * Aes128::kBlockSize, want);
    for (std::size_t i = 0; i < chunk; ++i) {
      out[off + i] = static_cast<std::uint8_t>(data[off + i] ^ keystream[i]);
    }
    off += chunk;
  }
}

std::vector<std::uint8_t> AesCtr::crypt(
    const Nonce& nonce, std::span<const std::uint8_t> data) const {
  std::vector<std::uint8_t> out(data.size());
  crypt(nonce, data, out);
  return out;
}

AesCtr::Nonce AesCtr::make_nonce(std::uint32_t sender, std::uint32_t receiver,
                                 std::uint32_t round, std::uint32_t sequence) {
  Nonce n{};
  store_be(n.data() + 0, sender);
  store_be(n.data() + 4, receiver);
  store_be(n.data() + 8, round);
  store_be(n.data() + 12, sequence);
  return n;
}

}  // namespace mpciot::crypto
