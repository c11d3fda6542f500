#include "crypto/prng.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace mpciot::crypto {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream_tag,
                          std::uint64_t index) {
  std::uint64_t state = base;
  state = splitmix64(state) ^ stream_tag;
  state = splitmix64(state) ^ index;
  return splitmix64(state);
}

Aes128::Key key_from_seed(std::uint64_t seed) {
  Aes128::Key key{};
  std::uint64_t sm = seed;
  store_le(key.data(), splitmix64(sm));
  store_le(key.data() + 8, splitmix64(sm));
  return key;
}

namespace {
std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Xoshiro256::next_u64() {
  const std::uint64_t result = rotl64(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl64(s_[3], 45);
  return result;
}

std::uint64_t Xoshiro256::next_below(std::uint64_t bound) {
  MPCIOT_REQUIRE(bound > 0, "next_below: bound must be positive");
  // Rejection sampling over the largest multiple of bound.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

double Xoshiro256::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

field::Fp61 Xoshiro256::next_fp61() {
  // Draw 61 bits; reject the single out-of-range value p (= 2^61 - 1).
  std::uint64_t v;
  do {
    v = next_u64() >> 3;
  } while (v >= field::Fp61::kModulus);
  return field::Fp61{v};
}

bool Xoshiro256::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

CtrDrbg::CtrDrbg(const Aes128::Key& seed_key, std::uint64_t personalization)
    : cipher_(seed_key) {
  store_be(counter_.data(), personalization);
}

CtrDrbg::CtrDrbg(std::uint64_t seed, std::uint64_t personalization)
    : CtrDrbg(key_from_seed(seed), personalization) {}

void CtrDrbg::fill(std::uint8_t* out, std::size_t len) {
  while (len > 0) {
    if (buffered_ == 0 && len >= Aes128::kBlockSize) {
      // Bulk path: write whole keystream blocks straight into `out`,
      // batched through encrypt_blocks (8-wide AES-NI interleave when
      // available). Same counter sequence and same bytes as the
      // one-block path below — only the staging buffer is skipped.
      constexpr std::size_t kBatchBlocks = 8;
      std::uint8_t counters[kBatchBlocks * Aes128::kBlockSize];
      const std::size_t nblocks =
          std::min<std::size_t>(kBatchBlocks, len / Aes128::kBlockSize);
      for (std::size_t b = 0; b < nblocks; ++b) {
        std::memcpy(counters + Aes128::kBlockSize * b, counter_.data(),
                    counter_.size());
        for (std::size_t i = counter_.size(); i-- > 8;) {
          if (++counter_[i] != 0) break;
        }
      }
      cipher_.encrypt_blocks(counters, out, nblocks);
      out += nblocks * Aes128::kBlockSize;
      len -= nblocks * Aes128::kBlockSize;
      continue;
    }
    if (buffered_ == 0) {
      // Encrypt the counter block, then bump the low 64 bits.
      buffer_ = cipher_.encrypt_block(counter_);
      for (std::size_t i = counter_.size(); i-- > 8;) {
        if (++counter_[i] != 0) break;
      }
      buffered_ = buffer_.size();
    }
    const std::size_t take = std::min(len, buffered_);
    const std::size_t offset = buffer_.size() - buffered_;
    std::memcpy(out, buffer_.data() + offset, take);
    buffered_ -= take;
    out += take;
    len -= take;
  }
}

std::uint64_t CtrDrbg::next_u64() {
  std::uint8_t bytes[8];
  fill(bytes, sizeof bytes);
  // Heterogeneous hosts seeded identically must draw identical u64s, or
  // distributed dealers would disagree with the simulator.
  return load_le<std::uint64_t>(bytes);
}

std::uint64_t CtrDrbg::next_below(std::uint64_t bound) {
  MPCIOT_REQUIRE(bound > 0, "next_below: bound must be positive");
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

field::Fp61 CtrDrbg::next_fp61() {
  std::uint64_t v;
  do {
    v = next_u64() >> 3;
  } while (v >= field::Fp61::kModulus);
  return field::Fp61{v};
}

}  // namespace mpciot::crypto
