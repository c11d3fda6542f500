// Random number generation.
//
// Two generators with distinct roles:
//  * `Xoshiro256` — fast statistical PRNG for the *simulator* (link fades,
//    topology jitter). Never used for secrets.
//  * `CtrDrbg` — AES-CTR based deterministic random bit generator used for
//    *secret* material (polynomial coefficients, keys). Deterministic by
//    design so experiments are reproducible; a deployment would seed it
//    from a hardware TRNG instead.
//
// Both expose uniform Fp61 sampling via rejection (no modulo bias).
#pragma once

#include <cstdint>

#include "crypto/aes128.hpp"
#include "field/fp61.hpp"

namespace mpciot::crypto {

/// splitmix64, used to expand a single 64-bit seed into generator state.
std::uint64_t splitmix64(std::uint64_t& state);

/// AES key from a 64-bit seed: two splitmix64 draws, each little-endian,
/// so every host derives the same key. Roots both KeyStore(seed) and
/// CtrDrbg(seed).
Aes128::Key key_from_seed(std::uint64_t seed);

/// Collision-free stream-seed derivation: mixes (base, stream_tag, index)
/// through three rounds of the splitmix64 finalizer. Use this wherever a
/// per-trial or per-stream RNG is seeded. Arithmetic derivations such as
/// `base + index` or `base * K + index` alias across sweeps — e.g.
/// (base, index+1) and (base+1, index) seed the *same* generator — which
/// silently correlates trials that should be independent. Distinct
/// (base, stream_tag, index) tuples map to distinct seeds except with
/// the ~2^-64 probability of a finalizer collision. `stream_tag`
/// domain-separates independent streams drawn from the same base seed
/// (sim channel vs. secrets vs. failure picks, ...).
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream_tag,
                          std::uint64_t index);

/// xoshiro256** — the simulator's statistical PRNG.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed);

  std::uint64_t next_u64();

  /// Uniform in [0, bound). Precondition: bound > 0. Rejection-sampled.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform field element (rejection from 61-bit draws).
  field::Fp61 next_fp61();

  /// Bernoulli(p).
  bool next_bool(double p);

  // UniformRandomBitGenerator interface (for std::shuffle etc.).
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return next_u64(); }

 private:
  std::uint64_t s_[4];
};

/// AES-CTR DRBG (simplified SP 800-90A shape: fixed key schedule per seed,
/// incrementing counter, no reseed interval — documented in DESIGN.md).
class CtrDrbg {
 public:
  /// Seed from 16 bytes of keying material plus a personalization string
  /// that separates independent streams (e.g. per node id).
  CtrDrbg(const Aes128::Key& seed_key, std::uint64_t personalization);

  /// Convenience: seed with key_from_seed(seed).
  explicit CtrDrbg(std::uint64_t seed, std::uint64_t personalization = 0);

  void fill(std::uint8_t* out, std::size_t len);
  std::uint64_t next_u64();
  std::uint64_t next_below(std::uint64_t bound);
  field::Fp61 next_fp61();

 private:
  Aes128 cipher_;
  Aes128::Block counter_{};
  Aes128::Block buffer_{};
  std::size_t buffered_ = 0;  // valid bytes remaining in buffer_ tail
};

}  // namespace mpciot::crypto
