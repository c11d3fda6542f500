// Paillier additively-homomorphic encryption.
//
// This is the computation-intensive PPDA baseline the paper's introduction
// argues is unsuitable for IoT-class hardware. We implement the standard
// scheme with g = n + 1:
//   KeyGen: n = p*q, lambda = lcm(p-1, q-1), mu = lambda^-1 mod n
//   Enc(m; r) = (1 + m*n) * r^n mod n^2
//   Dec(c)    = L(c^lambda mod n^2) * mu mod n,  L(x) = (x-1)/n
//   Add(c1,c2) = c1*c2 mod n^2  (ciphertext product = plaintext sum)
//
// Key sizes here (256-2048 bit n) are a *benchmark knob*, not a security
// recommendation; the he_vs_mpc bench scenario sweeps them to chart the
// compute gap versus Shamir shares.
#pragma once

#include <cstdint>

#include "crypto/bigint.hpp"
#include "crypto/prng.hpp"

namespace mpciot::crypto {

struct PaillierPublicKey {
  BigInt n;
  BigInt n_squared;
};

struct PaillierPrivateKey {
  BigInt lambda;
  BigInt mu;
};

struct PaillierKeyPair {
  PaillierPublicKey pub;
  PaillierPrivateKey priv;
};

class Paillier {
 public:
  /// Generate a key pair with an n of roughly `modulus_bits` bits.
  /// Precondition: modulus_bits >= 64 and even.
  static PaillierKeyPair generate(std::size_t modulus_bits, Xoshiro256& rng);

  /// Encrypt m (< n) under pub with fresh randomness from rng.
  static BigInt encrypt(const PaillierPublicKey& pub, const BigInt& m,
                        Xoshiro256& rng);

  /// Decrypt a ciphertext.
  static BigInt decrypt(const PaillierPublicKey& pub,
                        const PaillierPrivateKey& priv, const BigInt& c);

  /// Homomorphic addition: Dec(add(c1, c2)) == Dec(c1) + Dec(c2) mod n.
  static BigInt add(const PaillierPublicKey& pub, const BigInt& c1,
                    const BigInt& c2);

  /// Homomorphic scalar multiply: Dec(scale(c, k)) == k * Dec(c) mod n.
  static BigInt scale(const PaillierPublicKey& pub, const BigInt& c,
                      const BigInt& k);
};

}  // namespace mpciot::crypto
