// Shamir Secret Sharing over a small runtime prime field.
//
// The default protocol shares Fp61 values (8-byte shares). Real IoT
// payloads are often 16-bit sensor readings; sharing them over
// GF(65521) makes every share exactly 2 bytes on air, shrinking the
// sharing-phase sub-slot and therefore the whole round (airtime is the
// currency of CT protocols). The trade-offs:
//   * the aggregate is computed mod p, so the sum of all inputs must
//     stay below p (65521) — fine for mean-style aggregates with
//     bounded inputs, caller's responsibility to range-check;
//   * 2-byte shares leak nothing extra (the scheme is still perfectly
//     hiding below the threshold — field size only bounds payload).
// The payload_size bench scenario quantifies the airtime win.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "crypto/prng.hpp"
#include "field/prime_field.hpp"

namespace mpciot::core {

/// A share of a small-field sharing: holder + field value (< p).
struct SmallShare {
  NodeId holder = kInvalidNode;
  std::uint64_t value = 0;
};

/// Dealer for one secret over GF(p), p < 2^32. The field must outlive
/// the dealer.
class SmallShamirDealer {
 public:
  /// Precondition: 1 <= degree, secret < p, degree + 1 < p (need that
  /// many distinct non-zero points).
  SmallShamirDealer(const field::PrimeField& fieldd, std::uint64_t secret,
                    std::size_t degree, crypto::CtrDrbg& drbg);

  SmallShare share_for(NodeId holder) const;
  std::size_t degree() const { return coeffs_.size() - 1; }
  const field::PrimeField& field() const { return *field_; }

 private:
  const field::PrimeField* field_;
  std::vector<std::uint64_t> coeffs_;  // low-degree first; [0] = secret
};

/// Reconstruct the secret from >= degree+1 shares at distinct holders.
std::uint64_t small_reconstruct(const field::PrimeField& fieldd,
                                const std::vector<SmallShare>& shares,
                                std::size_t degree);

/// Wire size of one share in bytes (ceil(bits(p)/8)) — what a deployment
/// would put in the sub-slot payload.
std::size_t small_share_bytes(const field::PrimeField& fieldd);

}  // namespace mpciot::core
