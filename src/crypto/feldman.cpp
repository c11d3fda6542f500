#include "crypto/feldman.hpp"

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace mpciot::crypto::feldman {

namespace {

using u128 = unsigned __int128;

constexpr u128 make_u128(std::uint64_t hi, std::uint64_t lo) {
  return (static_cast<u128>(hi) << 64) | lo;
}

// q = h * p + 1 for p = 2^61 - 1 and cofactor h = 73786976294838206446:
// the largest 127-bit prime with p | q - 1, found by descending even h
// from floor((2^127 - 1) / p). All remaining constants derive from it.
constexpr u128 kQ =
    make_u128(0x7ffffffffffffff9ull, 0xc000000000000013ull);
// g = 2^h mod q: order exactly p (g != 1, g^p == 1).
constexpr u128 kG =
    make_u128(0x7c9284355f8078f1ull, 0x4db63a7d75ead392ull);
// Montgomery constants for R = 2^128: -q^{-1} mod R, R^2 mod q, R mod q.
constexpr u128 kQInv =
    make_u128(0x7b41f33c46ea0441ull, 0x39435e50d79435e5ull);
constexpr u128 kR2 =
    make_u128(0x40000000000003e7ull, 0xffffffffffffee7cull);
constexpr u128 kOneMont =
    make_u128(0x000000000000000cull, 0x7fffffffffffffdaull);

/// Full 128x128 -> 256 bit product via 64-bit limbs.
void mul_wide(u128 a, u128 b, u128& hi, u128& lo) {
  const u128 a0 = static_cast<std::uint64_t>(a);
  const u128 a1 = a >> 64;
  const u128 b0 = static_cast<std::uint64_t>(b);
  const u128 b1 = b >> 64;
  const u128 ll = a0 * b0;
  const u128 lh = a0 * b1;
  const u128 hl = a1 * b0;
  const u128 mid = (ll >> 64) + static_cast<std::uint64_t>(lh) +
                   static_cast<std::uint64_t>(hl);
  lo = (mid << 64) | static_cast<std::uint64_t>(ll);
  hi = a1 * b1 + (lh >> 64) + (hl >> 64) + (mid >> 64);
}

/// Montgomery product abR^{-1} mod q for a, b < q in Montgomery form.
u128 mont_mul(u128 a, u128 b) {
  u128 t_hi;
  u128 t_lo;
  mul_wide(a, b, t_hi, t_lo);
  const u128 m = t_lo * kQInv;  // wraps mod 2^128 by design
  u128 mq_hi;
  u128 mq_lo;
  mul_wide(m, kQ, mq_hi, mq_lo);
  const u128 s = t_lo + mq_lo;  // always 0 mod 2^128; keep the carry
  u128 u = t_hi + mq_hi + (s < t_lo ? 1 : 0);
  if (u >= kQ) u -= kQ;
  return u;
}

u128 to_mont(u128 x) { return mont_mul(x, kR2); }
u128 from_mont(u128 x) { return mont_mul(x, 1); }

/// a^e mod q (a in Montgomery form, result in Montgomery form).
u128 mont_pow(u128 a, std::uint64_t e) {
  u128 acc = kOneMont;
  u128 base = a;
  while (e != 0) {
    if (e & 1) acc = mont_mul(acc, base);
    base = mont_mul(base, base);
    e >>= 1;
  }
  return acc;
}

u128 unpack(const GroupElement& v) { return make_u128(v.hi, v.lo); }

GroupElement pack(u128 v) {
  return GroupElement{static_cast<std::uint64_t>(v >> 64),
                      static_cast<std::uint64_t>(v)};
}

const u128 kGMont = to_mont(kG);

}  // namespace

GroupElement generator() { return pack(kG); }

GroupElement power_of_g(field::Fp61 e) {
  return pack(from_mont(mont_pow(kGMont, e.value())));
}

GroupElement mul(const GroupElement& a, const GroupElement& b) {
  return pack(from_mont(mont_mul(to_mont(unpack(a)), to_mont(unpack(b)))));
}

GroupElement pow(const GroupElement& a, std::uint64_t e) {
  return pack(from_mont(mont_pow(to_mont(unpack(a)), e)));
}

bool in_group(const GroupElement& v) {
  const u128 x = unpack(v);
  if (x == 0 || x >= kQ) return false;
  return mont_pow(to_mont(x), field::Fp61::kModulus) == kOneMont;
}

Commitment commit(const field::Polynomial& poly) {
  MPCIOT_REQUIRE(!poly.is_zero(), "feldman: cannot commit to the zero poly");
  Commitment c;
  c.elements.reserve(poly.coefficients().size());
  for (const field::Fp61 coeff : poly.coefficients()) {
    c.elements.push_back(pack(from_mont(mont_pow(kGMont, coeff.value()))));
  }
  return c;
}

bool verify_share(const Commitment& commitment, field::Fp61 x,
                  field::Fp61 share) {
  if (commitment.elements.empty()) return false;
  // Horner in the exponent: rhs = ((C_k)^x * C_{k-1})^x * ... * C_0.
  const std::uint64_t xe = x.value();
  u128 rhs = to_mont(unpack(commitment.elements.back()));
  for (std::size_t j = commitment.elements.size() - 1; j-- > 0;) {
    rhs = mont_mul(mont_pow(rhs, xe),
                   to_mont(unpack(commitment.elements[j])));
  }
  return mont_pow(kGMont, share.value()) == rhs;
}

VerifyContext::VerifyContext(const Commitment& commitment) {
  mont_elements_.reserve(commitment.elements.size());
  for (const GroupElement& e : commitment.elements) {
    mont_elements_.push_back(pack(to_mont(unpack(e))));
  }
}

bool VerifyContext::verify(field::Fp61 x, field::Fp61 share) const {
  if (mont_elements_.empty()) return false;
  const std::uint64_t xe = x.value();
  u128 rhs = unpack(mont_elements_.back());
  for (std::size_t j = mont_elements_.size() - 1; j-- > 0;) {
    rhs = mont_mul(mont_pow(rhs, xe), unpack(mont_elements_[j]));
  }
  return mont_pow(kGMont, share.value()) == rhs;
}

Commitment combine(const std::vector<const Commitment*>& parts) {
  MPCIOT_REQUIRE(!parts.empty(), "feldman: nothing to combine");
  const std::size_t width = parts.front()->elements.size();
  Commitment out;
  out.elements.reserve(width);
  for (std::size_t j = 0; j < width; ++j) {
    u128 acc = kOneMont;
    for (const Commitment* part : parts) {
      MPCIOT_REQUIRE(part != nullptr && part->elements.size() == width,
                     "feldman: combine needs equal-degree commitments");
      acc = mont_mul(acc, to_mont(unpack(part->elements[j])));
    }
    out.elements.push_back(pack(from_mont(acc)));
  }
  return out;
}

std::vector<std::uint8_t> serialize(const Commitment& commitment) {
  std::vector<std::uint8_t> out(commitment.wire_size());
  std::uint8_t* p = out.data();
  for (const GroupElement& e : commitment.elements) {
    store_be(p, e.hi);
    store_be(p + 8, e.lo);
    p += Commitment::kElementBytes;
  }
  return out;
}

Commitment deserialize(const std::uint8_t* data, std::size_t size) {
  Commitment out;
  if (size == 0 || size % Commitment::kElementBytes != 0) return out;
  const std::size_t count = size / Commitment::kElementBytes;
  out.elements.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t* p = data + i * Commitment::kElementBytes;
    const GroupElement e{load_be<std::uint64_t>(p),
                         load_be<std::uint64_t>(p + 8)};
    if (!in_group(e)) {
      out.elements.clear();
      return out;
    }
    out.elements.push_back(e);
  }
  return out;
}

}  // namespace mpciot::crypto::feldman
