// Modular arithmetic over word-sized primes (< 2^62) used by the RNS-BFV
// scheme.  Multiplication goes through unsigned 128-bit intermediates; a
// precomputed Barrett constant accelerates reduction in the NTT hot loop.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace primer {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
using i64 = std::int64_t;

inline u64 add_mod(u64 a, u64 b, u64 m) {
  const u64 s = a + b;  // no overflow: moduli < 2^62
  return s >= m ? s - m : s;
}

inline u64 sub_mod(u64 a, u64 b, u64 m) { return a >= b ? a - b : a + m - b; }

inline u64 neg_mod(u64 a, u64 m) { return a == 0 ? 0 : m - a; }

inline u64 mul_mod(u64 a, u64 b, u64 m) {
  return static_cast<u64>((static_cast<u128>(a) * b) % m);
}

inline u64 pow_mod(u64 base, u64 exp, u64 m) {
  u64 result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = mul_mod(result, base, m);
    base = mul_mod(base, base, m);
    exp >>= 1;
  }
  return result;
}

// Modular inverse via extended Euclid.  Throws if gcd(a, m) != 1.
inline u64 inv_mod(u64 a, u64 m) {
  i64 t = 0, new_t = 1;
  i64 r = static_cast<i64>(m), new_r = static_cast<i64>(a % m);
  while (new_r != 0) {
    const i64 q = r / new_r;
    t -= q * new_t;
    std::swap(t, new_t);
    r -= q * new_r;
    std::swap(r, new_r);
  }
  if (r != 1) throw std::invalid_argument("inv_mod: not invertible");
  if (t < 0) t += static_cast<i64>(m);
  return static_cast<u64>(t);
}

// True 128-bit Barrett reduction: a mod m using the precomputed two-word
// ratio (r_hi, r_lo) = floor(2^128 / m).  Writing a = a1*2^64 + a0 and
// expanding a * ratio / 2^128 term by term gives a 64-bit quotient estimate
// q that undershoots the exact floor(a/m) by at most 3 (one unit per dropped
// fractional term), so the remainder lands in [0, 4m) and a short correction
// loop finishes.  Requires 4m < 2^64, i.e. m < 2^62 — the library-wide
// modulus bound.  No division instruction is ever executed.
inline u64 barrett_reduce128(u128 a, u64 m, u64 r_hi, u64 r_lo) {
  const u64 a0 = static_cast<u64>(a);
  const u64 a1 = static_cast<u64>(a >> 64);
  const u128 p01 = static_cast<u128>(a0) * r_hi;
  const u128 p10 = static_cast<u128>(a1) * r_lo;
  const u128 p11 = static_cast<u128>(a1) * r_hi;
  // Middle column: carries from the three partial products that straddle
  // the 2^64 boundary.  Fits u128 comfortably (three sub-2^64 terms).
  const u128 mid = ((static_cast<u128>(a0) * r_lo) >> 64) +
                   static_cast<u64>(p01) + static_cast<u64>(p10);
  const u64 q = static_cast<u64>(p11) + static_cast<u64>(p01 >> 64) +
                static_cast<u64>(p10 >> 64) + static_cast<u64>(mid >> 64);
  // Only the low 64 bits of q*m matter: the true remainder is < 4m < 2^64,
  // so the wrap-around subtraction is exact.
  u64 r = a0 - q * m;
  while (r >= m) r -= m;
  return r;
}

// Barrett reducer: floor-division-free reduction modulo a fixed m < 2^62.
class Barrett {
 public:
  Barrett() = default;
  explicit Barrett(u64 m) : m_(m) {
    // ratio = floor(2^128 / m).  For prime m (never a power of two) this
    // equals floor((2^128 - 1) / m), which u128 arithmetic gives directly.
    const u128 ratio = ~static_cast<u128>(0) / m;
    ratio_hi_ = static_cast<u64>(ratio >> 64);
    ratio_lo_ = static_cast<u64>(ratio);
  }

  u64 modulus() const { return m_; }
  u64 ratio_hi() const { return ratio_hi_; }
  u64 ratio_lo() const { return ratio_lo_; }

  // Returns a mod m for a < 2^64.
  u64 reduce(u64 a) const {
    // q = floor(a * ratio / 2^128) where ratio = floor(2^128/m):
    // since a < 2^64, a*ratio_hi contributes the needed bits.
    const u128 q = (static_cast<u128>(a) * ratio_hi_) >> 64;
    u64 r = a - static_cast<u64>(q) * m_;
    while (r >= m_) r -= m_;
    return r;
  }

  // Full 128-bit reduction (for products of two residues).
  u64 reduce128(u128 a) const {
    return barrett_reduce128(a, m_, ratio_hi_, ratio_lo_);
  }

  u64 mul(u64 a, u64 b) const {
    return reduce128(static_cast<u128>(a) * b);
  }

 private:
  u64 m_ = 0;
  u64 ratio_hi_ = 0;
  u64 ratio_lo_ = 0;  // low ratio word — consumed by barrett_reduce128
};

// Division-free Shoup quotients: q(x) = floor(x * 2^shift / p) for any
// x < p, where p is odd and shift <= 64 (the kernels use 64 and 52).  With
// the reciprocal R = floor(2^(64+shift) / p), split as R_hi * 2^64 + R_lo,
// the estimate floor(x * R / 2^64) = x * R_hi + mulhi(x, R_lo) undershoots
// the exact quotient by at most one (R drops less than 1, and x < 2^64), so
// one conditional increment finishes.  The remainder x * 2^shift - q * p
// lies in [0, 2p), so its low 64 bits are exact under wrap-around.  One
// division per modulus instead of one per element.
class ShoupQuotient {
 public:
  ShoupQuotient(u64 p, unsigned shift) : p_(p), shift_(shift) {
    // 2^128 / p for shift 64: p is odd, so floor((2^128 - 1) / p) is the
    // same value and fits u128.
    const u128 r = shift >= 64 ? ~static_cast<u128>(0) / p
                               : (static_cast<u128>(1) << (64 + shift)) / p;
    r_hi_ = static_cast<u64>(r >> 64);
    r_lo_ = static_cast<u64>(r);
  }

  u64 operator()(u64 x) const {
    u64 q = x * r_hi_ +
            static_cast<u64>((static_cast<u128>(x) * r_lo_) >> 64);
    const u64 scaled = shift_ >= 64 ? 0 : x << shift_;
    if (scaled - q * p_ >= p_) ++q;
    return q;
  }

 private:
  u64 p_;
  unsigned shift_;
  u64 r_hi_ = 0;
  u64 r_lo_ = 0;
};

// Shoup precomputed-quotient multiplication: for a fixed operand w modulo m,
// mul_shoup(x) computes w*x mod m with one 64x64 high-half multiply and one
// subtraction.  This is the standard trick that makes software NTTs fast
// (used by SEAL, HElib, HEXL).
//
// The quotient scale is parameterizable: the default 64 matches the
// scalar/AVX2/AVX512-DQ kernels (floor(w * 2^64 / m), one 64x64 high-half
// multiply per product); the AVX512-IFMA kernels use 52 so the quotient
// estimate is a single vpmadd52hi (see NttKernel::shoup_shift).  mul()
// assumes the default 64-bit scale — kernel tables built with another
// shift must only be consumed by the matching kernel set.
struct ShoupMul {
  u64 operand = 0;  // w
  u64 quotient = 0; // floor(w * 2^shift / m)

  ShoupMul() = default;
  ShoupMul(u64 w, u64 m, unsigned shift = 64)
      : operand(w),
        quotient(static_cast<u64>((static_cast<u128>(w) << shift) / m)) {}

  u64 mul(u64 x, u64 m) const {
    const u64 hi = static_cast<u64>((static_cast<u128>(x) * quotient) >> 64);
    const u64 r = operand * x - hi * m;  // in [0, 2m)
    return r >= m ? r - m : r;
  }
};

}  // namespace primer
