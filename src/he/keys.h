// Key material for the RLWE scheme.
//
// Key switching uses the RNS-digit gadget (the same construction SEAL calls
// "key switching keys"): for a source key s_src and RNS basis {q_i}, the
// switching key holds, for every digit (i, d),
//     K_{i,d} = ( -(a * s + t*e) + 2^{d*w} * P_i * s_src ,  a )
// where P_i = (q/q_i) * [(q/q_i)^{-1}]_{q_i} is the CRT unit (1 mod q_i,
// 0 mod q_j) and w = decomp_bits splits each residue into base-2^w
// sub-digits.  Summing digit_{i,d} (*) K_{i,d} over the decomposition of a
// polynomial c yields an encryption of c * s_src under s.
//
// decomp_bits == 0 means one full-width digit per RNS prime (d = 0 only) —
// the cheapest layout, used for relinearization where the incoming
// multiplication noise dominates anyway.  Galois keys use finer sub-digits
// (HeContext::galois_decomp_bits, half the modulus width): the key-switch
// noise scales with the digit magnitude, and rotations must leave room for
// the plaintext multiplications BSGS matmuls apply AFTER rotating.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "he/rns_poly.h"

namespace primer {

// 16-byte seed a uniform NTT-form polynomial expands from (he/codec.h,
// expand_uniform).  Drawn from the owning party's Rng.
using PolySeed = std::array<std::uint8_t, 16>;

struct SecretKey {
  RnsPoly s;  // NTT form
};

struct PublicKey {
  RnsPoly b;  // -(a*s + t*e), NTT form
  RnsPoly a;  // uniform, NTT form
};

struct KSwitchKey {
  // One (b, a) pair per gadget digit, all NTT form, flattened in the order
  // HeContext::decomp_layout(decomp_bits) enumerates: limb-major, then
  // sub-digit (shift) within the limb.
  std::vector<RnsPoly> b;
  std::vector<RnsPoly> a;
  // Elementwise Shoup quotients floor(elem * 2^shift / q_j) of b / a, where
  // shift is the consuming kernel set's shoup_shift (64 for scalar/avx2/
  // avx512, 52 for avx512ifma) — the key limbs are the fixed operand of
  // every key-switch product, so the quotients are precomputed once, when
  // the key is expanded (expand_key), and the hot loop accumulates
  // division-free products in [0, 2p) (kernel shoup_mul_acc_lazy2).
  std::vector<RnsPoly> b_shoup;
  std::vector<RnsPoly> a_shoup;
  // Sub-digit width this key was generated for (0 = one digit per limb).
  std::uint32_t decomp_bits = 0;

  bool empty() const { return b.empty(); }
  std::size_t digits() const { return b.size(); }
  // Key switching requires both quotient tables, one per digit.
  bool has_shoup() const {
    return !b.empty() && b_shoup.size() == b.size() &&
           a_shoup.size() == a.size();
  }
};

struct RelinKey {
  KSwitchKey key;  // switches s^2 -> s
};

struct GaloisKeys {
  // Galois element -> key switching s(x^elt) -> s(x).
  std::map<u64, KSwitchKey> keys;

  bool has(u64 elt) const { return keys.count(elt) != 0; }
};

// A switching key as the key generator makes it and the wire carries it:
// per gadget digit the b polynomial and the seed its uniform a expands
// from.  expand_key (he/he.h) turns it into a KSwitchKey — a and both
// quotient tables — on the party that evaluates with it.
struct SeededKSwitchKey {
  std::vector<RnsPoly> b;
  std::vector<PolySeed> a_seeds;
  std::uint32_t decomp_bits = 0;

  std::size_t digits() const { return b.size(); }
};

struct SeededRelinKey {
  SeededKSwitchKey key;
};

struct SeededGaloisKeys {
  std::map<u64, SeededKSwitchKey> keys;

  bool has(u64 elt) const { return keys.count(elt) != 0; }
};

}  // namespace primer
