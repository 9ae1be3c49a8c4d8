// HeContext: precomputed tables shared by every HE object — NTTs per RNS
// prime, Barrett reducers, CRT composition constants for decryption, the
// batching NTT over the plaintext modulus, and Galois automorphism helpers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "he/params.h"
#include "he/rns_poly.h"
#include "he/u256.h"
#include "ntt/ntt.h"

namespace primer {

class HeContext {
 public:
  explicit HeContext(HeParams params);

  const HeParams& params() const { return params_; }
  std::size_t degree() const { return params_.poly_degree; }
  std::size_t rns_size() const { return params_.q.size(); }
  u64 q(std::size_t i) const { return params_.q[i]; }
  u64 t() const { return params_.t; }

  const Ntt& ntt(std::size_t i) const { return *ntts_[i]; }
  const Ntt& plain_ntt() const { return *plain_ntt_; }
  const Barrett& barrett(std::size_t i) const { return barretts_[i]; }
  // The kernel set limb arithmetic modulo q_i dispatches to (shared with
  // the per-prime Ntt; "scalar", "avx2", "avx512", or "avx512ifma").
  const NttKernel& kernels(std::size_t i) const { return ntts_[i]->kernel(); }
  const char* kernel_name() const { return ntts_[0]->kernel_name(); }

  // --- domain conversion -------------------------------------------------
  void to_ntt(RnsPoly& p) const;
  void to_coeff(RnsPoly& p) const;

  // --- arithmetic on RNS polynomials (domains must match) ----------------
  void add_inplace(RnsPoly& a, const RnsPoly& b) const;
  void sub_inplace(RnsPoly& a, const RnsPoly& b) const;
  void negate_inplace(RnsPoly& a) const;
  // Pointwise product; both operands must be in NTT form.
  RnsPoly multiply(const RnsPoly& a, const RnsPoly& b) const;
  void multiply_inplace(RnsPoly& a, const RnsPoly& b) const;
  // Fused acc += a * b (all NTT form) — one pass over the limbs, no
  // temporary polynomial.
  void multiply_accumulate(RnsPoly& acc, const RnsPoly& a,
                           const RnsPoly& b) const;
  // Multiply by a scalar (same scalar reduced per prime).
  void scalar_multiply_inplace(RnsPoly& a, u64 scalar) const;

  // --- sampling (uniform polynomials expand from seeds: he/codec.h) -------
  RnsPoly sample_error(Rng& rng) const;           // CBD(eta), coeff form
  RnsPoly sample_ternary(Rng& rng) const;         // uniform {-1,0,1}, coeff form

  // Lifts a signed small polynomial (|v| << q_i) into RNS coefficient form.
  RnsPoly lift_signed(const std::vector<i64>& v) const;

  // Lifts a plaintext (coeffs mod t) into RNS coefficient form as integers
  // in [0, t) — the BGV message embedding.
  RnsPoly lift_plaintext(const Plaintext& p) const;

  // --- decryption helpers --------------------------------------------------
  // CRT-composes RNS residues of one coefficient, centers mod q, reduces
  // mod t (signed), returning the value in [0, t).
  u64 compose_center_mod_t(const std::vector<u64>& residues) const;
  // Log2 of the centered absolute value (for noise measurement).
  double compose_center_log2(const std::vector<u64>& residues) const;

  // --- Galois automorphisms -----------------------------------------------
  // x -> x^elt on a coefficient-form polynomial (elt odd, mod 2n).
  void apply_galois_coeff(const RnsPoly& in, u64 elt, RnsPoly& out) const;
  // Span variant over length-degree() buffers; in and out must not alias.
  void apply_galois_plain(const u64* in, u64 elt, u64* out, u64 modulus) const;
  void apply_galois_plain(const std::vector<u64>& in, u64 elt,
                          std::vector<u64>& out, u64 modulus) const;
  // Galois element implementing a rotation by `step` on the batched rows
  // (SEAL convention: generator 3 subgroup of Z_{2n}^*).
  u64 galois_elt_from_step(int step) const;
  // Galois element for the row-swap (column rotation): 2n - 1.
  u64 galois_elt_row_swap() const { return 2 * degree() - 1; }

  // x -> x^elt acting on NTT form.  The transform's slot i holds the
  // evaluation at psi^(2*bitrev(i)+1); the automorphism permutes those
  // evaluation points (no negation — x^n = -1 identities hold at the
  // points), so on NTT-form limbs it is the pure permutation
  // out[i] = in[table[i]].  Tables are cached per element; thread-safe.
  const std::vector<std::uint32_t>& galois_ntt_table(u64 elt) const;
  // Applies the permutation to every limb of an NTT-form polynomial.
  void apply_galois_ntt(const RnsPoly& in, u64 elt, RnsPoly& out) const;

  // --- key-switch gadget decomposition -------------------------------------
  // One entry per gadget digit under base-2^w sub-digit decomposition:
  // `limb` is the source RNS prime, `shift` the bit offset of the sub-digit
  // within that residue (digit value = (residue >> shift) & (2^w - 1)).
  // w == 0 returns one full-width digit per limb (shift 0), the CRT layout.
  struct GadgetDigit {
    std::uint32_t limb;
    std::uint32_t shift;
  };
  std::vector<GadgetDigit> decomp_layout(std::uint32_t decomp_bits) const;
  // Sub-digit width used for Galois keys: half the widest modulus, so the
  // per-digit magnitude (and with it the rotation key-switch noise) drops
  // from ~q_i to ~sqrt(q_i).  Rotations need that headroom because BSGS
  // matmuls multiply plaintext masks into ALREADY-ROTATED ciphertexts.
  std::uint32_t galois_decomp_bits() const;
  // Additive key-switch noise estimate (log2) for keys of the given width:
  // digits * n * digit_magnitude * t * eta.
  double kswitch_noise_log2(std::uint32_t decomp_bits) const;

  // --- CRT composition constants (public for tests) -----------------------
  // q_hat_i = q / q_i as U256; inv_q_hat_i = (q/q_i)^{-1} mod q_i.
  const std::vector<U256>& q_hat() const { return q_hat_; }
  const std::vector<u64>& inv_q_hat() const { return inv_q_hat_; }
  const U256& q_total() const { return q_total_; }

 private:
  HeParams params_;
  std::vector<std::unique_ptr<Ntt>> ntts_;
  std::unique_ptr<Ntt> plain_ntt_;
  std::vector<Barrett> barretts_;
  std::vector<U256> q_hat_;
  std::vector<u64> inv_q_hat_;
  U256 q_total_;
  U256 q_half_;
  std::vector<u64> q_mod_t_partial_;  // (q_hat_i mod t) for mod-t reduction
  u64 q_mod_t_ = 0;
  // Lazily-built NTT-domain Galois permutation tables (std::map node
  // stability keeps returned references valid across later insertions).
  mutable std::mutex galois_ntt_mu_;
  mutable std::map<u64, std::vector<std::uint32_t>> galois_ntt_tables_;
};

}  // namespace primer
