// Ciphertext packing strategies for encrypted matrix multiplication (paper
// §III-D, Fig. 6): the prior feature-based packing versus Primer's
// tokens-first packing.
//
// Both compute  Enc(X) * W  where the client encrypts X (n tokens x d_in
// features, ring values mod t) and the server holds the plaintext weights W
// (d_in x d_out).  The quantity the paper optimizes is the number of
// homomorphic Rotate operations:
//
//   feature-based : each input ciphertext is rotated through all M slot
//                   alignments  ->  c * M rotations,
//   tokens-first  : feature j of all n tokens shares a slot block, so only
//                   block-granular alignments are needed  ->  c * M/n.
//
// Data occupies the first batching row (M = poly_degree / 2 slots) so that
// Rotate == rotate_rows, matching SEAL semantics.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "he/encoder.h"
#include "he/he.h"

namespace primer {

enum class PackingStrategy { kFeatureBased, kTokensFirst };

struct PackedMatmulStats {
  std::uint64_t input_ciphertexts = 0;
  std::uint64_t output_ciphertexts = 0;
  std::uint64_t rotations = 0;        // total key-switches (baby + giant)
  std::uint64_t baby_rotations = 0;   // hoisted: share one decomposition
  std::uint64_t giant_rotations = 0;  // full key-switches on partial sums
  // Key-switches the paper's sequential Horner walk would pay (c*(M-1)
  // feature-based, c*(M/n-1) tokens-first) — the schedule Fig. 6 counts.
  // The live BSGS execution pays `rotations` (~n1+n2 per set) instead.
  std::uint64_t naive_rotations = 0;
  std::uint64_t plain_mults = 0;
  std::uint64_t adds = 0;

  PackedMatmulStats& operator+=(const PackedMatmulStats& o) {
    input_ciphertexts += o.input_ciphertexts;
    output_ciphertexts += o.output_ciphertexts;
    rotations += o.rotations;
    baby_rotations += o.baby_rotations;
    giant_rotations += o.giant_rotations;
    naive_rotations += o.naive_rotations;
    plain_mults += o.plain_mults;
    adds += o.adds;
    return *this;
  }
};

// Baby-step/giant-step split of an `iters`-alignment rotation set: returns
// (n1, n2) with n1*n2 >= iters and n1 ~ sqrt(iters), so the set costs
// (n1-1) hoisted baby key-switches plus (n2-1) giant key-switches per
// output chain instead of iters-1 sequential ones.
std::pair<std::size_t, std::size_t> bsgs_split(std::size_t iters);

// Pure operation-count model (no HE work) — used by the cost model to
// extrapolate to BERT-scale dimensions.
PackedMatmulStats packed_matmul_counts(PackingStrategy strategy,
                                       std::size_t tokens, std::size_t d_in,
                                       std::size_t d_out, std::size_t slots);

// Executes the encrypted matmul live.  X entries are ring values mod t
// (MatI with values in [0, t)); W entries are raw signed fixed-point.
// Returns the decrypted ring-value result (n x d_out) — callers in the
// protocols keep it masked; tests compare against the plain ring product.
class PackedMatmul {
 public:
  PackedMatmul(const HeContext& ctx, const BatchEncoder& encoder,
               const Evaluator& eval, PackingStrategy strategy);

  // Client side: pack and encrypt X (symmetric encryptor), in the seeded
  // form the client ships; drop_seeds gives the ciphertexts for local use.
  std::vector<SeededCiphertext> encrypt_input(const MatI& x_ring,
                                              const Encryptor& enc) const;

  // Server side: homomorphically compute X * W.  Output ciphertexts pack
  // result column o into slot block (o mod fpc): slot (o*n + i) holds the
  // (token i, output o) ring value.
  std::vector<Ciphertext> multiply(const std::vector<Ciphertext>& packed,
                                   const MatI& w_raw, std::size_t tokens,
                                   std::uint64_t t, const GaloisKeys& gk,
                                   PackedMatmulStats* stats) const;

  // Client side: decrypt the result into an (n x d_out) ring matrix.
  MatI decrypt_result(const std::vector<Ciphertext>& result,
                      const Decryptor& dec, std::size_t tokens,
                      std::size_t d_out) const;

  // Rotation step the strategy aligns by (baby steps are its multiples).
  int rotation_step(std::size_t tokens) const;

  // Rotation steps multiply() needs Galois keys for: the BSGS baby steps
  // {g*step : 1 <= g < n1} plus the single giant step n1*step.
  std::vector<int> rotation_steps(std::size_t tokens) const;

  PackingStrategy strategy() const { return strategy_; }

 private:
  const HeContext& ctx_;
  const BatchEncoder& encoder_;
  const Evaluator& eval_;
  PackingStrategy strategy_;
};

}  // namespace primer
