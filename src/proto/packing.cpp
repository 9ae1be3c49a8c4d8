#include "proto/packing.h"

#include <stdexcept>

#include "common/fixed_point.h"
#include "common/parallel.h"

namespace primer {

namespace {

// The Horner-style accumulation
//     S = rot(S, step) + in * P'_k
// performs every plaintext multiplication on the *fresh* input ciphertext
// (bounded noise) while executing exactly the K-1 Rotate operations the
// paper's Fig. 6 loops count — one alignment per feature block
// (tokens-first) or per slot (feature-based).  P'_k is the alignment mask
// pre-rotated (a free plaintext operation on the server).
std::vector<u64> rotate_right_plain(const std::vector<u64>& v,
                                    std::size_t amount, std::size_t row) {
  std::vector<u64> out(v.size(), 0);
  for (std::size_t s = 0; s < row; ++s) {
    out[(s + amount) % row] = v[s];
  }
  return out;
}

bool all_zero(const std::vector<u64>& v) {
  for (const u64 x : v) {
    if (x != 0) return false;
  }
  return true;
}

}  // namespace

std::pair<std::size_t, std::size_t> bsgs_split(std::size_t iters) {
  if (iters <= 1) return {1, 1};
  std::size_t n1 = 1;
  while (n1 * n1 < iters) ++n1;
  const std::size_t n2 = (iters + n1 - 1) / n1;
  return {n1, n2};
}

PackedMatmulStats packed_matmul_counts(PackingStrategy strategy,
                                       std::size_t tokens, std::size_t d_in,
                                       std::size_t d_out, std::size_t slots) {
  // Key-switch accounting follows the BSGS execution: per input ciphertext,
  // n1-1 hoisted baby rotations shared by every output chain, plus n2-1
  // giant rotations per (input, output) chain — n1+n2 key-switches per
  // rotation set instead of the n1*n2 of the sequential walk.  Plaintext
  // multiplications still scale with alignments times output ciphertexts.
  PackedMatmulStats s;
  const std::size_t m = slots;
  std::size_t cts, iters, k;
  if (strategy == PackingStrategy::kTokensFirst) {
    const std::size_t fpc = std::max<std::size_t>(1, m / tokens);
    cts = (d_in + fpc - 1) / fpc;
    iters = fpc;
    k = std::min(fpc, d_in);
  } else {
    cts = (tokens * d_in + m - 1) / m;
    iters = m;
    k = m;
  }
  s.input_ciphertexts = cts;
  s.output_ciphertexts = (tokens * d_out + m - 1) / m;
  const auto [n1, n2] = bsgs_split(iters);
  s.baby_rotations = cts * (n1 - 1);
  s.giant_rotations = cts * s.output_ciphertexts * (n2 - 1);
  s.rotations = s.baby_rotations + s.giant_rotations;
  s.naive_rotations = cts * (iters - 1);
  s.plain_mults = cts * k * s.output_ciphertexts;
  s.adds = s.plain_mults;
  return s;
}

PackedMatmul::PackedMatmul(const HeContext& ctx, const BatchEncoder& encoder,
                           const Evaluator& eval, PackingStrategy strategy)
    : ctx_(ctx), encoder_(encoder), eval_(eval), strategy_(strategy) {}

int PackedMatmul::rotation_step(std::size_t tokens) const {
  return strategy_ == PackingStrategy::kTokensFirst ? static_cast<int>(tokens)
                                                    : 1;
}

std::vector<int> PackedMatmul::rotation_steps(std::size_t tokens) const {
  const std::size_t row = encoder_.row_size();
  const std::size_t iters =
      strategy_ == PackingStrategy::kTokensFirst ? row / tokens : row;
  const auto [n1, n2] = bsgs_split(iters);
  const int step = rotation_step(tokens);
  std::vector<int> steps;
  for (std::size_t g = 1; g < n1; ++g) {
    steps.push_back(static_cast<int>(g) * step);
  }
  if (n2 > 1) steps.push_back(static_cast<int>(n1) * step);
  if (steps.empty()) steps.push_back(step);  // degenerate single-alignment
  return steps;
}

std::vector<SeededCiphertext> PackedMatmul::encrypt_input(
    const MatI& x_ring, const Encryptor& enc) const {
  const std::size_t row = encoder_.row_size();
  const std::size_t n = x_ring.rows();
  const std::size_t d_in = x_ring.cols();
  std::vector<SeededCiphertext> out;

  if (strategy_ == PackingStrategy::kTokensFirst) {
    const std::size_t fpc = row / n;
    if (fpc == 0) {
      throw std::invalid_argument("tokens-first: tokens exceed slot row");
    }
    const std::size_t cts = (d_in + fpc - 1) / fpc;
    for (std::size_t ci = 0; ci < cts; ++ci) {
      std::vector<u64> slots(row, 0);
      for (std::size_t b = 0; b < fpc; ++b) {
        const std::size_t j = ci * fpc + b;
        if (j >= d_in) break;
        for (std::size_t i = 0; i < n; ++i) {
          slots[b * n + i] = static_cast<u64>(x_ring(i, j));
        }
      }
      out.push_back(enc.encrypt_seeded(encoder_.encode(slots)));
    }
  } else {
    const std::size_t total = n * d_in;
    const std::size_t cts = (total + row - 1) / row;
    for (std::size_t ci = 0; ci < cts; ++ci) {
      std::vector<u64> slots(row, 0);
      for (std::size_t s = 0; s < row; ++s) {
        const std::size_t l = ci * row + s;  // row-major (token, feature)
        if (l >= total) break;
        slots[s] = static_cast<u64>(x_ring(l / d_in, l % d_in));
      }
      out.push_back(enc.encrypt_seeded(encoder_.encode(slots)));
    }
  }
  return out;
}

std::vector<Ciphertext> PackedMatmul::multiply(
    const std::vector<Ciphertext>& packed, const MatI& w_raw,
    std::size_t tokens, std::uint64_t t, const GaloisKeys& gk,
    PackedMatmulStats* stats) const {
  const std::size_t row = encoder_.row_size();
  const std::size_t n = tokens;
  const std::size_t d_in = w_raw.rows();
  const std::size_t d_out = w_raw.cols();
  const std::size_t fpc = row / n;  // blocks per ciphertext
  if (fpc == 0) throw std::invalid_argument("PackedMatmul: tokens > row");

  // Ring-encoded weights (centered fixed point lifted into Z_t).
  std::vector<std::vector<u64>> w_ring(d_in, std::vector<u64>(d_out));
  for (std::size_t j = 0; j < d_in; ++j) {
    for (std::size_t o = 0; o < d_out; ++o) {
      w_ring[j][o] = fp_to_ring(w_raw(j, o), t);
    }
  }

  PackedMatmulStats local;
  local.input_ciphertexts = packed.size();
  const std::size_t out_cts = (d_out + fpc - 1) / fpc;
  local.output_ciphertexts = out_cts;

  const std::size_t iters =
      strategy_ == PackingStrategy::kTokensFirst ? fpc : row;
  const int step = rotation_step(n);
  const auto [n1, n2] = bsgs_split(iters);

  // Baby-step/giant-step over the alignment index a = h*n1 + g:
  //   result = sum_a rot_{a*step}(in) * P_a
  //          = sum_h rot_{h*n1*step}( sum_g rot_{g*step}(in) * Q_{h,g} )
  // with Q_{h,g} = P_{h*n1+g} pre-rotated right by h*n1*step.  The n1 baby
  // rotations of each input ciphertext are HOISTED (one digit decomposition
  // for the whole set) and shared by every output chain; each chain then
  // pays n2-1 giant rotations of its partial sums — n1+n2 key-switches per
  // input ciphertext instead of the n1*n2 of the sequential Horner walk.
  // The summands are exact ring values, so the decrypted output is
  // identical to the sequential order's.
  std::vector<Ciphertext> result(out_cts);
  std::vector<std::uint8_t> result_set(out_cts, 0);
  std::vector<PackedMatmulStats> oc_stats(out_cts);

  for (std::size_t ci = 0; ci < packed.size(); ++ci) {
    // What the sequential Horner walk would have paid for this ciphertext.
    local.naive_rotations += iters - 1;
    // Baby rotations rot_{g*step}(in) for g = 0..n1-1, hoisted.
    std::vector<Ciphertext> rots;
    rots.reserve(n1);
    rots.push_back(packed[ci]);
    if (n1 > 1) {
      std::vector<int> baby_steps;
      for (std::size_t g = 1; g < n1; ++g) {
        baby_steps.push_back(static_cast<int>(g) * step);
      }
      auto baby = eval_.rotate_rows_many(packed[ci], baby_steps, gk);
      for (auto& r : baby) rots.push_back(std::move(r));
      local.rotations += n1 - 1;
      local.baby_rotations += n1 - 1;
    }

    // Each output ciphertext accumulates an independent giant-step chain
    // over the shared baby rotations; per-oc stats merge in order below so
    // tallies match the serial loop exactly.
    parallel_for(0, out_cts, [&](std::size_t oc) {
      Ciphertext acc;
      bool acc_set = false;
      for (std::size_t down = 0; down < n2; ++down) {
        const std::size_t h = n2 - 1 - down;
        if (acc_set) {
          // Align the previously accumulated giant blocks.
          eval_.rotate_rows_inplace(acc, static_cast<int>(n1) * step, gk);
          ++oc_stats[oc].rotations;
          ++oc_stats[oc].giant_rotations;
        }
        const std::size_t pre_rot =
            h * n1 * static_cast<std::size_t>(step) % row;
        for (std::size_t g = 0; g < n1; ++g) {
          const std::size_t k = h * n1 + g;
          if (k >= iters) break;
          // Mask P_k: target slot layout is block b <-> output
          // o = oc*fpc + b, slot b*n + i <-> token i.
          std::vector<u64> mask(row, 0);
          if (strategy_ == PackingStrategy::kTokensFirst) {
            for (std::size_t b = 0; b < fpc; ++b) {
              const std::size_t o = oc * fpc + b;
              if (o >= d_out) break;
              const std::size_t j = ci * fpc + ((b + k) % fpc);
              if (j >= d_in || j >= (ci + 1) * fpc) continue;
              for (std::size_t i = 0; i < n; ++i) {
                mask[b * n + i] = w_ring[j][o];
              }
            }
          } else {
            for (std::size_t tl = 0; tl < row; ++tl) {
              const std::size_t i = tl % n;
              const std::size_t o = oc * fpc + tl / n;
              if (o >= d_out) continue;
              const std::size_t src = (tl + k) % row;
              const std::size_t l = ci * row + src;
              if (l >= n * d_in) continue;
              if (l / d_in != i) continue;
              mask[tl] = w_ring[l % d_in][o];
            }
          }
          if (all_zero(mask)) continue;
          const auto pre = rotate_right_plain(mask, pre_rot, row);
          const Plaintext mask_pt = encoder_.encode(pre);
          if (acc_set) {
            // Fused acc += ct * pt: no ciphertext copy, one limb pass.
            eval_.multiply_plain_accumulate(acc, rots[g], mask_pt);
            ++oc_stats[oc].plain_mults;
            ++oc_stats[oc].adds;
          } else {
            Ciphertext term = rots[g];
            eval_.multiply_plain_inplace(term, mask_pt);
            ++oc_stats[oc].plain_mults;
            acc = std::move(term);
            acc_set = true;
          }
        }
      }
      if (!acc_set) return;
      if (result_set[oc] != 0) {
        eval_.add_inplace(result[oc], acc);
        ++oc_stats[oc].adds;
      } else {
        result[oc] = std::move(acc);
        result_set[oc] = 1;
      }
    });
  }
  for (const auto set : result_set) {
    if (set == 0) {
      throw std::runtime_error("PackedMatmul: empty output ciphertext");
    }
  }

  for (const auto& s : oc_stats) {
    local.rotations += s.rotations;
    local.giant_rotations += s.giant_rotations;
    local.plain_mults += s.plain_mults;
    local.adds += s.adds;
  }
  if (stats != nullptr) *stats += local;
  return result;
}

MatI PackedMatmul::decrypt_result(const std::vector<Ciphertext>& result,
                                  const Decryptor& dec, std::size_t tokens,
                                  std::size_t d_out) const {
  const std::size_t row = encoder_.row_size();
  MatI out(tokens, d_out);
  const std::size_t per_ct = row / tokens;  // output blocks per ciphertext
  // Each result ciphertext decrypts into its own disjoint column block.
  parallel_for(0, result.size(), [&](std::size_t rc) {
    const auto slots = encoder_.decode(dec.decrypt(result[rc]));
    for (std::size_t b = 0; b < per_ct; ++b) {
      const std::size_t o = rc * per_ct + b;
      if (o >= d_out) break;
      for (std::size_t i = 0; i < tokens; ++i) {
        out(i, o) = static_cast<std::int64_t>(slots[b * tokens + i]);
      }
    }
  });
  return out;
}

}  // namespace primer
