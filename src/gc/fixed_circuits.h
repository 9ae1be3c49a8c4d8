// Fixed-point circuits over secret shares in Z_t.
//
// The Primer protocols hand the GC layer additive shares (mod t) of
// fixed-point values.  The circuits here reconstruct x = (s_g + s_e) mod t
// ("an adder and a multiplexer", §III-B), re-center to two's complement,
// apply the fixed-point non-linearity exactly (ReLU, GELU, SoftMax — no
// polynomial approximation, which is where Primer's accuracy edge over
// THE-X comes from), truncate back to the 15-bit format, and re-mask with
// the evaluator's next-layer randomness Rc.
//
// Input layout of every generated circuit:
//   [ garbler shares | evaluator shares | evaluator masks Rc ]
// Output: (F(x) - Rc) mod t, revealed to the garbler (server).
//
// Width contract.  Only the share buses (inputs, masks, outputs) are
// share_width(t) bits.  Every intermediate bus is exactly as wide as the
// value range it is proven to carry, and the range travels with the bus
// through the builder code:
//   - from the share modulus: a reconstructed value lies in (-t/2, t/2];
//   - from the value format: a saturated value lies in the
//     fmt.total_bits-bit range, so it leaves the clamp as a 15-bit bus;
//   - from arithmetic: sums, differences and products take the interval
//     of their operands, truncation shifts it, a row max or a mean stays
//     in its inputs' range;
//   - from the tables: a PWL output's range comes from evaluating the
//     segment endpoints of its table at build time.
// Arithmetic runs modulo 2^width of the result range, which is exact since
// the true result fits.  A range of one sign has a constant sign wire that
// the builder folds away.  The helpers below take a caller's bus as
// carrying any value of its width and return the minimal-width result.
#pragma once

#include <cstdint>
#include <vector>

#include "common/fixed_point.h"
#include "gc/circuit.h"

namespace primer {

// Width in bits of the share domain Z_t.
std::size_t share_width(std::uint64_t t);

struct SignedBus {
  Bus bits;  // two's complement
};

// Helpers exposed for testing --------------------------------------------

// (share_a + share_b) mod t -> centered two's-complement value in
// (-t/2, t/2], width share_width(t).
SignedBus reconstruct_centered(CircuitBuilder& b, const Bus& sa, const Bus& sb,
                               std::uint64_t t);

// Signed value in (-t, t) -> residue mod t in [0, t), share_width(t) bits.
Bus embed_mod_t(CircuitBuilder& b, const SignedBus& v, std::uint64_t t);

// Piecewise-linear fixed-point approximation of f over [lo, hi] with 2^k
// equal segments; input/output in the given fixed-point format.  Used for
// exp (SoftMax), GELU and LayerNorm's 1/sqrt — the segment count is chosen
// so the PWL error is below one fixed-point ulp across the range.  The
// circuit clamps x into [lo, hi), selects the segment's constants from a
// one-hot decode (free XORs) and returns a bus as wide as the table's
// output range over that domain.
struct PwlSpec {
  double lo = -8.0;
  double hi = 0.0;
  int segments_log2 = 4;
  double (*fn)(double) = nullptr;
};

SignedBus pwl_apply(CircuitBuilder& b, const SignedBus& x, const PwlSpec& spec,
                    const FixedPointFormat& fmt);

// Whole-protocol circuits ---------------------------------------------------

enum class Activation { kIdentity, kRelu, kGelu };

struct ActivationCircuitSpec {
  std::uint64_t t = 0;
  std::size_t count = 1;           // number of packed values
  std::size_t frac_shift = 0;      // truncation applied before activation
  Activation act = Activation::kIdentity;
  FixedPointFormat fmt = kDefaultFixedPoint;
};

// Element-wise activation layer: reconstruct, truncate, activate, re-mask.
Circuit make_activation_circuit(const ActivationCircuitSpec& spec);

struct SoftmaxCircuitSpec {
  std::uint64_t t = 0;
  std::size_t count = 0;          // row length n (tokens attended over)
  std::size_t frac_shift = 0;     // truncation of the incoming QK products
  FixedPointFormat fmt = kDefaultFixedPoint;
  int exp_segments_log2 = 5;
};

// Exact fixed-point SoftMax over one attention row: max-subtraction, PWL
// exp, sum, per-element division, re-masking.
Circuit make_softmax_circuit(const SoftmaxCircuitSpec& spec);

// Reference fixed-point softmax semantics (plain, for tests and the
// fixed-point plaintext model): mirrors the circuit bit-for-bit.
std::vector<std::int64_t> fixed_softmax_reference(
    const std::vector<std::int64_t>& x, std::size_t frac_shift,
    const FixedPointFormat& fmt, int exp_segments_log2 = 5);

// Reference PWL evaluation matching pwl_apply.
std::int64_t pwl_reference(std::int64_t x_raw, const PwlSpec& spec,
                           const FixedPointFormat& fmt);

// Reference activation matching make_activation_circuit.
std::int64_t activation_reference(std::int64_t x_raw, std::size_t frac_shift,
                                  Activation act, const FixedPointFormat& fmt);

double gelu_double(double x);

// The 1/sqrt PWL spec shared by the fixed LayerNorm reference (nn/model)
// and the GC layer-norm circuit.
PwlSpec layernorm_rsqrt_spec();

// LayerNorm with residual input (one Transformer row).  The circuit
// computes, over shares mod t,
//     y = LayerNorm( saturate(residual + truncate(acc)) ) - Rc
// where `acc` is an untruncated linear-layer accumulation (2*frac bits),
// `residual` is a raw 15-bit value, and gamma/beta are garbler-known model
// constants baked into the circuit.  Semantics mirror
// nn fixed_layernorm_row (truncating division by d, shared rsqrt PWL).
struct LayerNormCircuitSpec {
  std::uint64_t t = 0;
  std::size_t d = 0;                 // row width
  std::size_t frac_shift = 0;        // truncation of acc before the add
  std::vector<std::int64_t> gamma;   // raw fixed point, size d
  std::vector<std::int64_t> beta;    // raw fixed point, size d
  FixedPointFormat fmt = kDefaultFixedPoint;
};

// Input layout: [garbler: acc shares (d), residual shares (d)]
//               [evaluator: acc shares (d), residual shares (d), Rc (d)].
Circuit make_layernorm_circuit(const LayerNormCircuitSpec& spec);

}  // namespace primer
