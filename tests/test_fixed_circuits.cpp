// Tests for the fixed-point share circuits: reconstruction/centering,
// truncation, ReLU/GELU/identity activation circuits, PWL approximation
// quality, and the exact-softmax circuit — each validated against the int64
// reference semantics and (for small cases) under real garbling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/fixed_point.h"
#include "gc/fixed_circuits.h"
#include "gc/garble.h"
#include "gc/protocol.h"
#include "he/params.h"
#include "nn/model.h"

namespace primer {
namespace {

constexpr std::uint64_t kT = 1032193;  // prime = 1 mod 4096, ~2^20
const std::size_t kW = share_width(kT);

std::vector<bool> share_bits(std::uint64_t v) { return value_to_bits(v, kW); }

// Splits a signed value into two additive shares mod t.
std::pair<std::uint64_t, std::uint64_t> make_shares(std::int64_t v, Rng& rng) {
  const std::uint64_t ring = fp_to_ring(v, kT);
  const std::uint64_t r = rng.uniform(kT);
  return {r, (ring + kT - r) % kT};
}

TEST(ShareWidth, Computations) {
  EXPECT_EQ(share_width(2), 1u);
  EXPECT_EQ(share_width(3), 2u);
  EXPECT_EQ(share_width(65537), 17u);
  EXPECT_EQ(share_width(kT), 20u);
}

TEST(FixedCircuits, ReconstructCenteredMatchesRingDecode) {
  Rng rng(100);
  CircuitBuilder b;
  const Bus sa = b.add_input_bus(kW);
  const Bus sb = b.add_input_bus(kW);
  const SignedBus v = reconstruct_centered(b, sa, sb, kT);
  b.set_outputs(v.bits);
  const Circuit c = b.build();

  for (std::int64_t val : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                           std::int64_t{5000}, std::int64_t{-5000},
                           std::int64_t{16383}, std::int64_t{-16384}}) {
    const auto [s1, s2] = make_shares(val, rng);
    auto in = share_bits(s1);
    const auto in2 = share_bits(s2);
    in.insert(in.end(), in2.begin(), in2.end());
    const auto out = eval_circuit(c, in);
    // Interpret as signed two's complement.
    std::int64_t got = static_cast<std::int64_t>(bits_to_value(out));
    if (out.back()) got -= std::int64_t{1} << out.size();
    EXPECT_EQ(got, val) << "value " << val;
  }
}

TEST(FixedCircuits, EmbedInvertsCenter) {
  Rng rng(101);
  CircuitBuilder b;
  const Bus sa = b.add_input_bus(kW);
  const Bus sb = b.add_input_bus(kW);
  const SignedBus v = reconstruct_centered(b, sa, sb, kT);
  b.set_outputs(embed_mod_t(b, v, kT));
  const Circuit c = b.build();

  for (int iter = 0; iter < 50; ++iter) {
    const std::int64_t val = rng.uniform_int(-100000, 100000);
    const auto [s1, s2] = make_shares(val, rng);
    auto in = share_bits(s1);
    const auto in2 = share_bits(s2);
    in.insert(in.end(), in2.begin(), in2.end());
    EXPECT_EQ(bits_to_value(eval_circuit(c, in)), fp_to_ring(val, kT));
  }
}

TEST(FixedCircuits, PwlExpAccuracy) {
  const PwlSpec spec{-8.0, 0.0, 5, [](double x) { return std::exp(x); }};
  const FixedPointFormat fmt;
  // PWL error over the range must stay within a few fixed-point ulps.
  for (double x = -8.0; x <= 0.0; x += 0.01) {
    const std::int64_t raw = fp_encode(x, fmt);
    const double approx = fp_decode(pwl_reference(raw, spec, fmt), fmt);
    EXPECT_NEAR(approx, std::exp(x), 0.02) << "x = " << x;
  }
}

TEST(FixedCircuits, PwlGeluAccuracy) {
  const PwlSpec spec{-4.0, 4.0, 5, &gelu_double};
  const FixedPointFormat fmt;
  for (double x = -4.0; x <= 4.0; x += 0.01) {
    const std::int64_t raw = fp_encode(x, fmt);
    const double approx = fp_decode(pwl_reference(raw, spec, fmt), fmt);
    EXPECT_NEAR(approx, gelu_double(x), 0.02) << "x = " << x;
  }
}

TEST(FixedCircuits, PwlCircuitMatchesReference) {
  const PwlSpec spec{-8.0, 0.0, 5, [](double x) { return std::exp(x); }};
  const FixedPointFormat fmt;
  const std::size_t sw = 24;
  CircuitBuilder b;
  const Bus in = b.add_input_bus(sw);
  b.set_outputs(pwl_apply(b, SignedBus{in}, spec, fmt).bits);
  const Circuit c = b.build();
  Rng rng(55);
  for (int iter = 0; iter < 100; ++iter) {
    const std::int64_t x = rng.uniform_int(-3000, 500);
    const auto out = eval_circuit(
        c, value_to_bits(static_cast<std::uint64_t>(x) & ((1ULL << sw) - 1),
                         sw));
    // The output bus is as wide as the table's proven output range.
    std::int64_t got = static_cast<std::int64_t>(bits_to_value(out));
    if (out.back()) got -= std::int64_t{1} << out.size();
    EXPECT_EQ(got, pwl_reference(x, spec, fmt)) << "x = " << x;
  }
}

class ActivationCircuitTest : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationCircuitTest, CircuitMatchesReference) {
  const Activation act = GetParam();
  ActivationCircuitSpec spec;
  spec.t = kT;
  spec.count = 3;
  spec.frac_shift = 8;  // post-matmul truncation
  spec.act = act;
  const Circuit c = make_activation_circuit(spec);

  Rng rng(200 + static_cast<int>(act));
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<std::int64_t> vals(spec.count);
    std::vector<bool> in_g, in_e, in_r;
    std::vector<std::uint64_t> rcs(spec.count);
    for (std::size_t i = 0; i < spec.count; ++i) {
      // Raw product-domain values (2*frac fractional bits).
      vals[i] = rng.uniform_int(-500000, 500000);
      const auto [s1, s2] = make_shares(vals[i], rng);
      rcs[i] = rng.uniform(kT);
      const auto g = share_bits(s1), e = share_bits(s2), r = share_bits(rcs[i]);
      in_g.insert(in_g.end(), g.begin(), g.end());
      in_e.insert(in_e.end(), e.begin(), e.end());
      in_r.insert(in_r.end(), r.begin(), r.end());
    }
    std::vector<bool> inputs = in_g;
    inputs.insert(inputs.end(), in_e.begin(), in_e.end());
    inputs.insert(inputs.end(), in_r.begin(), in_r.end());
    const auto out = eval_circuit(c, inputs);
    for (std::size_t i = 0; i < spec.count; ++i) {
      const std::vector<bool> bits(out.begin() + static_cast<long>(i * kW),
                                   out.begin() + static_cast<long>((i + 1) * kW));
      const std::uint64_t masked = bits_to_value(bits);
      // Unmask: result + rc mod t, then center.
      const std::int64_t got = fp_from_ring((masked + rcs[i]) % kT, kT);
      const std::int64_t expect =
          activation_reference(vals[i], spec.frac_shift, act, spec.fmt);
      EXPECT_EQ(got, expect) << "value " << vals[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Acts, ActivationCircuitTest,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kRelu,
                                           Activation::kGelu));

TEST(SoftmaxCircuit, MatchesReferenceSemantics) {
  SoftmaxCircuitSpec spec;
  spec.t = kT;
  spec.count = 4;
  spec.frac_shift = 8;
  const Circuit c = make_softmax_circuit(spec);

  Rng rng(300);
  for (int iter = 0; iter < 10; ++iter) {
    std::vector<std::int64_t> vals(spec.count);
    std::vector<bool> in_g, in_e, in_r;
    std::vector<std::uint64_t> rcs(spec.count);
    for (std::size_t i = 0; i < spec.count; ++i) {
      vals[i] = rng.uniform_int(-300000, 300000);
      const auto [s1, s2] = make_shares(vals[i], rng);
      rcs[i] = rng.uniform(kT);
      const auto g = share_bits(s1), e = share_bits(s2), r = share_bits(rcs[i]);
      in_g.insert(in_g.end(), g.begin(), g.end());
      in_e.insert(in_e.end(), e.begin(), e.end());
      in_r.insert(in_r.end(), r.begin(), r.end());
    }
    std::vector<bool> inputs = in_g;
    inputs.insert(inputs.end(), in_e.begin(), in_e.end());
    inputs.insert(inputs.end(), in_r.begin(), in_r.end());
    const auto out = eval_circuit(c, inputs);
    const auto expect = fixed_softmax_reference(vals, spec.frac_shift, spec.fmt);
    for (std::size_t i = 0; i < spec.count; ++i) {
      const std::vector<bool> bits(out.begin() + static_cast<long>(i * kW),
                                   out.begin() + static_cast<long>((i + 1) * kW));
      const std::int64_t got =
          fp_from_ring((bits_to_value(bits) + rcs[i]) % kT, kT);
      EXPECT_EQ(got, expect[i]) << "row slot " << i;
    }
  }
}

TEST(SoftmaxReference, SumsToApproximatelyOne) {
  Rng rng(400);
  const FixedPointFormat fmt;
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<std::int64_t> vals(8);
    for (auto& v : vals) v = rng.uniform_int(-500000, 500000);
    const auto sm = fixed_softmax_reference(vals, 8, fmt);
    double total = 0;
    for (const auto s : sm) {
      EXPECT_GE(s, 0);
      total += fp_decode(s, fmt);
    }
    EXPECT_NEAR(total, 1.0, 0.1);
  }
}

TEST(SoftmaxReference, MatchesFloatSoftmaxShape) {
  // The exact-GC softmax should track float softmax closely (this is the
  // accuracy property Primer claims over THE-X's polynomial approximation).
  const FixedPointFormat fmt;
  const std::vector<double> xs = {1.0, 2.0, 0.5, -1.0};
  std::vector<std::int64_t> raw(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    raw[i] = fp_encode(xs[i], fmt) << fmt.frac_bits;  // product domain
  }
  const auto sm = fixed_softmax_reference(raw, 8, fmt);
  double denom = 0;
  for (const double x : xs) denom += std::exp(x - 2.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double expect = std::exp(xs[i] - 2.0) / denom;
    EXPECT_NEAR(fp_decode(sm[i], fmt), expect, 0.03) << "slot " << i;
  }
}

TEST(SoftmaxCircuit, GarbledExecutionMatchesPlain) {
  SoftmaxCircuitSpec spec;
  spec.t = 65537;  // small prime keeps the garbled run fast
  spec.count = 3;
  spec.frac_shift = 8;
  const Circuit c = make_softmax_circuit(spec);
  Rng rng(500);
  std::vector<bool> inputs(static_cast<std::size_t>(c.num_inputs));
  for (auto&& bit : inputs) bit = rng.next() & 1;
  EXPECT_EQ(garbled_eval(c, inputs, rng), eval_circuit(c, inputs));
}

TEST(ActivationCircuit, GarbledExecutionMatchesPlain) {
  ActivationCircuitSpec spec;
  spec.t = 65537;
  spec.count = 2;
  spec.frac_shift = 8;
  spec.act = Activation::kGelu;
  const Circuit c = make_activation_circuit(spec);
  Rng rng(600);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<bool> inputs(static_cast<std::size_t>(c.num_inputs));
    for (auto&& bit : inputs) bit = rng.next() & 1;
    EXPECT_EQ(garbled_eval(c, inputs, rng), eval_circuit(c, inputs));
  }
}

// AND gates of one copy of each circuit at the proto2048 share modulus
// (t ~ 2^38, 39-bit shares), as upper bounds at the counts reached with
// every bus at its proven width.  A change that widens a bus, or brings
// back a share-width stage, fails here.
TEST(AndBudget, CircuitsStayWidthMinimal) {
  const std::uint64_t t = make_params(HeProfile::kProto2048).t;
  const auto act = [&](Activation a, std::size_t frac) {
    ActivationCircuitSpec spec;
    spec.t = t;
    spec.frac_shift = frac;
    spec.act = a;
    return make_activation_circuit(spec).and_count();
  };
  EXPECT_LE(act(Activation::kIdentity, 0), 281u);  // embed
  EXPECT_LE(act(Activation::kIdentity, 8), 273u);
  EXPECT_LE(act(Activation::kRelu, 8), 272u);
  EXPECT_LE(act(Activation::kGelu, 8), 541u);

  const auto softmax = [&](std::size_t n, std::size_t shift) {
    SoftmaxCircuitSpec spec;
    spec.t = t;
    spec.count = n;
    spec.frac_shift = shift;
    return make_softmax_circuit(spec).and_count();
  };
  EXPECT_LE(softmax(4, 8), 2454u);
  EXPECT_LE(softmax(4, 24), 2330u);

  LayerNormCircuitSpec ln;
  ln.t = t;
  ln.d = 16;
  ln.frac_shift = 8;
  for (std::int64_t i = 0; i < 16; ++i) {
    ln.gamma.push_back(200 + 13 * i);
    ln.beta.push_back(-30 + 7 * i);
  }
  EXPECT_LE(make_layernorm_circuit(ln).and_count(), 19772u);
}

// --- Sweeps --------------------------------------------------------------
//
// Every circuit is checked against its plain reference over whole value
// ranges, not samples.  eval_circuit would need over a minute for these
// sweeps, so they run bit-sliced: 64 input vectors per pass over the gate
// list, word i holding wire i of every lane.

using Lanes = std::vector<std::uint64_t>;

Lanes eval64(const Circuit& c, const Lanes& inputs) {
  Lanes w(static_cast<std::size_t>(c.num_wires), 0);
  std::copy(inputs.begin(), inputs.end(), w.begin());
  for (const auto& g : c.gates) {
    switch (g.type) {
      case GateType::kXor:
        w[g.out] = w[g.a] ^ w[g.b];
        break;
      case GateType::kAnd:
        w[g.out] = w[g.a] & w[g.b];
        break;
      case GateType::kNot:
        w[g.out] = ~w[g.a];
        break;
    }
  }
  Lanes out(c.outputs.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = w[c.outputs[i]];
  return out;
}

// Appends `width` words carrying vals[lane] (LSB first) in each lane.
void pack(Lanes& words, const std::vector<std::uint64_t>& vals,
          std::size_t width) {
  for (std::size_t j = 0; j < width; ++j) {
    std::uint64_t word = 0;
    for (std::size_t lane = 0; lane < vals.size(); ++lane) {
      word |= ((vals[lane] >> j) & 1) << lane;
    }
    words.push_back(word);
  }
}

std::uint64_t unpack(const Lanes& words, std::size_t offset, std::size_t width,
                     std::size_t lane) {
  std::uint64_t v = 0;
  for (std::size_t j = 0; j < width; ++j) {
    v |= ((words[offset + j] >> lane) & 1) << j;
  }
  return v;
}

// Centered representative in (-t/2, t/2] of x mod t: what a ring value
// reconstructs to, and so what the reference must be given.
std::int64_t wrap(std::int64_t x, std::uint64_t t) {
  return fp_from_ring(fp_to_ring(x, t), t);
}

// Runs a share-in, masked-out circuit ([garbler groups | evaluator groups |
// masks], each group `n` values of share width) on `secrets`, laid out
// [row][group][i] with `groups` groups per row, and returns the unmasked
// centered outputs [row][i].
std::vector<std::int64_t> run_rows(const Circuit& c, std::uint64_t t,
                                   std::size_t groups, std::size_t n,
                                   const std::vector<std::int64_t>& secrets,
                                   Rng& rng) {
  const std::size_t w = share_width(t);
  const std::size_t per_row = groups * n;
  const std::size_t rows = secrets.size() / per_row;
  std::vector<std::int64_t> result(rows * n);
  for (std::size_t first = 0; first < rows; first += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, rows - first);
    // share[g][i][lane] for both parties, then masks[i][lane].
    std::vector<std::vector<std::uint64_t>> sg(per_row), se(per_row), rc(n);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (std::size_t k = 0; k < per_row; ++k) {
        const std::uint64_t v = fp_to_ring(secrets[(first + lane) * per_row + k], t);
        const std::uint64_t r = rng.uniform(t);
        sg[k].push_back(r);
        se[k].push_back((v + t - r) % t);
      }
      for (std::size_t i = 0; i < n; ++i) rc[i].push_back(rng.uniform(t));
    }
    Lanes in;
    in.reserve(static_cast<std::size_t>(c.num_inputs));
    for (const auto& v : sg) pack(in, v, w);
    for (const auto& v : se) pack(in, v, w);
    for (const auto& v : rc) pack(in, v, w);
    const Lanes out = eval64(c, in);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t masked = unpack(out, i * w, w, lane);
        result[(first + lane) * n + i] =
            fp_from_ring((masked + rc[i][lane]) % t, t);
      }
    }
  }
  return result;
}

// The proto2048 and prod8192 plaintext moduli and the suite prime.
std::vector<std::uint64_t> sweep_moduli() {
  return {make_params(HeProfile::kProto2048).t,
          make_params(HeProfile::kProd8192).t, kT};
}

TEST(CircuitSweep, ElementwiseCircuitsMatchReferenceEverywhere) {
  const FixedPointFormat fmt;
  Rng rng(700);
  for (const std::uint64_t t : sweep_moduli()) {
    for (const std::size_t frac : {std::size_t{0}, std::size_t{8}}) {
      // All 2^17 truncated values in [-2^16, 2^16) — four times the clamp
      // window — each with random fraction bits, then random ring values.
      std::vector<std::int64_t> xs;
      for (std::int64_t v = -(1 << 16); v < (1 << 16); ++v) {
        const auto low = static_cast<std::int64_t>(rng.next() & ((1u << frac) - 1));
        xs.push_back(wrap(v * (std::int64_t{1} << frac) + low, t));
      }
      for (int i = 0; i < 4096; ++i) {
        xs.push_back(fp_from_ring(rng.uniform(t), t));
      }
      const auto half = static_cast<std::int64_t>(t / 2);
      for (const std::int64_t x : {half, -half, half - 1, -half + 1}) {
        xs.push_back(wrap(x, t));
      }
      for (const Activation act :
           {Activation::kIdentity, Activation::kRelu, Activation::kGelu}) {
        ActivationCircuitSpec spec;
        spec.t = t;
        spec.frac_shift = frac;
        spec.act = act;
        const Circuit c = make_activation_circuit(spec);
        const auto got = run_rows(c, t, 1, 1, xs, rng);
        std::size_t bad = 0;
        for (std::size_t i = 0; i < xs.size(); ++i) {
          const std::int64_t want = activation_reference(xs[i], frac, act, fmt);
          if (got[i] != want && bad++ < 3) {
            ADD_FAILURE() << "t=" << t << " frac=" << frac << " act="
                          << static_cast<int>(act) << " x=" << xs[i]
                          << ": got " << got[i] << ", want " << want;
          }
        }
        EXPECT_EQ(bad, 0u);
      }
    }
  }
}

TEST(CircuitSweep, PwlTablesMatchReferenceOverTheirDomain) {
  const FixedPointFormat fmt;
  const PwlSpec specs[] = {
      {-8.0, 0.0, 5, [](double x) { return std::exp(x); }},
      {-4.0, 4.0, 5, &gelu_double},
      layernorm_rsqrt_spec()};
  // A 16-bit input covers each clamped domain and the saturation on both
  // sides of it.
  constexpr std::size_t kIn = 16;
  for (const auto& spec : specs) {
    CircuitBuilder b;
    const Bus in = b.add_input_bus(kIn);
    b.set_outputs(pwl_apply(b, SignedBus{in}, spec, fmt).bits);
    const Circuit c = b.build();
    const std::size_t ow = c.outputs.size();
    std::size_t bad = 0;
    for (std::uint64_t first = 0; first < (1u << kIn); first += 64) {
      std::vector<std::uint64_t> vals(64);
      for (std::uint64_t lane = 0; lane < 64; ++lane) vals[lane] = first + lane;
      Lanes words;
      pack(words, vals, kIn);
      const Lanes out = eval64(c, words);
      for (std::size_t lane = 0; lane < 64; ++lane) {
        std::int64_t x = static_cast<std::int64_t>(vals[lane]);
        if (x >= (1 << (kIn - 1))) x -= 1 << kIn;
        auto got = static_cast<std::int64_t>(unpack(out, 0, ow, lane));
        if ((got >> (ow - 1)) & 1) got -= std::int64_t{1} << ow;
        const std::int64_t want = pwl_reference(x, spec, fmt);
        if (got != want && bad++ < 3) {
          ADD_FAILURE() << "x=" << x << ": got " << got << ", want " << want;
        }
      }
    }
    EXPECT_EQ(bad, 0u);
  }
}

// Softmax inputs, one row per scenario, built to reach every saturation
// edge: the clamp window, exp's -8 cutoff, ties at the max and q = 1.
std::vector<std::int64_t> softmax_row(std::size_t n, std::size_t shift,
                                      std::uint64_t t, std::size_t kind,
                                      Rng& rng) {
  const std::int64_t edge = std::int64_t{1} << 14;
  std::vector<std::int64_t> v(n);
  const auto low = [&] {
    return static_cast<std::int64_t>(rng.next() & ((std::uint64_t{1} << shift) - 1));
  };
  const std::int64_t top = rng.uniform_int(-edge - 8, edge + 8);
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t y = 0;
    switch (kind) {
      case 0:  // anywhere in the ring
        v[i] = fp_from_ring(rng.uniform(t), t);
        continue;
      case 1:  // around the clamp edges
        y = rng.uniform_int(0, 1) ? rng.uniform_int(edge - 4, edge + 4)
                                  : rng.uniform_int(-edge - 4, -edge + 4);
        break;
      case 2:  // all tied
        y = top;
        break;
      case 3:  // one max, the rest around exp's -8 cutoff
        y = i == 0 ? top : top - 2048 + rng.uniform_int(-3, 3);
        break;
      case 4:  // inside the window
        y = rng.uniform_int(-edge, edge - 1);
        break;
      default:  // just below the max
        y = top - rng.uniform_int(0, 3);
        break;
    }
    v[i] = wrap(y * (std::int64_t{1} << shift) + low(), t);
  }
  return v;
}

TEST(CircuitSweep, SoftmaxRowsMatchReference) {
  const FixedPointFormat fmt;
  Rng rng(800);
  for (const std::uint64_t t : {make_params(HeProfile::kProto2048).t, kT}) {
    for (const std::size_t n : {4, 8, 30}) {
      for (const std::size_t shift : {8, 24}) {
        SoftmaxCircuitSpec spec;
        spec.t = t;
        spec.count = n;
        spec.frac_shift = shift;
        const Circuit c = make_softmax_circuit(spec);
        constexpr std::size_t kRows = 384;
        std::vector<std::int64_t> xs;
        for (std::size_t r = 0; r < kRows; ++r) {
          const auto row = softmax_row(n, shift, t, r % 6, rng);
          xs.insert(xs.end(), row.begin(), row.end());
        }
        const auto got = run_rows(c, t, 1, n, xs, rng);
        std::size_t bad = 0;
        for (std::size_t r = 0; r < kRows; ++r) {
          const std::vector<std::int64_t> row(xs.begin() + static_cast<long>(r * n),
                                              xs.begin() + static_cast<long>((r + 1) * n));
          const auto want = fixed_softmax_reference(row, shift, fmt);
          for (std::size_t i = 0; i < n; ++i) {
            if (got[r * n + i] != want[i] && bad++ < 3) {
              ADD_FAILURE() << "t=" << t << " n=" << n << " shift=" << shift
                            << " row kind " << r % 6 << " slot " << i
                            << ": got " << got[r * n + i] << ", want " << want[i];
            }
          }
        }
        EXPECT_EQ(bad, 0u);
      }
    }
  }
}

TEST(CircuitSweep, LayerNormRowsMatchReference) {
  const FixedPointFormat fmt;
  const std::int64_t edge = std::int64_t{1} << 14;
  Rng rng(900);
  for (const std::uint64_t t : {make_params(HeProfile::kProto2048).t, kT}) {
    for (const std::size_t d : {4, 12, 16, 32}) {  // 12: non-power-of-two mean and variance division
      for (int params = 0; params < 3; ++params) {
        LayerNormCircuitSpec spec;
        spec.t = t;
        spec.d = d;
        spec.frac_shift = 8;
        for (std::size_t i = 0; i < d; ++i) {
          switch (params) {
            case 0:  // anywhere in the format, negative included
              spec.gamma.push_back(rng.uniform_int(-edge, edge - 1));
              spec.beta.push_back(rng.uniform_int(-edge, edge - 1));
              break;
            case 1:  // the format's extremes and zero
              spec.gamma.push_back(std::vector<std::int64_t>{
                  edge - 1, -edge, 0, 256, -256}[i % 5]);
              spec.beta.push_back(std::vector<std::int64_t>{
                  -edge, edge - 1, 0, 37}[i % 4]);
              break;
            default:  // trained-model scale
              spec.gamma.push_back(256 + rng.uniform_int(-64, 64));
              spec.beta.push_back(rng.uniform_int(-64, 64));
              break;
          }
        }
        const Circuit c = make_layernorm_circuit(spec);
        constexpr std::size_t kRows = 288;
        std::vector<std::int64_t> xs;  // [row][acc d | residual d]
        for (std::size_t r = 0; r < kRows; ++r) {
          // Kinds 4 and 5 saturate every element (to one bound, then
          // alternating), reaching the largest |mean| and variance.
          const std::size_t kind = r % 6;
          for (std::size_t i = 0; i < d; ++i) {  // acc: 2*frac fractional bits
            const std::int64_t y =
                kind == 0 ? rng.uniform_int(-edge, edge - 1)
                : kind == 1 ? rng.uniform_int(edge - 4, edge + 4) * (rng.next() & 1 ? 1 : -1)
                : kind == 2 || kind > 3 ? rng.uniform_int(-64, 64)
                            : rng.uniform_int(-4 * edge, 4 * edge);
            xs.push_back(kind == 3 && i % 3 == 0
                             ? fp_from_ring(rng.uniform(t), t)
                             : wrap(y * 256 + static_cast<std::int64_t>(rng.next() & 255), t));
          }
          for (std::size_t i = 0; i < d; ++i) {  // residual
            const std::int64_t y =
                kind == 0 ? rng.uniform_int(-edge, edge - 1)
                : kind == 1 ? rng.uniform_int(-2 * edge, 2 * edge)
                : kind == 2 ? rng.uniform_int(-64, 64)
                : kind == 3 ? fp_from_ring(rng.uniform(t), t)
                : kind == 4 ? -2 * edge - rng.uniform_int(0, 64)
                            : (i % 2 ? 2 : -2) * edge;
            xs.push_back(wrap(y, t));
          }
        }
        const auto got = run_rows(c, t, 2, d, xs, rng);
        std::size_t bad = 0;
        for (std::size_t r = 0; r < kRows; ++r) {
          std::vector<std::int64_t> s(d);
          for (std::size_t i = 0; i < d; ++i) {
            const std::int64_t acc = xs[r * 2 * d + i];
            const std::int64_t res = xs[r * 2 * d + d + i];
            s[i] = fp_saturate(res + fp_saturate(acc >> 8, fmt), fmt);
          }
          const auto want = fixed_layernorm_row(s, spec.gamma, spec.beta, fmt);
          for (std::size_t i = 0; i < d; ++i) {
            if (got[r * d + i] != want[i] && bad++ < 3) {
              ADD_FAILURE() << "t=" << t << " d=" << d << " params " << params
                            << " row " << r << " slot " << i << ": got "
                            << got[r * d + i] << ", want " << want[i];
            }
          }
        }
        EXPECT_EQ(bad, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace primer
