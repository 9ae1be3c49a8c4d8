// Property-style sweeps (TEST_P) across the substrates' parameter spaces:
// HE homomorphism at several moduli, share-circuit round trips at several
// plaintext moduli and widths, fixed-softmax invariants across shift/size
// combinations, and a smoke test at the full 128-bit-secure parameters.
#include <gtest/gtest.h>

#include <cmath>

#include "gc/fixed_circuits.h"
#include "gc/protocol.h"
#include "he/encoder.h"
#include "he/he.h"
#include "ss/secret_share.h"

namespace primer {
namespace {

// ---------------------------------------------------------------------------
// HE homomorphism under random op sequences
// ---------------------------------------------------------------------------

class HeRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeRandomOps, RandomAddSubChainsMatchPlainModel) {
  const HeContext ctx(make_params(HeProfile::kTest2048));
  Rng rng(GetParam());
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Decryptor dec(ctx, keygen.secret_key());
  const Evaluator eval(ctx);
  const std::uint64_t t = ctx.t();

  const std::size_t lanes = 32;
  std::vector<std::uint64_t> model(lanes);
  for (auto& v : model) v = rng.uniform(t);
  Ciphertext ct = enc.encrypt(encoder.encode(model));

  for (int op = 0; op < 30; ++op) {
    std::vector<std::uint64_t> operand(lanes);
    for (auto& v : operand) v = rng.uniform(t);
    const auto pt = encoder.encode(operand);
    switch (rng.uniform(4)) {
      case 0: {
        const auto other = enc.encrypt(pt);
        eval.add_inplace(ct, other);
        for (std::size_t i = 0; i < lanes; ++i) {
          model[i] = (model[i] + operand[i]) % t;
        }
        break;
      }
      case 1: {
        const auto other = enc.encrypt(pt);
        eval.sub_inplace(ct, other);
        for (std::size_t i = 0; i < lanes; ++i) {
          model[i] = (model[i] + t - operand[i]) % t;
        }
        break;
      }
      case 2:
        eval.add_plain_inplace(ct, pt);
        for (std::size_t i = 0; i < lanes; ++i) {
          model[i] = (model[i] + operand[i]) % t;
        }
        break;
      default:
        eval.sub_plain_inplace(ct, pt);
        for (std::size_t i = 0; i < lanes; ++i) {
          model[i] = (model[i] + t - operand[i]) % t;
        }
        break;
    }
  }
  const auto got = encoder.decode(dec.decrypt(ct));
  for (std::size_t i = 0; i < lanes; ++i) ASSERT_EQ(got[i], model[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeRandomOps,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// Secure production parameters smoke test
// ---------------------------------------------------------------------------

TEST(ProdParams, FullOpSuiteAtSecureParameters) {
  const HeContext ctx(make_params(HeProfile::kProd8192));
  ASSERT_TRUE(ctx.params().secure_128);
  Rng rng(9);
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Decryptor dec(ctx, keygen.secret_key());
  const Evaluator eval(ctx);
  const auto gk = expand_keys(ctx, keygen.make_galois_keys({1}));
  const auto rk = expand_keys(ctx, keygen.make_relin_key());
  const std::uint64_t t = ctx.t();

  std::vector<std::uint64_t> a = {1, 2, 3, 4}, b = {10, 20, 30, 40};
  auto ca = enc.encrypt(encoder.encode(a));
  const auto cb = enc.encrypt(encoder.encode(b));
  eval.add_inplace(ca, cb);
  eval.multiply_plain_inplace(ca, encoder.encode({2, 2, 2, 2}));
  eval.rotate_rows_inplace(ca, 1, gk);
  auto prod = eval.multiply(ca, cb);
  eval.relinearize_inplace(prod, rk);
  const auto out = encoder.decode(dec.decrypt(prod));
  // slot0 after rotate holds 2*(a1+b1); multiplied by b0.
  EXPECT_EQ(out[0], (2 * (a[1] + b[1]) % t) * b[0] % t);
  EXPECT_GT(dec.noise_budget(prod), 0.0);
}

// ---------------------------------------------------------------------------
// Share-circuit sweeps over plaintext moduli
// ---------------------------------------------------------------------------

class ShareCircuitModuli : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShareCircuitModuli, ReluRoundTripAcrossModuli) {
  const std::uint64_t t = GetParam();
  const std::size_t w = share_width(t);
  ActivationCircuitSpec spec;
  spec.t = t;
  spec.count = 2;
  spec.frac_shift = 8;
  spec.act = Activation::kRelu;
  const Circuit c = make_activation_circuit(spec);
  Rng rng(t);
  const ShareRing ring(t);
  for (int iter = 0; iter < 10; ++iter) {
    const std::int64_t bound =
        std::min<std::int64_t>(400000, static_cast<std::int64_t>(t / 2 - 1));
    std::vector<std::int64_t> vals = {rng.uniform_int(-bound, bound),
                                      rng.uniform_int(-bound, bound)};
    std::vector<bool> in_g, in_e, in_r;
    std::vector<std::uint64_t> rcs;
    for (const auto v : vals) {
      const std::uint64_t ringv = fp_to_ring(v, t);
      const std::uint64_t share1 = rng.uniform(t);
      const std::uint64_t share2 = (ringv + t - share1) % t;
      const std::uint64_t rc = rng.uniform(t);
      rcs.push_back(rc);
      const auto g = value_to_bits(share1, w);
      const auto e = value_to_bits(share2, w);
      const auto r = value_to_bits(rc, w);
      in_g.insert(in_g.end(), g.begin(), g.end());
      in_e.insert(in_e.end(), e.begin(), e.end());
      in_r.insert(in_r.end(), r.begin(), r.end());
    }
    std::vector<bool> inputs = in_g;
    inputs.insert(inputs.end(), in_e.begin(), in_e.end());
    inputs.insert(inputs.end(), in_r.begin(), in_r.end());
    const auto out = eval_circuit(c, inputs);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      const std::vector<bool> bits(out.begin() + static_cast<long>(i * w),
                                   out.begin() + static_cast<long>((i + 1) * w));
      const std::int64_t got =
          ring.center(static_cast<std::int64_t>(
              (bits_to_value(bits) + rcs[i]) % t));
      EXPECT_EQ(got, activation_reference(vals[i], 8, Activation::kRelu,
                                          spec.fmt))
          << "t=" << t << " v=" << vals[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Moduli, ShareCircuitModuli,
                         ::testing::Values(1032193ULL,          // ~2^20
                                           68719403009ULL,      // ~2^36
                                           274877906951ULL));   // ~2^38

// ---------------------------------------------------------------------------
// Softmax invariants across sizes and shifts
// ---------------------------------------------------------------------------

struct SoftmaxCase {
  std::size_t count;
  std::size_t shift;
};

class SoftmaxInvariants : public ::testing::TestWithParam<SoftmaxCase> {};

TEST_P(SoftmaxInvariants, NonNegativeSumsNearOneOrderPreserved) {
  const auto [count, shift] = GetParam();
  Rng rng(count * 100 + shift);
  const FixedPointFormat fmt;
  for (int iter = 0; iter < 25; ++iter) {
    std::vector<std::int64_t> x(count);
    for (auto& v : x) {
      v = rng.uniform_int(-(1LL << (shift + 10)), 1LL << (shift + 10));
    }
    const auto sm = fixed_softmax_reference(x, shift, fmt);
    double total = 0;
    for (const auto s : sm) {
      ASSERT_GE(s, 0);
      total += fp_decode(s, fmt);
    }
    EXPECT_NEAR(total, 1.0, 0.15);
    // Order preservation: the max input gets the max probability.
    std::size_t argmax_in = 0, argmax_out = 0;
    for (std::size_t i = 1; i < count; ++i) {
      if (x[i] > x[argmax_in]) argmax_in = i;
      if (sm[i] > sm[argmax_out]) argmax_out = i;
    }
    EXPECT_GE(sm[argmax_in], sm[argmax_out] - fmt.scale() / 64);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SoftmaxInvariants,
    ::testing::Values(SoftmaxCase{4, 8}, SoftmaxCase{8, 8}, SoftmaxCase{30, 8},
                      SoftmaxCase{8, 24}, SoftmaxCase{16, 16}));

// ---------------------------------------------------------------------------
// Garbling is correct on the actual protocol circuits (fuzzed inputs)
// ---------------------------------------------------------------------------

TEST(GarbledProtocolCircuits, LayerNormGarbledMatchesPlain) {
  LayerNormCircuitSpec spec;
  spec.t = 1032193;
  spec.d = 4;
  spec.frac_shift = 8;
  spec.gamma.assign(4, 256);
  spec.beta.assign(4, 0);
  const Circuit c = make_layernorm_circuit(spec);
  Rng rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<bool> in(static_cast<std::size_t>(c.num_inputs));
    for (auto&& b : in) b = rng.next() & 1;
    EXPECT_EQ(garbled_eval(c, in, rng), eval_circuit(c, in));
  }
}

}  // namespace
}  // namespace primer
