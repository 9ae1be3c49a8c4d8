// Tests for the HE substrate: parameter generation, CRT composition,
// encrypt/decrypt round-trips, homomorphic add / plain-mult / ct-mult /
// rotations, batching semantics, noise budget behaviour, and the packed /
// seeded wire codec.
//
// The HeTest fixture runs on the kTest2048 profile (fast, NOT secure) — the
// secure profiles use identical code paths with bigger tables; the codec
// tests run at every profile.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <memory>
#include <type_traits>

#include "common/fixed_point.h"
#include "common/parallel.h"
#include "he/codec.h"
#include "he/encoder.h"
#include "he/he.h"
#include "he/u256.h"

namespace primer {
namespace {

class HeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = new HeContext(make_params(HeProfile::kTest2048));
    rng_ = new Rng(2024);
    keygen_ = new KeyGenerator(*ctx_, *rng_);
    pk_ = new PublicKey(keygen_->make_public_key());
    rk_ = new RelinKey(expand_keys(*ctx_, keygen_->make_relin_key()));
    gk_ = new GaloisKeys(expand_keys(
        *ctx_, keygen_->make_galois_keys({1, 2, -1, 5},
                                         /*include_row_swap=*/true)));
    encoder_ = new BatchEncoder(*ctx_);
    enc_sym_ = new Encryptor(*ctx_, keygen_->secret_key(), *rng_);
    enc_pub_ = new Encryptor(*ctx_, *pk_, *rng_);
    dec_ = new Decryptor(*ctx_, keygen_->secret_key());
    eval_ = new Evaluator(*ctx_);
  }

  static void TearDownTestSuite() {
    delete eval_; delete dec_; delete enc_pub_; delete enc_sym_;
    delete encoder_; delete gk_; delete rk_; delete pk_; delete keygen_;
    delete rng_; delete ctx_;
    ctx_ = nullptr;
  }

  static std::vector<u64> random_slots(u64 bound, std::size_t count) {
    std::vector<u64> v(count);
    for (auto& x : v) x = rng_->uniform(bound);
    return v;
  }

  static HeContext* ctx_;
  static Rng* rng_;
  static KeyGenerator* keygen_;
  static PublicKey* pk_;
  static RelinKey* rk_;
  static GaloisKeys* gk_;
  static BatchEncoder* encoder_;
  static Encryptor* enc_sym_;
  static Encryptor* enc_pub_;
  static Decryptor* dec_;
  static Evaluator* eval_;
};

HeContext* HeTest::ctx_ = nullptr;
Rng* HeTest::rng_ = nullptr;
KeyGenerator* HeTest::keygen_ = nullptr;
PublicKey* HeTest::pk_ = nullptr;
RelinKey* HeTest::rk_ = nullptr;
GaloisKeys* HeTest::gk_ = nullptr;
BatchEncoder* HeTest::encoder_ = nullptr;
Encryptor* HeTest::enc_sym_ = nullptr;
Encryptor* HeTest::enc_pub_ = nullptr;
Decryptor* HeTest::dec_ = nullptr;
Evaluator* HeTest::eval_ = nullptr;

TEST_F(HeTest, ParamsSatisfyNttConstraints) {
  const auto& p = ctx_->params();
  EXPECT_EQ(p.poly_degree, 2048u);
  for (u64 q : p.q) EXPECT_EQ((q - 1) % (2 * p.poly_degree), 0u);
  EXPECT_EQ((p.t - 1) % (2 * p.poly_degree), 0u);
}

TEST_F(HeTest, SecureProfilesMeetStandardBounds) {
  const auto light = make_params(HeProfile::kLight4096);
  EXPECT_TRUE(light.secure_128);
  EXPECT_LE(light.log2_q(), 109.0);
  const auto prod = make_params(HeProfile::kProd8192);
  EXPECT_TRUE(prod.secure_128);
  EXPECT_LE(prod.log2_q(), 218.0);
  EXPECT_GT(prod.t, u64{1} << 40);  // holds BERT-base MAC accumulations
}

TEST_F(HeTest, U256Arithmetic) {
  U256 a = U256::from_u64(~0ULL);
  U256 b = a + U256::from_u64(1);
  EXPECT_EQ(b.limb[0], 0u);
  EXPECT_EQ(b.limb[1], 1u);
  EXPECT_EQ((b - U256::from_u64(1)).limb[0], ~0ULL);
  const U256 c = U256::from_u64(1234567).mul_u64(7654321);
  EXPECT_EQ(c.limb[0], 1234567ULL * 7654321ULL);
  EXPECT_EQ(c.mod_u64(97), (1234567ULL * 7654321ULL) % 97);
}

TEST_F(HeTest, U256ModLargeValue) {
  // (2^128 + 5) mod 1000003 computed two ways.
  U256 v;
  v.limb[2] = 1;
  v.limb[0] = 5;
  unsigned __int128 r = 1;
  for (int i = 0; i < 128; ++i) r = (r * 2) % 1000003;
  EXPECT_EQ(v.mod_u64(1000003), static_cast<u64>((r + 5) % 1000003));
}

TEST_F(HeTest, CrtComposeRoundTrip) {
  // Encode small signed values into RNS and verify centered mod-t recovery.
  // Values must stay within the centered range (-t/2, t/2] to round-trip.
  const u64 t = ctx_->t();
  ASSERT_GT(t, u64{1} << 20);
  for (i64 val : {i64{0}, i64{1}, i64{-1}, i64{123456}, i64{-400000}}) {
    std::vector<u64> residues(ctx_->rns_size());
    for (std::size_t i = 0; i < ctx_->rns_size(); ++i) {
      const u64 q = ctx_->q(i);
      residues[i] = val >= 0 ? static_cast<u64>(val) % q
                             : q - (static_cast<u64>(-val) % q);
    }
    const u64 got = ctx_->compose_center_mod_t(residues);
    EXPECT_EQ(fp_from_ring(got, t), val);
  }
}

TEST_F(HeTest, EncodeDecodeRoundTrip) {
  const auto v = random_slots(ctx_->t(), encoder_->slot_count());
  EXPECT_EQ(encoder_->decode(encoder_->encode(v)), v);
}

TEST_F(HeTest, EncodeRejectsOutOfRange) {
  EXPECT_THROW(encoder_->encode({ctx_->t()}), std::invalid_argument);
  EXPECT_THROW(
      encoder_->encode(std::vector<u64>(encoder_->slot_count() + 1, 0)),
      std::invalid_argument);
}

TEST_F(HeTest, SignedEncodeRoundTrip) {
  std::vector<i64> v = {0, 1, -1, 5000, -5000, 123, -456};
  const auto decoded = encoder_->decode_signed(encoder_->encode_signed(v));
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(decoded[i], v[i]);
}

TEST_F(HeTest, SymmetricEncryptDecrypt) {
  const auto v = random_slots(ctx_->t(), 100);
  const auto ct = enc_sym_->encrypt(encoder_->encode(v));
  const auto out = encoder_->decode(dec_->decrypt(ct));
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(out[i], v[i]);
}

TEST_F(HeTest, PublicKeyEncryptDecrypt) {
  const auto v = random_slots(ctx_->t(), 100);
  const auto ct = enc_pub_->encrypt(encoder_->encode(v));
  const auto out = encoder_->decode(dec_->decrypt(ct));
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(out[i], v[i]);
}

TEST_F(HeTest, FreshSymmetricNoiseSmallerThanPublic) {
  const auto pt = encoder_->encode({1, 2, 3});
  const double sym_budget = dec_->noise_budget(enc_sym_->encrypt(pt));
  const double pub_budget = dec_->noise_budget(enc_pub_->encrypt(pt));
  EXPECT_GT(sym_budget, pub_budget);
  EXPECT_GT(pub_budget, 0.0);
}

TEST_F(HeTest, HomomorphicAdd) {
  const auto a = random_slots(ctx_->t(), 50);
  const auto b = random_slots(ctx_->t(), 50);
  auto ca = enc_sym_->encrypt(encoder_->encode(a));
  const auto cb = enc_sym_->encrypt(encoder_->encode(b));
  eval_->add_inplace(ca, cb);
  const auto out = encoder_->decode(dec_->decrypt(ca));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(out[i], (a[i] + b[i]) % ctx_->t());
  }
}

TEST_F(HeTest, HomomorphicSubAndNegate) {
  const auto a = random_slots(ctx_->t(), 50);
  const auto b = random_slots(ctx_->t(), 50);
  auto ca = enc_sym_->encrypt(encoder_->encode(a));
  const auto cb = enc_sym_->encrypt(encoder_->encode(b));
  eval_->sub_inplace(ca, cb);
  eval_->negate_inplace(ca);
  const auto out = encoder_->decode(dec_->decrypt(ca));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(out[i], (b[i] + ctx_->t() - a[i]) % ctx_->t());
  }
}

TEST_F(HeTest, AddPlainAndSubPlain) {
  const auto a = random_slots(ctx_->t(), 50);
  const auto b = random_slots(ctx_->t(), 50);
  auto ct = enc_sym_->encrypt(encoder_->encode(a));
  eval_->add_plain_inplace(ct, encoder_->encode(b));
  auto out = encoder_->decode(dec_->decrypt(ct));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(out[i], (a[i] + b[i]) % ctx_->t());
  }
  eval_->sub_plain_inplace(ct, encoder_->encode(b));
  out = encoder_->decode(dec_->decrypt(ct));
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(out[i], a[i]);
}

TEST_F(HeTest, MultiplyPlainSlotwise) {
  const auto a = random_slots(1 << 15, 64);
  const auto b = random_slots(1 << 4, 64);
  auto ct = enc_sym_->encrypt(encoder_->encode(a));
  eval_->multiply_plain_inplace(ct, encoder_->encode(b));
  const auto out = encoder_->decode(dec_->decrypt(ct));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(out[i], (a[i] * b[i]) % ctx_->t());
  }
}

TEST_F(HeTest, CiphertextMultiplyAndRelinearize) {
  const auto a = random_slots(1 << 9, 32);
  const auto b = random_slots(1 << 9, 32);
  const auto ca = enc_sym_->encrypt(encoder_->encode(a));
  const auto cb = enc_sym_->encrypt(encoder_->encode(b));
  auto prod = eval_->multiply(ca, cb);
  EXPECT_EQ(prod.size(), 3u);
  // Decryption works on the 3-part ciphertext directly...
  auto out = encoder_->decode(dec_->decrypt(prod));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(out[i], (a[i] * b[i]) % ctx_->t()) << "pre-relin slot " << i;
  }
  // ...and after relinearization back to 2 parts.
  eval_->relinearize_inplace(prod, *rk_);
  EXPECT_EQ(prod.size(), 2u);
  out = encoder_->decode(dec_->decrypt(prod));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(out[i], (a[i] * b[i]) % ctx_->t()) << "post-relin slot " << i;
  }
  EXPECT_GT(dec_->noise_budget(prod), 0.0);
}

TEST_F(HeTest, RotateRowsMatchesSlotRotation) {
  const std::size_t row = encoder_->row_size();
  std::vector<u64> v(2 * row);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i + 1;
  for (int step : {1, 2, 5, -1}) {
    auto ct = enc_sym_->encrypt(encoder_->encode(v));
    eval_->rotate_rows_inplace(ct, step, *gk_);
    const auto out = encoder_->decode(dec_->decrypt(ct));
    for (std::size_t i = 0; i < row; ++i) {
      const std::size_t src =
          (i + static_cast<std::size_t>(step + static_cast<int>(row))) % row;
      ASSERT_EQ(out[i], v[src]) << "step " << step << " slot " << i;
      ASSERT_EQ(out[row + i], v[row + src]) << "step " << step << " row2 " << i;
    }
  }
}

TEST_F(HeTest, RotateColumnsSwapsRows) {
  const std::size_t row = encoder_->row_size();
  std::vector<u64> v(2 * row);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i % 1000;
  auto ct = enc_sym_->encrypt(encoder_->encode(v));
  eval_->rotate_columns_inplace(ct, *gk_);
  const auto out = encoder_->decode(dec_->decrypt(ct));
  for (std::size_t i = 0; i < row; ++i) {
    ASSERT_EQ(out[i], v[row + i]);
    ASSERT_EQ(out[row + i], v[i]);
  }
}

TEST_F(HeTest, RotateMissingKeyThrows) {
  auto ct = enc_sym_->encrypt(encoder_->encode({1}));
  EXPECT_THROW(eval_->rotate_rows_inplace(ct, 123, *gk_),
               std::invalid_argument);
}

TEST_F(HeTest, NoiseBudgetDecreasesWithWork) {
  const auto pt = encoder_->encode(random_slots(1 << 10, 32));
  auto ct = enc_sym_->encrypt(pt);
  const double fresh = dec_->noise_budget(ct);
  eval_->multiply_plain_inplace(ct, pt);
  const double after_mult = dec_->noise_budget(ct);
  EXPECT_LT(after_mult, fresh);
  EXPECT_GT(after_mult, 0.0);
}

TEST_F(HeTest, DeepAddChainStaysCorrect) {
  std::vector<u64> v(16, 1);
  auto acc = enc_sym_->encrypt(encoder_->encode(v));
  const auto one = enc_sym_->encrypt(encoder_->encode(v));
  for (int i = 0; i < 200; ++i) eval_->add_inplace(acc, one);
  const auto out = encoder_->decode(dec_->decrypt(acc));
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(out[i], 201u);
}

TEST_F(HeTest, SerializationRoundTrip) {
  // A fresh symmetric ciphertext travels as packed c0 plus the seed of c1;
  // one an evaluator op has touched travels with both parts packed.
  const auto v = random_slots(ctx_->t(), 64);
  const auto fresh = enc_sym_->encrypt_seeded(encoder_->encode(v));
  Ciphertext evaluated = fresh.ct();
  eval_->add_inplace(evaluated, fresh.ct());
  ByteWriter w;
  write_ciphertext(*ctx_, fresh, w);
  const std::size_t seeded_bytes =
      ciphertext_wire_bytes(ctx_->params(), CtForm::kSeeded);
  EXPECT_EQ(w.size(), seeded_bytes);
  write_ciphertext(*ctx_, evaluated, w);
  EXPECT_EQ(w.size(), seeded_bytes + ciphertext_wire_bytes(
                                         ctx_->params(), CtForm::kEvaluated));
  ByteReader r(w.data());
  const Ciphertext* sent_cts[] = {&fresh.ct(), &evaluated};
  for (const Ciphertext* sent : sent_cts) {
    const Ciphertext back = read_ciphertext(*ctx_, r);
    ASSERT_EQ(back.size(), sent->size());
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_TRUE(back.parts[i].ntt_form);
      EXPECT_EQ(std::memcmp(back.parts[i].data(), sent->parts[i].data(),
                            back.parts[i].word_count() * sizeof(u64)),
                0)
          << "part " << i;
    }
    EXPECT_EQ(back.noise_log2, sent->noise_log2);
  }
  EXPECT_TRUE(r.done());
  const auto out = encoder_->decode(dec_->decrypt(fresh.ct()));
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(out[i], v[i]);
}

TEST_F(HeTest, OpCountersTrack) {
  eval_->counters().clear();
  const auto pt = encoder_->encode({1, 2});
  auto a = enc_sym_->encrypt(pt);
  const auto b = enc_sym_->encrypt(pt);
  eval_->add_inplace(a, b);
  eval_->multiply_plain_inplace(a, pt);
  eval_->rotate_rows_inplace(a, 1, *gk_);
  EXPECT_EQ(eval_->counters().adds, 1u);
  EXPECT_EQ(eval_->counters().plain_mults, 1u);
  EXPECT_EQ(eval_->counters().rotations, 1u);
}

TEST_F(HeTest, SeededCiphertextSeedAlwaysMatchesC1) {
  // Only the symmetric Encryptor makes a seeded ciphertext, and it exposes
  // its ciphertext read-only, so no Evaluator op can leave a stale seed
  // behind: an evaluated ciphertext is a plain Ciphertext.
  static_assert(
      !std::is_constructible_v<SeededCiphertext, Ciphertext, PolySeed>);
  static_assert(!std::is_convertible_v<SeededCiphertext&, Ciphertext&>);
  static_assert(std::is_same_v<
                decltype(std::declval<SeededCiphertext&>().ct()),
                const Ciphertext&>);
  const auto pt = encoder_->encode({7, 8, 9});
  const auto fresh = enc_sym_->encrypt_seeded(pt);
  const RnsPoly c1 = expand_uniform(*ctx_, fresh.c1_seed());
  EXPECT_EQ(std::memcmp(c1.data(), fresh.ct().parts[1].data(),
                        c1.word_count() * sizeof(u64)),
            0);
  EXPECT_THROW((void)enc_pub_->encrypt_seeded(pt), std::logic_error);
}

// --- wire codec at every profile ---------------------------------------------

class CodecTest : public ::testing::TestWithParam<HeProfile> {};

TEST_P(CodecTest, BothFormsRoundTripBitExactly) {
  const HeContext ctx(make_params(GetParam()));
  Rng rng(31);
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Decryptor dec(ctx, keygen.secret_key());
  const Evaluator eval(ctx);

  std::size_t poly = 0;
  for (const u64 q : ctx.params().q) {
    poly += ctx.degree() * static_cast<std::size_t>(std::bit_width(q)) / 8;
  }
  ASSERT_EQ(packed_poly_bytes(ctx.params()), poly);
  const std::size_t header = 2 + sizeof(double);
  EXPECT_EQ(ciphertext_wire_bytes(ctx.params(), CtForm::kSeeded),
            header + poly + 16);
  EXPECT_EQ(ciphertext_wire_bytes(ctx.params(), CtForm::kEvaluated),
            header + 2 * poly);

  std::vector<u64> vals(encoder.slot_count());
  rng.fill_uniform_mod(vals, ctx.t());
  const Plaintext pt = encoder.encode(vals);
  const auto fresh = enc.encrypt_seeded(pt);
  Ciphertext evaluated = fresh.ct();
  eval.multiply_plain_inplace(evaluated, pt);
  ByteWriter w;
  write_ciphertext(ctx, fresh, w);
  write_ciphertext(ctx, evaluated, w);
  ByteReader r(w.data());
  const Ciphertext* sent_cts[] = {&fresh.ct(), &evaluated};
  for (const Ciphertext* sent : sent_cts) {
    const Ciphertext back = read_ciphertext(ctx, r);
    ASSERT_EQ(back.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(std::memcmp(back.parts[i].data(), sent->parts[i].data(),
                            back.parts[i].word_count() * sizeof(u64)),
                0)
          << "part " << i;
    }
  }
  EXPECT_TRUE(r.done());

  // A seeded key survives the wire and expands to the same evaluation key.
  const SeededGaloisKeys seeded = keygen.make_galois_keys({1});
  const SeededKSwitchKey& key = seeded.keys.begin()->second;
  ByteWriter kw;
  write_kswitch_key(ctx, key, kw);
  EXPECT_EQ(kw.size(), kswitch_key_wire_bytes(ctx.params(), key.digits()));
  ByteReader kr(kw.data());
  const KSwitchKey local = expand_key(ctx, key);
  const KSwitchKey wire = expand_key(ctx, read_kswitch_key(ctx, kr));
  ASSERT_EQ(wire.digits(), local.digits());
  const auto same = [&](const RnsPoly& a, const RnsPoly& b) {
    return std::memcmp(a.data(), b.data(), a.word_count() * sizeof(u64)) == 0;
  };
  for (std::size_t i = 0; i < wire.digits(); ++i) {
    EXPECT_TRUE(same(wire.a[i], local.a[i]));
    EXPECT_TRUE(same(wire.b[i], local.b[i]));
    EXPECT_TRUE(same(wire.a_shoup[i], local.a_shoup[i]));
    EXPECT_TRUE(same(wire.b_shoup[i], local.b_shoup[i]));
  }
}

TEST_P(CodecTest, ExpansionIsDeterministicAndThreadCountIndependent) {
  const HeContext ctx(make_params(GetParam()));
  Rng rng(37);
  const PolySeed seed = draw_seed(rng);
  const std::size_t prev = num_threads();
  set_num_threads(1);
  const RnsPoly serial = expand_uniform(ctx, seed);
  set_num_threads(4);
  const RnsPoly threaded = expand_uniform(ctx, seed);
  const RnsPoly again = expand_uniform(ctx, seed);
  set_num_threads(prev);
  const std::size_t bytes = serial.word_count() * sizeof(u64);
  EXPECT_TRUE(serial.ntt_form);
  EXPECT_EQ(std::memcmp(serial.data(), threaded.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(serial.data(), again.data(), bytes), 0);
  // Another seed gives another polynomial, and each limb draws from its own
  // counter space: limbs do not repeat each other's values.
  const RnsPoly other = expand_uniform(ctx, draw_seed(rng));
  EXPECT_NE(std::memcmp(serial.data(), other.data(), bytes), 0);
  for (std::size_t i = 1; i < ctx.rns_size(); ++i) {
    std::size_t equal = 0;
    for (std::size_t x = 0; x < ctx.degree(); ++x) {
      equal += serial.limb(0)[x] == serial.limb(i)[x] ? 1 : 0;
    }
    EXPECT_LT(equal, 4u) << "limb " << i;
  }
}

TEST_P(CodecTest, SeededPolynomialIsUniformPerLimb) {
  // Coarse chi-square over 16 equal-width bins of [0, q_i) per limb, pooled
  // over four seeds.  With 15 degrees of freedom the statistic exceeds 50
  // with probability below 1e-5, and the seeds are fixed.
  const HeContext ctx(make_params(GetParam()));
  Rng rng(41);
  constexpr std::size_t kBins = 16;
  std::vector<std::vector<double>> counts(
      ctx.rns_size(), std::vector<double>(kBins, 0.0));
  std::size_t samples = 0;
  for (int s = 0; s < 4; ++s) {
    const RnsPoly p = expand_uniform(ctx, draw_seed(rng));
    for (std::size_t i = 0; i < ctx.rns_size(); ++i) {
      const u64 q = ctx.q(i);
      for (std::size_t x = 0; x < ctx.degree(); ++x) {
        ASSERT_LT(p.limb(i)[x], q);
        const auto bin = static_cast<std::size_t>(
            (static_cast<u128>(p.limb(i)[x]) * kBins) / q);
        counts[i][bin] += 1.0;
      }
    }
    samples += ctx.degree();
  }
  const double expect = static_cast<double>(samples) / kBins;
  for (std::size_t i = 0; i < ctx.rns_size(); ++i) {
    double chi2 = 0.0;
    for (const double c : counts[i]) {
      chi2 += (c - expect) * (c - expect) / expect;
    }
    EXPECT_LT(chi2, 50.0) << "limb " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, CodecTest,
                         ::testing::Values(HeProfile::kTest2048,
                                           HeProfile::kLight4096,
                                           HeProfile::kProd8192,
                                           HeProfile::kProto2048));

}  // namespace
}  // namespace primer
