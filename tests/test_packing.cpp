// Tests for encrypted-matmul packing (paper Fig. 6): correctness of both
// strategies against the plain ring product, and the rotation-count model
// showing the tokens-first advantage (factor ~n fewer rotations).
#include <gtest/gtest.h>

#include "common/fixed_point.h"
#include "proto/packing.h"
#include "ss/secret_share.h"

namespace primer {
namespace {

class PackingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = new HeContext(make_params(HeProfile::kProto2048));
    rng_ = new Rng(99);
    keygen_ = new KeyGenerator(*ctx_, *rng_);
    encoder_ = new BatchEncoder(*ctx_);
    enc_ = new Encryptor(*ctx_, keygen_->secret_key(), *rng_);
    dec_ = new Decryptor(*ctx_, keygen_->secret_key());
    eval_ = new Evaluator(*ctx_);
    gk_ = new GaloisKeys(expand_keys(*ctx_, keygen_->make_galois_keys({1, 4, 8, 256})));
  }

  static void TearDownTestSuite() {
    delete gk_; delete eval_; delete dec_; delete enc_; delete encoder_;
    delete keygen_; delete rng_; delete ctx_;
  }

  // Runs the live encrypted matmul and compares with the ring product.
  void check_matmul(PackingStrategy strategy, std::size_t n, std::size_t d_in,
                    std::size_t d_out, PackedMatmulStats* stats = nullptr) {
    const std::uint64_t t = ctx_->t();
    const ShareRing ring(t);
    // Random ring-valued input (models a masked share) and fixed-point W.
    const MatI x = ring.random(*rng_, n, d_in);
    const MatI w = random_fp_matrix(*rng_, d_in, d_out, -1.0, 1.0);

    PackedMatmul mm(*ctx_, *encoder_, *eval_, strategy);
    // Keys for this shape's BSGS rotation set.
    const GaloisKeys gk = expand_keys(*ctx_, keygen_->make_galois_keys(mm.rotation_steps(n)));
    const auto packed = drop_seeds(mm.encrypt_input(x, *enc_));
    const auto result = mm.multiply(packed, w, n, t, gk, stats);
    const MatI got = mm.decrypt_result(result, *dec_, n, d_out);

    // Expected: X * W over the ring (weights lifted the same way).
    MatI w_ring(d_in, d_out);
    for (std::size_t j = 0; j < d_in; ++j) {
      for (std::size_t o = 0; o < d_out; ++o) {
        w_ring(j, o) = static_cast<std::int64_t>(fp_to_ring(w(j, o), t));
      }
    }
    const MatI expect = ring.mul(ring.reduce(x), w_ring);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t o = 0; o < d_out; ++o) {
        ASSERT_EQ(got(i, o), expect(i, o))
            << "entry " << i << "," << o << " strategy "
            << static_cast<int>(strategy);
      }
    }
  }

  static HeContext* ctx_;
  static Rng* rng_;
  static KeyGenerator* keygen_;
  static BatchEncoder* encoder_;
  static Encryptor* enc_;
  static Decryptor* dec_;
  static Evaluator* eval_;
  static GaloisKeys* gk_;
};

HeContext* PackingTest::ctx_ = nullptr;
Rng* PackingTest::rng_ = nullptr;
KeyGenerator* PackingTest::keygen_ = nullptr;
BatchEncoder* PackingTest::encoder_ = nullptr;
Encryptor* PackingTest::enc_ = nullptr;
Decryptor* PackingTest::dec_ = nullptr;
Evaluator* PackingTest::eval_ = nullptr;
GaloisKeys* PackingTest::gk_ = nullptr;

TEST_F(PackingTest, TokensFirstSmall) {
  check_matmul(PackingStrategy::kTokensFirst, 4, 16, 8);
}

TEST_F(PackingTest, TokensFirstMicroEmbedShape) {
  // micro model embedding: 8 tokens, vocab 64 -> d 32.
  check_matmul(PackingStrategy::kTokensFirst, 8, 64, 32);
}

TEST_F(PackingTest, TokensFirstMultiCiphertext) {
  // d_in larger than one ciphertext's feature capacity (fpc = 1024/8 = 128).
  check_matmul(PackingStrategy::kTokensFirst, 8, 200, 4);
}

TEST_F(PackingTest, TokensFirstMultiOutputCt) {
  // d_out larger than fpc = 1024/256 = 4 blocks -> several output cts.
  check_matmul(PackingStrategy::kTokensFirst, 256, 8, 6);
}

TEST_F(PackingTest, FeatureBasedSmall) {
  check_matmul(PackingStrategy::kFeatureBased, 4, 16, 8);
}

TEST_F(PackingTest, FeatureBasedRectangular) {
  check_matmul(PackingStrategy::kFeatureBased, 8, 32, 5);
}

TEST_F(PackingTest, RotationCountAdvantage) {
  PackedMatmulStats tf, fb;
  check_matmul(PackingStrategy::kTokensFirst, 8, 64, 16, &tf);
  check_matmul(PackingStrategy::kFeatureBased, 8, 64, 16, &fb);
  // The paper's Fig. 6 sequential schedule: tokens-first needs M/n - 1
  // alignments, feature-based M - 1 — a factor-n gap.
  EXPECT_EQ(fb.naive_rotations, 1023u);  // M - 1
  EXPECT_EQ(tf.naive_rotations, 127u);   // M/n - 1
  EXPECT_LT(tf.naive_rotations, fb.naive_rotations / 4);
  // The live BSGS execution pays ~n1+n2 key-switches per rotation set —
  // strictly fewer than the sequential walk for both strategies, and
  // tokens-first still wins (by ~sqrt(n) once both use BSGS).
  EXPECT_EQ(fb.rotations, 62u);  // n1,n2 = 32,32: 31 baby + 31 giant
  EXPECT_EQ(tf.rotations, 21u);  // n1,n2 = 12,11: 11 baby + 10 giant
  EXPECT_LT(fb.rotations, fb.naive_rotations / 8);
  EXPECT_LT(tf.rotations, tf.naive_rotations / 4);
  EXPECT_LT(tf.rotations, fb.rotations / 2);
}

TEST_F(PackingTest, CountModelMatchesPaperRatio) {
  // BERT-base embedding shape: n = 30 tokens, d_oh = 30522, d_emb = 768,
  // SEAL-like M = 4096 slots.
  const auto tf = packed_matmul_counts(PackingStrategy::kTokensFirst, 30,
                                       30522, 768, 4096);
  const auto fb = packed_matmul_counts(PackingStrategy::kFeatureBased, 30,
                                       30522, 768, 4096);
  // Paper: tokens-first reduces rotations by roughly a factor of n (the
  // claim is about the sequential alignment schedule both schemes share).
  const double ratio = static_cast<double>(fb.naive_rotations) /
                       static_cast<double>(tf.naive_rotations);
  EXPECT_GT(ratio, 15.0);
  EXPECT_LT(ratio, 40.0);
  // BSGS compresses both schedules; the advantage persists at ~sqrt scale.
  EXPECT_LT(fb.rotations, fb.naive_rotations);
  EXPECT_LT(tf.rotations, tf.naive_rotations);
  EXPECT_GT(static_cast<double>(fb.rotations) /
                static_cast<double>(tf.rotations),
            3.0);
}

TEST_F(PackingTest, CountModelCiphertextCounts) {
  const auto s = packed_matmul_counts(PackingStrategy::kTokensFirst, 8, 64, 32,
                                      1024);
  EXPECT_EQ(s.input_ciphertexts, 1u);   // 64 features, fpc = 128
  EXPECT_EQ(s.output_ciphertexts, 1u);  // 8 * 32 = 256 <= 1024
  const auto s2 = packed_matmul_counts(PackingStrategy::kFeatureBased, 8, 64,
                                       32, 1024);
  EXPECT_EQ(s2.input_ciphertexts, 1u);  // 8 * 64 = 512 <= 1024
  EXPECT_EQ(s2.naive_rotations, 1023u);
  EXPECT_EQ(s2.rotations, 62u);  // BSGS: (32-1) baby + (32-1) giant
}

TEST_F(PackingTest, BsgsKeySwitchCountIsBabyPlusGiant) {
  // The acceptance shape: tokens-first 8 x 64 -> 32 over 1024 slots packs
  // into one input and one output ciphertext with fpc = 128 alignments.
  // BSGS splits 128 into n1 = 12, n2 = 11, so the whole matmul costs
  // (n1 - 1) hoisted baby + (n2 - 1) giant = n1 + n2 - 2 key-switches —
  // not the n1 * n2 - 1 = 127 of the sequential walk.
  const auto [n1, n2] = bsgs_split(128);
  EXPECT_EQ(n1, 12u);
  EXPECT_EQ(n2, 11u);
  const auto s = packed_matmul_counts(PackingStrategy::kTokensFirst, 8, 64, 32,
                                      1024);
  EXPECT_EQ(s.rotations, n1 + n2 - 2);
  EXPECT_EQ(s.baby_rotations, n1 - 1);
  EXPECT_EQ(s.giant_rotations, n2 - 1);
  // The live execution pays exactly the modeled schedule.
  PackedMatmulStats live;
  check_matmul(PackingStrategy::kTokensFirst, 8, 64, 32, &live);
  EXPECT_EQ(live.rotations, s.rotations);
  EXPECT_EQ(live.baby_rotations, s.baby_rotations);
  EXPECT_EQ(live.giant_rotations, s.giant_rotations);
}

TEST_F(PackingTest, NoiseBudgetSurvives) {
  // Direct check that the Horner ordering leaves decryptable noise.
  const std::uint64_t t = ctx_->t();
  const ShareRing ring(t);
  const MatI x = ring.random(*rng_, 8, 64);
  const MatI w = random_fp_matrix(*rng_, 64, 8, -1.0, 1.0);
  PackedMatmul mm(*ctx_, *encoder_, *eval_, PackingStrategy::kTokensFirst);
  const GaloisKeys gk = expand_keys(*ctx_, keygen_->make_galois_keys(mm.rotation_steps(8)));
  const auto packed = drop_seeds(mm.encrypt_input(x, *enc_));
  const auto result = mm.multiply(packed, w, 8, t, gk, nullptr);
  for (const auto& ct : result) {
    EXPECT_GT(dec_->noise_budget(ct), 10.0);
  }
}

}  // namespace
}  // namespace primer
