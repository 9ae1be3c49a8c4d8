// Protocol-layer tests: HGS linear sharing, FHGS Beaver products, CHGS
// merged scores, the LayerNorm circuit, the CtCt baseline product, and the
// end-to-end equality of live PrimerEngine runs against the fixed-point
// reference model.
#include <gtest/gtest.h>

#include "nn/model.h"
#include "proto/attention.h"
#include "proto/linear.h"
#include "proto/primer.h"
#include "ss/secret_share.h"

namespace primer {
namespace {

std::vector<int> default_steps() { return {1, 2, 4, 8, 16}; }

TEST(HgsLinear, SharesReconstructToProduct) {
  ProtocolContext pc(HeProfile::kProto2048, 11, default_steps());
  const std::size_t n = 4, din = 16, dout = 8;
  Rng rng(5);
  const MatI w = random_fp_matrix(rng, din, dout, -1.0, 1.0);
  const std::vector<std::int64_t> bias(dout, fp_encode(0.25));

  HgsLinear layer(pc, w, bias, n, PackingStrategy::kTokensFirst);
  pc.transfer_keys();  // the server evaluates with transferred keys
  const MatI rc = pc.ring.random(pc.client_rng, n, din);
  layer.offline("qkv", rc);

  // True input X (raw fixed point), server gets D = X - Rc.
  const MatI x = random_fp_matrix(rng, n, din, -2.0, 2.0);
  const MatI d = pc.ring.sub(pc.ring.reduce(x), rc);
  const auto shares = layer.online("qkv", d);

  const MatI got = pc.ring.reconstruct({shares.client, shares.server});
  const MatI expect = fixed_linear_acc(x, w, &bias);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dout; ++j) {
      ASSERT_EQ(got(i, j), expect(i, j)) << i << "," << j;
    }
  }
  // Offline phase must carry the HE traffic; online only plain compute.
  const auto& off = pc.costs.at("offline", "qkv");
  const auto& on = pc.costs.at("online", "qkv");
  EXPECT_GT(off.bytes_sent, 0u);
  EXPECT_EQ(on.bytes_sent, 0u);
  EXPECT_GT(off.he_rotations + off.he_mults, 0u);
  EXPECT_EQ(on.he_mults, 0u);
}

TEST(BaseLinear, SharesReconstructToProduct) {
  ProtocolContext pc(HeProfile::kProto2048, 13, default_steps());
  const std::size_t n = 4, din = 8, dout = 4;
  Rng rng(6);
  const MatI w = random_fp_matrix(rng, din, dout, -1.0, 1.0);
  BaseLinear layer(pc, w, {}, n, PackingStrategy::kFeatureBased);
  pc.transfer_keys();  // the server evaluates with transferred keys

  const MatI x = random_fp_matrix(rng, n, din, -2.0, 2.0);
  const auto xs = pc.ring.share(x, rng);
  const auto shares = layer.online("qkv", xs.client, xs.server);
  const MatI got = pc.ring.reconstruct({shares.client, shares.server});
  const MatI expect = fixed_linear_acc(x, w, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < dout; ++j) {
      ASSERT_EQ(got(i, j), expect(i, j)) << i << "," << j;
    }
  }
  // Everything online for the base protocol.
  EXPECT_GT(pc.costs.at("online", "qkv").bytes_sent, 0u);
}

TEST(FhgsProduct, SharesReconstructToMatrixProduct) {
  ProtocolContext pc(HeProfile::kProto2048, 17, default_steps());
  const std::size_t n = 4, k = 8, m = 4;
  Rng rng(7);
  // Raw 15-bit payloads (Q and K^T in the pipeline).
  const MatI a = random_fp_matrix(rng, n, k, -2.0, 2.0);
  const MatI b = random_fp_matrix(rng, k, m, -2.0, 2.0);

  FhgsProduct prod(pc, n, k, m);
  pc.transfer_keys();  // the server evaluates with transferred keys
  const MatI ra = pc.ring.random(pc.client_rng, n, k);
  const MatI rb = pc.ring.random(pc.client_rng, k, m);
  prod.offline("qk", ra, rb);
  const MatI da = pc.ring.sub(pc.ring.reduce(a), ra);
  const MatI db = pc.ring.sub(pc.ring.reduce(b), rb);
  const auto shares = prod.online("qk", da, db);

  const MatI got = pc.ring.reconstruct({shares.client, shares.server});
  const MatI expect = a * b;  // untruncated integer accumulation
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      ASSERT_EQ(got(i, j), expect(i, j)) << i << "," << j;
    }
  }
  // FHGS property: the ct-ct work is offline; online HE is ct-pt only.
  EXPECT_EQ(pc.costs.at("offline", "qk").he_ct_mults, 0u);
  EXPECT_EQ(pc.costs.at("online", "qk").he_ct_mults, 0u);
  EXPECT_GT(pc.costs.at("online", "qk").he_mults, 0u);
}

TEST(CtCtProduct, SharesReconstructToMatrixProduct) {
  ProtocolContext pc(HeProfile::kProto2048, 19, default_steps());
  const std::size_t n = 4, k = 8, m = 4;
  Rng rng(8);
  const MatI a = random_fp_matrix(rng, n, k, -2.0, 2.0);
  const MatI b = random_fp_matrix(rng, k, m, -2.0, 2.0);
  const auto as = pc.ring.share(a, rng);
  const auto bs = pc.ring.share(b, rng);

  CtCtProduct prod(pc, n, k, m);
  pc.transfer_keys();  // the server evaluates with transferred keys
  const auto shares =
      prod.online("qk", as.client, as.server, bs.client, bs.server);
  const MatI got = pc.ring.reconstruct({shares.client, shares.server});
  const MatI expect = a * b;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      ASSERT_EQ(got(i, j), expect(i, j)) << i << "," << j;
    }
  }
  // The baseline really does ciphertext-ciphertext multiplications online.
  EXPECT_GT(pc.costs.at("online", "qk").he_ct_mults, 0u);
}

TEST(ChgsScores, MatchesMergedScoreComputation) {
  ProtocolContext pc(HeProfile::kProto2048, 23, default_steps());
  const std::size_t n = 4, vocab = 16, d = 8, dh = 4;
  Rng rng(9);
  const MatI we = random_fp_matrix(rng, vocab, d, -0.5, 0.5);
  const MatI pos = random_fp_matrix(rng, n, d, -0.2, 0.2);
  const MatI wq = random_fp_matrix(rng, d, dh, -0.3, 0.3);
  const MatI wk = random_fp_matrix(rng, d, dh, -0.3, 0.3);

  // Integer one-hot input.
  MatI x(n, vocab);
  for (std::size_t i = 0; i < n; ++i) x(i, (i * 5) % vocab) = 1;

  ChgsScores chgs(pc, n, we, pos, wq, wk);
  pc.transfer_keys();  // the server evaluates with transferred keys
  const MatI r0 = pc.ring.random(pc.client_rng, n, vocab);
  chgs.offline("qk", r0);
  const MatI d0 = pc.ring.sub(pc.ring.reduce(x), r0);
  const auto shares = chgs.online("qk", d0);
  const MatI got = pc.ring.reconstruct({shares.client, shares.server});

  // Reference: U = X*WE + pos (raw), scores = (U*wq) * (U*wk)^T, 4*frac.
  const MatI u = x * we + pos;
  const MatI gq = u * wq;
  const MatI gk = u * wk;
  const MatI expect = gq * gk.transposed();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(got(i, j), expect(i, j)) << i << "," << j;
    }
  }
}

TEST(LayerNormCircuit, MatchesFixedReference) {
  const std::uint64_t t = make_params(HeProfile::kProto2048).t;
  const std::size_t w = share_width(t);
  const std::size_t d = 8;
  LayerNormCircuitSpec spec;
  spec.t = t;
  spec.d = d;
  spec.frac_shift = 8;
  spec.gamma.assign(d, fp_encode(1.0));
  spec.beta.assign(d, fp_encode(0.0));
  spec.gamma[2] = fp_encode(1.5);
  spec.beta[3] = fp_encode(-0.25);
  const Circuit c = make_layernorm_circuit(spec);

  Rng rng(31);
  const ShareRing ring(t);
  for (int iter = 0; iter < 5; ++iter) {
    // acc: product-domain values; res: raw values.
    std::vector<std::int64_t> acc(d), res(d);
    for (auto& v : acc) v = rng.uniform_int(-400000, 400000);
    for (auto& v : res) v = rng.uniform_int(-5000, 5000);

    MatI acc_m(1, d), res_m(1, d);
    for (std::size_t i = 0; i < d; ++i) {
      acc_m(0, i) = acc[i];
      res_m(0, i) = res[i];
    }
    const auto acc_sh = ring.share(acc_m, rng);
    const auto res_sh = ring.share(res_m, rng);
    const MatI rc = ring.random(rng, 1, d);

    auto bits_of = [&](const MatI& m) {
      std::vector<bool> bits;
      for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t bb = 0; bb < w; ++bb) {
          bits.push_back((static_cast<std::uint64_t>(m(0, i)) >> bb) & 1);
        }
      }
      return bits;
    };
    std::vector<bool> in = bits_of(acc_sh.server);
    auto tmp = bits_of(res_sh.server);
    in.insert(in.end(), tmp.begin(), tmp.end());
    tmp = bits_of(acc_sh.client);
    in.insert(in.end(), tmp.begin(), tmp.end());
    tmp = bits_of(res_sh.client);
    in.insert(in.end(), tmp.begin(), tmp.end());
    tmp = bits_of(rc);
    in.insert(in.end(), tmp.begin(), tmp.end());

    const auto out = eval_circuit(c, in);

    // Reference.
    std::vector<std::int64_t> s(d);
    for (std::size_t i = 0; i < d; ++i) {
      s[i] = fp_saturate(fp_saturate(acc[i] >> 8) + res[i]);
    }
    const auto expect = fixed_layernorm_row(s, spec.gamma, spec.beta);

    for (std::size_t i = 0; i < d; ++i) {
      std::uint64_t v = 0;
      for (std::size_t bb = 0; bb < w; ++bb) {
        if (out[i * w + bb]) v |= std::uint64_t{1} << bb;
      }
      const std::int64_t got =
          ring.center(static_cast<std::int64_t>(v) + rc(0, i));
      ASSERT_EQ(got, expect[i]) << "element " << i << " iter " << iter;
    }
  }
}

// --- end-to-end -------------------------------------------------------------

class PrimerE2E : public ::testing::Test {
 protected:
  static BertWeightsI nano_weights() {
    Rng rng(2025);
    const auto cfg = bert_nano();
    return quantize(BertWeightsD::random(cfg, rng));
  }
  static BertWeightsI micro_weights() {
    Rng rng(2026);
    return quantize(BertWeightsD::random(bert_micro(), rng));
  }
};

TEST_F(PrimerE2E, PrimerFMatchesFixedModelExactly) {
  const auto w = nano_weights();
  const FixedBert ref(w);
  const std::vector<std::size_t> tokens = {3, 17, 9, 28};
  PrimerEngine engine(w, PrimerVariant::kF);
  const auto result = engine.run(tokens);
  EXPECT_EQ(result.logits, ref.forward(tokens));
  EXPECT_EQ(result.predicted, ref.predict(tokens));
  EXPECT_GT(result.costs.phase_total("offline").total_seconds(), 0.0);
  EXPECT_GT(result.costs.phase_total("online").total_seconds(), 0.0);
  EXPECT_GT(result.total_bytes, 0u);
}

TEST_F(PrimerE2E, PrimerFPMatchesFixedModelExactly) {
  const auto w = nano_weights();
  const FixedBert ref(w);
  const std::vector<std::size_t> tokens = {0, 31, 15, 8};
  PrimerEngine engine(w, PrimerVariant::kFP);
  const auto result = engine.run(tokens);
  EXPECT_EQ(result.logits, ref.forward(tokens));
}

TEST_F(PrimerE2E, PrimerFpcMatchesChgsReference) {
  const auto w = nano_weights();
  const std::vector<std::size_t> tokens = {5, 12, 30, 2};
  PrimerEngine engine(w, PrimerVariant::kFPC);
  const auto result = engine.run(tokens);
  EXPECT_EQ(result.logits, fixed_forward_chgs(w, tokens));
  // Without a store every flight belongs to a step, so the step costs close
  // over the run's wire totals exactly.
  const PhaseCost total = result.costs.total();
  EXPECT_EQ(total.bytes_sent, result.total_bytes);
  EXPECT_EQ(total.rounds, result.rounds);
  EXPECT_EQ(total.gc_and_gates, result.gc_and_gates);
  // Width-minimal circuits: 360,891 ANDs (2,084,844 at share width).
  EXPECT_LE(result.gc_and_gates, 1000000u);
  // Seeded, bit-packed HE wire at proto2048: every key digit is a packed b
  // plus a 16-byte seed (9.23 MB of keys, 26.26 MB at full width), and the
  // whole run fits in 28 MB (44.0 MB at full width).
  const auto& steps = result.costs.all();
  ASSERT_TRUE(steps.count("offline") &&
              steps.at("offline").count("key_transfer"));
  EXPECT_LE(steps.at("offline").at("key_transfer").bytes_sent, 9'500'000u);
  EXPECT_LE(result.total_bytes, 28'000'000u);
  // The merged path should stay close to the standard fixed model.
  const FixedBert ref(w);
  const auto ref_logits = ref.forward(tokens);
  for (std::size_t i = 0; i < ref_logits.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(result.logits[i]),
                static_cast<double>(ref_logits[i]), 64.0);  // 0.25 in value
  }
}

TEST_F(PrimerE2E, PrimerBaseMatchesFixedModelExactly) {
  const auto w = nano_weights();
  const FixedBert ref(w);
  const std::vector<std::size_t> tokens = {7, 7, 19, 23};
  PrimerEngine engine(w, PrimerVariant::kBase);
  const auto result = engine.run(tokens);
  EXPECT_EQ(result.logits, ref.forward(tokens));
  // Base has no offline phase at all.
  EXPECT_EQ(result.costs.phase_total("offline").total_seconds(), 0.0);
  const PhaseCost total = result.costs.total();
  EXPECT_EQ(total.bytes_sent, result.total_bytes);
  EXPECT_EQ(total.rounds, result.rounds);
  EXPECT_EQ(total.gc_and_gates, result.gc_and_gates);
}

// bert_micro runs two blocks (4 heads, 8 tokens): block 1 takes block 0's
// output shares, and under CHGS merges its Q/K projections through the
// identity embedding over the block input.
TEST_F(PrimerE2E, PrimerFMultiBlockMatchesFixedModelExactly) {
  const auto w = micro_weights();
  const FixedBert ref(w);
  const std::vector<std::size_t> tokens = {3, 17, 9, 28, 60, 0, 41, 12};
  PrimerEngine engine(w, PrimerVariant::kF);
  const auto result = engine.run(tokens);
  EXPECT_EQ(result.logits, ref.forward(tokens));
  EXPECT_EQ(result.predicted, ref.predict(tokens));

  // One softmax stage per block covers every head's rows, so its online
  // rounds per block do not grow with heads x tokens (2 x 4 rows on nano,
  // 4 x 8 on micro).
  const auto nano = nano_weights();
  const auto nano_result =
      PrimerEngine(nano, PrimerVariant::kF).run({3, 17, 9, 28});
  auto softmax_rounds_per_block = [](const PrimerRunResult& r,
                                     const BertWeightsI& weights) {
    return r.costs.all().at("online").at("softmax").rounds /
           weights.config.blocks;
  };
  EXPECT_GT(softmax_rounds_per_block(nano_result, nano), 0u);
  EXPECT_EQ(softmax_rounds_per_block(result, w),
            softmax_rounds_per_block(nano_result, nano));
}

TEST_F(PrimerE2E, PrimerFpcMultiBlockMatchesChgsReference) {
  const auto w = micro_weights();
  const std::vector<std::size_t> tokens = {5, 12, 30, 2, 63, 8, 8, 21};
  PrimerEngine engine(w, PrimerVariant::kFPC);
  const auto result = engine.run(tokens);
  EXPECT_EQ(result.logits, fixed_forward_chgs(w, tokens));
  const PhaseCost total = result.costs.total();
  EXPECT_EQ(total.bytes_sent, result.total_bytes);
  EXPECT_EQ(total.rounds, result.rounds);
  EXPECT_EQ(total.gc_and_gates, result.gc_and_gates);
}

TEST_F(PrimerE2E, OfflineOffloadShrinksOnlineTraffic) {
  const auto w = nano_weights();
  const std::vector<std::size_t> tokens = {1, 2, 3, 4};
  PrimerEngine base(w, PrimerVariant::kBase);
  PrimerEngine fp(w, PrimerVariant::kFP);
  const auto rb = base.run(tokens);
  const auto rf = fp.run(tokens);
  // The paper's headline: offline offload slashes online latency.
  const PhaseCost base_on = rb.costs.phase_total("online");
  const PhaseCost fp_on = rf.costs.phase_total("online");
  EXPECT_LT(fp_on.bytes_sent, base_on.bytes_sent);
  EXPECT_EQ(fp_on.he_ct_mults, 0u);
  EXPECT_GT(base_on.he_ct_mults, 0u);
}

}  // namespace
}  // namespace primer
