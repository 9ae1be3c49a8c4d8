#include "proto/cost_model.h"

#include <cmath>

#include "common/timing.h"
#include "gc/garble.h"
#include "he/codec.h"
#include "he/encoder.h"
#include "he/he.h"

namespace primer {

// ---------------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------------

PrimitiveCosts PrimitiveCosts::measure(HeProfile profile) {
  PrimitiveCosts c;
  const HeContext ctx(make_params(profile));
  Rng rng(42);
  KeyGenerator keygen(ctx, rng);
  const BatchEncoder encoder(ctx);
  const Encryptor enc(ctx, keygen.secret_key(), rng);
  const Decryptor dec(ctx, keygen.secret_key());
  const Evaluator eval(ctx);
  const auto gk = expand_keys(ctx, keygen.make_galois_keys({1, 2, 3, 4}));
  const auto rk = expand_keys(ctx, keygen.make_relin_key());

  std::vector<u64> vals(encoder.slot_count());
  rng.fill_uniform_mod(vals, ctx.t());
  const Plaintext pt = encoder.encode(vals);

  auto time_n = [](int reps, auto&& fn) {
    Stopwatch sw;
    for (int i = 0; i < reps; ++i) fn();
    return sw.seconds() / reps;
  };

  Ciphertext ct = enc.encrypt(pt);
  const Ciphertext ct2 = enc.encrypt(pt);
  c.encrypt = time_n(4, [&] { (void)enc.encrypt(pt); });
  c.decrypt = time_n(4, [&] { (void)dec.decrypt(ct); });
  c.add = time_n(16, [&] {
    Ciphertext a = ct;
    eval.add_inplace(a, ct2);
  });
  c.plain_mult = time_n(8, [&] {
    Ciphertext a = ct;
    eval.multiply_plain_inplace(a, pt);
  });
  c.rotation = time_n(6, [&] {
    Ciphertext a = ct;
    eval.rotate_rows_inplace(a, 1, gk);
  });
  c.hoisted_rotation = time_n(3, [&] {
    const auto rots = eval.rotate_rows_many(ct, {1, 2, 3, 4}, gk);
    (void)rots;
  }) / 4.0;
  c.ct_mult = time_n(4, [&] {
    Ciphertext a = eval.multiply(ct, ct2);
    eval.relinearize_inplace(a, rk);
  });

  // GC per-AND costs: garble/eval a 64x64 multiplier (~8k ANDs).
  {
    CircuitBuilder b;
    const Bus x = b.add_input_bus(64), y = b.add_input_bus(64);
    b.set_outputs(b.mul(x, y, 64));
    const Circuit circ = b.build();
    const double ands = static_cast<double>(circ.and_count());
    Garbler g(rng);
    GarbledCircuit gc;
    c.gc_garble_and = time_n(3, [&] { gc = g.garble(circ); }) / ands;
    std::vector<Label> in(static_cast<std::size_t>(circ.num_inputs));
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = Garbler::active_input(gc, i, (i & 1) != 0);
    }
    c.gc_eval_and =
        time_n(3, [&] { (void)GcEvaluator::eval(circ, gc.table, in); }) / ands;
  }

  // Plain ring MAC.
  {
    const std::size_t dim = 256;
    std::vector<std::int64_t> a(dim * dim), bmat(dim * dim);
    Rng r2(7);
    for (auto& v : a) v = static_cast<std::int64_t>(r2.uniform(1 << 20));
    for (auto& v : bmat) v = static_cast<std::int64_t>(r2.uniform(1 << 20));
    volatile std::int64_t sink = 0;
    const double secs = time_n(2, [&] {
      std::int64_t acc = 0;
      for (std::size_t i = 0; i < dim; ++i) {
        for (std::size_t k = 0; k < dim; ++k) {
          for (std::size_t j = 0; j < 16; ++j) {
            acc += a[i * dim + k] * bmat[k * dim + j];
          }
        }
      }
      sink = acc;
    });
    (void)sink;
    c.plain_mac = secs / (dim * dim * 16);
  }

  c.fresh_ciphertext_bytes = static_cast<double>(
      ciphertext_wire_bytes(ctx.params(), CtForm::kSeeded));
  c.evaluated_ciphertext_bytes = static_cast<double>(
      ciphertext_wire_bytes(ctx.params(), CtForm::kEvaluated));
  c.slots = encoder.row_size();
  return c;
}

// ---------------------------------------------------------------------------
// Gate counts from the real circuit builders
// ---------------------------------------------------------------------------

GcGateCounts count_protocol_gates(std::uint64_t t, std::size_t tokens,
                                  std::size_t d) {
  GcGateCounts g;
  {
    ActivationCircuitSpec spec;
    spec.t = t;
    spec.count = 1;
    spec.frac_shift = 8;
    spec.act = Activation::kIdentity;
    g.activation_identity_per_value = make_activation_circuit(spec).and_count();
    spec.act = Activation::kGelu;
    g.activation_gelu_per_value = make_activation_circuit(spec).and_count();
  }
  {
    SoftmaxCircuitSpec spec;
    spec.t = t;
    spec.count = tokens;
    spec.frac_shift = 8;
    g.softmax_row = make_softmax_circuit(spec).and_count();
  }
  {
    LayerNormCircuitSpec spec;
    spec.t = t;
    spec.d = d;
    spec.frac_shift = 8;
    spec.gamma.assign(d, 256);
    spec.beta.assign(d, 0);
    g.layernorm_row = make_layernorm_circuit(spec).and_count();
  }
  return g;
}

// ---------------------------------------------------------------------------
// Estimation
// ---------------------------------------------------------------------------

const char* scheme_name(CostedScheme s) {
  switch (s) {
    case CostedScheme::kTheX: return "THE-X";
    case CostedScheme::kGcFormer: return "GCFormer";
    case CostedScheme::kPrimerBase: return "Primer-base";
    case CostedScheme::kPrimerF: return "Primer-F";
    case CostedScheme::kPrimerFP: return "Primer-FP";
    case CostedScheme::kPrimerFPC: return "Primer-FPC";
  }
  return "?";
}

StepEstimate& StepEstimate::operator+=(const StepEstimate& o) {
  offline_s += o.offline_s;
  online_s += o.online_s;
  offline_bytes += o.offline_bytes;
  online_bytes += o.online_bytes;
  rotations += o.rotations;
  naive_rotations += o.naive_rotations;
  plain_mults += o.plain_mults;
  ct_mults += o.ct_mults;
  gc_ands += o.gc_ands;
  return *this;
}

StepEstimate ModelEstimate::total() const {
  StepEstimate t;
  for (const auto& [name, s] : steps) t += s;
  return t;
}

double ModelEstimate::message_gb() const {
  const auto t = total();
  return static_cast<double>(t.offline_bytes + t.online_bytes) / 1e9;
}

double ModelEstimate::throughput_tokens_per_s() const {
  return static_cast<double>(config.tokens) / online_seconds();
}

namespace {

struct Ctx {
  const BertConfig& cfg;
  const PrimitiveCosts& pc;
  const NetworkModel& net;
  GcGateCounts gates;

  double net_s(std::uint64_t bytes, std::uint64_t rounds) const {
    return static_cast<double>(bytes) / net.bandwidth_bytes_per_s +
           static_cast<double>(rounds) * net.one_way_delay_s;
  }
};

// Rotation cost of a BSGS matmul: baby rotations are hoisted (shared digit
// decomposition), giant rotations pay the full key-switch.
double rotation_cost(const PackedMatmulStats& counts, const PrimitiveCosts& pc) {
  return static_cast<double>(counts.baby_rotations) * pc.hoisted_rotation +
         static_cast<double>(counts.giant_rotations) * pc.rotation;
}

// HE ct-pt matmul cost from the packing count model.
StepEstimate he_matmul(const Ctx& c, PackingStrategy strategy, std::size_t n,
                       std::size_t d_in, std::size_t d_out, bool offline) {
  const auto counts = packed_matmul_counts(strategy, n, d_in, d_out, c.pc.slots);
  StepEstimate e;
  const double compute =
      rotation_cost(counts, c.pc) + counts.plain_mults * c.pc.plain_mult +
      counts.adds * c.pc.add + counts.input_ciphertexts * c.pc.encrypt +
      counts.output_ciphertexts * c.pc.decrypt;
  // The client's inputs are fresh encryptions, the results evaluated.
  const auto bytes = static_cast<std::uint64_t>(
      counts.input_ciphertexts * c.pc.fresh_ciphertext_bytes +
      counts.output_ciphertexts * c.pc.evaluated_ciphertext_bytes);
  const double total = compute + c.net_s(bytes, 2);
  if (offline) {
    e.offline_s = total;
    e.offline_bytes = bytes;
  } else {
    e.online_s = total;
    e.online_bytes = bytes;
  }
  e.rotations = counts.rotations;
  e.naive_rotations = counts.naive_rotations;
  e.plain_mults = counts.plain_mults;
  return e;
}

// Plaintext server matmul (HGS online path).
StepEstimate plain_matmul(const Ctx& c, std::size_t n, std::size_t d_in,
                          std::size_t d_out) {
  StepEstimate e;
  e.online_s = static_cast<double>(n) * d_in * d_out * c.pc.plain_mac;
  return e;
}

// GC stage: `values` activations with `ands_per_value`, or absolute ANDs.
StepEstimate gc_stage(const Ctx& c, double total_ands, bool garble_offline,
                      std::size_t online_input_bits) {
  StepEstimate e;
  const double garble = total_ands * c.pc.gc_garble_and;
  const double evals = total_ands * c.pc.gc_eval_and;
  const auto table_bytes = static_cast<std::uint64_t>(
      total_ands * c.pc.gc_table_bytes_per_and);
  const auto label_bytes = static_cast<std::uint64_t>(
      online_input_bits * 3.0 * c.pc.label_bytes);  // garbler labels + OT
  if (garble_offline) {
    e.offline_s = garble + c.net_s(table_bytes, 1);
    e.offline_bytes = table_bytes;
    e.online_s = evals + c.net_s(label_bytes, 2);
    e.online_bytes = label_bytes;
  } else {
    e.online_s = garble + evals + c.net_s(table_bytes + label_bytes, 3);
    e.online_bytes = table_bytes + label_bytes;
  }
  e.gc_ands = static_cast<std::uint64_t>(total_ands);
  return e;
}

// FHGS online: two ct-pt matmuls per product.
StepEstimate fhgs_product(const Ctx& c, std::size_t n, std::size_t k,
                          std::size_t m) {
  StepEstimate e;
  // Offline triple: 3 ciphertext groups encrypted + shipped.
  const auto tf = PackingStrategy::kTokensFirst;
  const auto in_a = packed_matmul_counts(tf, n, k, m, c.pc.slots);
  const std::uint64_t triple_cts =
      3 * std::max<std::uint64_t>(1, in_a.input_ciphertexts);
  e.offline_bytes = static_cast<std::uint64_t>(
      triple_cts * c.pc.fresh_ciphertext_bytes);
  e.offline_s = triple_cts * c.pc.encrypt + c.net_s(e.offline_bytes, 1);
  // Online: Enc(Ra)*Db and Enc(Rb^T)*Da^T, plus the plain tmp1.
  StepEstimate m1 = he_matmul(c, tf, n, k, m, /*offline=*/false);
  StepEstimate m2 = he_matmul(c, tf, m, k, n, /*offline=*/false);
  StepEstimate p = plain_matmul(c, n, k, m);
  e += m1;
  e += m2;
  e += p;
  return e;
}

// Primer-base / THE-X ct-ct matmul: n*m dot products of length k, each
// reduced with the BSGS rotate-sum (n1-1 hoisted babies + doubling giants).
StepEstimate ctct_product(const Ctx& c, std::size_t n, std::size_t k,
                          std::size_t m) {
  StepEstimate e;
  const double pairs = static_cast<double>(n) * m;
  std::size_t log_w = 0;
  while ((std::size_t{1} << log_w) < std::max<std::size_t>(2, k)) ++log_w;
  const std::size_t half = (log_w + 1) / 2;
  const double hoisted = static_cast<double>((std::size_t{1} << half) - 1);
  const double full = static_cast<double>(log_w - half);
  e.online_s = pairs * (c.pc.ct_mult + hoisted * c.pc.hoisted_rotation +
                        full * c.pc.rotation);
  e.ct_mults = static_cast<std::uint64_t>(pairs);
  e.rotations = static_cast<std::uint64_t>(pairs * (hoisted + full));
  // n row and m column encryptions from the client, one evaluated dot
  // product back per pair.
  const auto bytes = static_cast<std::uint64_t>(
      (n + m) * c.pc.fresh_ciphertext_bytes +
      pairs * c.pc.evaluated_ciphertext_bytes);
  e.online_s += c.net_s(bytes, 2);
  e.online_bytes = bytes;
  return e;
}

void add_step(ModelEstimate& me, const std::string& name,
              const StepEstimate& e) {
  me.steps[name] += e;
}

}  // namespace

ModelEstimate estimate_cost(const BertConfig& cfg, CostedScheme scheme,
                            const PrimitiveCosts& pc, const NetworkModel& net) {
  ModelEstimate me;
  me.scheme = scheme;
  me.config = cfg;
  for (const char* s : {"embed", "qkv", "qk", "softmax", "attnv", "others"}) {
    me.steps[s] = StepEstimate{};
  }
  Ctx c{cfg, pc, net, count_protocol_gates((u64{1} << 40) + 1,  // width proxy
                                           cfg.tokens, cfg.d_model)};

  const std::size_t n = cfg.tokens;
  const std::size_t d = cfg.d_model;
  const std::size_t dh = cfg.head_dim();
  const std::size_t H = cfg.heads;
  const std::size_t N = cfg.blocks;
  const std::size_t dff = cfg.d_ff;
  const std::size_t w = 41;  // share bits at t ~ 2^40

  // ------------------------------------------------------------------ GCFormer
  if (scheme == CostedScheme::kGcFormer) {
    // Entire model as Boolean circuits: 15-bit multipliers (~2*15^2 ANDs)
    // for every MAC, plus the non-linear circuits.
    const double and_per_mac = 2.0 * 15 * 15;
    double macs = static_cast<double>(cfg.vocab) * d * n;  // embedding
    macs += static_cast<double>(N) *
            (4.0 * n * d * d + 2.0 * n * d * dff +  // QKV/WO + FFN
             2.0 * H * n * n * dh);                 // QK + PV
    double ands = macs * and_per_mac;
    ands += static_cast<double>(N) * H * n * c.gates.softmax_row;
    ands += static_cast<double>(N) * 2 * n * c.gates.layernorm_row;
    const double input_bits = static_cast<double>(n) * cfg.vocab * 15;
    add_step(me, "others",
             gc_stage(c, ands, /*garble_offline=*/true,
                      static_cast<std::size_t>(input_bits)));
    return me;
  }

  // ------------------------------------------------------------------ THE-X
  if (scheme == CostedScheme::kTheX) {
    // FHE-only, feature-based packing, everything online; non-linearities
    // replaced by polynomials evaluated homomorphically (ct-ct mults).
    const auto fb = PackingStrategy::kFeatureBased;
    add_step(me, "embed", he_matmul(c, fb, n, cfg.vocab, d, false));
    for (std::size_t b = 0; b < N; ++b) {
      for (int i = 0; i < 3; ++i) {
        add_step(me, "qkv", he_matmul(c, fb, n, d, d, false));
      }
      for (std::size_t h = 0; h < H; ++h) {
        add_step(me, "qk", ctct_product(c, n, dh, n));
        add_step(me, "attnv", ctct_product(c, n, n, dh));
      }
      // Polynomial softmax: ~3 ct-ct mults per score row + masking.
      StepEstimate sm;
      sm.online_s = static_cast<double>(H) * n * 3 * pc.ct_mult;
      sm.ct_mults = H * n * 3;
      add_step(me, "softmax", sm);
      add_step(me, "others", he_matmul(c, fb, n, d, d, false));     // WO
      add_step(me, "others", he_matmul(c, fb, n, d, dff, false));   // FC1
      add_step(me, "others", he_matmul(c, fb, n, dff, d, false));   // FC2
      StepEstimate act;  // quadratic activation + LN approximation
      act.online_s = static_cast<double>(n) * (dff + 2 * d) * pc.ct_mult /
                     static_cast<double>(pc.slots) * 8.0;
      add_step(me, "others", act);
    }
    return me;
  }

  // -------------------------------------------------------- Primer variants
  const bool offload = scheme != CostedScheme::kPrimerBase;
  const bool tokens_first = scheme == CostedScheme::kPrimerFP ||
                            scheme == CostedScheme::kPrimerFPC;
  const bool merged = scheme == CostedScheme::kPrimerFPC;
  const auto pack = tokens_first ? PackingStrategy::kTokensFirst
                                 : PackingStrategy::kFeatureBased;

  auto linear = [&](const std::string& step, std::size_t d_in,
                    std::size_t d_out) {
    add_step(me, step, he_matmul(c, pack, n, d_in, d_out, offload));
    if (offload) add_step(me, step, plain_matmul(c, n, d_in, d_out));
  };
  auto gc = [&](const std::string& step, double ands, std::size_t values) {
    add_step(me, step, gc_stage(c, ands, offload, values * w * 2));
  };

  // Embedding (merged into CHGS under FPC: charged to others/qk).
  linear(merged ? "others" : "embed", cfg.vocab, d);
  gc(merged ? "others" : "embed",
     static_cast<double>(n) * d * c.gates.activation_identity_per_value, n * d);

  for (std::size_t b = 0; b < N; ++b) {
    const bool chgs = merged;
    // QKV projections.
    if (!chgs) {
      linear("qkv", d, d);
      linear("qkv", d, d);
    }
    linear(chgs ? "attnv" : "qkv", d, d);  // V
    gc(chgs ? "attnv" : "qkv",
       static_cast<double>(chgs ? 1 : 3) * n * d *
           c.gates.activation_identity_per_value,
       (chgs ? 1 : 3) * n * d);

    // Scores.
    for (std::size_t h = 0; h < H; ++h) {
      if (chgs) {
        // CHGS with the d-dimensional hoisting: offline computes
        // Enc(G) = Enc(R0)*WE once per model (embedding-shaped, charged at
        // h == 0) and the small term4 rounds per head; online needs two
        // d-dimensional ct-pt matmuls per head plus the plaintext term1 —
        // all within ONE interaction.
        if (h == 0 && b == 0) {
          add_step(me, "qk", he_matmul(c, PackingStrategy::kTokensFirst, n,
                                       cfg.vocab, d, true));
        }
        add_step(me, "qk", he_matmul(c, PackingStrategy::kTokensFirst, n, d, d,
                                     true));
        add_step(me, "qk",
                 he_matmul(c, PackingStrategy::kTokensFirst, n, d, n, true));
        // Online: two d-dimensional ct-pt matmuls per head, with the
        // rotations of Enc(G) HOISTED across all heads and both terms (the
        // rotated copies depend only on Enc(G), not on the head weights).
        StepEstimate on = he_matmul(c, PackingStrategy::kTokensFirst, n, d, n,
                                    false);
        const auto cts = packed_matmul_counts(PackingStrategy::kTokensFirst,
                                              n, d, n, c.pc.slots);
        if (h > 0) {
          on.online_s -= rotation_cost(cts, c.pc);
          on.rotations = 0;
          on.naive_rotations = 0;
        }
        add_step(me, "qk", on);
        StepEstimate on2 = on;
        on2.online_s -= (h == 0) ? rotation_cost(cts, c.pc) : 0.0;
        on2.rotations = 0;
        on2.naive_rotations = 0;
        add_step(me, "qk", on2);
        add_step(me, "qk", plain_matmul(c, n, d, d));
        add_step(me, "qk", plain_matmul(c, n, d, n));
      } else if (offload) {
        add_step(me, "qk", fhgs_product(c, n, dh, n));
      } else {
        add_step(me, "qk", ctct_product(c, n, dh, n));
      }
    }
    // Softmax GC: one stage over every head's rows.
    gc("softmax", static_cast<double>(H) * n * c.gates.softmax_row, H * n * n);
    // P x V.
    for (std::size_t h = 0; h < H; ++h) {
      if (offload) {
        add_step(me, "attnv", fhgs_product(c, n, n, dh));
      } else {
        add_step(me, "attnv", ctct_product(c, n, n, dh));
      }
    }
    gc("attnv",
       static_cast<double>(n) * d * c.gates.activation_identity_per_value,
       n * d);

    // Projection, LayerNorms, FFN.
    linear("others", d, d);  // WO
    gc("others", static_cast<double>(n) * c.gates.layernorm_row, n * d);
    linear("others", d, dff);
    gc("others",
       static_cast<double>(n) * dff * c.gates.activation_gelu_per_value,
       n * dff);
    linear("others", dff, d);
    gc("others", static_cast<double>(n) * c.gates.layernorm_row, n * d);
  }
  // Classifier.
  linear("others", d, cfg.num_classes);
  return me;
}

PaperNumbers paper_table1(CostedScheme s) {
  switch (s) {
    case CostedScheme::kTheX: return {0, 4700, 77.3};
    case CostedScheme::kGcFormer: return {7500, 9800, 85.1};
    case CostedScheme::kPrimerBase: return {0.81, 6553.2, 84.6};
    case CostedScheme::kPrimerF: return {6524.3, 41.2, 84.6};
    case CostedScheme::kPrimerFP: return {405.2, 39.0, 84.6};
    case CostedScheme::kPrimerFPC: return {399.4, 35.4, 84.6};
  }
  return {0, 0, 0};
}

}  // namespace primer
