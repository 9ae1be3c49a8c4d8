#include "proto/primer.h"

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <stdexcept>

namespace primer {

namespace {

MatI slice_cols(const MatI& m, std::size_t from, std::size_t count) {
  MatI out(m.rows(), count);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < count; ++j) out(i, j) = m(i, from + j);
  }
  return out;
}

void paste_cols(MatI& dst, const MatI& src, std::size_t from) {
  for (std::size_t i = 0; i < src.rows(); ++i) {
    for (std::size_t j = 0; j < src.cols(); ++j) dst(i, from + j) = src(i, j);
  }
}

MatI slice_rows(const MatI& m, std::size_t from, std::size_t count) {
  MatI out(count, m.cols());
  std::copy_n(m.data().begin() + from * m.cols(), count * m.cols(),
              out.data().begin());
  return out;
}

void paste_rows(MatI& dst, const MatI& src, std::size_t from) {
  std::copy(src.data().begin(), src.data().end(),
            dst.data().begin() + from * dst.cols());
}

// GC input bits: the ring bits of each matrix in turn, concatenated.  Row
// i of a matrix is copy i of a row-template circuit, and matrices stack
// into consecutive input segments.
std::vector<bool> ring_bits_of(
    const ProtocolContext& pc,
    std::initializer_list<std::reference_wrapper<const MatI>> ms) {
  std::vector<bool> bits;
  for (const MatI& m : ms) {
    const auto b = pc.ring_bits(m);
    bits.insert(bits.end(), b.begin(), b.end());
  }
  return bits;
}

// One-hot input with INTEGER entries (value 1, not 1<<frac): the embedding
// X*WE + pos is then exactly the raw-domain embedding (FixedBert::embed's
// truncation is lossless), so the embed GC stage uses frac_shift = 0.
MatI one_hot_integer(const std::vector<std::size_t>& tokens,
                     const BertConfig& cfg) {
  if (tokens.size() != cfg.tokens) {
    throw std::invalid_argument("PrimerEngine: wrong token count");
  }
  MatI x(cfg.tokens, cfg.vocab);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] >= cfg.vocab) {
      throw std::invalid_argument("PrimerEngine: token id out of vocabulary");
    }
    x(i, tokens[i]) = 1;
  }
  return x;
}

// Shared activation state: server holds d, client holds r; X = d + r mod t.
struct Shared {
  MatI d;
  MatI r;
};

// Cost-summary tail shared by the success path and the partial-result
// builder on the failure path: everything that can be read off the context
// regardless of how far the protocol got.
void summarize_costs(PrimerRunResult& result, const ProtocolContext& pc) {
  result.costs = pc.costs;
  const PhaseCost total = pc.costs.total();
  result.total_bytes = pc.channel.total_bytes();
  result.rounds = pc.channel.flights();
  result.gc_and_gates = total.gc_and_gates;
  result.retransmits = pc.framed.stats().retransmit_frames;
  result.retransmit_bytes = pc.framed.stats().retransmit_bytes;
  result.min_noise_margin_bits = total.min_noise_margin_bits;
  result.replayed_frames = pc.framed.stats().replayed_frames;
  result.replayed_bytes = pc.framed.stats().replayed_bytes;
  result.frames_sent = pc.framed.stats().frames_sent;
  result.resumed_epoch = pc.resumed_epoch();
  result.checkpoints = pc.checkpoints_taken();
  result.handshake_bytes = pc.handshake_bytes();
}

}  // namespace

const char* variant_name(PrimerVariant v) {
  switch (v) {
    case PrimerVariant::kBase: return "Primer-base";
    case PrimerVariant::kF: return "Primer-F";
    case PrimerVariant::kFP: return "Primer-FP";
    case PrimerVariant::kFPC: return "Primer-FPC";
  }
  return "?";
}

PrimerEngine::PrimerEngine(BertWeightsI weights, PrimerVariant variant,
                           HeProfile profile, std::uint64_t seed)
    : w_(std::move(weights)), variant_(variant), profile_(profile),
      seed_(seed), circuits_(std::make_unique<CircuitCache>()) {
  const auto& cfg = w_.config;
  auto pow2 = [](std::size_t v) { return v != 0 && (v & (v - 1)) == 0; };
  if (!pow2(cfg.tokens) || !pow2(cfg.d_model) || !pow2(cfg.head_dim())) {
    throw std::invalid_argument(
        "PrimerEngine: live runs need power-of-two tokens/d_model/head_dim");
  }
  if (variant_ == PrimerVariant::kFPC) {
    for (const auto b : w_.blocks[0].b_q) {
      if (b != 0) throw std::invalid_argument("CHGS requires zero Q/K biases");
    }
  }
}

PrimerRunResult PrimerEngine::run(const std::vector<std::size_t>& tokens,
                                  SessionOptions options) const {
  PrimerRunResult scratch;
  PrimerRunResult& partial =
      options.partial != nullptr ? *options.partial : scratch;
  int restarts = 0;
  std::uint64_t prior_bytes = 0;
  for (;;) {
    try {
      PrimerRunResult result = run_session(tokens, options, partial);
      result.restarts = restarts;
      result.prior_attempt_bytes = prior_bytes;
      return result;
    } catch (const ProtocolError& e) {
      if (!e.retryable() || restarts >= options.max_restarts) throw;
    } catch (const OperationCancelled&) {
      if (restarts >= options.max_restarts) throw;
    }
    prior_bytes += partial.total_bytes;
    options.faults.disarm_one_shot();
    ++restarts;
  }
}

PrimerRunResult PrimerEngine::run_session(
    const std::vector<std::size_t>& tokens, const SessionOptions& options,
    PrimerRunResult& partial_out) const {
  const auto& cfg = w_.config;
  const std::size_t n = cfg.tokens;
  const std::size_t dh = cfg.head_dim();

  std::vector<int> steps = {1, static_cast<int>(n)};
  for (std::size_t s = 2; s <= std::max(dh, n); s <<= 1) {
    steps.push_back(static_cast<int>(s));
  }
  // The steps go through ensure_rotation_steps, not the constructor: the
  // client only generates keys, and the server's copies are expanded once,
  // by transfer_keys.
  ProtocolContext pc(profile_, seed_, {}, options);
  pc.ensure_rotation_steps(steps);
  try {
    pc.start_session();
    return run_protocol(tokens, pc);
  } catch (...) {
    // Snapshot what the attempt accrued before the fault so callers (and
    // run()'s prior-attempt byte accounting) see partial costs and the
    // smallest noise margin observed.
    partial_out = PrimerRunResult{};
    summarize_costs(partial_out, pc);
    // A throwing step never reaches step()'s cost fold, so pull the
    // decryptor's pending margin telemetry in directly.
    partial_out.min_noise_margin_bits =
        std::min(partial_out.min_noise_margin_bits, pc.dec.take_min_margin());
    throw;
  }
}

PrimerRunResult PrimerEngine::run_protocol(
    const std::vector<std::size_t>& tokens, ProtocolContext& pc) const {
  const auto& cfg = w_.config;
  const std::size_t n = cfg.tokens;
  const std::size_t d = cfg.d_model;
  const std::size_t dh = cfg.head_dim();
  const std::size_t heads = cfg.heads;
  const std::size_t frac = static_cast<std::size_t>(w_.fmt.frac_bits);
  const std::uint64_t t = pc.t();
  const ShareRing& ring = pc.ring;

  const std::string off = offline_offload() ? "offline" : "online";
  const PackingStrategy pack = linear_packing();
  // CHGS applies to every block: block 0 merges Embed+QKV(QK)+QxK from the
  // one-hot input; deeper blocks merge their Q/K projections into the
  // adjacent FHGS ("incorporating three HGS modules into the adjacent FHGS
  // module", Fig. 3d) using an identity embedding over the block input.
  const bool chgs = merged_qk();

  // --- client masks (sampled offline) ---------------------------------------
  MatI r0 = ring.random(pc.client_rng, n, cfg.vocab);
  MatI r_u = ring.random(pc.client_rng, n, d);
  struct BlockMasks {
    MatI rq, rk, rv, rp, ra, rl1, rg, rl2;  // rp: every head's rows
  };
  std::vector<BlockMasks> bm(cfg.blocks);
  for (auto& m : bm) {
    m.rq = ring.random(pc.client_rng, n, d);
    m.rk = ring.random(pc.client_rng, n, d);
    m.rv = ring.random(pc.client_rng, n, d);
    m.ra = ring.random(pc.client_rng, n, d);
    m.rl1 = ring.random(pc.client_rng, n, d);
    m.rg = ring.random(pc.client_rng, n, cfg.d_ff);
    m.rl2 = ring.random(pc.client_rng, n, d);
    m.rp = ring.random(pc.client_rng, heads * n, n);
  }

  // --- protocol objects ------------------------------------------------------
  auto hgs = [&](const MatI& w, const std::vector<std::int64_t>& bias,
                 std::size_t toks) {
    return std::make_unique<HgsLinear>(pc, w, bias, toks, pack);
  };
  auto base_lin = [&](const MatI& w, const std::vector<std::int64_t>& bias,
                      std::size_t toks) {
    return std::make_unique<BaseLinear>(pc, w, bias, toks, pack);
  };

  const std::string embed_step = merged_qk() ? "others" : "embed";
  std::unique_ptr<HgsLinear> embed_hgs;
  std::unique_ptr<BaseLinear> embed_base;
  if (offline_offload()) {
    embed_hgs = hgs(w_.we, {}, n);
  } else {
    embed_base = base_lin(w_.we, {}, n);
  }

  struct BlockProtos {
    std::unique_ptr<HgsLinear> q, k, v, o, f1, f2;
    std::unique_ptr<BaseLinear> qb, kb, vb, ob, f1b, f2b;
    std::vector<std::unique_ptr<FhgsProduct>> qk, pv;
    std::vector<std::unique_ptr<CtCtProduct>> qk_cc, pv_cc;
    std::vector<std::unique_ptr<ChgsScores>> chgs;
  };
  std::vector<BlockProtos> bp(cfg.blocks);
  for (std::size_t b = 0; b < cfg.blocks; ++b) {
    const auto& blk = w_.blocks[b];
    if (offline_offload()) {
      if (!chgs) {
        bp[b].q = hgs(blk.wq, blk.b_q, n);
        bp[b].k = hgs(blk.wk, blk.b_k, n);
      }
      bp[b].v = hgs(blk.wv, blk.b_v, n);
      bp[b].o = hgs(blk.wo, blk.b_o, n);
      bp[b].f1 = hgs(blk.w1, blk.b_1, n);
      bp[b].f2 = hgs(blk.w2, blk.b_2, n);
      for (std::size_t h = 0; h < heads; ++h) {
        if (chgs) {
          if (b == 0) {
            bp[b].chgs.push_back(std::make_unique<ChgsScores>(
                pc, n, w_.we, w_.pos, slice_cols(blk.wq, h * dh, dh),
                slice_cols(blk.wk, h * dh, dh)));
          } else {
            // Identity "embedding" over the block input (integer 1 entries
            // keep the raw domain).
            MatI ident(d, d);
            for (std::size_t i = 0; i < d; ++i) ident(i, i) = 1;
            bp[b].chgs.push_back(std::make_unique<ChgsScores>(
                pc, n, ident, MatI(n, d), slice_cols(blk.wq, h * dh, dh),
                slice_cols(blk.wk, h * dh, dh)));
          }
        } else {
          bp[b].qk.push_back(std::make_unique<FhgsProduct>(pc, n, dh, n));
        }
        bp[b].pv.push_back(std::make_unique<FhgsProduct>(pc, n, n, dh));
      }
    } else {
      bp[b].qb = base_lin(blk.wq, blk.b_q, n);
      bp[b].kb = base_lin(blk.wk, blk.b_k, n);
      bp[b].vb = base_lin(blk.wv, blk.b_v, n);
      bp[b].ob = base_lin(blk.wo, blk.b_o, n);
      bp[b].f1b = base_lin(blk.w1, blk.b_1, n);
      bp[b].f2b = base_lin(blk.w2, blk.b_2, n);
      for (std::size_t h = 0; h < heads; ++h) {
        bp[b].qk_cc.push_back(std::make_unique<CtCtProduct>(pc, n, dh, n));
        bp[b].pv_cc.push_back(std::make_unique<CtCtProduct>(pc, n, n, dh));
      }
    }
  }
  std::unique_ptr<HgsLinear> cls_hgs;
  std::unique_ptr<BaseLinear> cls_base;
  if (offline_offload()) {
    cls_hgs = hgs(w_.w_cls, w_.b_cls, 1);
  } else {
    cls_base = base_lin(w_.w_cls, w_.b_cls, 1);
  }

  // Every protocol object has registered its rotation steps by now: ship
  // the client's finalized evaluation keys through the accounted wire, then
  // snapshot the first resumable boundary.  Primer-base has no offline
  // phase, so its key transfer is charged online like everything else.
  pc.transfer_keys(off);
  pc.checkpoint("key_transfer");

  // --- GC stages ----------------------------------------------------------
  // Every circuit comes pre-layered from the model's cache; only the first
  // session of the model builds and layers them.
  CircuitCache& circuits = *circuits_;
  auto act_circuit = [&](std::size_t count, std::size_t shift, Activation a) {
    ActivationCircuitSpec spec;
    spec.t = t;
    spec.count = count;
    spec.frac_shift = shift;
    spec.act = a;
    spec.fmt = w_.fmt;
    return circuits.activation(spec);
  };
  auto softmax_circuit = [&](std::size_t shift) {
    SoftmaxCircuitSpec spec;
    spec.t = t;
    spec.count = n;
    spec.frac_shift = shift;
    spec.fmt = w_.fmt;
    return circuits.softmax(spec, heads * n);
  };
  auto ln_circuit = [&](const std::vector<std::int64_t>& gamma,
                        const std::vector<std::int64_t>& beta) {
    LayerNormCircuitSpec spec;
    spec.t = t;
    spec.d = d;
    spec.frac_shift = frac;
    spec.gamma = gamma;
    spec.beta = beta;
    spec.fmt = w_.fmt;
    return circuits.layernorm(spec, n);
  };

  // Garbles one stage's circuit and ships its tables.
  auto stage = [&](ReplicatedCircuit circuit, const std::string& step,
                   RevealTo reveal = RevealTo::kGarbler) {
    auto s = std::make_unique<GcStage>(pc, std::move(circuit), reveal);
    s->offline(off, step);
    return s;
  };
  const auto gc_embed =
      stage(act_circuit(n * d, 0, Activation::kIdentity), embed_step);

  // One stage per nonlinear layer: softmax covers every head's rows, each
  // LayerNorm every token's row.
  struct BlockStages {
    std::unique_ptr<GcStage> qkv, softmax, attnv, ln1, ln2, gelu;
  };
  std::vector<BlockStages> bs(cfg.blocks);
  for (std::size_t b = 0; b < cfg.blocks; ++b) {
    const auto& blk = w_.blocks[b];
    bs[b].qkv = stage(
        act_circuit((chgs ? 1 : 3) * n * d, frac, Activation::kIdentity),
        chgs ? "attnv" : "qkv");
    bs[b].softmax = stage(softmax_circuit(chgs ? 3 * frac : frac), "softmax");
    bs[b].attnv =
        stage(act_circuit(n * d, frac, Activation::kIdentity), "attnv");
    bs[b].ln1 = stage(ln_circuit(blk.ln1_gamma, blk.ln1_beta), "others");
    bs[b].ln2 = stage(ln_circuit(blk.ln2_gamma, blk.ln2_beta), "others");
    bs[b].gelu =
        stage(act_circuit(n * cfg.d_ff, frac, Activation::kGelu), "others");
  }
  const auto gc_cls =
      stage(act_circuit(cfg.num_classes, frac, Activation::kIdentity),
            "others", RevealTo::kEvaluator);
  pc.checkpoint("gc_offline");

  // --- HGS/FHGS/CHGS offline -------------------------------------------------
  if (offline_offload()) {
    embed_hgs->offline(embed_step, r0);
    for (std::size_t b = 0; b < cfg.blocks; ++b) {
      const MatI& rin = (b == 0) ? r_u : bm[b - 1].rl2;
      if (!chgs) {
        bp[b].q->offline("qkv", rin);
        bp[b].k->offline("qkv", rin);
      }
      bp[b].v->offline(chgs ? "attnv" : "qkv", rin);
      bp[b].o->offline("others", bm[b].ra);
      bp[b].f1->offline("others", bm[b].rl1);
      bp[b].f2->offline("others", bm[b].rg);
      for (std::size_t h = 0; h < heads; ++h) {
        if (chgs) {
          bp[b].chgs[h]->offline("qk", b == 0 ? r0 : rin);
        } else {
          bp[b].qk[h]->offline("qk", slice_cols(bm[b].rq, h * dh, dh),
                               slice_cols(bm[b].rk, h * dh, dh).transposed());
        }
        bp[b].pv[h]->offline("attnv", slice_rows(bm[b].rp, h * n, n),
                             slice_cols(bm[b].rv, h * dh, dh));
      }
    }
    cls_hgs->offline("others", slice_rows(bm[cfg.blocks - 1].rl2, 0, 1));
  }
  pc.checkpoint("linear_offline");

  // ==========================================================================
  // ONLINE
  // ==========================================================================
  const MatI x = one_hot_integer(tokens, cfg);
  MatI d0;  // server-held X - R0 (HGS variants)

  // Embedding.
  LinearShares acc_u;
  if (offline_offload()) {
    pc.step("online", embed_step, [&] {
      d0 = ring.sub(ring.reduce(x), r0);
      pc.send_ring(Party::kClient, d0);
      d0 = pc.recv_ring(Party::kServer, n, cfg.vocab);
    });
    acc_u = embed_hgs->online(embed_step, d0);
  } else {
    acc_u = embed_base->online("embed", ring.reduce(x), MatI(n, cfg.vocab));
  }
  // Positional bias (public, raw domain — the embedding is raw already).
  pc.step("online", embed_step, [&] {
    acc_u.server = ring.add(acc_u.server, ring.reduce(w_.pos));
  });

  Shared cur;  // current block input (raw domain)
  cur.d = pc.bits_to_ring(
      gc_embed->online("online", embed_step, ring_bits_of(pc, {acc_u.server}),
                       ring_bits_of(pc, {acc_u.client, r_u})),
      n, d);
  cur.r = r_u;
  pc.checkpoint("online_embed");

  for (std::size_t b = 0; b < cfg.blocks; ++b) {
    // --- QKV ---------------------------------------------------------------
    Shared q, k, v;
    {
      LinearShares aq, ak, av;
      if (offline_offload()) {
        if (!chgs) {
          aq = bp[b].q->online("qkv", cur.d);
          ak = bp[b].k->online("qkv", cur.d);
        }
        av = bp[b].v->online(chgs ? "attnv" : "qkv", cur.d);
      } else {
        aq = bp[b].qb->online("qkv", cur.r, cur.d);
        ak = bp[b].kb->online("qkv", cur.r, cur.d);
        av = bp[b].vb->online("qkv", cur.r, cur.d);
      }
      // One GC stage truncates Q|K|V together (or V alone under CHGS).
      std::vector<bool> bits;
      if (chgs) {
        bits = bs[b].qkv->online("online", "attnv",
                                 ring_bits_of(pc, {av.server}),
                                 ring_bits_of(pc, {av.client, bm[b].rv}));
        v.d = pc.bits_to_ring(bits, n, d);
      } else {
        bits = bs[b].qkv->online(
            "online", "qkv",
            ring_bits_of(pc, {aq.server, ak.server, av.server}),
            ring_bits_of(pc, {aq.client, ak.client, av.client, bm[b].rq,
                              bm[b].rk, bm[b].rv}));
        const MatI qkv = pc.bits_to_ring(bits, 3 * n, d);
        q.d = slice_rows(qkv, 0, n);
        k.d = slice_rows(qkv, n, n);
        v.d = slice_rows(qkv, 2 * n, n);
      }
      q.r = bm[b].rq;
      k.r = bm[b].rk;
      v.r = bm[b].rv;
    }

    // --- attention scores + softmax + value ---------------------------------
    // Every head's scores, stacked head-major: row h*n + i is copy h*n + i
    // of the softmax row template.
    LinearShares scores;
    scores.client = MatI(heads * n, n);
    scores.server = MatI(heads * n, n);
    for (std::size_t h = 0; h < heads; ++h) {
      LinearShares score;
      if (chgs) {
        score = bp[b].chgs[h]->online("qk", b == 0 ? d0 : cur.d);
      } else if (offline_offload()) {
        score = bp[b].qk[h]->online(
            "qk", slice_cols(q.d, h * dh, dh),
            slice_cols(k.d, h * dh, dh).transposed());
      } else {
        score = bp[b].qk_cc[h]->online(
            "qk", slice_cols(q.r, h * dh, dh), slice_cols(q.d, h * dh, dh),
            slice_cols(k.r, h * dh, dh).transposed(),
            slice_cols(k.d, h * dh, dh).transposed());
      }
      paste_rows(scores.client, score.client, h * n);
      paste_rows(scores.server, score.server, h * n);
    }
    Shared p;
    p.d = pc.bits_to_ring(
        bs[b].softmax->online("online", "softmax",
                              ring_bits_of(pc, {scores.server}),
                              ring_bits_of(pc, {scores.client, bm[b].rp})),
        heads * n, n);
    p.r = bm[b].rp;
    LinearShares acc_attn;
    acc_attn.client = MatI(n, d);
    acc_attn.server = MatI(n, d);
    for (std::size_t h = 0; h < heads; ++h) {
      LinearShares head_out;
      if (offline_offload()) {
        head_out = bp[b].pv[h]->online("attnv", slice_rows(p.d, h * n, n),
                                       slice_cols(v.d, h * dh, dh));
      } else {
        head_out = bp[b].pv_cc[h]->online(
            "attnv", slice_rows(p.r, h * n, n), slice_rows(p.d, h * n, n),
            slice_cols(v.r, h * dh, dh), slice_cols(v.d, h * dh, dh));
      }
      paste_cols(acc_attn.client, head_out.client, h * dh);
      paste_cols(acc_attn.server, head_out.server, h * dh);
    }

    // Truncate attention output.
    Shared attn;
    attn.d = pc.bits_to_ring(
        bs[b].attnv->online("online", "attnv",
                            ring_bits_of(pc, {acc_attn.server}),
                            ring_bits_of(pc, {acc_attn.client, bm[b].ra})),
        n, d);
    attn.r = bm[b].ra;

    // --- projection + LN1 ----------------------------------------------------
    LinearShares acc_proj;
    if (offline_offload()) {
      acc_proj = bp[b].o->online("others", attn.d);
    } else {
      acc_proj = bp[b].ob->online("others", attn.r, attn.d);
    }
    Shared l1;
    l1.d = pc.bits_to_ring(
        bs[b].ln1->online(
            "online", "others", ring_bits_of(pc, {acc_proj.server, cur.d}),
            ring_bits_of(pc, {acc_proj.client, cur.r, bm[b].rl1})),
        n, d);
    l1.r = bm[b].rl1;

    // --- FFN + LN2 -----------------------------------------------------------
    LinearShares acc_f1;
    if (offline_offload()) {
      acc_f1 = bp[b].f1->online("others", l1.d);
    } else {
      acc_f1 = bp[b].f1b->online("others", l1.r, l1.d);
    }
    Shared g;
    g.d = pc.bits_to_ring(
        bs[b].gelu->online("online", "others",
                           ring_bits_of(pc, {acc_f1.server}),
                           ring_bits_of(pc, {acc_f1.client, bm[b].rg})),
        n, cfg.d_ff);
    g.r = bm[b].rg;
    LinearShares acc_f2;
    if (offline_offload()) {
      acc_f2 = bp[b].f2->online("others", g.d);
    } else {
      acc_f2 = bp[b].f2b->online("others", g.r, g.d);
    }
    Shared l2;
    l2.d = pc.bits_to_ring(
        bs[b].ln2->online(
            "online", "others", ring_bits_of(pc, {acc_f2.server, l1.d}),
            ring_bits_of(pc, {acc_f2.client, l1.r, bm[b].rl2})),
        n, d);
    l2.r = bm[b].rl2;

    cur = l2;
    pc.checkpoint("online_block_" + std::to_string(b));
  }

  // --- classifier ------------------------------------------------------------
  LinearShares acc_cls;
  if (offline_offload()) {
    acc_cls = cls_hgs->online("others", slice_rows(cur.d, 0, 1));
  } else {
    acc_cls = cls_base->online("others", slice_rows(cur.r, 0, 1),
                               slice_rows(cur.d, 0, 1));
  }
  PrimerRunResult result;
  {
    const MatI zero_mask(1, cfg.num_classes);
    const MatI logits_ring = pc.bits_to_ring(
        gc_cls->online("online", "others",
                       ring_bits_of(pc, {acc_cls.server}),
                       ring_bits_of(pc, {acc_cls.client, zero_mask})),
        1, cfg.num_classes);
    result.logits.resize(cfg.num_classes);
    for (std::size_t c = 0; c < cfg.num_classes; ++c) {
      result.logits[c] = ring.center(logits_ring(0, c));
    }
  }
  result.predicted = 0;
  for (std::size_t c = 1; c < cfg.num_classes; ++c) {
    if (result.logits[c] > result.logits[result.predicted]) {
      result.predicted = c;
    }
  }

  // --- cost summary ------------------------------------------------------------
  summarize_costs(result, pc);
  return result;
}

// ---------------------------------------------------------------------------
// kFPC fixed-point reference
// ---------------------------------------------------------------------------

std::vector<std::int64_t> fixed_forward_chgs(
    const BertWeightsI& w, const std::vector<std::size_t>& tokens) {
  const FixedBert model(w);
  const auto& cfg = w.config;
  const auto& fmt = w.fmt;
  const std::size_t dh = cfg.head_dim();
  const std::size_t frac = static_cast<std::size_t>(fmt.frac_bits);

  MatI x = model.embed(tokens);
  for (const auto& blk : w.blocks) {
    // Merged (untruncated) Q*K^T scores in every block: 4*frac domain.
    const MatI v = fixed_truncate(fixed_linear_acc(x, blk.wv, &blk.b_v, fmt),
                                  fmt);
    MatI attn(cfg.tokens, cfg.d_model);
    std::vector<std::int64_t> scores(cfg.tokens);
    for (std::size_t h = 0; h < cfg.heads; ++h) {
      const MatI wq_h(slice_cols(blk.wq, h * dh, dh));
      const MatI wk_h(slice_cols(blk.wk, h * dh, dh));
      const MatI gq = fixed_linear_acc(x, wq_h, nullptr, fmt);
      const MatI gk = fixed_linear_acc(x, wk_h, nullptr, fmt);
      for (std::size_t i = 0; i < cfg.tokens; ++i) {
        for (std::size_t j = 0; j < cfg.tokens; ++j) {
          std::int64_t dot = 0;
          for (std::size_t c = 0; c < dh; ++c) dot += gq(i, c) * gk(j, c);
          scores[j] = dot;
        }
        const auto p = fixed_softmax_reference(scores, 3 * frac, fmt);
        for (std::size_t c = 0; c < dh; ++c) {
          std::int64_t acc = 0;
          for (std::size_t j = 0; j < cfg.tokens; ++j) {
            acc += p[j] * v(j, h * dh + c);
          }
          attn(i, h * dh + c) = fp_truncate(acc, fmt);
        }
      }
    }
    const MatI proj =
        fixed_truncate(fixed_linear_acc(attn, blk.wo, &blk.b_o, fmt), fmt);
    MatI res1(x.rows(), x.cols());
    for (std::size_t i = 0; i < x.size(); ++i) {
      res1.data()[i] = fp_saturate(x.data()[i] + proj.data()[i], fmt);
    }
    const MatI ln1 = fixed_layernorm(res1, blk.ln1_gamma, blk.ln1_beta, fmt);
    const MatI ff_acc = fixed_linear_acc(ln1, blk.w1, &blk.b_1, fmt);
    MatI ff(ff_acc.rows(), ff_acc.cols());
    for (std::size_t i = 0; i < ff_acc.size(); ++i) {
      ff.data()[i] = activation_reference(ff_acc.data()[i], frac,
                                          Activation::kGelu, fmt);
    }
    const MatI ff2 =
        fixed_truncate(fixed_linear_acc(ff, blk.w2, &blk.b_2, fmt), fmt);
    MatI res2(ln1.rows(), ln1.cols());
    for (std::size_t i = 0; i < ln1.size(); ++i) {
      res2.data()[i] = fp_saturate(ln1.data()[i] + ff2.data()[i], fmt);
    }
    x = fixed_layernorm(res2, blk.ln2_gamma, blk.ln2_beta, fmt);
  }
  return model.classify(x);
}

}  // namespace primer
