// The traced run: per-layer metrics.
//
// The program has no tracing of its own, so the traced run replays one
// inference layer by layer through the same public calls PrimerEngine
// makes — ProtocolContext construction, the linear protocol objects'
// offline()/online(), ProtocolContext::transfer_keys, make_*_circuit,
// Circuit::layers() and GcSession::offline()/online() — with a span around
// each call.  The replay's exact counts (AND gates, key bytes, HE
// rotations and multiplications) must equal what an untraced
// PrimerEngine::run reports; a mismatch means the replay has drifted from
// the engine and fails the run.
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "common/timing.h"
#include "gc/fixed_circuits.h"
#include "gc/protocol.h"
#include "proto/attention.h"
#include "proto/linear.h"

namespace perfbench {

using namespace primer;

namespace {

MatI slice_cols(const MatI& m, std::size_t from, std::size_t count) {
  MatI out(m.rows(), count);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < count; ++j) out(i, j) = m(i, from + j);
  }
  return out;
}

std::vector<bool> random_bits(Rng& rng, std::size_t n) {
  std::vector<bool> b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = (rng.next() & 1) != 0;
  return b;
}

// Exact counts one inference performs, from the replay or from the
// engine's PrimerRunResult.
struct Counts {
  std::uint64_t and_gates = 0;
  std::uint64_t key_bytes = 0;
  std::uint64_t rotations = 0;
  std::uint64_t pt_mults = 0;
  std::uint64_t ct_mults = 0;
};

Counts counts_of(const PrimerRunResult& r) {
  Counts c;
  c.and_gates = r.gc_and_gates;
  for (const auto& [phase, steps] : r.costs.all()) {
    for (const auto& [step, cost] : steps) {
      if (step == "key_transfer") c.key_bytes += cost.bytes_sent;
      c.rotations += cost.he_rotations;
      c.pt_mults += cost.he_mults;
      c.ct_mults += cost.he_ct_mults;
    }
  }
  return c;
}

struct ReplayResult {
  Counts counts;
  double table_bytes = 0;
};

// One garbled-circuit stage of the inference: its circuit and how many of
// its input values the garbler (server) holds.
struct GcJob {
  Circuit circuit;
  std::size_t garbler_values = 0;
  std::unique_ptr<GcSession> session;
};

// Replays one inference of `opt`'s variant and profile as request `req`.
// Mirrors PrimerEngine::run_protocol (src/proto/primer.cpp): the same
// protocol objects, circuits and step names, in the same order, on inputs
// of the same shapes (values are random: cost depends on shape only).
ReplayResult replay_inference(const Options& opt, const BertWeightsI& w,
                              Trace& tr, std::uint64_t req, Rng& rng) {
  const BertConfig& cfg = w.config;
  const std::size_t n = cfg.tokens;
  const std::size_t d = cfg.d_model;
  const std::size_t dh = cfg.head_dim();
  const std::size_t heads = cfg.heads;
  const std::size_t frac = static_cast<std::size_t>(w.fmt.frac_bits);
  const bool offload = opt.variant != PrimerVariant::kBase;
  const bool chgs = opt.variant == PrimerVariant::kFPC;
  const PackingStrategy pack =
      (opt.variant == PrimerVariant::kBase || opt.variant == PrimerVariant::kF)
          ? PackingStrategy::kFeatureBased
          : PackingStrategy::kTokensFirst;
  const std::string off = offload ? "offline" : "online";
  const std::string embed_step = chgs ? "others" : "embed";

  const int root = tr.open("replay", req);
  std::vector<int> steps = {1, static_cast<int>(n)};
  for (std::size_t s = 2; s <= std::max(dh, n); s <<= 1) {
    steps.push_back(static_cast<int>(s));
  }
  auto pc = tr.span("he.keygen", req, [&] {
    return std::make_unique<ProtocolContext>(opt.profile, 7, steps,
                                             SessionOptions::from_env());
  });
  const ShareRing& ring = pc->ring;
  auto rand = [&](std::size_t r, std::size_t c) { return ring.random(rng, r, c); };

  // --- linear protocol objects (their constructors add Galois keys) -------
  struct Block {
    std::unique_ptr<HgsLinear> q, k, v, o, f1, f2;
    std::unique_ptr<BaseLinear> qb, kb, vb, ob, f1b, f2b;
    std::vector<std::unique_ptr<FhgsProduct>> qk, pv;
    std::vector<std::unique_ptr<CtCtProduct>> qk_cc, pv_cc;
    std::vector<std::unique_ptr<ChgsScores>> scores;
    // Indices into `jobs` of the block's garbled-circuit stages.
    std::size_t gc_qkv = 0, gc_attnv = 0, gc_gelu = 0;
    std::vector<std::size_t> gc_softmax, gc_ln1, gc_ln2;
  };
  std::vector<Block> bp(cfg.blocks);
  std::unique_ptr<HgsLinear> embed_hgs, cls_hgs;
  std::unique_ptr<BaseLinear> embed_base, cls_base;
  tr.span("proto.construct", req, [&] {
    auto hgs = [&](const MatI& m, const std::vector<std::int64_t>& b, std::size_t t) {
      return std::make_unique<HgsLinear>(*pc, m, b, t, pack);
    };
    auto base = [&](const MatI& m, const std::vector<std::int64_t>& b, std::size_t t) {
      return std::make_unique<BaseLinear>(*pc, m, b, t, pack);
    };
    if (offload) {
      embed_hgs = hgs(w.we, {}, n);
    } else {
      embed_base = base(w.we, {}, n);
    }
    for (std::size_t b = 0; b < cfg.blocks; ++b) {
      const auto& blk = w.blocks[b];
      Block& p = bp[b];
      if (offload) {
        if (!chgs) {
          p.q = hgs(blk.wq, blk.b_q, n);
          p.k = hgs(blk.wk, blk.b_k, n);
        }
        p.v = hgs(blk.wv, blk.b_v, n);
        p.o = hgs(blk.wo, blk.b_o, n);
        p.f1 = hgs(blk.w1, blk.b_1, n);
        p.f2 = hgs(blk.w2, blk.b_2, n);
        for (std::size_t h = 0; h < heads; ++h) {
          if (chgs) {
            MatI ident(d, d);
            for (std::size_t i = 0; i < d; ++i) ident(i, i) = 1;
            p.scores.push_back(std::make_unique<ChgsScores>(
                *pc, n, b == 0 ? w.we : ident, b == 0 ? w.pos : MatI(n, d),
                slice_cols(blk.wq, h * dh, dh), slice_cols(blk.wk, h * dh, dh)));
          } else {
            p.qk.push_back(std::make_unique<FhgsProduct>(*pc, n, dh, n));
          }
          p.pv.push_back(std::make_unique<FhgsProduct>(*pc, n, n, dh));
        }
      } else {
        p.qb = base(blk.wq, blk.b_q, n);
        p.kb = base(blk.wk, blk.b_k, n);
        p.vb = base(blk.wv, blk.b_v, n);
        p.ob = base(blk.wo, blk.b_o, n);
        p.f1b = base(blk.w1, blk.b_1, n);
        p.f2b = base(blk.w2, blk.b_2, n);
        for (std::size_t h = 0; h < heads; ++h) {
          p.qk_cc.push_back(std::make_unique<CtCtProduct>(*pc, n, dh, n));
          p.pv_cc.push_back(std::make_unique<CtCtProduct>(*pc, n, n, dh));
        }
      }
    }
    if (offload) {
      cls_hgs = hgs(w.w_cls, w.b_cls, 1);
    } else {
      cls_base = base(w.w_cls, w.b_cls, 1);
    }
  });

  ReplayResult out;
  {
    const std::uint64_t before = pc->channel.total_bytes();
    tr.span("net.key_transfer", req, [&] { pc->transfer_keys(off); });
    out.counts.key_bytes = pc->channel.total_bytes() - before;
  }

  // --- GC stages: build, layer, garble (offline) ---------------------------
  const std::uint64_t t = pc->t();
  auto act = [&](std::size_t count, std::size_t shift, Activation a) {
    ActivationCircuitSpec spec;
    spec.t = t;
    spec.count = count;
    spec.frac_shift = shift;
    spec.act = a;
    spec.fmt = w.fmt;
    return make_activation_circuit(spec);
  };
  auto softmax = [&](std::size_t shift) {
    SoftmaxCircuitSpec spec;
    spec.t = t;
    spec.count = n;
    spec.frac_shift = shift;
    spec.fmt = w.fmt;
    return make_softmax_circuit(spec);
  };
  auto layernorm = [&](const std::vector<std::int64_t>& gamma,
                       const std::vector<std::int64_t>& beta) {
    LayerNormCircuitSpec spec;
    spec.t = t;
    spec.d = d;
    spec.frac_shift = frac;
    spec.gamma = gamma;
    spec.beta = beta;
    spec.fmt = w.fmt;
    return make_layernorm_circuit(spec);
  };
  std::vector<GcJob> jobs;
  auto stage = [&](auto&& build, RevealTo reveal, std::size_t garbler_values) {
    GcJob job;
    job.circuit = tr.span("gc.build", req, build);
    tr.span("gc.layer", req, [&] { return job.circuit.layers().and_count; });
    job.garbler_values = garbler_values;
    job.session = std::make_unique<GcSession>(pc->framed, pc->server_rng);
    tr.span("gc.garble", req, [&] { job.session->offline(job.circuit, reveal); });
    jobs.push_back(std::move(job));
    return jobs.size() - 1;
  };
  // Garbled in the engine's order; evaluated below in its online order.
  const std::size_t gc_embed =
      stage([&] { return act(n * d, 0, Activation::kIdentity); }, RevealTo::kGarbler, n * d);
  for (std::size_t b = 0; b < cfg.blocks; ++b) {
    const auto& blk = w.blocks[b];
    Block& p = bp[b];
    const std::size_t qkv = chgs ? n * d : 3 * n * d;
    p.gc_qkv = stage([&] { return act(qkv, frac, Activation::kIdentity); },
                     RevealTo::kGarbler, qkv);
    for (std::size_t i = 0; i < heads * n; ++i) {  // head-major softmax rows
      p.gc_softmax.push_back(stage([&] { return softmax(chgs ? 3 * frac : frac); },
                                   RevealTo::kGarbler, n));
    }
    p.gc_attnv = stage([&] { return act(n * d, frac, Activation::kIdentity); },
                       RevealTo::kGarbler, n * d);
    for (std::size_t i = 0; i < n; ++i) {
      p.gc_ln1.push_back(stage([&] { return layernorm(blk.ln1_gamma, blk.ln1_beta); },
                               RevealTo::kGarbler, 2 * d));
      p.gc_ln2.push_back(stage([&] { return layernorm(blk.ln2_gamma, blk.ln2_beta); },
                               RevealTo::kGarbler, 2 * d));
    }
    p.gc_gelu = stage([&] { return act(n * cfg.d_ff, frac, Activation::kGelu); },
                      RevealTo::kGarbler, n * cfg.d_ff);
  }
  const std::size_t gc_cls = stage([&] { return act(cfg.num_classes, frac, Activation::kIdentity); },
                                   RevealTo::kEvaluator, cfg.num_classes);

  // --- linear offline ---------------------------------------------------------
  auto lin_off = [&](auto& obj, const std::string& step, auto&&... args) {
    tr.span("proto.offline", req, [&] { obj->offline(step, args...); });
  };
  if (offload) {
    lin_off(embed_hgs, embed_step, rand(n, cfg.vocab));
    for (std::size_t b = 0; b < cfg.blocks; ++b) {
      Block& p = bp[b];
      if (!chgs) {
        lin_off(p.q, "qkv", rand(n, d));
        lin_off(p.k, "qkv", rand(n, d));
      }
      lin_off(p.v, chgs ? "attnv" : "qkv", rand(n, d));
      lin_off(p.o, "others", rand(n, d));
      lin_off(p.f1, "others", rand(n, d));
      lin_off(p.f2, "others", rand(n, cfg.d_ff));
      for (std::size_t h = 0; h < heads; ++h) {
        if (chgs) {
          lin_off(p.scores[h], "qk", rand(n, b == 0 ? cfg.vocab : d));
        } else {
          lin_off(p.qk[h], "qk", rand(n, dh), rand(dh, n));
        }
        lin_off(p.pv[h], "attnv", rand(n, n), rand(n, dh));
      }
    }
    lin_off(cls_hgs, "others", rand(1, d));
  }

  // --- online -----------------------------------------------------------------
  const std::size_t bits = pc->share_bits();
  auto gc_online = [&](std::size_t index) {
    GcJob& job = jobs[index];
    const std::size_t g = job.garbler_values * bits;
    const std::size_t e = static_cast<std::size_t>(job.circuit.num_inputs) - g;
    auto gbits = random_bits(rng, g);
    auto ebits = random_bits(rng, e);
    tr.span("gc.eval", req, [&] { return job.session->online(gbits, ebits); });
  };
  auto lin_on = [&](auto& obj, const std::string& step, auto&&... args) {
    tr.span("proto.online", req, [&] { return obj->online(step, args...); });
  };
  if (offload) {
    lin_on(embed_hgs, embed_step, rand(n, cfg.vocab));
  } else {
    lin_on(embed_base, "embed", rand(n, cfg.vocab), rand(n, cfg.vocab));
  }
  gc_online(gc_embed);
  for (std::size_t b = 0; b < cfg.blocks; ++b) {
    Block& p = bp[b];
    if (offload) {
      if (!chgs) {
        lin_on(p.q, "qkv", rand(n, d));
        lin_on(p.k, "qkv", rand(n, d));
      }
      lin_on(p.v, chgs ? "attnv" : "qkv", rand(n, d));
    } else {
      lin_on(p.qb, "qkv", rand(n, d), rand(n, d));
      lin_on(p.kb, "qkv", rand(n, d), rand(n, d));
      lin_on(p.vb, "qkv", rand(n, d), rand(n, d));
    }
    gc_online(p.gc_qkv);
    for (std::size_t h = 0; h < heads; ++h) {
      if (chgs) {
        lin_on(p.scores[h], "qk", rand(n, b == 0 ? cfg.vocab : d));
      } else if (offload) {
        lin_on(p.qk[h], "qk", rand(n, dh), rand(dh, n));
      } else {
        lin_on(p.qk_cc[h], "qk", rand(n, dh), rand(n, dh), rand(dh, n), rand(dh, n));
      }
      for (std::size_t i = 0; i < n; ++i) gc_online(p.gc_softmax[h * n + i]);
      if (offload) {
        lin_on(p.pv[h], "attnv", rand(n, n), rand(n, dh));
      } else {
        lin_on(p.pv_cc[h], "attnv", rand(n, n), rand(n, n), rand(n, dh), rand(n, dh));
      }
    }
    gc_online(p.gc_attnv);
    if (offload) {
      lin_on(p.o, "others", rand(n, d));
    } else {
      lin_on(p.ob, "others", rand(n, d), rand(n, d));
    }
    for (const std::size_t j : p.gc_ln1) gc_online(j);
    if (offload) {
      lin_on(p.f1, "others", rand(n, d));
    } else {
      lin_on(p.f1b, "others", rand(n, d), rand(n, d));
    }
    gc_online(p.gc_gelu);
    if (offload) {
      lin_on(p.f2, "others", rand(n, cfg.d_ff));
    } else {
      lin_on(p.f2b, "others", rand(n, cfg.d_ff), rand(n, cfg.d_ff));
    }
    for (const std::size_t j : p.gc_ln2) gc_online(j);
  }
  if (offload) {
    lin_on(cls_hgs, "others", rand(1, d));
  } else {
    lin_on(cls_base, "others", rand(1, d), rand(1, d));
  }
  gc_online(gc_cls);
  tr.close(root);

  for (const GcJob& job : jobs) {
    out.counts.and_gates += job.session->stats().and_gates;
    out.table_bytes += static_cast<double>(job.session->stats().table_bytes);
  }
  for (const auto& [phase, steps_map] : pc->costs.all()) {
    for (const auto& [step, cost] : steps_map) {
      out.counts.rotations += cost.he_rotations;
      out.counts.pt_mults += cost.he_mults;
      out.counts.ct_mults += cost.he_ct_mults;
    }
  }
  return out;
}

// Median wall time of one call of `fn`, timing `per_batch` calls per
// sample; `prep` runs untimed before each call.
template <typename Prep, typename Fn>
double call_seconds(std::size_t samples, std::size_t per_batch, Prep&& prep, Fn&& fn) {
  std::vector<double> t;
  for (std::size_t s = 0; s < samples; ++s) {
    double total = 0;
    for (std::size_t i = 0; i < per_batch; ++i) {
      prep();
      Stopwatch sw;
      fn();
      total += sw.seconds();
    }
    t.push_back(total / static_cast<double>(per_batch));
  }
  return median(t);
}

struct Micro {
  double rotate_s = 0, mul_plain_s = 0, ct_mult_s = 0, ntt_forward_s = 0;
};

// Single-call costs of the HE primitives and the NTT at the profile.
Micro micro_kernels(const Options& opt, Trace& tr) {
  Micro m;
  tr.span("micro", 0, [&] {
    ProtocolContext pc(opt.profile, 11, {1}, SessionOptions{});
    Rng rng(opt.seed);
    std::vector<u64> vals(pc.encoder.slot_count());
    for (auto& v : vals) v = rng.uniform(pc.t());
    const Plaintext pt = pc.encoder.encode(vals);
    const Ciphertext fresh = pc.enc.encrypt(pt);
    const Ciphertext other = pc.enc.encrypt(pt);
    Ciphertext ct;
    auto reset = [&] { ct = fresh; };
    const std::size_t reps = pc.he.degree() >= 8192 ? 5 : 15;
    m.rotate_s = call_seconds(reps, 4, reset,
                              [&] { pc.eval.rotate_rows_inplace(ct, 1, pc.gk); });
    m.mul_plain_s = call_seconds(reps, 4, reset,
                                 [&] { pc.eval.multiply_plain_inplace(ct, pt); });
    m.ct_mult_s = call_seconds(reps, 2, [] {}, [&] {
      Ciphertext prod = pc.eval.multiply(fresh, other);
      pc.eval.relinearize_inplace(prod, pc.rk);
    });
    // Forward NTT over every RNS modulus of the profile.
    const std::size_t deg = pc.he.degree();
    std::vector<std::vector<u64>> limbs(pc.he.rns_size(), std::vector<u64>(deg));
    std::vector<std::vector<u64>> work = limbs;
    for (std::size_t i = 0; i < limbs.size(); ++i) {
      for (auto& x : limbs[i]) x = rng.uniform(pc.he.q(i));
    }
    std::size_t limb = 0;
    m.ntt_forward_s = call_seconds(
        reps, 64,
        [&] {
          limb = (limb + 1) % limbs.size();
          work[limb] = limbs[limb];
        },
        [&] { pc.he.ntt(limb).forward(work[limb].data()); });
  });
  return m;
}

bool check_drift(const Counts& engine, const Counts& replay) {
  bool ok = true;
  auto eq = [&](const char* what, std::uint64_t a, std::uint64_t b) {
    if (a != b) {
      std::fprintf(stderr,
                   "trace drift: %s is %llu in the engine run but %llu in the "
                   "layer replay\n",
                   what, static_cast<unsigned long long>(a),
                   static_cast<unsigned long long>(b));
      ok = false;
    }
  };
  eq("gc.and_gates", engine.and_gates, replay.and_gates);
  eq("net.key_bytes", engine.key_bytes, replay.key_bytes);
  eq("he.rotations", engine.rotations, replay.rotations);
  eq("he.pt_mults", engine.pt_mults, replay.pt_mults);
  eq("he.ct_mults", engine.ct_mults, replay.ct_mults);
  return ok;
}

}  // namespace

RunReport run_traced(const Options& opt) {
  const BertWeightsI w = nano_model();
  RunReport rep;

  // Untraced requests: the reference run result, the latency the spans are
  // held against and per-request process usage from a closed loop on the
  // engine; the serving-layer numbers from the workload's open loop, or,
  // for a closed-loop workload, from the same closed loop through a
  // one-worker server.
  PrimerEngine engine(w, opt.variant, opt.profile);
  const bool serve = opt.mode == "serve";
  const ClosedLoop cl = closed_loop(opt, w, engine, (serve ? 0.15 : 0.3) * opt.seconds);
  const ServeLoop sl = serve ? serve_loop(opt, w, 0.5 * opt.seconds)
                             : serial_serve_loop(opt, w, 0.2 * opt.seconds);
  rep.attempted = cl.samples.size() + sl.attempted;
  rep.correct = cl.mismatches == 0 && sl.mismatches == 0;
  std::vector<double> lat, sys, faults;
  const PrimerRunResult* ref = nullptr;
  for (const RequestSample& s : cl.samples) {
    if (!s.ok) {
      ++rep.failed;
      continue;
    }
    if (ref == nullptr) ref = &s.result;
    lat.push_back(s.latency_s);
    sys.push_back(s.sys_s);
    faults.push_back(s.minor_faults);
  }
  rep.failed += sl.attempted - sl.completed_ok;
  if (ref == nullptr) throw std::runtime_error("no untraced request completed");
  const double latency_p50 = median(lat);

  // Traced layer replays until the run's time is used (at least one).
  Trace tr;
  Rng rng(opt.seed ^ 0x7ace);
  const Counts engine_counts = counts_of(*ref);
  std::vector<ReplayResult> replays;
  Stopwatch sw;
  const double replay_budget = (serve ? 0.2 : 0.4) * opt.seconds;
  do {
    const std::uint64_t id = replays.size() + 1;
    replays.push_back(replay_inference(opt, w, tr, id, rng));
    const ReplayResult& r = replays.back();
    tr.count("gc.and_gates", static_cast<double>(r.counts.and_gates), id);
    tr.count("gc.table_bytes", r.table_bytes, id);
    tr.count("net.key_bytes", static_cast<double>(r.counts.key_bytes), id);
    tr.count("he.rotations", static_cast<double>(r.counts.rotations), id);
    tr.count("he.pt_mults", static_cast<double>(r.counts.pt_mults), id);
    tr.count("he.ct_mults", static_cast<double>(r.counts.ct_mults), id);
    if (!check_drift(engine_counts, r.counts)) rep.correct = false;
  } while (!opt.smoke && sw.seconds() < replay_budget);
  const Micro micro = micro_kernels(opt, tr);

  // Per-replay sums, then the median over replays.
  auto per_replay = [&](auto&& f) {
    std::vector<double> v;
    for (std::uint64_t id = 1; id <= replays.size(); ++id) v.push_back(f(id));
    return median(v);
  };
  auto span_sum = [&](const char* name) {
    return per_replay([&](std::uint64_t id) { return tr.sum(name, id); });
  };
  const double garble_s = span_sum("gc.garble");
  const Counts& rc = replays.front().counts;

  rep.add("gc.build_s", span_sum("gc.build"), "s");
  rep.add("gc.layer_s", span_sum("gc.layer"), "s");
  rep.add("gc.garble_s", garble_s, "s");
  rep.add("gc.eval_s", span_sum("gc.eval"), "s");
  rep.add("gc.and_gates", static_cast<double>(rc.and_gates), "count");
  rep.add("gc.garble_ands_per_s",
          garble_s > 0 ? static_cast<double>(rc.and_gates) / garble_s : 0, "1/s");
  rep.add("gc.table_mb", replays.front().table_bytes / 1e6, "MB");

  rep.add("he.keygen_s", span_sum("he.keygen"), "s");
  rep.add("he.rotate_call_s", micro.rotate_s, "s");
  rep.add("he.mul_plain_call_s", micro.mul_plain_s, "s");
  rep.add("he.ct_mult_call_s", micro.ct_mult_s, "s");
  rep.add("he.rotations", static_cast<double>(rc.rotations), "count");
  rep.add("he.pt_mults", static_cast<double>(rc.pt_mults), "count");
  rep.add("he.ct_mults", static_cast<double>(rc.ct_mults), "count");
  rep.add("he.min_noise_margin_bits",
          std::isfinite(ref->min_noise_margin_bits) ? ref->min_noise_margin_bits : 0,
          "bits");
  rep.add("ntt.forward_call_s", micro.ntt_forward_s, "s");

  // The protocol objects' constructors: weight encoding and the Galois keys
  // for their rotation steps.
  rep.add("proto.construct_s", span_sum("proto.construct"), "s");
  rep.add("proto.linear_offline_s", span_sum("proto.offline"), "s");
  rep.add("proto.linear_online_s", span_sum("proto.online"), "s");

  rep.add("net.key_transfer_s", span_sum("net.key_transfer"), "s");
  rep.add("net.key_mb", static_cast<double>(rc.key_bytes) / 1e6, "MB");
  rep.add("net.frames", static_cast<double>(ref->frames_sent), "count");
  rep.add("net.modeled_s",
          modeled_network_s(static_cast<double>(ref->total_bytes),
                            static_cast<double>(ref->rounds)),
          "s");

  const double busy_share =
      sl.span_s > 0 ? sl.busy_s / (sl.span_s * static_cast<double>(sl.workers)) : 0;
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, sl.attempted));
  rep.add("serving.wait_p50_s", median(sl.wait_s), "s");
  rep.add("serving.wait_tail_s", tail_of(sl.wait_s).value, "s");
  rep.add("serving.service_p50_s", median(sl.service_s), "s");
  rep.add("serving.utilization", busy_share, "ratio");
  rep.add("serving.shed_ratio", static_cast<double>(sl.shed) / attempted, "ratio");
  rep.add("serving.rejected_ratio", static_cast<double>(sl.rejected) / attempted, "ratio");
  rep.add("serving.cache_hit_ratio", sl.cache_hit_ratio, "ratio");
  double replayed = 0;
  for (const double b : sl.replayed_bytes) replayed += b;
  rep.add("serving.replayed_mb",
          sl.replayed_bytes.empty() ? 0 : replayed / 1e6 / static_cast<double>(sl.replayed_bytes.size()),
          "MB");
  rep.add("serving.generator_lag_s", sl.max_lag_s, "s");

  const double served = static_cast<double>(std::max<std::uint64_t>(1, sl.completed_ok));
  rep.add("process.sys_s", serve ? sl.sys_s / served : median(sys), "s");
  rep.add("process.minor_faults", serve ? sl.minor_faults / served : median(faults), "count");

  const double attributed = per_replay([&](std::uint64_t id) { return tr.leaf_sum(id); });
  rep.add("trace.unattributed_s", latency_p50 - attributed, "s");

  tr.write_jsonl();
  return rep;
}

}  // namespace perfbench
