#include "gc/garble.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/arena.h"
#include "common/parallel.h"
#include "gc/garble_kernels.h"

namespace primer {

namespace {

const FixedKeyAes& garbling_hash() {
  static const FixedKeyAes aes;
  return aes;
}

Label random_label(Rng& rng) { return Label{rng.next(), rng.next()}; }

// Input labels come from four interleaved xoshiro streams, each seeded
// from the caller's generator.  xoshiro's state update is a ~5-cycle
// serial dependency chain, so sampling 2*n words through one stream caps
// the garbler's fixed setup cost; four independent streams let the core
// overlap the chains (~4x on wide-input circuits).  The optimized driver
// and the serial reference path both call this helper, so labels — and
// therefore tables — stay bit-identical across kernel tiers.
void sample_input_labels(Rng& rng, Label* dst, std::size_t n) {
  Rng s[4] = {Rng(rng.next()), Rng(rng.next()), Rng(rng.next()),
              Rng(rng.next())};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    dst[i] = Label{s[0].next(), s[0].next()};
    dst[i + 1] = Label{s[1].next(), s[1].next()};
    dst[i + 2] = Label{s[2].next(), s[2].next()};
    dst[i + 3] = Label{s[3].next(), s[3].next()};
  }
  for (; i < n; ++i) dst[i] = Label{s[i & 3].next(), s[i & 3].next()};
}

// Approximate element-op cost of one AND gate against parallel.h's
// kSerialGrain: four (garble) / two (eval) pipelined AES hashes plus the
// surrounding label loads/stores.  Levels below ~2k / ~4k gates stay on
// the calling thread — a pool wakeup would cost more than it saves.
constexpr std::size_t kGarbleGateWork = 64;
constexpr std::size_t kEvalGateWork = 32;

// Label access by byte offset (the flattened gate records store
// wire * sizeof(Label); see CircuitLevel::and_quads): one load with a base
// register instead of a zero-extend + shift + add per wire touch.
inline Label* label_at(Label* base, std::uint32_t off) {
  return reinterpret_cast<Label*>(reinterpret_cast<char*>(base) + off);
}
inline const Label* label_at(const Label* base, std::uint32_t off) {
  return reinterpret_cast<const Label*>(
      reinterpret_cast<const char*>(base) + off);
}

// All-zero / all-one AND mask from a label's point-and-permute bit
// (bit 0), derived in-register: broadcast the low dword, then shift the
// bit into every sign position.  No scalar detour, no table load.
inline __m128i permute_mask(__m128i label) {
  const __m128i b = _mm_shuffle_epi32(label, 0x00);
  return _mm_srai_epi32(_mm_slli_epi32(b, 31), 31);
}

// One level's free gates: w[out] = w[a] ^ w[b] over flattened byte-offset
// triples, as whole 128-bit labels (the scalar Block operator^ would split
// each into two 64-bit halves).  XOR/NOT outnumber ANDs ~3:1 in the
// arithmetic circuits, so this loop is a real fraction of garble/eval.
inline __m128i load_label_off(const Label* w, std::uint32_t off) {
  return _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(label_at(w, off)));
}

inline void free_sweep(Label* w, const CircuitLevel& level) {
  // Triples within one independence wave (see CircuitLevel::free_wave_ends)
  // never read each other's outputs, so a group's loads all issue before
  // its stores — which the raw emission order forbids, because consecutive
  // triples may chain (the sum bits of a ripple adder XOR through each
  // other).  Grouped loads break the store-forward serialization that made
  // the strictly-in-order loop latency-bound; the two input offsets of a
  // triple read as one 64-bit load.  Waves themselves execute in order.
  const std::uint32_t* t = level.free_triples.data();
  std::size_t i = 0;
  for (const std::uint32_t end : level.free_wave_ends) {
    const std::size_t e = end;
    for (; i + 12 <= e; i += 12) {
      std::uint64_t ab0, ab1, ab2, ab3;
      std::memcpy(&ab0, t + i, sizeof(ab0));
      std::memcpy(&ab1, t + i + 3, sizeof(ab1));
      std::memcpy(&ab2, t + i + 6, sizeof(ab2));
      std::memcpy(&ab3, t + i + 9, sizeof(ab3));
      const __m128i r0 =
          _mm_xor_si128(load_label_off(w, static_cast<std::uint32_t>(ab0)),
                        load_label_off(w, static_cast<std::uint32_t>(ab0 >> 32)));
      const __m128i r1 =
          _mm_xor_si128(load_label_off(w, static_cast<std::uint32_t>(ab1)),
                        load_label_off(w, static_cast<std::uint32_t>(ab1 >> 32)));
      const __m128i r2 =
          _mm_xor_si128(load_label_off(w, static_cast<std::uint32_t>(ab2)),
                        load_label_off(w, static_cast<std::uint32_t>(ab2 >> 32)));
      const __m128i r3 =
          _mm_xor_si128(load_label_off(w, static_cast<std::uint32_t>(ab3)),
                        load_label_off(w, static_cast<std::uint32_t>(ab3 >> 32)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(label_at(w, t[i + 2])), r0);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(label_at(w, t[i + 5])), r1);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(label_at(w, t[i + 8])), r2);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(label_at(w, t[i + 11])), r3);
    }
    for (; i < e; i += 3) {
      std::uint64_t ab;
      std::memcpy(&ab, t + i, sizeof(ab));
      const __m128i r =
          _mm_xor_si128(load_label_off(w, static_cast<std::uint32_t>(ab)),
                        load_label_off(w, static_cast<std::uint32_t>(ab >> 32)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(label_at(w, t[i + 2])), r);
    }
  }
}

// Fused half-gates garbling kernel: G whole AND gates (4*G AES blocks)
// stay in __m128i registers from label load to table-row store, with the
// blocks interleaved through one AESENC round sequence.  Two tricks keep
// the hash count at the pipeline's throughput floor:
//   - sigma is XOR-linear, so sigma(A0 ^ R) = sigma(A0) ^ sigma(R) with
//     sigma(R) computed once per span — half the doublings;
//   - the pa/pb conditionals become sign-extended AND masks, so the round
//     pipeline never branches.
// Every step is the same XOR algebra as the scalar reference, so tables
// and labels are bit-identical to it.
template <int G>
inline void garble_gates(const __m128i* rk, const std::uint32_t* quads,
                         std::uint64_t tw_off, __m128i vdelta, __m128i sdelta,
                         Label* w0, Label* rows) {
  __m128i s[4 * G], v[4 * G], va[G], pa[G], pb[G];
  for (int k = 0; k < G; ++k) {
    const std::uint32_t* q = quads + 4 * k;
    const std::uint64_t j0 = 2 * std::uint64_t{q[3]} + 1 + tw_off;
    va[k] = label_at(w0, q[0])->to_m128();
    const __m128i vb = label_at(w0, q[1])->to_m128();
    const __m128i sa = _mm_xor_si128(
        gf_double_m128(va[k]), _mm_set_epi64x(0, static_cast<long long>(j0)));
    const __m128i sb = _mm_xor_si128(
        gf_double_m128(vb), _mm_set_epi64x(0, static_cast<long long>(j0 + 1)));
    s[4 * k + 0] = sa;
    s[4 * k + 1] = _mm_xor_si128(sa, sdelta);
    s[4 * k + 2] = sb;
    s[4 * k + 3] = _mm_xor_si128(sb, sdelta);
    pa[k] = permute_mask(va[k]);
    pb[k] = permute_mask(vb);
  }
  for (int k = 0; k < 4 * G; ++k) v[k] = _mm_xor_si128(s[k], rk[0]);
  for (int r = 1; r < 10; ++r) {
    for (int k = 0; k < 4 * G; ++k) v[k] = _mm_aesenc_si128(v[k], rk[r]);
  }
  for (int k = 0; k < 4 * G; ++k) {
    v[k] = _mm_xor_si128(_mm_aesenclast_si128(v[k], rk[10]), s[k]);
  }
  for (int k = 0; k < G; ++k) {
    const std::uint32_t* q = quads + 4 * k;
    // Garbler half: TG = H(A0,j0) ^ H(A1,j0) ^ (pb ? R : 0),
    //               WG = H(A0,j0) ^ (pa ? TG : 0).
    __m128i tg = _mm_xor_si128(v[4 * k + 0], v[4 * k + 1]);
    tg = _mm_xor_si128(tg, _mm_and_si128(pb[k], vdelta));
    const __m128i wg =
        _mm_xor_si128(v[4 * k + 0], _mm_and_si128(pa[k], tg));
    // Evaluator half: TE = H(B0,j1) ^ H(B1,j1) ^ A0,
    //                 WE = H(B0,j1) ^ (pb ? TE ^ A0 : 0).
    const __m128i hb = _mm_xor_si128(v[4 * k + 2], v[4 * k + 3]);
    const __m128i te = _mm_xor_si128(hb, va[k]);
    const __m128i we =
        _mm_xor_si128(v[4 * k + 2], _mm_and_si128(pb[k], hb));
    const std::size_t row = 2 * std::size_t{q[3]};
    rows[row] = Block::from_m128(tg);
    rows[row + 1] = Block::from_m128(te);
    *label_at(w0, q[2]) = Block::from_m128(_mm_xor_si128(wg, we));
  }
}

// Evaluator counterpart: G gates, two hashes each (2*G blocks in flight).
template <int G>
inline void eval_gates(const __m128i* rk, const std::uint32_t* quads,
                       std::uint64_t tw_off, const Label* rows, Label* w) {
  __m128i s[2 * G], v[2 * G], va[G], sa[G], sb[G];
  for (int k = 0; k < G; ++k) {
    const std::uint32_t* q = quads + 4 * k;
    const std::uint64_t j0 = 2 * std::uint64_t{q[3]} + 1 + tw_off;
    va[k] = label_at(w, q[0])->to_m128();
    const __m128i vb = label_at(w, q[1])->to_m128();
    s[2 * k + 0] = _mm_xor_si128(
        gf_double_m128(va[k]), _mm_set_epi64x(0, static_cast<long long>(j0)));
    s[2 * k + 1] = _mm_xor_si128(
        gf_double_m128(vb), _mm_set_epi64x(0, static_cast<long long>(j0 + 1)));
    sa[k] = permute_mask(va[k]);
    sb[k] = permute_mask(vb);
  }
  for (int k = 0; k < 2 * G; ++k) v[k] = _mm_xor_si128(s[k], rk[0]);
  for (int r = 1; r < 10; ++r) {
    for (int k = 0; k < 2 * G; ++k) v[k] = _mm_aesenc_si128(v[k], rk[r]);
  }
  for (int k = 0; k < 2 * G; ++k) {
    v[k] = _mm_xor_si128(_mm_aesenclast_si128(v[k], rk[10]), s[k]);
  }
  for (int k = 0; k < G; ++k) {
    const std::uint32_t* q = quads + 4 * k;
    const std::size_t row = 2 * std::size_t{q[3]};
    const __m128i wg = _mm_xor_si128(
        v[2 * k + 0], _mm_and_si128(sa[k], rows[row].to_m128()));
    const __m128i we = _mm_xor_si128(
        v[2 * k + 1],
        _mm_and_si128(sb[k], _mm_xor_si128(rows[row + 1].to_m128(), va[k])));
    *label_at(w, q[2]) = Block::from_m128(_mm_xor_si128(wg, we));
  }
}

// Garbles n AND quads of one dependency level through the fused kernel,
// two gates (eight blocks) in flight at a time.  Table rows and tweaks are
// addressed by each gate's global AND ordinal (record ordinal + ob), and
// every gate writes disjoint state (its output wire and its two table
// rows), so chunks of a level can run concurrently with bit-identical
// results.
void garble_and_span(const FixedKeyAes& aes, const std::uint32_t* quads,
                     std::size_t n, std::uint32_t ob, Label delta, Label* w0,
                     Label* rows) {
  const __m128i* rk = aes.round_keys();
  const __m128i vdelta = delta.to_m128();
  const __m128i sdelta = gf_double_m128(vdelta);
  // The ordinal base folds into the table base and the tweak once per span.
  rows += 2 * std::size_t{ob};
  const std::uint64_t tw_off = 2 * std::uint64_t{ob};
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    garble_gates<2>(rk, quads + 4 * i, tw_off, vdelta, sdelta, w0, rows);
  }
  if (i < n) {
    garble_gates<1>(rk, quads + 4 * i, tw_off, vdelta, sdelta, w0, rows);
  }
}

// Evaluator counterpart: four gates (eight blocks) in flight at a time.
void eval_and_span(const FixedKeyAes& aes, const std::uint32_t* quads,
                   std::size_t n, std::uint32_t ob, const Label* rows,
                   Label* w) {
  const __m128i* rk = aes.round_keys();
  rows += 2 * std::size_t{ob};
  const std::uint64_t tw_off = 2 * std::uint64_t{ob};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    eval_gates<4>(rk, quads + 4 * i, tw_off, rows, w);
  }
  for (; i < n; ++i) {
    eval_gates<1>(rk, quads + 4 * i, tw_off, rows, w);
  }
}

#if defined(__x86_64__) || defined(__i386__)
bool cpu_has_vaes512() {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0 &&
         __builtin_cpu_supports("vaes") != 0;
}
#else
bool cpu_has_vaes512() { return false; }
#endif

struct GcKernelTier {
  GarbleSpanFn garble;
  EvalSpanFn eval;
  const char* name;
};

constexpr GcKernelTier kSseTier{&garble_and_span, &eval_and_span, "sse"};

// Tier selection: VAES when the TU was built and cpuid agrees, overridable
// per-call via PRIMER_GC_KERNEL ("vaes" / "sse") — re-read every time so
// tests can flip tiers with setenv; getenv is noise next to a garble.
GcKernelTier gc_kernel_tier() {
  static const bool vaes_ok =
      vaes_garble_span() != nullptr && cpu_has_vaes512();
  const GcKernelTier vaes_tier{vaes_garble_span(), vaes_eval_span(), "vaes"};
  const char* env = std::getenv("PRIMER_GC_KERNEL");
  if (env != nullptr && *env != '\0') {
    if (std::strcmp(env, "sse") == 0) return kSseTier;
    if (std::strcmp(env, "vaes") == 0) {
      if (vaes_ok) return vaes_tier;
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true, std::memory_order_relaxed)) {
        std::fprintf(
            stderr,
            "primer: PRIMER_GC_KERNEL=vaes unavailable; using sse tier\n");
      }
      return kSseTier;
    }
    static std::atomic<bool> warned_unknown{false};
    if (!warned_unknown.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "primer: unknown PRIMER_GC_KERNEL '%s' (expected vaes or "
                   "sse); using default\n",
                   env);
    }
  }
  return vaes_ok ? vaes_tier : kSseTier;
}

// Copies every copy's slice of the global input labels into its wire block
// and seeds the block's delta slot (see ReplicatedCircuit for the layout).
void scatter_inputs(const ReplicatedCircuit& rc, const Label* inputs,
                    Label* w, Label delta_slot) {
  const CircuitLayers& lay = *rc.tmpl;
  const std::size_t block = static_cast<std::size_t>(lay.num_wires) + 1;
  const std::size_t seg =
      static_cast<std::size_t>(lay.num_inputs) / rc.input_segments;
  for (std::size_t c = 0; c < rc.copies; ++c) {
    Label* wc = w + c * block;
    for (std::size_t s = 0; s < rc.input_segments; ++s) {
      std::memcpy(static_cast<void*>(wc + s * seg),
                  inputs + (s * rc.copies + c) * seg, seg * sizeof(Label));
    }
    wc[block - 1] = delta_slot;
  }
}

// Every copy's output labels, in global output order.
std::vector<Label> gather_outputs(const ReplicatedCircuit& rc,
                                  const Label* w) {
  const CircuitLayers& lay = *rc.tmpl;
  const std::size_t block = static_cast<std::size_t>(lay.num_wires) + 1;
  std::vector<Label> out;
  out.reserve(rc.num_outputs());
  for (std::size_t c = 0; c < rc.copies; ++c) {
    for (const auto o : lay.outputs) out.push_back(w[c * block + o]);
  }
  return out;
}

// Runs every level of every copy of `rc` over the wire blocks at `w`
// (copy c's block at w + c * (template wires + 1)), copy by copy: each
// copy's wire block stays in cache through all its levels, which beats
// running a level across all copies even though template levels are often
// only one to three AND gates wide (carry chains).  Per level,
// run_span(quads, n, copy_w, ordinal_base) garbles or evaluates spans of
// the level's AND gates, then the free sweep runs and level_done(copy,
// level) fires.  Copy 0 runs first on the calling thread, fanning wide
// levels across the pool (a one-copy circuit is all copy 0; the garbler
// streams copy 0's table prefix); the other copies then fan out across the
// pool one copy per task, their levels running inline.
template <class RunSpan, class LevelDone>
void run_copies(const ReplicatedCircuit& rc, Label* w, std::size_t gate_work,
                const RunSpan& run_span, const LevelDone& level_done) {
  const CircuitLayers& lay = *rc.tmpl;
  const std::size_t block = static_cast<std::size_t>(lay.num_wires) + 1;
  auto run_copy = [&](std::size_t c) {
    Label* wc = w + c * block;
    const auto base = static_cast<std::uint32_t>(c * lay.and_count);
    for (std::size_t l = 0; l < lay.levels.size(); ++l) {
      const CircuitLevel& level = lay.levels[l];
      const std::uint32_t* quads = level.and_quads.data();
      const std::size_t n = level.and_quads.size() / 4;
      if (num_threads() == 1 || n * gate_work < kSerialGrain) {
        run_span(quads, n, wc, base);
      } else {
        parallel_for_chunks(0, n, [&](std::size_t lo, std::size_t hi) {
          run_span(quads + 4 * lo, hi - lo, wc, base);
        });
      }
      // Free sweep: XOR is free, NOT is XOR with the delta wire (output
      // false label = input true label; the evaluator passes the label
      // through unchanged and bookkeeping flips semantics).
      free_sweep(wc, level);
      level_done(c, l);
    }
  };
  run_copy(0);
  if (rc.copies > 1) {
    parallel_for(1, rc.copies, lay.and_count * gate_work, run_copy);
  }
}

}  // namespace

const char* gc_kernel_name() { return gc_kernel_tier().name; }

GarbledCircuit Garbler::garble(const Circuit& c) const {
  return garble(ReplicatedCircuit(c), RowSink{});
}

GarbledCircuit Garbler::garble(const Circuit& c, const RowSink& sink) const {
  return garble(ReplicatedCircuit(c), sink);
}

GarbledCircuit Garbler::garble(const ReplicatedCircuit& rc,
                               const RowSink& sink) const {
  const FixedKeyAes& aes = garbling_hash();
  const CircuitLayers& lay = *rc.tmpl;
  GarbledCircuit gc;
  // All Rng sampling happens here on the calling thread, in the same order
  // as the serial reference path on the monolithic circuit.
  gc.delta = random_label(rng_);
  gc.delta.lo |= 1;  // point-and-permute: lsb(R) = 1
  gc.input_labels0.resize(rc.num_inputs());
  sample_input_labels(rng_, gc.input_labels0.data(), rc.num_inputs());
  // Wire labels live in arena scratch, one block per copy with one extra
  // slot: the reserved delta wire the flattened free-gate triples XOR
  // against (NOT gates; see CircuitLevel::free_triples).  Dirty reuse is
  // safe — every wire is written (input scatter or gate output) before it
  // is read.
  const std::size_t block = static_cast<std::size_t>(lay.num_wires) + 1;
  auto scratch = PolyArena::local().checkout(2 * block * rc.copies);
  Label* w0 = reinterpret_cast<Label*>(scratch.data());
  scatter_inputs(rc, gc.input_labels0.data(), w0, gc.delta);
  // Uninitialized resize (see LabelVec): every row is written by exactly one
  // AND gate's kernel before the sink or the caller reads it.
  const std::size_t total_rows = 2 * rc.and_count();
  gc.table.rows.resize(total_rows);
  Label* rows = gc.table.rows.data();

  const GarbleSpanFn span = gc_kernel_tier().garble;
  const auto run_span = [&](const std::uint32_t* quads, std::size_t n,
                            Label* w, std::uint32_t base) {
    span(aes, quads, n, base, gc.delta, w, rows);
  };
  // Streamed rows follow the monolithic circuit's level watermarks: while
  // a later template level still holds ANDs, the final prefix lies inside
  // copy 0 (final once copy 0 finishes the level); after that, only the
  // whole table is final.
  std::size_t streamed = 0;  // rows already handed to the sink
  const auto level_done = [&](std::size_t c, std::size_t l) {
    if (!sink || c != 0) return;
    std::size_t final_ands = lay.watermark[l];
    if (final_ands == lay.and_count) {
      if (rc.copies != 1) return;
      final_ands = rc.and_count();
    }
    if (2 * final_ands > streamed) {
      sink(rows, streamed, 2 * final_ands);
      streamed = 2 * final_ands;
    }
  };
  run_copies(rc, w0, kGarbleGateWork, run_span, level_done);
  if (sink && streamed < total_rows) sink(rows, streamed, total_rows);

  gc.output_labels0 = gather_outputs(rc, w0);
  return gc;
}

std::vector<Label> GcEvaluator::eval(const Circuit& c,
                                     const GarbledTable& table,
                                     const std::vector<Label>& active_inputs) {
  return eval(ReplicatedCircuit(c), table, active_inputs);
}

std::vector<Label> GcEvaluator::eval(const ReplicatedCircuit& rc,
                                     const GarbledTable& table,
                                     const std::vector<Label>& active_inputs) {
  if (active_inputs.size() != rc.num_inputs()) {
    throw std::invalid_argument("GcEvaluator::eval: wrong input count");
  }
  if (table.rows.size() != 2 * rc.and_count()) {
    throw std::invalid_argument("GcEvaluator::eval: table size mismatch");
  }
  const FixedKeyAes& aes = garbling_hash();
  // Wire labels in arena scratch (dirty reuse is safe; see garble).  The
  // delta slot is zero on the evaluator's side: the flattened NOT triples
  // XOR with it, passing the active label through.
  const std::size_t block = static_cast<std::size_t>(rc.tmpl->num_wires) + 1;
  auto scratch = PolyArena::local().checkout(2 * block * rc.copies);
  Label* w = reinterpret_cast<Label*>(scratch.data());
  scatter_inputs(rc, active_inputs.data(), w, Label{});
  const Label* rows = table.rows.data();

  const EvalSpanFn span = gc_kernel_tier().eval;
  const auto run_span = [&](const std::uint32_t* quads, std::size_t n,
                            Label* wc, std::uint32_t base) {
    span(aes, quads, n, base, rows, wc);
  };
  run_copies(rc, w, kEvalGateWork, run_span, [](std::size_t, std::size_t) {});
  return gather_outputs(rc, w);
}

// ---------------------------------------------------------------------------
// Seed serial paths (bit-exactness oracle + bench baseline)
// ---------------------------------------------------------------------------

GarbledCircuit garble_reference(const Circuit& c, Rng& rng) {
  const FixedKeyAes& aes = garbling_hash();
  GarbledCircuit gc;
  gc.delta = random_label(rng);
  gc.delta.lo |= 1;

  std::vector<Label> w0(static_cast<std::size_t>(c.num_wires));
  sample_input_labels(rng, w0.data(), static_cast<std::size_t>(c.num_inputs));

  std::uint64_t gate_index = 0;
  for (const auto& g : c.gates) {
    switch (g.type) {
      case GateType::kXor:
        w0[g.out] = w0[g.a] ^ w0[g.b];
        break;
      case GateType::kNot:
        w0[g.out] = w0[g.a] ^ gc.delta;
        break;
      case GateType::kAnd: {
        const Label a0 = w0[g.a];
        const Label a1 = a0 ^ gc.delta;
        const Label b0 = w0[g.b];
        const Label b1 = b0 ^ gc.delta;
        const bool pa = a0.lsb();
        const bool pb = b0.lsb();
        const std::uint64_t j0 = 2 * gate_index + 1;
        const std::uint64_t j1 = 2 * gate_index + 2;
        const Label ha0 = aes.hash(a0, j0);
        const Label ha1 = aes.hash(a1, j0);
        Label tg = ha0 ^ ha1;
        if (pb) tg ^= gc.delta;
        Label wg = ha0;
        if (pa) wg ^= tg;
        const Label hb0 = aes.hash(b0, j1);
        const Label hb1 = aes.hash(b1, j1);
        const Label te = hb0 ^ hb1 ^ a0;
        Label we = hb0;
        if (pb) we ^= te ^ a0;
        w0[g.out] = wg ^ we;
        gc.table.rows.push_back(tg);
        gc.table.rows.push_back(te);
        ++gate_index;
        break;
      }
    }
  }

  gc.input_labels0.assign(w0.begin(), w0.begin() + c.num_inputs);
  gc.output_labels0.reserve(c.outputs.size());
  for (const auto out : c.outputs) gc.output_labels0.push_back(w0[out]);
  return gc;
}

std::vector<Label> eval_reference(const Circuit& c, const GarbledTable& table,
                                  const std::vector<Label>& active_inputs) {
  if (static_cast<std::int32_t>(active_inputs.size()) != c.num_inputs) {
    throw std::invalid_argument("eval_reference: wrong input count");
  }
  const FixedKeyAes& aes = garbling_hash();
  std::vector<Label> w(static_cast<std::size_t>(c.num_wires));
  for (std::size_t i = 0; i < active_inputs.size(); ++i) w[i] = active_inputs[i];

  std::uint64_t gate_index = 0;
  std::size_t row = 0;
  for (const auto& g : c.gates) {
    switch (g.type) {
      case GateType::kXor:
        w[g.out] = w[g.a] ^ w[g.b];
        break;
      case GateType::kNot:
        w[g.out] = w[g.a];
        break;
      case GateType::kAnd: {
        const Label a = w[g.a];
        const Label b = w[g.b];
        const bool sa = a.lsb();
        const bool sb = b.lsb();
        const std::uint64_t j0 = 2 * gate_index + 1;
        const std::uint64_t j1 = 2 * gate_index + 2;
        const Label tg = table.rows[row];
        const Label te = table.rows[row + 1];
        Label wg = aes.hash(a, j0);
        if (sa) wg ^= tg;
        Label we = aes.hash(b, j1);
        if (sb) we ^= te ^ a;
        w[g.out] = wg ^ we;
        row += 2;
        ++gate_index;
        break;
      }
    }
  }

  std::vector<Label> out;
  out.reserve(c.outputs.size());
  for (const auto o : c.outputs) out.push_back(w[o]);
  return out;
}

std::vector<bool> garbled_eval(const Circuit& c,
                               const std::vector<bool>& inputs, Rng& rng) {
  Garbler garbler(rng);
  const GarbledCircuit gc = garbler.garble(c);
  std::vector<Label> active(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    active[i] = Garbler::active_input(gc, i, inputs[i]);
  }
  const auto out_labels = GcEvaluator::eval(c, gc.table, active);
  std::vector<bool> out(out_labels.size());
  for (std::size_t i = 0; i < out_labels.size(); ++i) {
    out[i] = Garbler::decode_output(gc, i, out_labels[i]);
  }
  return out;
}

}  // namespace primer
