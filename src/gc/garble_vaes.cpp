// VAES span kernels: 512-bit AES rounds over four blocks per instruction.
//
// The garbler needs exactly four hashes per AND gate (H(A0), H(A1) at
// tweak j0; H(B0), H(B1) at j1), so one zmm register holds one whole
// gate and each round is a single vaesenc.  The evaluator needs two, so
// one zmm holds two gates.  sigma and the MMO feed-forward act per
// 128-bit lane with the same algebra as the SSE tier, and sigma's
// XOR-linearity turns the A1/B1 lanes into lane XORs with sigma(R) —
// tables and labels stay bit-identical to the scalar reference.
//
// The AES rounds themselves run close to the vaesenc throughput floor, so
// the kernels are shaped to keep the surrounding work off the shuffle
// port, which otherwise becomes the bottleneck:
//   - hash inputs are assembled with (masked) broadcast-loads straight
//     from the wire array — load-port uops, not insert/shuffle chains;
//   - the pa/pb/sa/sb conditionals AND with a 2-entry all-zero/all-one
//     mask table instead of sign-broadcasting a GPR per gate;
//   - six blocks stay in flight per round loop (vaesenc has ~5-cycle
//     latency), with no per-gate spill arrays.
//
// This TU is compiled with -mvaes -mavx512f -mavx512dq when the toolchain
// has them (see CMakeLists.txt); otherwise the accessors return nullptr
// and dispatch stays on the sse tier.  Runtime cpuid gating lives in
// garble.cpp.
#include "gc/garble_kernels.h"

#if defined(__VAES__) && defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace primer {

namespace {

// Label access by byte offset (see CircuitLevel::and_quads): one load with
// a base register instead of a zero-extend + shift + add per wire touch.
inline const Label* label_at(const Label* base, std::uint32_t off) {
  return reinterpret_cast<const Label*>(
      reinterpret_cast<const char*>(base) + off);
}
inline Label* label_at(Label* base, std::uint32_t off) {
  return reinterpret_cast<Label*>(reinterpret_cast<char*>(base) + off);
}

inline __m128i load_label(const Label* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// All-zero / all-one AND mask from a label's point-and-permute bit
// (bit 0), derived in-register — no scalar detour, no table load.
inline __m128i permute_mask(__m128i label) {
  const __m128i b = _mm_shuffle_epi32(label, 0x00);
  return _mm_srai_epi32(_mm_slli_epi32(b, 31), 31);
}

// permute_mask for four labels at once, one per 128-bit lane.
inline __m512i permute_mask_x4(__m512i labels) {
  const __m512i b =
      _mm512_shuffle_epi32(labels, static_cast<_MM_PERM_ENUM>(0x00));
  return _mm512_srai_epi32(_mm512_slli_epi32(b, 31), 31);
}

// [l0, l1, l2, l3] from four scattered labels: two independent
// masked-broadcast-load chains of depth two, merged with one OR — load-port
// uops, shallow dependency tree.
inline __m512i gather4(const Label* w, std::uint32_t o0, std::uint32_t o1,
                       std::uint32_t o2, std::uint32_t o3) {
  __m512i lo = _mm512_maskz_broadcast_i32x4(0x000F, load_label(label_at(w, o0)));
  lo = _mm512_mask_broadcast_i32x4(lo, 0x00F0, load_label(label_at(w, o1)));
  __m512i hi = _mm512_maskz_broadcast_i32x4(0x0F00, load_label(label_at(w, o2)));
  hi = _mm512_mask_broadcast_i32x4(hi, 0xF000, load_label(label_at(w, o3)));
  return _mm512_or_si512(lo, hi);
}

// Per-128-bit-lane sigma, four blocks at a time; same lane algebra as
// gf_double_m128 (aes.h), so bit-identical per block.
inline __m512i gf_double_x4(__m512i v) {
  const __m512i lane_fix =
      _mm512_broadcast_i32x4(_mm_set_epi32(0x87, 1, 1, 1));
  __m512i carries = _mm512_and_si512(_mm512_srai_epi32(v, 31), lane_fix);
  carries = _mm512_shuffle_epi32(
      carries, static_cast<_MM_PERM_ENUM>(_MM_SHUFFLE(2, 1, 0, 3)));
  return _mm512_xor_si512(_mm512_slli_epi32(v, 1), carries);
}

// G gates in flight, one zmm per gate with lanes
//   [sigma(A0)^j0, sigma(A0)^j0^sigma(R), sigma(B0)^j1, sigma(B0)^j1^sigma(R)]
// — the four half-gates hash inputs, one vaesenc per round for all four.
// d512 carries [0, sigma(R), 0, sigma(R)].
// always_inline: with several batch-width call sites per span driver, the
// inliner otherwise outlines the kernels, and a per-batch call (all vector
// registers caller-saved, constants re-materialized) halves throughput.
template <int G>
[[gnu::always_inline]] inline void garble_gates(const __m512i* rk,
                                                const std::uint32_t* quads,
                                                __m512i step, __m128i vdelta,
                                                __m512i d512, Label* w0,
                                                Label* rows) {
  __m512i s[G], v[G];
  for (int k = 0; k < G; ++k) {
    const std::uint32_t* q = quads + 4 * k;
    // [A0, A0, B0, B0] via broadcast-load + masked broadcast-load.
    __m512i x = _mm512_broadcast_i32x4(load_label(label_at(w0, q[0])));
    x = _mm512_mask_broadcast_i32x4(x, 0xFF00, load_label(label_at(w0, q[1])));
    // Tweaks [j0, j0, j0+1, j0+1] (j0 = 2*ordinal+1) in the low qword of
    // each lane, built from a broadcast-load of the ordinal dword straight
    // out of the quad record — load-port work, not a GPR->zmm broadcast:
    // dwords {0,4,8,12} get 2*record ordinal, the span's step supplies
    // 2*ordinal base + 1/1/2/2.
    const __m512i ordx2 =
        _mm512_maskz_slli_epi32(0x1111, _mm512_set1_epi32(static_cast<int>(q[3])), 1);
    const __m512i tw = _mm512_add_epi64(ordx2, step);
    s[k] = _mm512_xor_si512(_mm512_xor_si512(gf_double_x4(x), tw), d512);
  }
  for (int k = 0; k < G; ++k) v[k] = _mm512_xor_si512(s[k], rk[0]);
  for (int r = 1; r < 10; ++r) {
    for (int k = 0; k < G; ++k) v[k] = _mm512_aesenc_epi128(v[k], rk[r]);
  }
  for (int k = 0; k < G; ++k) {
    v[k] = _mm512_xor_si512(_mm512_aesenclast_epi128(v[k], rk[10]), s[k]);
  }
  // Combine, four gates at a time: an eight-shuffle 4x4 lane transpose
  // turns per-gate [h0..h3] into per-hash [g0..g3] vectors, and the whole
  // half-gates algebra runs 4-wide — replacing twelve lane extracts and
  // ~80 xmm uops per four gates with zmm ops.  Each gate's (tg, te) rows
  // pair is contiguous, so two qword interleaves give one 256-bit store
  // per gate.  Input labels reload from L1 (cheaper than keeping G copies
  // live across the round loop); same-level gates never write each
  // other's inputs, so the reload sees the prologue's values.
  const __m512i dfull = _mm512_broadcast_i32x4(vdelta);
  int k = 0;
  for (; k + 4 <= G; k += 4) {
    const __m512i t0 = _mm512_shuffle_i64x2(v[k + 0], v[k + 1], 0x44);
    const __m512i t1 = _mm512_shuffle_i64x2(v[k + 0], v[k + 1], 0xEE);
    const __m512i t2 = _mm512_shuffle_i64x2(v[k + 2], v[k + 3], 0x44);
    const __m512i t3 = _mm512_shuffle_i64x2(v[k + 2], v[k + 3], 0xEE);
    const __m512i h0 = _mm512_shuffle_i64x2(t0, t2, 0x88);
    const __m512i h1 = _mm512_shuffle_i64x2(t0, t2, 0xDD);
    const __m512i h2 = _mm512_shuffle_i64x2(t1, t3, 0x88);
    const __m512i h3 = _mm512_shuffle_i64x2(t1, t3, 0xDD);
    const std::uint32_t* q0 = quads + 4 * k;
    const std::uint32_t* q1 = q0 + 4;
    const std::uint32_t* q2 = q0 + 8;
    const std::uint32_t* q3 = q0 + 12;
    const __m512i va = gather4(w0, q0[0], q1[0], q2[0], q3[0]);
    const __m512i pa = permute_mask_x4(va);
    const __m512i pb =
        permute_mask_x4(gather4(w0, q0[1], q1[1], q2[1], q3[1]));
    __m512i tg = _mm512_xor_si512(h0, h1);
    tg = _mm512_xor_si512(tg, _mm512_and_si512(pb, dfull));
    const __m512i wg = _mm512_xor_si512(h0, _mm512_and_si512(pa, tg));
    const __m512i hb = _mm512_xor_si512(h2, h3);
    const __m512i te = _mm512_xor_si512(hb, va);
    const __m512i we = _mm512_xor_si512(h2, _mm512_and_si512(pb, hb));
    const __m512i out = _mm512_xor_si512(wg, we);
    // [tg0, te0, tg1, te1] / [tg2, te2, tg3, te3]
    const __m512i idx01 = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
    const __m512i idx23 = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
    const __m512i r01 = _mm512_permutex2var_epi64(tg, idx01, te);
    const __m512i r23 = _mm512_permutex2var_epi64(tg, idx23, te);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(rows + 2 * std::size_t{q0[3]}),
                        _mm512_castsi512_si256(r01));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(rows + 2 * std::size_t{q1[3]}),
                        _mm512_extracti64x4_epi64(r01, 1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(rows + 2 * std::size_t{q2[3]}),
                        _mm512_castsi512_si256(r23));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(rows + 2 * std::size_t{q3[3]}),
                        _mm512_extracti64x4_epi64(r23, 1));
    *label_at(w0, q0[2]) = Block::from_m128(_mm512_castsi512_si128(out));
    *label_at(w0, q1[2]) =
        Block::from_m128(_mm512_extracti64x2_epi64(out, 1));
    *label_at(w0, q2[2]) =
        Block::from_m128(_mm512_extracti64x2_epi64(out, 2));
    *label_at(w0, q3[2]) =
        Block::from_m128(_mm512_extracti64x2_epi64(out, 3));
  }
  for (; k < G; ++k) {
    const std::uint32_t* q = quads + 4 * k;
    const __m128i h0 = _mm512_castsi512_si128(v[k]);
    const __m128i h1 = _mm512_extracti64x2_epi64(v[k], 1);
    const __m128i h2 = _mm512_extracti64x2_epi64(v[k], 2);
    const __m128i h3 = _mm512_extracti64x2_epi64(v[k], 3);
    const __m128i va = load_label(label_at(w0, q[0]));
    const __m128i pa = permute_mask(va);
    const __m128i pb = permute_mask(load_label(label_at(w0, q[1])));
    __m128i tg = _mm_xor_si128(h0, h1);
    tg = _mm_xor_si128(tg, _mm_and_si128(pb, vdelta));
    const __m128i wg = _mm_xor_si128(h0, _mm_and_si128(pa, tg));
    const __m128i hb = _mm_xor_si128(h2, h3);
    const __m128i te = _mm_xor_si128(hb, va);
    const __m128i we = _mm_xor_si128(h2, _mm_and_si128(pb, hb));
    const std::size_t row = 2 * std::size_t{q[3]};
    rows[row] = Block::from_m128(tg);
    rows[row + 1] = Block::from_m128(te);
    *label_at(w0, q[2]) = Block::from_m128(_mm_xor_si128(wg, we));
  }
}

// P gate pairs in flight, one zmm per pair with lanes
//   [sigma(a)^j0, sigma(b)^j1] for each gate of the pair.
template <int P>
[[gnu::always_inline]] inline void eval_pairs(const __m512i* rk,
                                              const std::uint32_t* quads,
                                              __m512i step, const Label* rows,
                                              Label* w) {
  __m512i s[P], v[P];
  for (int p = 0; p < P; ++p) {
    const std::uint32_t* q0 = quads + 8 * p;
    const std::uint32_t* q1 = q0 + 4;
    // [a0, b0, a1, b1]: two independent ymm builds merged once — shallower
    // dependency chain than four merge-masked broadcasts (measured faster
    // than the gather4 masked-broadcast form here).
    const __m256i half0 = _mm256_set_m128i(load_label(label_at(w, q0[1])),
                                           load_label(label_at(w, q0[0])));
    const __m256i half1 = _mm256_set_m128i(load_label(label_at(w, q1[1])),
                                           load_label(label_at(w, q1[0])));
    const __m512i x =
        _mm512_inserti64x4(_mm512_castsi256_si512(half0), half1, 1);
    // Tweaks [j0, j0+1, j1, j1+1] per lane low qword (j = 2*ordinal+1),
    // from broadcast-loads of the two ordinal dwords blended per half —
    // load-port + blend, no GPR->zmm broadcasts; the span's step adds the
    // ordinal base.
    const __m512i ord01 = _mm512_mask_blend_epi32(
        0xFF00, _mm512_set1_epi32(static_cast<int>(q0[3])),
        _mm512_set1_epi32(static_cast<int>(q1[3])));
    const __m512i ordx2 = _mm512_maskz_slli_epi32(0x1111, ord01, 1);
    const __m512i twv = _mm512_add_epi64(ordx2, step);
    s[p] = _mm512_xor_si512(gf_double_x4(x), twv);
  }
  for (int p = 0; p < P; ++p) v[p] = _mm512_xor_si512(s[p], rk[0]);
  for (int r = 1; r < 10; ++r) {
    for (int p = 0; p < P; ++p) v[p] = _mm512_aesenc_epi128(v[p], rk[r]);
  }
  for (int p = 0; p < P; ++p) {
    v[p] = _mm512_xor_si512(_mm512_aesenclast_epi128(v[p], rk[10]), s[p]);
  }
  // Combine, two pairs (four gates) at a time: two lane shuffles split the
  // hash vectors into per-hash [g0..g3] form, the row pairs [tg, te] load
  // as contiguous 256-bit records and separate with two qword permutes,
  // and the evaluator algebra runs 4-wide.
  int p = 0;
  for (; p + 2 <= P; p += 2) {
    const __m512i ha = _mm512_shuffle_i64x2(v[p], v[p + 1], 0x88);
    const __m512i hb = _mm512_shuffle_i64x2(v[p], v[p + 1], 0xDD);
    const std::uint32_t* q0 = quads + 8 * p;
    const std::uint32_t* q1 = q0 + 4;
    const std::uint32_t* q2 = q0 + 8;
    const std::uint32_t* q3 = q0 + 12;
    const __m512i va = gather4(w, q0[0], q1[0], q2[0], q3[0]);
    const __m512i sa = permute_mask_x4(va);
    const __m512i sb = permute_mask_x4(gather4(w, q0[1], q1[1], q2[1], q3[1]));
    __m512i rA = _mm512_maskz_broadcast_i64x4(
        0x0F, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                  rows + 2 * std::size_t{q0[3]})));
    rA = _mm512_mask_broadcast_i64x4(
        rA, 0xF0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                      rows + 2 * std::size_t{q1[3]})));
    __m512i rB = _mm512_maskz_broadcast_i64x4(
        0x0F, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                  rows + 2 * std::size_t{q2[3]})));
    rB = _mm512_mask_broadcast_i64x4(
        rB, 0xF0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                      rows + 2 * std::size_t{q3[3]})));
    const __m512i idx_tg = _mm512_set_epi64(13, 12, 9, 8, 5, 4, 1, 0);
    const __m512i idx_te = _mm512_set_epi64(15, 14, 11, 10, 7, 6, 3, 2);
    const __m512i tg4 = _mm512_permutex2var_epi64(rA, idx_tg, rB);
    const __m512i te4 = _mm512_permutex2var_epi64(rA, idx_te, rB);
    const __m512i wg = _mm512_xor_si512(ha, _mm512_and_si512(sa, tg4));
    const __m512i we = _mm512_xor_si512(
        hb, _mm512_and_si512(sb, _mm512_xor_si512(te4, va)));
    const __m512i out = _mm512_xor_si512(wg, we);
    *label_at(w, q0[2]) = Block::from_m128(_mm512_castsi512_si128(out));
    *label_at(w, q1[2]) = Block::from_m128(_mm512_extracti64x2_epi64(out, 1));
    *label_at(w, q2[2]) = Block::from_m128(_mm512_extracti64x2_epi64(out, 2));
    *label_at(w, q3[2]) = Block::from_m128(_mm512_extracti64x2_epi64(out, 3));
  }
  for (; p < P; ++p) {
    const __m128i h[4] = {_mm512_castsi512_si128(v[p]),
                          _mm512_extracti64x2_epi64(v[p], 1),
                          _mm512_extracti64x2_epi64(v[p], 2),
                          _mm512_extracti64x2_epi64(v[p], 3)};
    for (int i = 0; i < 2; ++i) {
      const std::uint32_t* q = quads + 8 * p + 4 * i;
      const std::size_t row = 2 * std::size_t{q[3]};
      const __m128i va = load_label(label_at(w, q[0]));
      const __m128i sa = permute_mask(va);
      const __m128i sb = permute_mask(load_label(label_at(w, q[1])));
      const __m128i wg = _mm_xor_si128(
          h[2 * i], _mm_and_si128(sa, rows[row].to_m128()));
      const __m128i we = _mm_xor_si128(
          h[2 * i + 1],
          _mm_and_si128(sb, _mm_xor_si128(rows[row + 1].to_m128(), va)));
      *label_at(w, q[2]) = Block::from_m128(_mm_xor_si128(wg, we));
    }
  }
}

// Trailing odd gate: both hashes in the low half, high half a duplicate
// whose outputs are discarded.
inline void eval_gate_tail(const __m512i* rk, const std::uint32_t* q,
                           std::uint64_t tw_off, const Label* rows, Label* w) {
  const Label a = *label_at(w, q[0]);
  const Label b = *label_at(w, q[1]);
  const long long j0 =
      static_cast<long long>(2 * std::uint64_t{q[3]} + 1 + tw_off);
  const __m128i va = a.to_m128();
  __m512i x = _mm512_castsi256_si512(_mm256_set_m128i(b.to_m128(), va));
  x = _mm512_shuffle_i64x2(x, x, 0x44);  // [a, b, a, b]
  const __m512i twv = _mm512_set_epi64(0, j0 + 1, 0, j0, 0, j0 + 1, 0, j0);
  const __m512i s = _mm512_xor_si512(gf_double_x4(x), twv);
  __m512i v = _mm512_xor_si512(s, rk[0]);
  for (int r = 1; r < 10; ++r) v = _mm512_aesenc_epi128(v, rk[r]);
  v = _mm512_xor_si512(_mm512_aesenclast_epi128(v, rk[10]), s);
  const __m128i sa = permute_mask(va);
  const __m128i sb = permute_mask(b.to_m128());
  const std::size_t row = 2 * std::size_t{q[3]};
  const __m128i wg = _mm_xor_si128(
      _mm512_castsi512_si128(v), _mm_and_si128(sa, rows[row].to_m128()));
  const __m128i we = _mm_xor_si128(
      _mm512_extracti64x2_epi64(v, 1),
      _mm_and_si128(sb, _mm_xor_si128(rows[row + 1].to_m128(), va)));
  *label_at(w, q[2]) = Block::from_m128(_mm_xor_si128(wg, we));
}

// Broadcasted round keys, cached per thread: the span kernels run once per
// dependency level (thousands of calls per garble on deep circuits), and
// the schedule comes from the process-lifetime garbling_hash() singleton,
// so re-broadcasting 11 zmm keys per call is pure waste.  The cache keys on
// the schedule's address and rebuilds on mismatch.
const __m512i* broadcast_round_keys(const FixedKeyAes& aes) {
  // Trivially-constructible on purpose: an NSDMI would make the
  // thread_local dynamically initialized and put a guard check on every
  // span call.  Zero-init gives src == nullptr for free.
  thread_local struct {
    const FixedKeyAes* src;
    __m512i rk[11];
  } cache;
  if (cache.src != &aes) {
    const __m128i* rk128 = aes.round_keys();
    for (int i = 0; i < 11; ++i) cache.rk[i] = _mm512_broadcast_i32x4(rk128[i]);
    cache.src = &aes;
  }
  return cache.rk;
}

void garble_and_span_vaes(const FixedKeyAes& aes, const std::uint32_t* quads,
                          std::size_t n, std::uint32_t ob, Label delta,
                          Label* w0, Label* rows) {
  const __m512i* rk = broadcast_round_keys(aes);
  // The copy's ordinal base folds into the table base and the tweak step
  // once per span: per gate, 2*record ordinal + step = 2*global ordinal +
  // 1/1/2/2, and rows + 2*record ordinal is the gate's global row pair.
  rows += 2 * std::size_t{ob};
  const long long tw_off = 2 * static_cast<long long>(ob);
  const __m512i step = _mm512_set_epi64(0, tw_off + 2, 0, tw_off + 2, 0,
                                        tw_off + 1, 0, tw_off + 1);
  const __m128i vdelta = delta.to_m128();
  const __m128i sdelta = gf_double_m128(vdelta);
  const __m512i d512 = _mm512_inserti64x2(
      _mm512_inserti64x2(_mm512_setzero_si512(), sdelta, 1), sdelta, 3);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    garble_gates<8>(rk, quads + 4 * i, step, vdelta, d512, w0, rows);
  }
  if (i + 4 <= n) {
    garble_gates<4>(rk, quads + 4 * i, step, vdelta, d512, w0, rows);
    i += 4;
  }
  if (i == n) return;
  // Tail: gates are idempotent (outputs are a pure function of inputs,
  // delta, and ordinal) and a span runs on one thread, so when the span is
  // long enough we re-run one batch flush against the end instead of
  // draining the remainder through narrow low-ILP batches.  The batch is
  // the smallest tier that covers the remainder — narrow levels are the
  // common case in deep circuits, and a fixed-size flush would redo most
  // of a batch to pick up one gate.
  const std::size_t r = n - i;
  if (r == 1) {
    garble_gates<1>(rk, quads + 4 * (n - 1), step, vdelta, d512, w0, rows);
  } else if (r == 2 || n < 4) {
    if (n >= 2) {
      garble_gates<2>(rk, quads + 4 * (n - 2), step, vdelta, d512, w0, rows);
      if (n == 3) garble_gates<1>(rk, quads, step, vdelta, d512, w0, rows);
    } else {
      garble_gates<1>(rk, quads, step, vdelta, d512, w0, rows);
    }
  } else {  // r == 3, n >= 4: one 4-chain batch beats serialized <2>+<1>
    garble_gates<4>(rk, quads + 4 * (n - 4), step, vdelta, d512, w0, rows);
  }
}

void eval_and_span_vaes(const FixedKeyAes& aes, const std::uint32_t* quads,
                        std::size_t n, std::uint32_t ob, const Label* rows,
                        Label* w) {
  const __m512i* rk = broadcast_round_keys(aes);
  // Ordinal base folded in once per span, as in the garbler.
  rows += 2 * std::size_t{ob};
  const std::uint64_t tw_off = 2 * std::uint64_t{ob};
  const long long t = static_cast<long long>(tw_off);
  const __m512i step = _mm512_set_epi64(0, t + 2, 0, t + 1, 0, t + 2, 0, t + 1);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    eval_pairs<8>(rk, quads + 4 * i, step, rows, w);
  }
  if (i + 12 <= n) {
    eval_pairs<6>(rk, quads + 4 * i, step, rows, w);
    i += 12;
  }
  if (i + 6 <= n) {
    eval_pairs<3>(rk, quads + 4 * i, step, rows, w);
    i += 6;
  }
  if (i == n) return;
  // Tail: same overlapped-flush trick as the garbler — re-run the
  // smallest batch tier that covers the remainder against the end of the
  // span, instead of draining leftovers through exact narrow batches that
  // each cost their own ~50-cycle AES chain.  Narrow levels dominate deep
  // circuits, so overlap is kept proportional to the remainder.
  const std::size_t r = n - i;
  if (r <= 2 && n >= 2) {
    eval_pairs<1>(rk, quads + 4 * (n - 2), step, rows, w);
  } else if (r <= 4 && n >= 4) {
    eval_pairs<2>(rk, quads + 4 * (n - 4), step, rows, w);
  } else if (n >= 6) {
    eval_pairs<3>(rk, quads + 4 * (n - 6), step, rows, w);
  } else {
    // n < 6 and no covering batch: exact drain (n in {1, 3, 5}).
    if (i + 4 <= n) {
      eval_pairs<2>(rk, quads + 4 * i, step, rows, w);
      i += 4;
    }
    if (i + 2 <= n) {
      eval_pairs<1>(rk, quads + 4 * i, step, rows, w);
      i += 2;
    }
    if (i < n) eval_gate_tail(rk, quads + 4 * i, tw_off, rows, w);
  }
}

}  // namespace

GarbleSpanFn vaes_garble_span() { return &garble_and_span_vaes; }
EvalSpanFn vaes_eval_span() { return &eval_and_span_vaes; }

}  // namespace primer

#else  // no VAES toolchain support

namespace primer {

GarbleSpanFn vaes_garble_span() { return nullptr; }
EvalSpanFn vaes_eval_span() { return nullptr; }

}  // namespace primer

#endif
