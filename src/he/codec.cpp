#include "he/codec.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/parallel.h"
#include "gc/aes.h"
#include "he/he.h"

namespace primer {

namespace {

constexpr std::size_t kHeaderBytes = 2 + sizeof(double);  // form, parts, noise
constexpr std::size_t kSeedBytes = sizeof(PolySeed);
constexpr std::size_t kMaxParts = 4;

unsigned limb_bits(u64 q) { return static_cast<unsigned>(std::bit_width(q)); }

std::size_t limb_bytes(std::size_t n, u64 q) {
  // Whole 64-bit words per limb: n * w is a multiple of 64 for every
  // degree the library supports (a power of two >= 64).
  if ((n * limb_bits(q)) % 64 != 0) {
    throw std::invalid_argument("packed limb of degree " + std::to_string(n) +
                                " does not fill whole words");
  }
  return n * limb_bits(q) / 8;
}

// Returns false if any residue is >= q (a wider value would spill into
// its neighbours' bits).
bool pack_limb(const u64* src, std::size_t n, unsigned w, u64 q,
               std::uint8_t* dst) {
  u128 acc = 0;
  unsigned have = 0;  // bits buffered in acc, always < 64 between values
  u64 out_of_range = 0;
  for (std::size_t x = 0; x < n; ++x) {
    out_of_range |= static_cast<u64>(src[x] >= q);
    acc |= static_cast<u128>(src[x]) << have;
    have += w;
    if (have >= 64) {
      const u64 word = static_cast<u64>(acc);
      std::memcpy(dst, &word, sizeof word);
      dst += sizeof word;
      acc >>= 64;
      have -= 64;
    }
  }
  return out_of_range == 0;
}

// Returns false if any residue is >= q (the limb is still fully read).
// Value x sits at bit x*w; all but the last 64 values read it branch-free
// from the 128-bit window of words k and k+1 (k+1 is then inside the
// limb), the tail from single words.
bool unpack_limb(const std::uint8_t* src, std::size_t n, unsigned w, u64 q,
                 u64* dst) {
  const u64 mask = (u64{1} << w) - 1;
  const auto word = [&](std::size_t k) {
    u64 v;
    std::memcpy(&v, src + k * sizeof v, sizeof v);
    return v;
  };
  u64 out_of_range = 0;
  const std::size_t fast = n > 64 ? n - 64 : 0;
  for (std::size_t x = 0; x < fast; ++x) {
    const std::size_t bit = x * w;
    const std::size_t k = bit / 64;
    const u128 pair = word(k) | static_cast<u128>(word(k + 1)) << 64;
    const u64 v = static_cast<u64>(pair >> (bit % 64)) & mask;
    dst[x] = v;
    out_of_range |= static_cast<u64>(v >= q);
  }
  for (std::size_t x = fast; x < n; ++x) {
    const std::size_t bit = x * w;
    const std::size_t k = bit / 64;
    const unsigned off = bit % 64;
    u64 v = word(k) >> off;
    if (off + w > 64) v |= word(k + 1) << (64 - off);
    v &= mask;
    dst[x] = v;
    out_of_range |= static_cast<u64>(v >= q);
  }
  return out_of_range == 0;
}

// AES-128-CTR keystream of limb `limb`, keyed by the seed: counter block j
// is the 128-bit value (limb << 64) | j.  Each 64-bit half of a keystream
// block, masked to bit_width(q) bits, is one candidate; candidates >= q are
// rejected, so accepted values are uniform in [0, q).
void expand_limb(const FixedKeyAes& aes, std::size_t limb, u64 q, u64* dst,
                 std::size_t n) {
  constexpr std::size_t kBlocks = 64;
  const u64 mask = (u64{1} << limb_bits(q)) - 1;
  Block ctr[kBlocks];
  Block ks[kBlocks];
  std::uint64_t next = 0;
  std::size_t filled = 0;
  while (filled < n) {
    for (auto& c : ctr) c = Block{next++, static_cast<std::uint64_t>(limb)};
    aes.encrypt_n(ctr, ks, kBlocks);
    for (std::size_t b = 0; b < kBlocks && filled < n; ++b) {
      const u64 lo = ks[b].lo & mask;
      if (lo < q) dst[filled++] = lo;
      const u64 hi = ks[b].hi & mask;
      if (hi < q && filled < n) dst[filled++] = hi;
    }
  }
}

void check_shape(const HeContext& ctx, const RnsPoly& p) {
  if (p.rns_size() != ctx.rns_size() || p.degree() != ctx.degree() ||
      !p.ntt_form) {
    throw std::invalid_argument(
        "codec: only NTT-form polynomials of the context's shape are sent");
  }
}

void write_header(std::uint8_t* dst, CtForm form, std::size_t parts,
                  double noise_log2) {
  dst[0] = static_cast<std::uint8_t>(form);
  dst[1] = static_cast<std::uint8_t>(parts);
  std::memcpy(dst + 2, &noise_log2, sizeof noise_log2);
}

}  // namespace

std::size_t packed_poly_bytes(const HeParams& params) {
  std::size_t total = 0;
  for (const u64 q : params.q) total += limb_bytes(params.poly_degree, q);
  return total;
}

void pack_poly(const HeContext& ctx, const RnsPoly& p, std::uint8_t* dst) {
  check_shape(ctx, p);
  const std::size_t n = ctx.degree();
  for (std::size_t i = 0; i < ctx.rns_size(); ++i) {
    if (!pack_limb(p.limb(i), n, limb_bits(ctx.q(i)), ctx.q(i), dst)) {
      throw std::invalid_argument("codec: unreduced residue in limb " +
                                  std::to_string(i));
    }
    dst += limb_bytes(n, ctx.q(i));
  }
}

RnsPoly unpack_poly(const HeContext& ctx, const std::uint8_t* src) {
  const std::size_t n = ctx.degree();
  RnsPoly p(ctx.rns_size(), n, /*ntt=*/true);
  for (std::size_t i = 0; i < ctx.rns_size(); ++i) {
    if (!unpack_limb(src, n, limb_bits(ctx.q(i)), ctx.q(i), p.limb(i))) {
      throw std::out_of_range("codec: residue not below q_" +
                              std::to_string(i));
    }
    src += limb_bytes(n, ctx.q(i));
  }
  return p;
}

PolySeed draw_seed(Rng& rng) {
  PolySeed seed;
  const std::uint64_t words[2] = {rng.next(), rng.next()};
  std::memcpy(seed.data(), words, sizeof words);
  return seed;
}

RnsPoly expand_uniform(const HeContext& ctx, const PolySeed& seed) {
  Block key;
  std::memcpy(&key.lo, seed.data(), 8);
  std::memcpy(&key.hi, seed.data() + 8, 8);
  const FixedKeyAes aes(key);
  const std::size_t n = ctx.degree();
  RnsPoly out(ctx.rns_size(), n, /*ntt=*/true);
  parallel_for(0, ctx.rns_size(), n * 8, [&](std::size_t i) {
    expand_limb(aes, i, ctx.q(i), out.limb(i), n);
  });
  return out;
}

// --- ciphertexts -----------------------------------------------------------

std::size_t ciphertext_wire_bytes(const HeParams& params, CtForm form,
                                  std::size_t parts) {
  const std::size_t poly = packed_poly_bytes(params);
  return form == CtForm::kSeeded ? kHeaderBytes + poly + kSeedBytes
                                 : kHeaderBytes + parts * poly;
}

void write_ciphertext(const HeContext& ctx, const Ciphertext& ct,
                      std::uint8_t* dst) {
  if (ct.empty() || ct.size() > kMaxParts) {
    throw std::invalid_argument("write_ciphertext: part count " +
                                std::to_string(ct.size()));
  }
  write_header(dst, CtForm::kEvaluated, ct.size(), ct.noise_log2);
  dst += kHeaderBytes;
  const std::size_t poly = packed_poly_bytes(ctx.params());
  for (const auto& part : ct.parts) {
    pack_poly(ctx, part, dst);
    dst += poly;
  }
}

void write_ciphertext(const HeContext& ctx, const SeededCiphertext& ct,
                      std::uint8_t* dst) {
  write_header(dst, CtForm::kSeeded, 2, ct.ct().noise_log2);
  dst += kHeaderBytes;
  pack_poly(ctx, ct.ct().parts[0], dst);
  dst += packed_poly_bytes(ctx.params());
  std::memcpy(dst, ct.c1_seed().data(), kSeedBytes);
}

void write_ciphertext(const HeContext& ctx, const Ciphertext& ct,
                      ByteWriter& w) {
  write_ciphertext(
      ctx, ct,
      w.extend(ciphertext_wire_bytes(ctx.params(), CtForm::kEvaluated,
                                     ct.size())));
}

void write_ciphertext(const HeContext& ctx, const SeededCiphertext& ct,
                      ByteWriter& w) {
  write_ciphertext(
      ctx, ct, w.extend(ciphertext_wire_bytes(ctx.params(), CtForm::kSeeded)));
}

std::size_t peek_ciphertext_bytes(const HeContext& ctx, const ByteReader& r) {
  const std::uint8_t* h = r.peek(2);
  const auto form = static_cast<CtForm>(h[0]);
  const std::size_t parts = h[1];
  if (form == CtForm::kSeeded && parts == 2) {
    return ciphertext_wire_bytes(ctx.params(), form);
  }
  // Legitimate ciphertexts have 2 parts (3 transiently, pre-relin); the
  // degree-bounded maximum any evaluator op can emit is 4.
  if (form == CtForm::kEvaluated && parts >= 1 && parts <= kMaxParts) {
    return ciphertext_wire_bytes(ctx.params(), form, parts);
  }
  throw std::out_of_range("read_ciphertext: form " + std::to_string(h[0]) +
                          " with " + std::to_string(parts) + " parts");
}

Ciphertext read_ciphertext(const HeContext& ctx, ByteReader& r) {
  const std::size_t size = peek_ciphertext_bytes(ctx, r);
  const std::uint8_t* src = r.view(size);
  const auto form = static_cast<CtForm>(src[0]);
  const std::size_t parts = src[1];
  Ciphertext ct;
  std::memcpy(&ct.noise_log2, src + 2, sizeof ct.noise_log2);
  // The noise estimate feeds the decrypt guard; a NaN/Inf or wildly
  // out-of-range value from the wire would disarm it.
  if (!std::isfinite(ct.noise_log2) || ct.noise_log2 < 0.0 ||
      ct.noise_log2 > 2.0 * ctx.params().log2_q()) {
    throw std::out_of_range("read_ciphertext: noise estimate " +
                            std::to_string(ct.noise_log2) +
                            " bits is not a sane value");
  }
  src += kHeaderBytes;
  const std::size_t poly = packed_poly_bytes(ctx.params());
  const std::size_t packed = form == CtForm::kSeeded ? 1 : parts;
  for (std::size_t p = 0; p < packed; ++p) {
    ct.parts.push_back(unpack_poly(ctx, src));
    src += poly;
  }
  if (form == CtForm::kSeeded) {
    PolySeed seed;
    std::memcpy(seed.data(), src, kSeedBytes);
    ct.parts.push_back(expand_uniform(ctx, seed));
  }
  return ct;
}

// --- key-switching keys ----------------------------------------------------

std::size_t kswitch_key_wire_bytes(const HeParams& params,
                                   std::size_t digits) {
  return 2 * sizeof(std::uint32_t) +
         digits * (packed_poly_bytes(params) + kSeedBytes);
}

void write_kswitch_key(const HeContext& ctx, const SeededKSwitchKey& key,
                       ByteWriter& w) {
  if (key.a_seeds.size() != key.digits()) {
    throw std::invalid_argument("write_kswitch_key: one seed per digit");
  }
  w.u32(key.decomp_bits);
  w.u32(static_cast<std::uint32_t>(key.digits()));
  const std::size_t poly = packed_poly_bytes(ctx.params());
  for (std::size_t i = 0; i < key.digits(); ++i) {
    pack_poly(ctx, key.b[i], w.extend(poly));
    w.bytes(key.a_seeds[i].data(), kSeedBytes);
  }
}

SeededKSwitchKey read_kswitch_key(const HeContext& ctx, ByteReader& r) {
  SeededKSwitchKey key;
  key.decomp_bits = r.u32();
  if (key.decomp_bits > 63) {
    throw std::out_of_range("decomp_bits " + std::to_string(key.decomp_bits) +
                            " out of range");
  }
  const std::uint32_t digits = r.u32();
  const std::size_t expected = ctx.decomp_layout(key.decomp_bits).size();
  if (digits != expected) {
    throw std::out_of_range("key has " + std::to_string(digits) +
                            " gadget digits, layout expects " +
                            std::to_string(expected));
  }
  const std::size_t body =
      kswitch_key_wire_bytes(ctx.params(), digits) - 2 * sizeof(std::uint32_t);
  if (r.remaining() != body) {
    throw std::out_of_range("key body is " + std::to_string(r.remaining()) +
                            " bytes, " + std::to_string(digits) +
                            " digits take " + std::to_string(body));
  }
  const std::size_t poly = packed_poly_bytes(ctx.params());
  key.b.reserve(digits);
  key.a_seeds.resize(digits);
  for (std::uint32_t i = 0; i < digits; ++i) {
    key.b.push_back(unpack_poly(ctx, r.view(poly)));
    std::memcpy(key.a_seeds[i].data(), r.view(kSeedBytes), kSeedBytes);
  }
  return key;
}

}  // namespace primer
