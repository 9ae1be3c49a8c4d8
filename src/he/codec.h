// Wire codec for HE polynomials, ciphertexts and key-switching keys — the
// one encoder every polynomial that crosses the channel goes through.
//
// Two polynomial forms (DESIGN.md §3 has the byte layout):
//   * packed — each limb's residues at bit_width(q_i) bits, little-endian
//     bit order, limb after limb.  A reader rejects any residue >= q_i.
//   * seeded — a uniform NTT-form polynomial travels as the 16-byte seed it
//     expands from (expand_uniform): AES-128-CTR keyed by the seed, one
//     counter space per limb, mask-and-reject sampling below q_i.  Seeded
//     polynomials come out in NTT form, so neither side transforms them.
//
// Fresh symmetric ciphertexts ship packed c0 plus the seed of c1; every
// other ciphertext ships all its parts packed.  Key-switching keys ship
// packed b plus the seed of a, per gadget digit.  Sizes are fixed by the
// parameter set (the *_wire_bytes functions), so senders can lay out a batch
// before encoding it and readers reject truncated or over-long records.
//
// Readers throw std::out_of_range on any malformed input; the protocol
// layer turns that into ProtocolErrorKind::kMalformed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/serialize.h"
#include "he/context.h"
#include "he/keys.h"
#include "he/rns_poly.h"

namespace primer {

class SeededCiphertext;

// Bytes one polynomial takes in packed form: sum over limbs of
// degree * bit_width(q_i) / 8.  Every other size below derives from it.
std::size_t packed_poly_bytes(const HeParams& params);

// --- polynomials -----------------------------------------------------------

// Writes p (every residue < q_i) in packed form to dst[0, packed_poly_bytes).
void pack_poly(const HeContext& ctx, const RnsPoly& p, std::uint8_t* dst);
// Reads a packed polynomial from src[0, packed_poly_bytes) into an NTT-form
// polynomial; throws std::out_of_range on a residue >= q_i.
RnsPoly unpack_poly(const HeContext& ctx, const std::uint8_t* src);

// The uniform NTT-form polynomial a seed expands to.  Deterministic in the
// seed and the modulus chain, independent of the thread count.
RnsPoly expand_uniform(const HeContext& ctx, const PolySeed& seed);
// A fresh seed: two words of the party's Rng.
PolySeed draw_seed(Rng& rng);

// --- ciphertexts -----------------------------------------------------------

enum class CtForm : std::uint8_t {
  kEvaluated = 0,  // every part packed
  kSeeded = 1,     // packed c0 + the 16-byte seed of c1
};

// Bytes of one encoded ciphertext record, header included (`parts` counts
// only for the evaluated form; a seeded record always has two parts).
std::size_t ciphertext_wire_bytes(const HeParams& params, CtForm form,
                                  std::size_t parts = 2);

// Encodes into dst[0, ciphertext_wire_bytes(...)): an evaluated ciphertext
// (all parts NTT form), or a fresh symmetric one in seeded form.
void write_ciphertext(const HeContext& ctx, const Ciphertext& ct,
                      std::uint8_t* dst);
void write_ciphertext(const HeContext& ctx, const SeededCiphertext& ct,
                      std::uint8_t* dst);
// Appending variants.
void write_ciphertext(const HeContext& ctx, const Ciphertext& ct,
                      ByteWriter& w);
void write_ciphertext(const HeContext& ctx, const SeededCiphertext& ct,
                      ByteWriter& w);

// Size of the record whose two header bytes are at r's position (does not
// advance); throws on an unknown form or part count.
std::size_t peek_ciphertext_bytes(const HeContext& ctx, const ByteReader& r);
// Decodes one record (seeded records are expanded).
Ciphertext read_ciphertext(const HeContext& ctx, ByteReader& r);

// --- key-switching keys ----------------------------------------------------

std::size_t kswitch_key_wire_bytes(const HeParams& params,
                                   std::size_t digits);
void write_kswitch_key(const HeContext& ctx, const SeededKSwitchKey& key,
                       ByteWriter& w);
// Reads one key; the whole of r must be the key (trailing bytes throw).
SeededKSwitchKey read_kswitch_key(const HeContext& ctx, ByteReader& r);

}  // namespace primer
