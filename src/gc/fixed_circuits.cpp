#include "gc/fixed_circuits.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace primer {

namespace {

// PWL table shared by circuit construction and the int64 reference.  Slopes
// carry kSlopeExtraBits more fractional precision than the value format so
// slope-quantization error does not dominate the approximation error.
constexpr int kSlopeExtraBits = 6;

struct PwlTable {
  std::int64_t lo_raw = 0;
  std::int64_t hi_raw = 0;
  std::size_t seg_shift = 0;  // log2 of raw segment width
  std::vector<std::int64_t> slope_raw;       // frac + kSlopeExtraBits bits
  std::vector<std::int64_t> intercept_raw;   // frac bits
};

PwlTable make_pwl_table(const PwlSpec& spec, const FixedPointFormat& fmt) {
  PwlTable tb;
  tb.lo_raw = fp_encode(spec.lo, fmt);
  tb.hi_raw = fp_encode(spec.hi, fmt);
  const std::int64_t range = tb.hi_raw - tb.lo_raw;
  if (range <= 0 || (range & (range - 1)) != 0) {
    throw std::invalid_argument(
        "PwlSpec: (hi-lo)*scale must be a positive power of two");
  }
  int range_log2 = 0;
  while ((std::int64_t{1} << range_log2) < range) ++range_log2;
  if (spec.segments_log2 > range_log2) {
    throw std::invalid_argument("PwlSpec: more segments than raw steps");
  }
  tb.seg_shift = static_cast<std::size_t>(range_log2 - spec.segments_log2);
  const std::size_t segs = std::size_t{1} << spec.segments_log2;
  const std::int64_t seg_raw = range >> spec.segments_log2;
  for (std::size_t s = 0; s < segs; ++s) {
    const std::int64_t a_raw = tb.lo_raw + static_cast<std::int64_t>(s) * seg_raw;
    const std::int64_t b_raw = a_raw + seg_raw;
    const double a = fp_decode(a_raw, fmt);
    const double bx = fp_decode(b_raw, fmt);
    const double fa = spec.fn(a);
    const double fb = spec.fn(bx);
    const double slope = (fb - fa) / (bx - a);
    const double intercept = fa - slope * a;
    const double slope_scale =
        static_cast<double>(std::int64_t{1} << (fmt.frac_bits + kSlopeExtraBits));
    tb.slope_raw.push_back(
        static_cast<std::int64_t>(std::nearbyint(slope * slope_scale)));
    tb.intercept_raw.push_back(fp_encode(intercept, fmt));
  }
  return tb;
}

std::int64_t clamp15_ref(std::int64_t v, const FixedPointFormat& fmt) {
  return fp_saturate(v, fmt);
}

// --- Range-carrying buses ---------------------------------------------------
//
// Val is a two's-complement bus together with the value range [lo, hi] it is
// proven to carry.  The bus is always exactly signed_width(lo, hi) bits, and
// a range of one sign gets a constant sign wire, so the builder folds every
// gate that reads it.  Arithmetic on Vals derives the result range first and
// computes only that many bits (modulo 2^width, which is exact because the
// true result fits).

struct Val {
  Bus bits;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::int32_t sign() const { return bits.back(); }
};

std::int64_t pow2(std::size_t k) { return std::int64_t{1} << k; }

std::size_t signed_width(std::int64_t lo, std::int64_t hi) {
  std::size_t w = 1;
  while (w < 63 && (lo < -pow2(w - 1) || hi > pow2(w - 1) - 1)) ++w;
  return w;
}

std::size_t bit_length(std::uint64_t v) {
  std::size_t n = 0;
  while (n < 64 && (v >> n) != 0) ++n;
  return n;
}

// `bits` holds a value in [lo, hi]: exactly modulo 2^bits.size() when it is
// wider than the range needs, and in two's complement (or, for lo >= 0,
// unsigned) when narrower.
Val fit(CircuitBuilder& b, const Bus& bits, std::int64_t lo, std::int64_t hi) {
  const std::size_t w = signed_width(lo, hi);
  Val v{lo >= 0 ? b.zero_extend(bits, w) : b.sign_extend(bits, w), lo, hi};
  if (lo >= 0) v.bits.back() = b.zero();
  if (hi < 0) v.bits.back() = b.one();
  return v;
}

// An unsigned bus (a share, a mask, a quotient) known to lie in [0, hi].
Val unsigned_val(CircuitBuilder& b, const Bus& bits, std::int64_t hi) {
  return fit(b, bits, 0, hi);
}

// A caller's bus of unknown range: every value of its width.
Val full_range(const SignedBus& v) {
  const std::size_t w = v.bits.size();
  return Val{v.bits, -pow2(w - 1), pow2(w - 1) - 1};
}

// Weighted bit sum evaluated modulo 2^width: rows of wires plus a constant,
// reduced column by column (LSB first) with carry-save full adders and half
// adders — one AND each — down to one bit per column.  The top column is
// XORed, never carried out of, so no AND is spent on a discarded carry.
class Columns {
 public:
  Columns(CircuitBuilder& b, std::size_t width)
      : b_(b), cols_(width), zero_(b.zero()), one_(b.one()) {
    if (width == 0 || width > 62) {
      throw std::logic_error("Columns: width out of range");
    }
  }

  void bit(std::int32_t w, std::size_t pos) {
    if (pos >= cols_.size() || w == zero_) return;
    if (w == one_) {
      constant(pow2(pos));
    } else {
      cols_[pos].push_back(w);
    }
  }
  // + v * 2^shift for a two's-complement v: its sign bit weighs -2^(w-1).
  void add(const Bus& v, std::size_t shift = 0) {
    const std::size_t top = v.size() - 1;
    for (std::size_t i = 0; i < top; ++i) bit(v[i], i + shift);
    top_bit(b_.not_gate(v[top]), top + shift);
  }
  // - v * 2^shift = (~v + 1) * 2^shift.
  void sub(const Bus& v, std::size_t shift = 0) {
    const std::size_t top = v.size() - 1;
    for (std::size_t i = 0; i < top; ++i) bit(b_.not_gate(v[i]), i + shift);
    top_bit(v[top], top + shift);
    constant(pow2(shift));
  }
  void constant(std::int64_t c) { k_ += static_cast<std::uint64_t>(c); }

  Bus sum() {
    const std::size_t w = cols_.size();
    Bus out(w, zero_);
    for (std::size_t j = 0; j < w; ++j) {
      const bool k = (k_ >> j) & 1;
      auto& col = cols_[j];
      const auto carry = [&](std::int32_t c) {
        if (j + 1 < w) bit(c, j + 1);
      };
      if (j + 1 == w) {  // top column: carries out of it are discarded
        std::int32_t s = k ? one_ : zero_;
        for (const auto x : col) s = b_.xor_gate(s, x);
        out[j] = s;
        break;
      }
      while (col.size() >= 3) {  // full adder: s = x^y^z, c = maj(x, y, z)
        const std::int32_t x = col.front(); col.pop_front();
        const std::int32_t y = col.front(); col.pop_front();
        const std::int32_t z = col.front(); col.pop_front();
        const std::int32_t xz = b_.xor_gate(x, z);
        const std::int32_t yz = b_.xor_gate(y, z);
        col.push_back(b_.xor_gate(xz, y));
        carry(b_.xor_gate(b_.and_gate(xz, yz), z));
      }
      if (col.size() == 2) {
        const std::int32_t x = col[0], y = col[1];
        if (k) {  // x + y + 1: sum = ~(x^y), carry = x|y
          out[j] = b_.not_gate(b_.xor_gate(x, y));
          carry(b_.or_gate(x, y));
        } else {
          out[j] = b_.xor_gate(x, y);
          carry(b_.and_gate(x, y));
        }
      } else if (col.size() == 1) {
        out[j] = k ? b_.not_gate(col[0]) : col[0];
        if (k) carry(col[0]);
      } else {
        out[j] = k ? one_ : zero_;
      }
    }
    return out;
  }

 private:
  // A sign bit s at `pos` weighs -s*2^pos = (1-s)*2^pos - 2^pos: given
  // ~s, place it and account the constant.
  void top_bit(std::int32_t not_sign, std::size_t pos) {
    bit(not_sign, pos);
    if (pos < 63) constant(-pow2(pos));
  }

  CircuitBuilder& b_;
  std::vector<std::deque<std::int32_t>> cols_;
  std::int32_t zero_;
  std::int32_t one_;
  std::uint64_t k_ = 0;  // constant term, modulo 2^64
};

Val add(CircuitBuilder& b, const Val& x, const Val& y) {
  const std::int64_t lo = x.lo + y.lo, hi = x.hi + y.hi;
  Columns c(b, signed_width(lo, hi));
  c.add(x.bits);
  c.add(y.bits);
  return fit(b, c.sum(), lo, hi);
}

Val sub(CircuitBuilder& b, const Val& x, const Val& y) {
  const std::int64_t lo = x.lo - y.hi, hi = x.hi - y.lo;
  Columns c(b, signed_width(lo, hi));
  c.add(x.bits);
  c.sub(y.bits);
  return fit(b, c.sum(), lo, hi);
}

Val add_const(CircuitBuilder& b, const Val& x, std::int64_t k) {
  const std::int64_t lo = x.lo + k, hi = x.hi + k;
  Columns c(b, signed_width(lo, hi));
  c.add(x.bits);
  c.constant(k);
  return fit(b, c.sum(), lo, hi);
}

// x < k (signed), decided by the sign of x - k.
std::int32_t lt_const(CircuitBuilder& b, const Val& x, std::int64_t k) {
  if (x.hi < k) return b.one();
  if (x.lo >= k) return b.zero();
  return add_const(b, x, -k).sign();
}

// x < y (signed), decided by the sign of x - y at its exact width.
std::int32_t lt(CircuitBuilder& b, const Val& x, const Val& y) {
  if (x.hi < y.lo) return b.one();
  if (x.lo >= y.hi) return b.zero();
  return sub(b, x, y).sign();
}

Val mux(CircuitBuilder& b, std::int32_t sel, const Val& t, const Val& f) {
  const std::int64_t lo = std::min(t.lo, f.lo), hi = std::max(t.hi, f.hi);
  const std::size_t w = signed_width(lo, hi);
  return fit(b, b.mux(sel, b.sign_extend(t.bits, w), b.sign_extend(f.bits, w)),
             lo, hi);
}

// Arithmetic shift right (floor division by 2^k): free.
Val shr(CircuitBuilder& b, const Val& x, std::size_t k) {
  return fit(b, b.asr(x.bits, std::min(k, x.bits.size() - 1)), x.lo >> k,
             x.hi >> k);
}

// OR of every wire: one AND per extra wire.
std::int32_t any_of(CircuitBuilder& b, const Bus& wires) {
  std::int32_t acc = b.zero();
  for (const auto w : wires) acc = b.or_gate(acc, w);
  return acc;
}

// Saturating clamp to the k-bit signed range: in range iff the bits from
// k-1 up all equal the sign, so one OR per dropped bit finds an overflow
// and one mux per kept bit replaces the value with the bound.
Val saturate(CircuitBuilder& b, const Val& x, std::size_t k) {
  const std::int64_t mn = -pow2(k - 1), mx = pow2(k - 1) - 1;
  const std::int64_t lo = std::clamp(x.lo, mn, mx);
  const std::int64_t hi = std::clamp(x.hi, mn, mx);
  if (x.lo >= mn && x.hi <= mx) return fit(b, x.bits, lo, hi);
  const std::int32_t s = x.sign();
  Bus diff;
  for (std::size_t i = k - 1; i + 1 < x.bits.size(); ++i) {
    diff.push_back(b.xor_gate(x.bits[i], s));
  }
  const std::int32_t over = any_of(b, diff);
  const std::int32_t bound = b.not_gate(s);
  Bus out(k);
  for (std::size_t i = 0; i + 1 < k; ++i) {
    out[i] = b.mux_bit(over, bound, x.bits[i]);
  }
  out[k - 1] = s;
  return fit(b, out, lo, hi);
}

// Saturating clamp to [0, 2^r - 1]: in range iff every bit from r up
// (the sign included) is zero.
Val saturate_unsigned(CircuitBuilder& b, const Val& x, std::size_t r) {
  const std::int64_t mx = pow2(r) - 1;
  const std::int64_t lo = std::clamp<std::int64_t>(x.lo, 0, mx);
  const std::int64_t hi = std::clamp<std::int64_t>(x.hi, 0, mx);
  if (x.lo >= 0 && x.hi <= mx) return fit(b, x.bits, lo, hi);
  const std::int32_t over =
      any_of(b, Bus(x.bits.begin() + static_cast<long>(r), x.bits.end()));
  const std::int32_t bound = b.not_gate(x.sign());
  Bus out(r);
  for (std::size_t i = 0; i < r; ++i) out[i] = b.mux_bit(over, bound, x.bits[i]);
  return fit(b, out, lo, hi);
}

Val relu(CircuitBuilder& b, const Val& x) {
  if (x.lo >= 0) return x;
  const std::int32_t pos = b.not_gate(x.sign());
  Bus out(x.bits.size() - 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = b.and_gate(pos, x.bits[i]);
  }
  return unsigned_val(b, out, std::max<std::int64_t>(x.hi, 0));
}

// s ? -x : x, as (x ^ s) + s, for a result in [lo, hi].
Val negate_if(CircuitBuilder& b, const Val& x, std::int32_t s, std::int64_t lo,
              std::int64_t hi) {
  Columns c(b, signed_width(lo, hi));
  Bus flipped(x.bits.size());
  for (std::size_t i = 0; i < flipped.size(); ++i) {
    flipped[i] = b.xor_gate(x.bits[i], s);
  }
  c.add(flipped);
  c.bit(s, 0);
  return fit(b, c.sum(), lo, hi);
}

Val abs_val(CircuitBuilder& b, const Val& x) {
  if (x.lo >= 0) return x;
  return negate_if(b, x, x.sign(), 0, std::max(-x.lo, x.hi));
}

// Product of two values: one AND-gated row of x per bit of y (the sign
// row of a signed y weighs negative).
Val mul(CircuitBuilder& b, const Val& x, const Val& y) {
  const std::int64_t corners[] = {x.lo * y.lo, x.lo * y.hi, x.hi * y.lo,
                                  x.hi * y.hi};
  const std::int64_t lo = *std::min_element(std::begin(corners), std::end(corners));
  const std::int64_t hi = *std::max_element(std::begin(corners), std::end(corners));
  Columns c(b, signed_width(lo, hi));
  for (std::size_t j = 0; j < y.bits.size(); ++j) {
    Bus row(x.bits.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] = b.and_gate(x.bits[i], y.bits[j]);
    }
    if (j + 1 < y.bits.size()) {
      c.add(row, j);
    } else {
      c.sub(row, j);
    }
  }
  return fit(b, c.sum(), lo, hi);
}

// x^2 of an unsigned-or-signed value through |x|: the diagonal terms are
// free and each cross term x_i x_j appears once, doubled.
Val square(CircuitBuilder& b, const Val& x) {
  const Val a = abs_val(b, x);
  const std::int64_t hi = a.hi * a.hi;
  Columns c(b, signed_width(0, hi));
  const std::size_t n = a.bits.size() - 1;  // sign is the zero wire
  for (std::size_t i = 0; i < n; ++i) {
    c.bit(a.bits[i], 2 * i);
    for (std::size_t j = i + 1; j < n; ++j) {
      c.bit(b.and_gate(a.bits[i], a.bits[j]), i + j + 1);
    }
  }
  return fit(b, c.sum(), 0, hi);
}

// x * k for a constant k, as signed-digit (non-adjacent form) shifted rows
// of x: one row per nonzero digit.
Val mul_const(CircuitBuilder& b, const Val& x, std::int64_t k) {
  const std::int64_t lo = std::min(x.lo * k, x.hi * k);
  const std::int64_t hi = std::max(x.lo * k, x.hi * k);
  Columns c(b, signed_width(lo, hi));
  std::int64_t rest = k;
  for (std::size_t shift = 0; rest != 0; ++shift, rest /= 2) {
    if ((rest & 1) == 0) continue;
    const std::int64_t digit = 2 - (((rest % 4) + 4) % 4);  // +1 or -1
    if (digit > 0) c.add(x.bits, shift); else c.sub(x.bits, shift);
    rest -= digit;
  }
  return fit(b, c.sum(), lo, hi);
}

// floor(x / d) for x >= 0 and a constant d > 0: restoring division, one
// quotient bit per step, with the remainder kept below d.
Val udiv_const(CircuitBuilder& b, const Val& x, std::uint64_t d) {
  const auto dd = static_cast<std::int64_t>(d);
  const std::int64_t lo = x.lo / dd, hi = x.hi / dd;
  if ((d & (d - 1)) == 0) return shr(b, x, bit_length(d) - 1);
  const std::size_t n = x.bits.size() - 1;  // value bits (sign is zero)
  const std::size_t dw = bit_length(d);
  // The top dw-1 bits of x are below 2^(dw-1) < d: no quotient bit there.
  const std::size_t start = n > dw - 1 ? n - (dw - 1) : 0;
  Val rem = unsigned_val(b,
                         Bus(x.bits.begin() + static_cast<long>(start),
                             x.bits.begin() + static_cast<long>(n)),
                         dd - 1);
  Bus q(start, b.zero());
  for (std::size_t step = start; step-- > 0;) {
    Bus shifted{x.bits[step]};
    shifted.insert(shifted.end(), rem.bits.begin(), rem.bits.end() - 1);
    const Val cand = unsigned_val(b, shifted, 2 * dd - 1);
    const Val diff = add_const(b, cand, -dd);
    const std::int32_t qbit = b.not_gate(diff.sign());
    q[step] = qbit;
    if (step > 0) {
      rem = fit(b, b.mux(qbit, b.truncate_bus(diff.bits, dw),
                         b.truncate_bus(cand.bits, dw)),
                0, dd - 1);
    }
  }
  return fit(b, q, lo, hi);
}

// Truncating (toward zero) division by a positive constant, as C++ `/`.
Val sdiv(CircuitBuilder& b, const Val& x, std::uint64_t d) {
  if (x.lo >= 0) return udiv_const(b, x, d);
  const auto dd = static_cast<std::int64_t>(d);
  const std::int64_t lo = x.lo / dd, hi = x.hi / dd;
  const std::int32_t s = x.sign();
  if ((d & (d - 1)) == 0) {
    // (x + s*(d-1)) >> log2(d) rounds toward zero.
    Columns c(b, signed_width(x.lo, x.hi + dd - 1));
    c.add(x.bits);
    for (std::size_t i = 0; i + 1 < bit_length(d); ++i) c.bit(s, i);
    const Val biased = fit(b, c.sum(), x.lo, x.hi + dd - 1);
    return fit(b, shr(b, biased, bit_length(d) - 1).bits, lo, hi);
  }
  return negate_if(b, udiv_const(b, abs_val(b, x), d), s, lo, hi);
}

// --- Protocol building blocks -------------------------------------------

// (sa + sb) mod t, centered into (-t/2, t/2] (fp_from_ring's convention):
// v = s - k*t with s = sa + sb in [0, 2t-2] and k = [s >= h] + [s >= t+h],
// h = floor(t/2) + 1.  k*t is a free function of the two comparison bits
// (k = 2 implies k >= 1), so the whole step is one add, two constant
// comparisons and one subtract at share width.
Val reconstruct(CircuitBuilder& b, const Bus& sa, const Bus& sb,
                std::uint64_t t) {
  const auto tt = static_cast<std::int64_t>(t);
  const std::int64_t h = tt / 2 + 1;
  const Val s = add(b, unsigned_val(b, sa, tt - 1), unsigned_val(b, sb, tt - 1));
  const std::int32_t ge1 = b.not_gate(lt_const(b, s, h));
  const std::int32_t ge2 = b.not_gate(lt_const(b, s, tt + h));
  Bus k(bit_length(2 * t));
  for (std::size_t j = 0; j < k.size(); ++j) {
    const bool one_t = (t >> j) & 1;
    const bool two_t = ((2 * t) >> j) & 1;
    k[j] = one_t ? (two_t ? ge1 : b.xor_gate(ge1, ge2))
                 : (two_t ? ge2 : b.zero());
  }
  Columns c(b, signed_width(h - tt, h - 1));
  c.add(s.bits);
  c.sub(unsigned_val(b, k, 2 * tt).bits);
  return fit(b, c.sum(), h - tt, h - 1);
}

// A signed value in (-t, t) to its residue in [0, t): v + s*t, s = sign.
// The k-bit pattern v_u of a negative v is v + 2^k, so the residue is
// v_u + s*(t - 2^k): an add over the low k bits, and above them the carry
// c out of bit k-1 (which implies s) picks between two constants for free.
Val embed(CircuitBuilder& b, const Val& v, std::uint64_t t) {
  const auto tt = static_cast<std::int64_t>(t);
  const std::size_t w = share_width(t);
  if (v.lo >= 0) return v;
  const std::int64_t hi = tt - 1;
  const std::int32_t s = v.sign();
  const std::size_t k = v.bits.size();
  if (k >= w) {  // a share-width caller bus: add s*t modulo 2^w
    Columns c(b, w);
    for (std::size_t i = 0; i < w; ++i) {
      c.bit(v.bits[i], i);
      if ((t >> i) & 1) c.bit(s, i);
    }
    return fit(b, c.sum(), 0, hi);
  }
  const std::uint64_t tp = t - (std::uint64_t{1} << k);
  Columns c(b, k + 1);
  for (std::size_t i = 0; i < k; ++i) {
    c.bit(v.bits[i], i);
    if ((tp >> i) & 1) c.bit(s, i);
  }
  Bus out = c.sum();
  const std::int32_t carry = out[k];
  out.resize(w);
  const std::uint64_t base = tp >> k, bumped = base + 1;
  for (std::size_t j = k; j < w; ++j) {
    const bool lo_bit = (base >> (j - k)) & 1;   // s = 1, no carry
    const bool hi_bit = (bumped >> (j - k)) & 1;  // carry (so s = 1)
    out[j] = lo_bit ? (hi_bit ? s : b.xor_gate(s, carry))
                    : (hi_bit ? carry : b.zero());
  }
  return unsigned_val(b, out, hi);
}

// (F - Rc) mod t for a value F in (-t, t) and a mask Rc in [0, t).
Bus remask(CircuitBuilder& b, const Val& f, const Bus& rc, std::uint64_t t) {
  const auto tt = static_cast<std::int64_t>(t);
  const std::size_t w = rc.size();
  const Val g = embed(b, f, t);
  const Val d = sub(b, g, unsigned_val(b, rc, tt - 1));
  Columns c(b, w);
  c.add(d.bits);
  for (std::size_t i = 0; i < w; ++i) {
    if ((t >> i) & 1) c.bit(d.sign(), i);
  }
  return c.sum();
}

// One-hot decode of `idx` (LSB first): line i is 1 iff idx == i.  Split
// into two halves decoded recursively; in the |hi| x |lo| grid of products
// every row and column sums to a known line, so one row and one column
// come free: (|hi|-1)(|lo|-1) ANDs.
std::vector<std::int32_t> decode(CircuitBuilder& b, const Bus& idx) {
  if (idx.empty()) return {b.one()};
  if (idx.size() == 1) return {b.not_gate(idx[0]), idx[0]};
  const std::size_t half = idx.size() / 2;
  const auto lo = decode(b, Bus(idx.begin(), idx.begin() + static_cast<long>(half)));
  const auto hi = decode(b, Bus(idx.begin() + static_cast<long>(half), idx.end()));
  std::vector<std::int32_t> out(lo.size() * hi.size());
  for (std::size_t l = 0; l + 1 < lo.size(); ++l) {
    std::int32_t rest = lo[l];
    for (std::size_t h = 1; h < hi.size(); ++h) {
      out[h * lo.size() + l] = b.and_gate(hi[h], lo[l]);
      rest = b.xor_gate(rest, out[h * lo.size() + l]);
    }
    out[l] = rest;
  }
  const std::size_t last = lo.size() - 1;
  for (std::size_t h = 0; h < hi.size(); ++h) {
    std::int32_t rest = hi[h];
    for (std::size_t l = 0; l < last; ++l) {
      rest = b.xor_gate(rest, out[h * lo.size() + l]);
    }
    out[h * lo.size() + last] = rest;
  }
  return out;
}

// Bit j of the constant values[line] selected by the one-hot `lines`: the
// XOR of the lines whose value has the bit set (or the complement set's,
// whichever is shorter — the lines sum to one).  Free.
std::int32_t select_bit(CircuitBuilder& b, const std::vector<std::int32_t>& lines,
                        const std::vector<std::int64_t>& values, std::size_t j) {
  std::vector<std::size_t> set, clear;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (((static_cast<std::uint64_t>(values[i]) >> std::min<std::size_t>(j, 63)) & 1)
         ? set : clear).push_back(i);
  }
  const bool use_set = set.size() <= clear.size();
  std::int32_t acc = use_set ? b.zero() : b.one();
  for (const auto i : use_set ? set : clear) acc = b.xor_gate(acc, lines[i]);
  return acc;
}

// Circuit form of pwl_reference.  With off = clamp(x, lo, hi-1) - lo split
// into a segment index (high bits) and r (low seg_shift bits),
//   y = (x*slope >> P) + intercept = (C[seg] + r*slope[seg]) >> P,
//   C[seg] = (lo + seg*2^seg_shift)*slope[seg] + intercept[seg]*2^P,
// P = frac + kSlopeExtraBits.  The table constants are free XORs of a
// one-hot segment decode, r*slope is one AND-gated slope row per bit of r,
// and the sum runs only at the width of the output range, which is found
// by evaluating each segment's endpoints (y is monotone in r).
Val pwl(CircuitBuilder& b, const Val& x, const PwlSpec& spec,
        const FixedPointFormat& fmt) {
  const PwlTable tb = make_pwl_table(spec, fmt);
  const std::size_t range_log2 = bit_length(
      static_cast<std::uint64_t>(tb.hi_raw - tb.lo_raw)) - 1;
  const std::size_t p = static_cast<std::size_t>(fmt.frac_bits + kSlopeExtraBits);
  const std::size_t segs = tb.slope_raw.size();
  const std::int64_t r_max = pow2(tb.seg_shift) - 1;

  std::vector<std::int64_t> c(segs);
  std::int64_t y_lo = INT64_MAX, y_hi = INT64_MIN;
  for (std::size_t s = 0; s < segs; ++s) {
    const std::int64_t base =
        tb.lo_raw + static_cast<std::int64_t>(s) * pow2(tb.seg_shift);
    c[s] = base * tb.slope_raw[s] + tb.intercept_raw[s] * pow2(p);
    const std::int64_t y0 = c[s] >> p;
    const std::int64_t y1 = (c[s] + r_max * tb.slope_raw[s]) >> p;
    y_lo = std::min({y_lo, y0, y1});
    y_hi = std::max({y_hi, y0, y1});
  }
  const auto [s_lo, s_hi] =
      std::minmax_element(tb.slope_raw.begin(), tb.slope_raw.end());

  const Bus off = b.zero_extend(
      saturate_unsigned(b, add_const(b, x, -tb.lo_raw), range_log2).bits,
      range_log2);
  const Bus r(off.begin(), off.begin() + static_cast<long>(tb.seg_shift));
  const Bus idx(off.begin() + static_cast<long>(tb.seg_shift), off.end());
  const auto lines = decode(b, idx);

  const std::int64_t t_lo = y_lo * pow2(p), t_hi = y_hi * pow2(p) + pow2(p) - 1;
  const std::size_t tw = signed_width(t_lo, t_hi);
  Columns sum(b, tw);
  for (std::size_t j = 0; j < tw; ++j) sum.bit(select_bit(b, lines, c, j), j);
  const std::size_t sw = signed_width(*s_lo, *s_hi);
  Bus slope(sw);
  for (std::size_t j = 0; j < sw; ++j) {
    slope[j] = select_bit(b, lines, tb.slope_raw, j);
  }
  for (std::size_t i = 0; i < r.size(); ++i) {
    Bus row(sw);
    for (std::size_t j = 0; j < sw; ++j) row[j] = b.and_gate(r[i], slope[j]);
    sum.add(row, i);
  }
  const Val t = fit(b, sum.sum(), t_lo, t_hi);
  return shr(b, t, p);
}

// Non-restoring division q = floor(e * 2^f / s) for 0 <= e <= s, s >= 1:
// f+1 quotient bits.  r starts at e - s; each step sets q_j = [r >= 0] and
// moves on to 2r - s or 2r + s, so r stays in [-s, s) and every step is a
// single add at the width of s.
Val div_frac(CircuitBuilder& b, const Val& e, const Val& s, std::size_t f) {
  const std::int64_t lo = -s.hi, hi = s.hi;
  const std::size_t w = signed_width(lo, hi);
  Val r = fit(b, sub(b, e, s).bits, lo, hi);
  const Bus sw = b.zero_extend(s.bits, w);
  Bus q(f + 1);
  for (std::size_t j = f + 1; j-- > 0;) {
    const std::int32_t qbit = b.not_gate(r.sign());
    q[j] = qbit;
    if (j == 0) break;
    // 2r + (q ? -s : s): the addend is s ^ q (~s = -s-1 when q) plus q.
    Columns c(b, w);
    c.add(r.bits, 1);
    Bus flipped(w);
    for (std::size_t i = 0; i < w; ++i) flipped[i] = b.xor_gate(sw[i], qbit);
    c.add(flipped);
    c.bit(qbit, 0);
    r = fit(b, c.sum(), lo, hi);
  }
  return unsigned_val(b, q, pow2(f));
}

Bus slice(const Bus& bus, std::size_t i, std::size_t w) {
  return Bus(bus.begin() + static_cast<long>(i * w),
             bus.begin() + static_cast<long>((i + 1) * w));
}

// reconstruct -> truncate -> saturate to the value format.
Val input_value(CircuitBuilder& b, const Bus& sg, const Bus& se,
                std::uint64_t t, std::size_t frac_shift,
                const FixedPointFormat& fmt) {
  const Val v = shr(b, reconstruct(b, sg, se, t), frac_shift);
  return saturate(b, v, static_cast<std::size_t>(fmt.total_bits));
}

}  // namespace

double gelu_double(double x) {
  return 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0)));
}

PwlSpec layernorm_rsqrt_spec() {
  // 1/sqrt over (0, 16) with the singularity clamped at 1/64; 64 segments.
  return PwlSpec{0.0, 16.0, 6, [](double x) {
                   return 1.0 / std::sqrt(std::max(x, 1.0 / 64.0));
                 }};
}

std::size_t share_width(std::uint64_t t) {
  std::size_t w = 0;
  while ((std::uint64_t{1} << w) < t) ++w;
  return w;
}

SignedBus reconstruct_centered(CircuitBuilder& b, const Bus& sa, const Bus& sb,
                               std::uint64_t t) {
  return SignedBus{reconstruct(b, sa, sb, t).bits};
}

Bus embed_mod_t(CircuitBuilder& b, const SignedBus& v, std::uint64_t t) {
  return b.zero_extend(embed(b, full_range(v), t).bits, share_width(t));
}

SignedBus pwl_apply(CircuitBuilder& b, const SignedBus& x, const PwlSpec& spec,
                    const FixedPointFormat& fmt) {
  return SignedBus{pwl(b, full_range(x), spec, fmt).bits};
}

std::int64_t pwl_reference(std::int64_t x_raw, const PwlSpec& spec,
                           const FixedPointFormat& fmt) {
  const PwlTable tb = make_pwl_table(spec, fmt);
  std::int64_t xc = std::clamp(x_raw, tb.lo_raw, tb.hi_raw - 1);
  const std::size_t seg =
      static_cast<std::size_t>((xc - tb.lo_raw) >> tb.seg_shift) &
      (tb.slope_raw.size() - 1);
  const std::int64_t prod =
      (xc * tb.slope_raw[seg]) >> (fmt.frac_bits + kSlopeExtraBits);
  return prod + tb.intercept_raw[seg];
}

Circuit make_activation_circuit(const ActivationCircuitSpec& spec) {
  CircuitBuilder b;
  const std::size_t w = share_width(spec.t);
  const Bus sg = b.add_input_bus(w * spec.count);
  const Bus se = b.add_input_bus(w * spec.count);
  const Bus rc = b.add_input_bus(w * spec.count);

  for (std::size_t i = 0; i < spec.count; ++i) {
    Val v = input_value(b, slice(sg, i, w), slice(se, i, w), spec.t,
                        spec.frac_shift, spec.fmt);
    switch (spec.act) {
      case Activation::kIdentity:
        break;
      case Activation::kRelu:
        v = relu(b, v);
        break;
      case Activation::kGelu: {
        const Val g = pwl(b, v, PwlSpec{-4.0, 4.0, 5, &gelu_double}, spec.fmt);
        // Above the PWL range GELU(x) = x.
        const std::int32_t above =
            b.not_gate(lt_const(b, v, fp_encode(4.0, spec.fmt) + 1));
        v = mux(b, above, v, g);
        break;
      }
    }
    b.append_outputs(remask(b, v, slice(rc, i, w), spec.t));
  }
  return b.build();
}

std::int64_t activation_reference(std::int64_t x_raw, std::size_t frac_shift,
                                  Activation act,
                                  const FixedPointFormat& fmt) {
  std::int64_t v = x_raw >> frac_shift;
  v = clamp15_ref(v, fmt);
  switch (act) {
    case Activation::kIdentity:
      return v;
    case Activation::kRelu:
      return v < 0 ? 0 : v;
    case Activation::kGelu: {
      PwlSpec pwl{-4.0, 4.0, 5, &gelu_double};
      if (v > fp_encode(4.0, fmt)) return v;
      return pwl_reference(v, pwl, fmt);
    }
  }
  return v;
}

Circuit make_softmax_circuit(const SoftmaxCircuitSpec& spec) {
  CircuitBuilder b;
  const std::size_t w = share_width(spec.t);
  const std::size_t n = spec.count;
  const Bus sg = b.add_input_bus(w * n);
  const Bus se = b.add_input_bus(w * n);
  const Bus rc = b.add_input_bus(w * n);

  std::vector<Val> vals;
  vals.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    vals.push_back(input_value(b, slice(sg, i, w), slice(se, i, w), spec.t,
                               spec.frac_shift, spec.fmt));
  }

  // Row max for numerical stability of the PWL exp.
  Val m = vals[0];
  for (std::size_t i = 1; i < n; ++i) m = mux(b, lt(b, m, vals[i]), vals[i], m);

  const PwlSpec es{-8.0, 0.0, spec.exp_segments_log2,
                   [](double x) { return std::exp(x); }};
  // The row max meets exp at the top of its table: that value bounds the
  // row sum from below, and it must be positive for the division.
  const PwlTable tb = make_pwl_table(es, spec.fmt);
  if (pwl_reference(tb.hi_raw - 1, es, spec.fmt) <= 0) {
    throw std::invalid_argument("softmax: exp table is not positive at 0");
  }
  std::vector<Val> exps;
  exps.reserve(n);
  std::int64_t sum_hi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // v_i - max <= 0.
    const Val d = sub(b, vals[i], m);
    // The PWL arithmetic can undershoot zero by an ulp near -8; clamp.
    exps.push_back(relu(b, pwl(b, fit(b, d.bits, d.lo, 0), es, spec.fmt)));
    sum_hi += exps.back().hi;
  }
  Columns sum_cols(b, signed_width(0, sum_hi));
  for (const auto& e : exps) sum_cols.add(e.bits);
  const Val sum = fit(b, sum_cols.sum(), 0, sum_hi);

  for (std::size_t i = 0; i < n; ++i) {
    // out = (e_i << frac) / sum — exact fixed-point normalization.
    const Val q = div_frac(b, exps[i], sum,
                           static_cast<std::size_t>(spec.fmt.frac_bits));
    b.append_outputs(remask(b, q, slice(rc, i, w), spec.t));
  }
  return b.build();
}

Circuit make_layernorm_circuit(const LayerNormCircuitSpec& spec) {
  CircuitBuilder b;
  const std::size_t w = share_width(spec.t);
  const std::size_t d = spec.d;
  const auto frac = static_cast<std::size_t>(spec.fmt.frac_bits);
  const auto k = static_cast<std::size_t>(spec.fmt.total_bits);
  const Bus acc_g = b.add_input_bus(w * d);
  const Bus res_g = b.add_input_bus(w * d);
  const Bus acc_e = b.add_input_bus(w * d);
  const Bus res_e = b.add_input_bus(w * d);
  const Bus rc = b.add_input_bus(w * d);

  // s_i = saturate(residual + saturate(acc >> frac_shift)).  Saturating the
  // residual to k+1 bits first changes nothing: past that bound the sum
  // saturates either way.
  std::vector<Val> s(d);
  std::int64_t total_lo = 0, total_hi = 0;
  for (std::size_t i = 0; i < d; ++i) {
    const Val acc = input_value(b, slice(acc_g, i, w), slice(acc_e, i, w),
                                spec.t, spec.frac_shift, spec.fmt);
    const Val res = saturate(
        b, reconstruct(b, slice(res_g, i, w), slice(res_e, i, w), spec.t),
        k + 1);
    s[i] = saturate(b, add(b, acc, res), k);
    total_lo += s[i].lo;
    total_hi += s[i].hi;
  }

  // Row statistics, each at the width of its range.
  Columns total_cols(b, signed_width(total_lo, total_hi));
  for (const auto& v : s) total_cols.add(v.bits);
  const Val mean = sdiv(b, fit(b, total_cols.sum(), total_lo, total_hi), d);

  std::vector<Val> c(d);
  std::vector<Val> sq(d);
  std::int64_t var_hi = 0;
  for (std::size_t i = 0; i < d; ++i) {
    c[i] = sub(b, s[i], mean);
    sq[i] = shr(b, square(b, c[i]), frac);
    var_hi += sq[i].hi;
  }
  Columns var_cols(b, signed_width(0, var_hi));
  for (const auto& v : sq) var_cols.add(v.bits);
  const Val var = udiv_const(b, fit(b, var_cols.sum(), 0, var_hi), d);
  const Val rstd = pwl(b, var, layernorm_rsqrt_spec(), spec.fmt);

  // Per-element affine output, masked.  gamma and beta are constants:
  // (n*gamma >> frac) + beta = (n*gamma + beta*2^frac) >> frac.
  for (std::size_t i = 0; i < d; ++i) {
    const Val norm = saturate(b, shr(b, mul(b, c[i], rstd), frac), k);
    const Val scaled = add_const(b, mul_const(b, norm, spec.gamma[i]),
                                 spec.beta[i] * pow2(frac));
    const Val out = saturate(b, shr(b, scaled, frac), k);
    b.append_outputs(remask(b, out, slice(rc, i, w), spec.t));
  }
  return b.build();
}

std::vector<std::int64_t> fixed_softmax_reference(
    const std::vector<std::int64_t>& x, std::size_t frac_shift,
    const FixedPointFormat& fmt, int exp_segments_log2) {
  std::vector<std::int64_t> v(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    v[i] = clamp15_ref(x[i] >> frac_shift, fmt);
  }
  std::int64_t m = v[0];
  for (const auto val : v) m = std::max(m, val);
  const PwlSpec exp_spec{-8.0, 0.0, exp_segments_log2,
                         [](double y) { return std::exp(y); }};
  std::vector<std::int64_t> e(v.size());
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    e[i] = std::max<std::int64_t>(0, pwl_reference(v[i] - m, exp_spec, fmt));
    sum += e[i];
  }
  std::vector<std::int64_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = (e[i] << fmt.frac_bits) / sum;
  }
  return out;
}

}  // namespace primer
