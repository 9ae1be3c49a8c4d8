// Tests for the garbled-circuit substrate: AES primitives, circuit builder
// arithmetic vs plain integer semantics, half-gates garbling equivalence,
// and the two-party GcSession over the simulated channel.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "gc/aes.h"
#include "gc/circuit.h"
#include "gc/fixed_circuit_suite.h"
#include "gc/fixed_circuits.h"
#include "gc/garble.h"
#include "gc/garble_kernels.h"
#include "gc/protocol.h"

namespace primer {
namespace {

TEST(Aes, KnownAnswerFips197) {
  // FIPS-197 appendix C.1: key 000102...0f, plaintext 00112233...ff.
  // Our Block is little-endian in each 64-bit half; bytes of the standard
  // vector map accordingly.
  const Block key{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL};
  const Block pt{0x7766554433221100ULL, 0xffeeddccbbaa9988ULL};
  const FixedKeyAes aes(key);
  const Block ct = aes.encrypt(pt);
  // Expected ciphertext 69c4e0d86a7b0430d8cdb78070b4c55a (big-endian bytes).
  EXPECT_EQ(ct.lo, 0x30047b6ad8e0c469ULL);
  EXPECT_EQ(ct.hi, 0x5ac5b47080b7cdd8ULL);
}

TEST(Aes, HashDependsOnTweakAndInput) {
  const FixedKeyAes aes;
  const Block x{123, 456};
  EXPECT_FALSE(aes.hash(x, 1) == aes.hash(x, 2));
  EXPECT_FALSE(aes.hash(x, 1) == aes.hash(Block{124, 456}, 1));
  EXPECT_TRUE(aes.hash(x, 7) == aes.hash(x, 7));
}

TEST(Aes, BatchHashMatchesScalar) {
  const FixedKeyAes aes;
  Rng rng(9001);
  // Sizes straddle every tail path: empty, scalar-only, 4-wide, 8-wide,
  // and mixes of all three.
  for (const std::size_t n : {0, 1, 3, 4, 5, 7, 8, 9, 12, 64, 1000}) {
    std::vector<Block> x(n), got(n);
    std::vector<std::uint64_t> tw(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = Block{rng.next(), rng.next()};
      tw[i] = rng.next();
    }
    aes.hash_n(x.data(), tw.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(got[i] == aes.hash(x[i], tw[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Aes, BatchEncryptMatchesScalar) {
  const FixedKeyAes aes;
  Rng rng(9002);
  for (const std::size_t n : {0, 1, 3, 4, 7, 8, 9, 64, 1000}) {
    std::vector<Block> x(n), got(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = Block{rng.next(), rng.next()};
    aes.encrypt_n(x.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(got[i] == aes.encrypt(x[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Circuit, PlainEvalBasicGates) {
  CircuitBuilder b;
  const auto x = b.add_input();
  const auto y = b.add_input();
  b.set_outputs({b.xor_gate(x, y), b.and_gate(x, y), b.not_gate(x),
                 b.or_gate(x, y)});
  const Circuit c = b.build();
  for (int xv = 0; xv <= 1; ++xv) {
    for (int yv = 0; yv <= 1; ++yv) {
      const auto out = eval_circuit(c, {xv == 1, yv == 1});
      EXPECT_EQ(out[0], (xv ^ yv) == 1);
      EXPECT_EQ(out[1], (xv & yv) == 1);
      EXPECT_EQ(out[2], xv == 0);
      EXPECT_EQ(out[3], (xv | yv) == 1);
    }
  }
}

// Builds a circuit computing op(a, b) on w-bit buses and checks it against
// the integer semantics for exhaustive/random operand pairs.
class ArithCircuitTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ArithCircuitTest, AddMatchesInteger) {
  const std::size_t w = GetParam();
  CircuitBuilder b;
  const Bus a = b.add_input_bus(w), c = b.add_input_bus(w);
  b.set_outputs(b.add(a, c));
  const Circuit circ = b.build();
  Rng rng(w);
  const std::uint64_t mask = (w == 64) ? ~0ULL : ((1ULL << w) - 1);
  for (int iter = 0; iter < 50; ++iter) {
    const std::uint64_t x = rng.next() & mask, y = rng.next() & mask;
    auto in = value_to_bits(x, w);
    const auto yb = value_to_bits(y, w);
    in.insert(in.end(), yb.begin(), yb.end());
    EXPECT_EQ(bits_to_value(eval_circuit(circ, in)), (x + y) & mask);
  }
}

TEST_P(ArithCircuitTest, SubAndBorrowMatchInteger) {
  const std::size_t w = GetParam();
  CircuitBuilder b;
  const Bus a = b.add_input_bus(w), c = b.add_input_bus(w);
  std::int32_t borrow = 0;
  Bus diff = b.sub(a, c, &borrow);
  diff.push_back(borrow);
  b.set_outputs(diff);
  const Circuit circ = b.build();
  Rng rng(w + 1);
  const std::uint64_t mask = (w == 64) ? ~0ULL : ((1ULL << w) - 1);
  for (int iter = 0; iter < 50; ++iter) {
    const std::uint64_t x = rng.next() & mask, y = rng.next() & mask;
    auto in = value_to_bits(x, w);
    const auto yb = value_to_bits(y, w);
    in.insert(in.end(), yb.begin(), yb.end());
    const auto out = eval_circuit(circ, in);
    const auto diff_bits = std::vector<bool>(out.begin(), out.end() - 1);
    EXPECT_EQ(bits_to_value(diff_bits), (x - y) & mask);
    EXPECT_EQ(out.back(), x < y);
  }
}

TEST_P(ArithCircuitTest, MulMatchesInteger) {
  const std::size_t w = GetParam();
  CircuitBuilder b;
  const Bus a = b.add_input_bus(w), c = b.add_input_bus(w);
  b.set_outputs(b.mul(a, c, w));
  const Circuit circ = b.build();
  Rng rng(w + 2);
  const std::uint64_t mask = (w == 64) ? ~0ULL : ((1ULL << w) - 1);
  for (int iter = 0; iter < 30; ++iter) {
    const std::uint64_t x = rng.next() & mask, y = rng.next() & mask;
    auto in = value_to_bits(x, w);
    const auto yb = value_to_bits(y, w);
    in.insert(in.end(), yb.begin(), yb.end());
    EXPECT_EQ(bits_to_value(eval_circuit(circ, in)), (x * y) & mask);
  }
}

TEST_P(ArithCircuitTest, DivMatchesInteger) {
  const std::size_t w = GetParam();
  CircuitBuilder b;
  const Bus a = b.add_input_bus(w), c = b.add_input_bus(w);
  b.set_outputs(b.div(a, c));
  const Circuit circ = b.build();
  Rng rng(w + 3);
  const std::uint64_t mask = (w == 64) ? ~0ULL : ((1ULL << w) - 1);
  for (int iter = 0; iter < 30; ++iter) {
    const std::uint64_t x = rng.next() & mask;
    const std::uint64_t y = (rng.next() & mask) | 1;  // avoid divide by zero
    auto in = value_to_bits(x, w);
    const auto yb = value_to_bits(y, w);
    in.insert(in.end(), yb.begin(), yb.end());
    EXPECT_EQ(bits_to_value(eval_circuit(circ, in)), x / y);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ArithCircuitTest,
                         ::testing::Values(4, 8, 15, 22, 32));

TEST(Circuit, ComparatorsAndMux) {
  const std::size_t w = 10;
  CircuitBuilder b;
  const Bus a = b.add_input_bus(w), c = b.add_input_bus(w);
  const auto sel = b.lt(a, c);
  Bus out = b.mux(sel, a, c);  // min(a, c)
  out.push_back(b.ge(a, c));
  out.push_back(b.eq(a, c));
  b.set_outputs(out);
  const Circuit circ = b.build();
  Rng rng(7);
  for (int iter = 0; iter < 100; ++iter) {
    const std::uint64_t x = rng.uniform(1 << w), y = rng.uniform(1 << w);
    auto in = value_to_bits(x, w);
    const auto yb = value_to_bits(y, w);
    in.insert(in.end(), yb.begin(), yb.end());
    const auto o = eval_circuit(circ, in);
    const auto min_bits = std::vector<bool>(o.begin(), o.begin() + w);
    EXPECT_EQ(bits_to_value(min_bits), std::min(x, y));
    EXPECT_EQ(o[w], x >= y);
    EXPECT_EQ(o[w + 1], x == y);
  }
}

TEST(Circuit, ModularAddSub) {
  const std::uint64_t p = 1000003;
  const std::size_t w = share_width(p);
  CircuitBuilder b;
  const Bus a = b.add_input_bus(w), c = b.add_input_bus(w);
  Bus out = b.add_mod(a, c, p);
  Bus out2 = b.sub_mod(a, c, p);
  out.insert(out.end(), out2.begin(), out2.end());
  b.set_outputs(out);
  const Circuit circ = b.build();
  Rng rng(17);
  for (int iter = 0; iter < 100; ++iter) {
    const std::uint64_t x = rng.uniform(p), y = rng.uniform(p);
    auto in = value_to_bits(x, w);
    const auto yb = value_to_bits(y, w);
    in.insert(in.end(), yb.begin(), yb.end());
    const auto o = eval_circuit(circ, in);
    const auto add_bits = std::vector<bool>(o.begin(), o.begin() + w);
    const auto sub_bits = std::vector<bool>(o.begin() + w, o.end());
    EXPECT_EQ(bits_to_value(add_bits), (x + y) % p);
    EXPECT_EQ(bits_to_value(sub_bits), (x + p - y) % p);
  }
}

TEST(Circuit, ConstantFoldingEmitsNoAndGates) {
  CircuitBuilder b;
  const Bus a = b.add_input_bus(8);
  // Multiplying by the constant 4 should fold to pure rewiring + adds of 0.
  const Bus c = b.constant_bus(4, 8);
  b.set_outputs(b.mul(a, c, 8));
  // A full 8x8 mul has ~64 ANDs from partial products; constant 4 has one
  // set bit so all partial-product ANDs fold away.
  EXPECT_LE(b.and_count(), 8u);
}

TEST(Garble, MatchesPlainEvalOnRandomCircuits) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    CircuitBuilder b;
    const std::size_t w = 8;
    const Bus a = b.add_input_bus(w), c = b.add_input_bus(w);
    const Bus sum = b.add(a, c);
    const Bus prod = b.mul(a, c, w);
    const auto cmp = b.lt(a, c);
    Bus out = b.mux(cmp, sum, prod);
    out.push_back(b.eq(a, c));
    b.set_outputs(out);
    const Circuit circ = b.build();

    std::vector<bool> inputs(2 * w);
    for (auto&& bit : inputs) bit = rng.next() & 1;
    EXPECT_EQ(garbled_eval(circ, inputs, rng), eval_circuit(circ, inputs));
  }
}

TEST(Garble, AllInputCombinationsTinyCircuit) {
  CircuitBuilder b;
  const auto x = b.add_input();
  const auto y = b.add_input();
  const auto z = b.add_input();
  // out = (x & y) ^ ~z  — exercises AND, XOR, NOT together.
  b.set_outputs({b.xor_gate(b.and_gate(x, y), b.not_gate(z))});
  const Circuit c = b.build();
  Rng rng(5);
  for (int m = 0; m < 8; ++m) {
    const std::vector<bool> in = {(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    EXPECT_EQ(garbled_eval(c, in, rng), eval_circuit(c, in)) << "mask " << m;
  }
}

TEST(Garble, TableSizeIsTwoLabelsPerAnd) {
  CircuitBuilder b;
  const Bus a = b.add_input_bus(16), c = b.add_input_bus(16);
  b.set_outputs(b.mul(a, c, 16));
  const Circuit circ = b.build();
  Rng rng(3);
  Garbler g(rng);
  const auto gc = g.garble(circ);
  EXPECT_EQ(gc.table.rows.size(), 2 * circ.and_count());
}

TEST(GcSession, TwoPartyAddModT) {
  const std::uint64_t t = 65537;
  const std::size_t w = share_width(t);
  CircuitBuilder b;
  const Bus sg = b.add_input_bus(w);  // garbler share
  const Bus se = b.add_input_bus(w);  // evaluator share
  b.set_outputs(b.add_mod(sg, se, t));
  const Circuit circ = b.build();

  Channel ch;
  FramedChannel fch(ch, FaultSpec{}, RetryPolicy{});
  Rng rng(77);
  GcSession session(fch, rng);
  session.offline(circ, RevealTo::kBoth);
  const std::uint64_t x = 12345, y = 54321;
  const auto out = session.online(value_to_bits(x, w), value_to_bits(y, w));
  EXPECT_EQ(bits_to_value(out), (x + y) % t);
  EXPECT_GT(ch.total_bytes(), 0u);
  EXPECT_GT(ch.flights(), 0u);
  EXPECT_GT(session.stats().and_gates, 0u);
}

TEST(GcSession, RevealToGarblerOnly) {
  CircuitBuilder b;
  const Bus a = b.add_input_bus(8), c = b.add_input_bus(8);
  b.set_outputs(b.add(a, c));
  const Circuit circ = b.build();
  Channel ch;
  FramedChannel fch(ch, FaultSpec{}, RetryPolicy{});
  Rng rng(79);
  GcSession session(fch, rng);
  session.offline(circ, RevealTo::kGarbler);
  const auto out = session.online(value_to_bits(100, 8), value_to_bits(55, 8));
  EXPECT_EQ(bits_to_value(out), 155u);
}

TEST(GcSession, OnlineBeforeOfflineThrows) {
  Channel ch;
  FramedChannel fch(ch, FaultSpec{}, RetryPolicy{});
  Rng rng(1);
  GcSession session(fch, rng);
  EXPECT_THROW(session.online({}, {}), std::logic_error);
}

TEST(GcSession, ChannelAccountsGarbledTables) {
  CircuitBuilder b;
  const Bus a = b.add_input_bus(16), c = b.add_input_bus(16);
  b.set_outputs(b.mul(a, c, 16));
  const Circuit circ = b.build();
  Channel ch;
  FramedChannel fch(ch, FaultSpec{}, RetryPolicy{});
  Rng rng(83);
  GcSession session(fch, rng);
  const auto before = ch.total_bytes();
  session.offline(circ, RevealTo::kGarbler);
  // Offline traffic must include at least the garbled tables.
  EXPECT_GE(ch.total_bytes() - before, 2 * 16 * circ.and_count());
}

TEST(Circuit, LayersPartitionGatesWithMonotoneWatermarks) {
  for (const auto& [name, circ] : fixed_circuit_suite()) {
    SCOPED_TRACE(name);
    const CircuitLayers& lay = circ.layers();
    EXPECT_EQ(lay.and_count, circ.and_count());

    // AND ordinals are the emission order among AND gates.
    std::size_t emitted_ands = 0;
    for (std::size_t gi = 0; gi < circ.gates.size(); ++gi) {
      if (circ.gates[gi].type == GateType::kAnd) {
        EXPECT_EQ(lay.and_ordinal[gi], emitted_ands++);
      }
    }
    EXPECT_EQ(emitted_ands, lay.and_count);

    // Levels partition the gate list; within a level, gates stay in
    // emission order; no AND consumes a wire of its own or a later level.
    std::vector<std::int32_t> wire_level(circ.num_wires, 0);
    std::vector<bool> seen(circ.gates.size(), false);
    std::size_t gates_total = 0, completed_ands = 0;
    std::uint32_t prev_watermark = 0;
    ASSERT_EQ(lay.watermark.size(), lay.levels.size());
    for (std::size_t l = 0; l < lay.levels.size(); ++l) {
      const CircuitLevel& level = lay.levels[l];
      gates_total += level.and_gates.size() + level.free_gates.size();
      completed_ands += level.and_gates.size();
      std::uint32_t prev_gi = 0;
      bool first = true;
      for (const auto gi : level.and_gates) {
        ASSERT_LT(gi, circ.gates.size());
        EXPECT_FALSE(seen[gi]);
        seen[gi] = true;
        if (!first) EXPECT_GT(gi, prev_gi);
        first = false;
        prev_gi = gi;
        const Gate& g = circ.gates[gi];
        EXPECT_EQ(g.type, GateType::kAnd);
        // AND inputs come from strictly earlier levels.
        EXPECT_LT(wire_level[g.a], static_cast<std::int32_t>(l) + 1);
        EXPECT_LT(wire_level[g.b], static_cast<std::int32_t>(l) + 1);
        wire_level[g.out] = static_cast<std::int32_t>(l) + 1;
      }
      for (const auto gi : level.free_gates) {
        ASSERT_LT(gi, circ.gates.size());
        EXPECT_FALSE(seen[gi]);
        seen[gi] = true;
        EXPECT_NE(circ.gates[gi].type, GateType::kAnd);
      }
      // Watermarks grow, never exceed the ANDs finished so far, and every
      // AND of a later level sits at or above this level's watermark (the
      // prefix [0, watermark[l]) really is final).
      EXPECT_GE(lay.watermark[l], prev_watermark);
      EXPECT_LE(lay.watermark[l], completed_ands);
      for (std::size_t m = l + 1; m < lay.levels.size(); ++m) {
        for (const auto gi : lay.levels[m].and_gates) {
          EXPECT_GE(lay.and_ordinal[gi], lay.watermark[l]);
        }
      }
      prev_watermark = lay.watermark[l];
    }
    EXPECT_EQ(gates_total, circ.gates.size());
    if (!lay.levels.empty()) {
      EXPECT_EQ(lay.watermark.back(), lay.and_count);
    }
  }
}

// The batched, level-ordered garbler/evaluator must produce bit-identical
// tables, labels, outputs and streamed (row_begin, row_count) spans to the
// seed's serial single-block-AES paths, on every kernel tier and thread
// count.  Inputs: every fixed circuit, and the replicated form of each
// activation circuit (one count = 1 template, `count` copies), which must
// match the reference on the monolithic make_activation_circuit(count) it
// stands for.
TEST(Garble, BatchedMatchesSerialReferenceBitExact) {
  struct Case {
    std::string name;
    Circuit mono;
    ReplicatedCircuit form;
  };
  std::vector<Case> cases;
  for (const auto& [name, circ] : fixed_circuit_suite()) {
    cases.push_back({name, circ, ReplicatedCircuit(circ)});
  }
  for (const auto& [name, act] :
       {std::pair<const char*, Activation>{"identity", Activation::kIdentity},
        {"relu", Activation::kRelu},
        {"gelu", Activation::kGelu}}) {
    ActivationCircuitSpec spec;
    spec.t = kGcSuitePrime;
    spec.frac_shift = 8;
    spec.act = act;
    const auto tmpl = make_activation_circuit(spec).layered();
    for (const std::size_t count : {1, 3, 64, 256}) {
      spec.count = count;
      cases.push_back({std::string(name) + " replicated x" +
                           std::to_string(count),
                       make_activation_circuit(spec),
                       ReplicatedCircuit(tmpl, count, 3)});
    }
  }

  // Restores the kernel tier and thread count the sweep below changes.
  struct Restore {
    const char* tier = std::getenv("PRIMER_GC_KERNEL");
    std::string saved = tier != nullptr ? tier : "";
    std::size_t threads = num_threads();
    ~Restore() {
      if (tier != nullptr) {
        setenv("PRIMER_GC_KERNEL", saved.c_str(), 1);
      } else {
        unsetenv("PRIMER_GC_KERNEL");
      }
      set_num_threads(threads);
    }
  } restore;
  std::vector<std::string> tiers = {"sse"};
  setenv("PRIMER_GC_KERNEL", "vaes", 1);
  if (std::string(gc_kernel_name()) == "vaes") tiers.push_back("vaes");

  using Spans = std::vector<std::pair<std::size_t, std::size_t>>;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Circuit& mono = c.mono;
    ASSERT_EQ(c.form.num_inputs(), static_cast<std::size_t>(mono.num_inputs));
    ASSERT_EQ(c.form.num_outputs(), mono.outputs.size());
    ASSERT_EQ(c.form.and_count(), mono.and_count());
    Rng rng_ref(4242);
    const GarbledCircuit want = garble_reference(mono, rng_ref);
    // Active-label evaluation agrees too, on random inputs.
    Rng in_rng(99);
    std::vector<Label> active(static_cast<std::size_t>(mono.num_inputs));
    for (std::size_t i = 0; i < active.size(); ++i) {
      active[i] = Garbler::active_input(want, i, in_rng.next() & 1);
    }
    const auto want_out = eval_reference(mono, want.table, active);
    Spans want_spans;
    {
      set_num_threads(1);
      Rng rng(4242);
      Garbler(rng).garble(mono, [&](const Label*, std::size_t lo,
                                    std::size_t hi) {
        want_spans.emplace_back(lo, hi - lo);
      });
    }

    for (const std::string& tier : tiers) {
      setenv("PRIMER_GC_KERNEL", tier.c_str(), 1);
      for (const std::size_t threads : {1, 4}) {
        SCOPED_TRACE(tier + " threads " + std::to_string(threads));
        set_num_threads(threads);
        Rng rng(4242);
        Spans spans;
        const GarbledCircuit got = Garbler(rng).garble(
            c.form, [&](const Label*, std::size_t lo, std::size_t hi) {
              spans.emplace_back(lo, hi - lo);
            });
        EXPECT_EQ(spans, want_spans);
        ASSERT_TRUE(got.delta == want.delta);
        ASSERT_EQ(got.table.rows.size(), want.table.rows.size());
        for (std::size_t i = 0; i < want.table.rows.size(); ++i) {
          ASSERT_TRUE(got.table.rows[i] == want.table.rows[i]) << "row " << i;
        }
        ASSERT_EQ(got.input_labels0, want.input_labels0);
        ASSERT_EQ(got.output_labels0, want.output_labels0);
        EXPECT_EQ(GcEvaluator::eval(c.form, got.table, active), want_out);
      }
    }
  }
}

TEST(Garble, RowSinkCoversTableInOrder) {
  for (const auto& [name, circ] : fixed_circuit_suite()) {
    SCOPED_TRACE(name);
    Rng rng(17);
    Garbler g(rng);
    std::size_t covered = 0, calls = 0;
    const GarbledCircuit gc =
        g.garble(circ, [&](const Label* rows, std::size_t lo, std::size_t hi) {
          EXPECT_NE(rows, nullptr);
          EXPECT_EQ(lo, covered);  // contiguous, strictly increasing
          EXPECT_LT(lo, hi);
          covered = hi;
          ++calls;
        });
    EXPECT_EQ(covered, gc.table.rows.size());
    EXPECT_GT(calls, 0u);

    // Sink-driven garbling consumes the Rng identically: same seed, same
    // bytes as the sink-free overload.
    Rng rng2(17);
    Garbler g2(rng2);
    const GarbledCircuit gc2 = g2.garble(circ);
    ASSERT_EQ(gc.table.rows.size(), gc2.table.rows.size());
    for (std::size_t i = 0; i < gc.table.rows.size(); ++i) {
      ASSERT_TRUE(gc.table.rows[i] == gc2.table.rows[i]);
    }
  }
}

TEST(GcSession, ChunkScheduleKeepsOutputAndTableBytes) {
  const std::uint64_t t = 65537;
  const std::size_t w = share_width(t);
  CircuitBuilder b;
  const Bus sg = b.add_input_bus(w);
  const Bus se = b.add_input_bus(w);
  b.set_outputs(b.add_mod(sg, se, t));
  const Circuit circ = b.build();
  const std::size_t total_rows = 2 * circ.and_count();
  const std::uint64_t x = 31337, y = 27182;

  auto run = [&](std::size_t chunk_rows) {
    Channel ch;
    FramedChannel fch(ch, FaultSpec{}, RetryPolicy{});
    Rng rng(123);
    GcSession session(fch, rng);
    session.set_stream_chunk_rows(chunk_rows);
    session.offline(circ, RevealTo::kBoth);
    const auto out = session.online(value_to_bits(x, w), value_to_bits(y, w));
    return std::make_pair(bits_to_value(out), session.stats());
  };

  // Chunk sizes from one row per frame up to the whole table in one frame.
  for (const std::size_t chunk_rows :
       {std::size_t{1}, std::size_t{64}, GcSession::kDefaultStreamChunkRows,
        total_rows}) {
    SCOPED_TRACE(chunk_rows);
    const auto [out, stats] = run(chunk_rows);
    EXPECT_EQ(out, (x + y) % t);
    EXPECT_EQ(stats.table_bytes, total_rows * sizeof(Label));
    EXPECT_GE(stats.table_chunks, 1u);
    EXPECT_LE(stats.table_chunks, total_rows);
    if (chunk_rows >= total_rows) {
      EXPECT_EQ(stats.table_chunks, 1u);
    }
    // Compute split is populated on both sides.
    EXPECT_GT(stats.garble_seconds, 0.0);
    EXPECT_GT(stats.eval_seconds, 0.0);
  }
}

// A GcSession over the replicated form ships the same streamed chunks and
// reveals the same bits as one over the monolithic circuit.
TEST(GcSession, ReplicatedSessionMatchesMonolithic) {
  ActivationCircuitSpec spec;
  spec.t = kGcSuitePrime;
  spec.count = 16;
  spec.frac_shift = 8;
  spec.act = Activation::kGelu;
  const Circuit mono = make_activation_circuit(spec);
  ActivationCircuitSpec one = spec;
  one.count = 1;
  const ReplicatedCircuit rep(make_activation_circuit(one).layered(),
                              spec.count, 3);
  Rng in_rng(99);
  std::vector<bool> gbits, ebits;
  const std::size_t ng = rep.num_inputs() / 3;
  for (std::size_t i = 0; i < rep.num_inputs(); ++i) {
    (i < ng ? gbits : ebits).push_back(in_rng.next() & 1);
  }
  auto run = [&](auto&& circuit) {
    Channel ch;
    FramedChannel fch(ch, FaultSpec{}, RetryPolicy{});
    Rng rng(31);
    GcSession session(fch, rng);
    session.set_stream_chunk_rows(64);
    session.offline(circuit, RevealTo::kBoth);
    auto out = session.online(gbits, ebits);
    return std::make_tuple(out, session.stats(), ch.total_bytes());
  };
  const auto [mono_out, mono_stats, mono_bytes] = run(mono);
  const auto [rep_out, rep_stats, rep_bytes] = run(rep);
  EXPECT_EQ(rep_out, mono_out);
  EXPECT_EQ(rep_stats.and_gates, mono_stats.and_gates);
  EXPECT_EQ(rep_stats.table_chunks, mono_stats.table_chunks);
  EXPECT_EQ(rep_stats.table_bytes, mono_stats.table_bytes);
  EXPECT_EQ(rep_bytes, mono_bytes);
}

// Softmax and LayerNorm run as one stage per layer: the one-row circuit is
// a template replicated once per row, its input buses the segments (softmax
// 3: garbler scores, evaluator scores, masks; LayerNorm 5: garbler acc and
// residual, evaluator acc and residual, masks).  On every kernel tier and
// thread count, the bits a GcSession reveals for copy r must equal the
// one-row circuit evaluated in plain on row r's segment-mapped inputs.
TEST(GcSession, RowTemplatesMatchPerRowPlainEval) {
  struct Restore {
    const char* tier = std::getenv("PRIMER_GC_KERNEL");
    std::string saved = tier != nullptr ? tier : "";
    std::size_t threads = num_threads();
    ~Restore() {
      if (tier != nullptr) {
        setenv("PRIMER_GC_KERNEL", saved.c_str(), 1);
      } else {
        unsetenv("PRIMER_GC_KERNEL");
      }
      set_num_threads(threads);
    }
  } restore;
  std::vector<std::string> tiers = {"sse"};
  setenv("PRIMER_GC_KERNEL", "vaes", 1);
  if (std::string(gc_kernel_name()) == "vaes") tiers.push_back("vaes");

  struct Case {
    std::string name;
    std::size_t copies;
    std::size_t segments;
    std::size_t garbler_segments;
  };
  const auto suite = fixed_circuit_suite(4);
  for (const Case& c : {Case{"softmax", 8, 3, 1}, Case{"layernorm", 4, 5, 2}}) {
    SCOPED_TRACE(c.name);
    const Circuit* row = nullptr;
    for (const auto& [name, circ] : suite) {
      if (name == c.name) row = &circ;
    }
    ASSERT_NE(row, nullptr);
    const ReplicatedCircuit rep(row->layered(), c.copies, c.segments);
    const std::size_t seg =
        static_cast<std::size_t>(row->num_inputs) / c.segments;
    ASSERT_EQ(seg * c.segments, static_cast<std::size_t>(row->num_inputs));

    Rng in_rng(2718);
    std::vector<bool> in(rep.num_inputs());
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = in_rng.next() & 1;
    std::vector<bool> want;
    for (std::size_t r = 0; r < c.copies; ++r) {
      std::vector<bool> row_in;
      for (std::size_t s = 0; s < c.segments; ++s) {
        const auto from = in.begin() + (s * c.copies + r) * seg;
        row_in.insert(row_in.end(), from, from + seg);
      }
      const auto out = eval_circuit(*row, row_in);
      want.insert(want.end(), out.begin(), out.end());
    }
    const auto split = in.begin() + c.garbler_segments * c.copies * seg;
    const std::vector<bool> gbits(in.begin(), split);
    const std::vector<bool> ebits(split, in.end());

    for (const std::string& tier : tiers) {
      setenv("PRIMER_GC_KERNEL", tier.c_str(), 1);
      for (const std::size_t threads : {1, 4}) {
        SCOPED_TRACE(tier + " threads " + std::to_string(threads));
        set_num_threads(threads);
        Channel ch;
        FramedChannel fch(ch, FaultSpec{}, RetryPolicy{});
        Rng rng(5);
        GcSession session(fch, rng);
        session.offline(rep, RevealTo::kGarbler);
        EXPECT_EQ(session.online(gbits, ebits), want);
        EXPECT_EQ(session.stats().and_gates, c.copies * row->and_count());
      }
    }
  }
}

TEST(PackBits, RoundTrip) {
  const std::vector<bool> bits = {1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1};
  EXPECT_EQ(unpack_bits(pack_bits(bits), bits.size()), bits);
}

TEST(ValueBits, RoundTrip) {
  for (std::uint64_t v : {0ULL, 1ULL, 255ULL, 65535ULL, 123456789ULL}) {
    EXPECT_EQ(bits_to_value(value_to_bits(v, 40)), v);
  }
}

}  // namespace
}  // namespace primer
