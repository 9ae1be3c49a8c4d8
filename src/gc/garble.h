// Half-gates garbling (Zahur–Rosulek–Evans 2015) with free-XOR and
// point-and-permute, over the fixed-key AES hash.
//
//   XOR: free.  NOT: free (label relabeling).  AND: two ciphertexts
//   (garbler half TG, evaluator half TE), one AES hash pair per side.
//
// The garbler samples a global offset R with lsb(R) = 1; wire labels are
// (W, W ^ R) and the lsb is the permute bit.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gc/aes.h"
#include "gc/circuit.h"

namespace primer {

using Label = Block;

// Allocator whose no-argument construct default-initializes instead of
// value-initializing, so resize() of trivial elements skips the zero fill.
// Only for buffers every element of which is written before being read.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

// Garbled-table row storage: the garble kernels overwrite every row, so the
// uninitialized resize avoids a table-sized memset per garble call.
using LabelVec = std::vector<Label, DefaultInitAllocator<Label>>;

struct GarbledTable {
  // Two ciphertexts per AND gate, in gate order.
  LabelVec rows;

  std::size_t byte_size() const { return rows.size() * sizeof(Label); }
};

struct GarbledCircuit {
  GarbledTable table;
  // False label of every input wire (garbler-private).
  std::vector<Label> input_labels0;
  // False label of every output wire (garbler-private; lsb is the decode bit).
  std::vector<Label> output_labels0;
  Label delta;  // global offset R (garbler-private)
};

class Garbler {
 public:
  explicit Garbler(Rng& rng) : rng_(rng) {}

  // Invoked with (rows, row_begin, row_end) spans of the garbled table as
  // their rows become final (dependency-level watermarks): spans are
  // contiguous, non-overlapping, strictly increasing, and cover the whole
  // table by the time garble() returns.  `rows` is the table base pointer;
  // only [row_begin, row_end) is final when the sink runs.  The streamed
  // table transfer ships each span while later levels are still garbling.
  using RowSink =
      std::function<void(const Label* rows, std::size_t row_begin,
                         std::size_t row_end)>;

  // Batched, level-parallel half-gates garbling.  Tweaks and table rows are
  // indexed by each AND gate's serial ordinal, so the output is
  // bit-identical to garble_reference() for any PRIMER_THREADS.
  GarbledCircuit garble(const Circuit& c) const;
  GarbledCircuit garble(const Circuit& c, const RowSink& sink) const;
  // The replicated form: tables, labels and sink spans are bit-identical to
  // garbling the monolithic circuit it stands for (see ReplicatedCircuit).
  GarbledCircuit garble(const ReplicatedCircuit& rc,
                        const RowSink& sink = RowSink{}) const;

  // Active label for an input wire given its plaintext bit.
  static Label active_input(const GarbledCircuit& gc, std::size_t wire,
                            bool bit) {
    Label l = gc.input_labels0[wire];
    if (bit) l ^= gc.delta;
    return l;
  }

  // Decode an active output label to its plaintext bit.
  static bool decode_output(const GarbledCircuit& gc, std::size_t out_index,
                            const Label& active) {
    return active.lsb() != gc.output_labels0[out_index].lsb();
  }

 private:
  Rng& rng_;
};

class GcEvaluator {
 public:
  // Evaluates the garbled circuit given active labels for all inputs;
  // returns active labels of the outputs.  Batched and level-parallel like
  // garble(); bit-identical to eval_reference().
  static std::vector<Label> eval(const Circuit& c, const GarbledTable& table,
                                 const std::vector<Label>& active_inputs);
  static std::vector<Label> eval(const ReplicatedCircuit& rc,
                                 const GarbledTable& table,
                                 const std::vector<Label>& active_inputs);
};

// The seed's serial single-block-AES paths, kept verbatim as the
// bit-exactness oracle for the batched/parallel implementations and as the
// bench baseline the >=3x throughput gate measures against.
GarbledCircuit garble_reference(const Circuit& c, Rng& rng);
std::vector<Label> eval_reference(const Circuit& c, const GarbledTable& table,
                                  const std::vector<Label>& active_inputs);

// End-to-end helper used by tests: garble, select input labels from plain
// bits, evaluate, decode.
std::vector<bool> garbled_eval(const Circuit& c,
                               const std::vector<bool>& inputs, Rng& rng);

}  // namespace primer
