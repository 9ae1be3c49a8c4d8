// CircuitCache: the fixed nonlinear-layer circuits of one model, built and
// layered once and shared, immutable, by every session of that model.
//
// Building a circuit (CircuitBuilder) and layering it (Circuit::layers())
// cost several times what garbling it does, and every session of a model
// garbles the same circuits with fresh randomness.  The cache keeps each
// circuit's layering (CircuitLayers: levels, flattened gate records,
// watermarks and the input/output interface — not the gate list) keyed by
// the canonical encoding of its full spec: every field of the spec, the
// fixed-point format and, for LayerNorm, every gamma/beta value.  Keys are
// never addresses or block indices, so two blocks or two models whose
// LayerNorm parameters differ never share a circuit.
//
// Every cached circuit is a template replicated over independent copies:
// one value of an element-wise activation (per t, frac_shift, activation
// and format), one softmax row, or one LayerNorm row.  Rows are
// independent — the max, sum and mean couple values only within a row — so
// a whole layer (every head's rows for softmax) is one ReplicatedCircuit,
// and circuit memory and first-use cost scale with the template, not the
// value or row count.
//
// Thread safety: lookups may race from any number of threads.  The first
// caller of a key builds and layers the circuit outside the cache lock;
// concurrent callers of the same key wait for it.  A circuit is published
// only once fully layered, so readers never see a half-built layering.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "gc/circuit.h"
#include "gc/fixed_circuits.h"

namespace primer {

class ByteWriter;

class CircuitCache {
 public:
  // make_activation_circuit(spec) in replicated form: the count = 1
  // template, spec.count copies, inputs in three segments.
  ReplicatedCircuit activation(const ActivationCircuitSpec& spec);
  // The one-row make_softmax_circuit(spec) as a template of `rows` copies,
  // inputs in three segments (garbler scores, evaluator scores, masks).
  ReplicatedCircuit softmax(const SoftmaxCircuitSpec& spec, std::size_t rows);
  // The one-row make_layernorm_circuit(spec) as a template of `rows`
  // copies, inputs in its five segments (garbler acc, garbler residual,
  // evaluator acc, evaluator residual, masks).
  ReplicatedCircuit layernorm(const LayerNormCircuitSpec& spec,
                              std::size_t rows);

 private:
  using Layers = std::shared_ptr<const CircuitLayers>;
  // `spec` is the canonical encoding of the circuit's full spec.
  Layers get(const ByteWriter& spec, const std::function<Circuit()>& build);

  std::mutex mu_;
  std::map<std::string, std::shared_future<Layers>> entries_;
};

}  // namespace primer
