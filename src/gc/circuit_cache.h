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
// Element-wise activation circuits are `count` identical per-value copies;
// the cache holds one count = 1 template per (t, frac_shift, activation,
// format) and hands out the replicated form for any count, so circuit
// memory and first-use cost scale with the template, not the value count.
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
  // make_softmax_circuit(spec) / make_layernorm_circuit(spec), one copy.
  ReplicatedCircuit softmax(const SoftmaxCircuitSpec& spec);
  ReplicatedCircuit layernorm(const LayerNormCircuitSpec& spec);

 private:
  using Layers = std::shared_ptr<const CircuitLayers>;
  // `spec` is the canonical encoding of the circuit's full spec.
  Layers get(const ByteWriter& spec, const std::function<Circuit()>& build);

  std::mutex mu_;
  std::map<std::string, std::shared_future<Layers>> entries_;
};

}  // namespace primer
