#include "gc/circuit_cache.h"

#include "common/serialize.h"

namespace primer {

namespace {

enum class CircuitKind : std::uint8_t { kActivation, kSoftmax, kLayerNorm };

ByteWriter key_header(CircuitKind kind, std::uint64_t t, std::size_t width,
                      std::size_t frac_shift, const FixedPointFormat& fmt) {
  ByteWriter w;
  w.reserve(64);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(t);
  w.u64(width);
  w.u64(frac_shift);
  w.i64(fmt.total_bits);
  w.i64(fmt.frac_bits);
  return w;
}

}  // namespace

ReplicatedCircuit CircuitCache::activation(const ActivationCircuitSpec& spec) {
  ActivationCircuitSpec one = spec;
  one.count = 1;
  ByteWriter key = key_header(CircuitKind::kActivation, one.t, one.count,
                              one.frac_shift, one.fmt);
  key.u8(static_cast<std::uint8_t>(one.act));
  // Template inputs: [garbler share | evaluator share | mask], one value.
  return ReplicatedCircuit(
      get(key, [&] { return make_activation_circuit(one); }),
      spec.count, 3);
}

ReplicatedCircuit CircuitCache::softmax(const SoftmaxCircuitSpec& spec) {
  ByteWriter key = key_header(CircuitKind::kSoftmax, spec.t, spec.count,
                              spec.frac_shift, spec.fmt);
  key.i64(spec.exp_segments_log2);
  return ReplicatedCircuit(
      get(key, [&] { return make_softmax_circuit(spec); }), 1, 1);
}

ReplicatedCircuit CircuitCache::layernorm(const LayerNormCircuitSpec& spec) {
  ByteWriter key = key_header(CircuitKind::kLayerNorm, spec.t, spec.d,
                              spec.frac_shift, spec.fmt);
  key.vec_i64(spec.gamma);
  key.vec_i64(spec.beta);
  return ReplicatedCircuit(
      get(key, [&] { return make_layernorm_circuit(spec); }), 1, 1);
}

CircuitCache::Layers CircuitCache::get(
    const ByteWriter& spec, const std::function<Circuit()>& build) {
  const std::string key(reinterpret_cast<const char*>(spec.data().data()),
                        spec.size());
  std::promise<Layers> fill;
  std::shared_future<Layers> entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      entry = fill.get_future().share();
      entries_.emplace(key, entry);
      owner = true;
    } else {
      entry = it->second;
    }
  }
  if (owner) {
    try {
      // layered() finishes the layering before the value is published; the
      // gate list dies with the temporary Circuit.
      fill.set_value(build().layered());
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        entries_.erase(key);  // a later lookup retries the build
      }
      fill.set_exception(std::current_exception());
    }
  }
  return entry.get();
}

}  // namespace primer
