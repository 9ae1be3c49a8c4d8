// Internal interface between the garble/eval drivers (garble.cpp) and the
// AND-gate span kernel tiers.  A span kernel processes AND gates
// ands[lo..hi) of one dependency level of one circuit copy; table rows and
// hash tweaks are addressed by each gate's global AND ordinal and every
// gate writes
// disjoint state, so spans of a level run concurrently and every tier is
// bit-identical to the scalar reference.
//
// Two tiers exist:
//   sse  (garble.cpp)      — fused 128-bit AES-NI kernels, baseline ISA.
//   vaes (garble_vaes.cpp) — 512-bit VAES kernels, four AES blocks per
//                            instruction; compiled only when the toolchain
//                            has -mvaes/-mavx512f/-mavx512dq and selected
//                            only when cpuid reports the features.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gc/garble.h"

namespace primer {

// `quads` points at n consecutive (a, b, out, ordinal) records from
// CircuitLevel::and_quads (a/b/out are label byte offsets); `w0` / `w` are
// wire-label arrays (with the extra delta slot at num_wires).  Each gate's
// global AND ordinal is its record's ordinal plus `ordinal_base` — the
// first ordinal of the copy being run (ReplicatedCircuit: copy c of a
// template with A AND gates has base c*A; plain circuits pass 0) — and
// fixes its tweaks 2*ordinal+1, +2 and its table rows 2*ordinal, +1.
using GarbleSpanFn = void (*)(const FixedKeyAes& aes,
                              const std::uint32_t* quads, std::size_t n,
                              std::uint32_t ordinal_base, Label delta,
                              Label* w0, Label* rows);
using EvalSpanFn = void (*)(const FixedKeyAes& aes, const std::uint32_t* quads,
                            std::size_t n, std::uint32_t ordinal_base,
                            const Label* rows, Label* w);

// VAES tier accessors: nullptr when the TU was compiled without VAES
// support (dispatch then stays on the sse tier).  Callers must still gate
// on runtime cpuid — see gc_kernel_name() in garble.cpp.
GarbleSpanFn vaes_garble_span();
EvalSpanFn vaes_eval_span();

// Name of the AND-kernel tier the dispatcher selected ("vaes" or "sse"),
// after the PRIMER_GC_KERNEL override (values: "vaes", "sse").
const char* gc_kernel_name();

}  // namespace primer
