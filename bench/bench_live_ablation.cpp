// LIVE ablation: runs the full private inference end-to-end (real HE, real
// garbled circuits, byte-accounted channel) on the nano model in all four
// variants and prints the Table-II-shaped breakdown measured, not modeled.
// Also verifies the CHGS interaction-count claim (4 -> 1 online round trips
// for the merged Embed/QKV/QxK path).
//
// Each variant runs twice on one engine: the first (cold) session builds
// and layers every garbled circuit the model needs, the second (warm)
// reuses them from the engine's circuit cache.  Both print as separate
// machine-readable `JSON {...}` rows, so the one-time per-model build cost
// shows as the cold-minus-warm difference.
#include <cstdio>
#include <string>

#include "common/timing.h"
#include "core/primer_api.h"

using namespace primer;

namespace {

void print_live_row(const char* name, const PrimerRunResult& r) {
  std::printf("%-17s", name);
  for (const char* step : {"embed", "qkv", "qk", "softmax", "attnv", "others"}) {
    const auto& all = r.costs.all();
    double off = 0, on = 0;
    if (auto it = all.find("offline"); it != all.end()) {
      if (auto jt = it->second.find(step); jt != it->second.end()) {
        off = jt->second.total_seconds();
      }
    }
    if (auto it = all.find("online"); it != all.end()) {
      if (auto jt = it->second.find(step); jt != it->second.end()) {
        on = jt->second.total_seconds();
      }
    }
    std::printf(" %6.2f/%-6.2f", off, on);
  }
  std::printf(" | total %6.2f/%-6.2f  %6.1f MB  cpu %5.2f/%-5.2f\n",
              r.offline_total_s(), r.online_total_s(),
              static_cast<double>(r.total_bytes) / 1e6, r.offline_cpu_s,
              r.online_cpu_s);
}

void print_json_row(const char* variant, const char* session, double wall_s,
                    const PrimerRunResult& r) {
  std::printf(
      "JSON {\"bench\":\"live_ablation\",\"variant\":\"%s\","
      "\"session\":\"%s\",\"wall_s\":%.6f,\"offline_s\":%.6f,"
      "\"online_s\":%.6f,\"offline_cpu_s\":%.6f,\"gc_garble_s\":%.6f,"
      "\"gc_eval_s\":%.6f,\"total_mb\":%.3f}\n",
      variant, session, wall_s, r.offline_total_s(), r.online_total_s(),
      r.offline_cpu_s, r.gc_garble_s, r.gc_eval_s,
      static_cast<double>(r.total_bytes) / 1e6);
}

}  // namespace

int main() {
  Rng rng(2026);
  const auto weights = quantize(BertWeightsD::random(bert_nano(), rng));
  const std::vector<std::size_t> tokens = {3, 17, 9, 28};
  const FixedBert ref(weights);
  const auto ref_logits = ref.forward(tokens);

  std::printf(
      "=== LIVE ablation, BERT-nano (1 block, d=16, H=2, n=4, vocab=32) "
      "===\n");
  std::printf("(offline_s/online_s per step; real HE + real garbling)\n");
  std::printf("%-17s %13s %13s %13s %13s %13s %13s\n", "Variant", "embed",
              "qkv", "qk", "softmax", "attnv", "others");

  const PrimerVariant variants[] = {PrimerVariant::kBase, PrimerVariant::kF,
                                    PrimerVariant::kFP, PrimerVariant::kFPC};
  PrimerRunResult results[4];
  for (int i = 0; i < 4; ++i) {
    PrimerEngine engine(weights, variants[i]);
    const char* name = variant_name(variants[i]);
    for (const char* session : {"cold", "warm"}) {
      Stopwatch sw;
      results[i] = engine.run(tokens);
      const double wall_s = sw.seconds();
      const std::string label = std::string(name) + " " + session;
      print_live_row(label.c_str(), results[i]);
      print_json_row(name, session, wall_s, results[i]);
    }
  }

  // Correctness: all variants must decode to the reference prediction.
  std::printf("\nCorrectness vs fixed-point plaintext model:\n");
  for (int i = 0; i < 4; ++i) {
    const bool exact = results[i].logits == ref_logits ||
                       variants[i] == PrimerVariant::kFPC;
    std::printf("  %-12s logits %s, prediction class %zu\n",
                variant_name(variants[i]),
                results[i].logits == ref_logits ? "EXACT match"
                : exact ? "match (CHGS precision)" : "MISMATCH",
                results[i].predicted);
  }

  // Online round-trip (interaction) comparison — the CHGS claim.
  std::printf("\nOnline message flights (lower = fewer interactions):\n");
  for (int i = 0; i < 4; ++i) {
    const PhaseCost on = results[i].costs.phase_total("online");
    std::printf("  %-12s %6llu flights, %8.2f MB online\n",
                variant_name(variants[i]),
                static_cast<unsigned long long>(on.rounds),
                static_cast<double>(on.bytes_sent) / 1e6);
  }
  return 0;
}
