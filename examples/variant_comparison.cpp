// Compares the four Primer protocol variants LIVE on the same input — the
// runnable version of the paper's ablation story: watch the online phase
// shrink as HGS/FHGS offloading, tokens-first packing, and CHGS merging are
// switched on.
#include <cstdio>

#include "core/primer_api.h"

using namespace primer;

int main() {
  Rng rng(5);
  const auto weights = quantize(BertWeightsD::random(bert_nano(), rng));
  const std::vector<std::size_t> tokens = {11, 4, 25, 30};
  const FixedBert plain(weights);
  const auto expect = plain.predict(tokens);

  std::printf("BERT-nano, input {11, 4, 25, 30}; plaintext prediction: "
              "class %zu\n\n", expect);
  std::printf("%-12s %11s %11s %11s %9s %8s %6s\n", "variant", "offline(s)",
              "online(s)", "total(s)", "MB", "flights", "pred");

  for (const auto v : {PrimerVariant::kBase, PrimerVariant::kF,
                       PrimerVariant::kFP, PrimerVariant::kFPC}) {
    PrimerEngine engine(weights, v);
    const auto r = engine.run(tokens);
    std::printf("%-12s %11.2f %11.2f %11.2f %9.1f %8llu %6zu\n",
                variant_name(v),
                r.costs.phase_total("offline").total_seconds(),
                r.costs.phase_total("online").total_seconds(),
                r.costs.total().total_seconds(),
                static_cast<double>(r.total_bytes) / 1e6,
                static_cast<unsigned long long>(r.rounds), r.predicted);
  }

  std::printf("\nExpected shape (paper Table II): Primer-base pays everything "
              "online;\nPrimer-F/FP/FPC move the heavy HE + garbling work "
              "offline and shrink\nonline latency by orders of magnitude.\n");
  return 0;
}
