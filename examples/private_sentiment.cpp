// Private sentiment classification (an SST-2-style workload, paper §IV).
//
// Trains a small classifier on a synthetic 3-class "sentiment" task (the
// GLUE substitution documented in DESIGN.md §2), then serves it privately:
// the client submits each review's token ids through the Primer protocol
// and only the client learns the predicted sentiment.  Demonstrates that
// the private predictions agree with the plaintext model — Primer's
// accuracy-preservation claim.
#include <cstdio>

#include "core/primer_api.h"

using namespace primer;

int main() {
  Rng rng(99);
  std::printf("Training sentiment classifier on synthetic data...\n");
  auto weights = BertWeightsD::random(bert_nano(), rng);
  const auto report =
      train_and_evaluate(weights, /*train=*/200, /*test=*/100, /*epochs=*/20,
                         rng);
  std::printf("  plaintext float accuracy : %.1f%%\n",
              100 * report.float_accuracy);
  std::printf("  fixed-point accuracy     : %.1f%%  (Primer arithmetic)\n",
              100 * report.fixed_accuracy);
  std::printf("  THE-X approx accuracy    : %.1f%%  (polynomial baseline)\n\n",
              100 * report.thex_accuracy);

  // Serve the trained model privately.
  auto q = quantize(weights);
  // CHGS requires zero Q/K biases (true for this model by construction).
  PrivateInferenceSession session(q, PrimerVariant::kFP);
  const FixedBert plain(q);

  const char* sentiment[] = {"negative", "neutral", "positive"};
  std::printf("Serving 3 reviews privately (Primer-FP):\n");
  Rng input_rng(7);
  for (int i = 0; i < 3; ++i) {
    std::vector<std::size_t> tokens(bert_nano().tokens);
    for (auto& t : tokens) t = input_rng.uniform(bert_nano().vocab);
    auto result = session.infer(tokens);
    std::printf(
        "  review %d -> %s  (online %.2f s, %.1f MB total; plaintext model "
        "agrees: %s)\n",
        i + 1, sentiment[result.predicted % 3],
        result.costs.phase_total("online").total_seconds(),
        static_cast<double>(result.total_bytes) / 1e6,
        plain.predict(tokens) == result.predicted ? "yes" : "NO");
  }
  std::printf("\nThe server never saw the token ids; the client never saw "
              "the weights.\n");
  return 0;
}
