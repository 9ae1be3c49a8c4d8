// Quickstart: one private inference end-to-end.
//
// A "server" holds a BERT-nano model; a "client" holds a token sequence.
// PrivateInferenceSession runs the Primer-FPC protocol between the two
// simulated parties — real RLWE homomorphic encryption for the linear
// algebra, real half-gates garbled circuits for SoftMax/GELU/LayerNorm —
// and neither party sees the other's data.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "core/primer_api.h"

int main() {
  primer::Rng rng(1);

  std::printf("Creating a random BERT-nano model (server side)...\n");
  auto session = primer::PrivateInferenceSession::create_random_model(
      primer::bert_nano(), primer::PrimerVariant::kFPC, rng);

  const std::vector<std::size_t> tokens = {3, 17, 9, 28};
  std::printf("Client input tokens: 3 17 9 28 (never revealed to server)\n");
  std::printf("Running private inference (offline + online phases)...\n\n");

  auto result = session.infer(tokens);
  std::printf("%s\n", primer::report(result).c_str());

  // The protocol is verifiable: the decrypted logits must match the
  // plaintext fixed-point reference computation.
  const auto expect = session.reference_logits(tokens);
  std::printf("reference check: %s\n",
              result.logits == expect ? "logits match the plaintext model"
                                      : "MISMATCH (bug!)");
  return 0;
}
