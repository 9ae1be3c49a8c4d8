// Public API of the Primer library.
//
// Quickstart:
//
//   #include "core/primer_api.h"
//
//   primer::Rng rng(1);
//   auto session = primer::PrivateInferenceSession::create_random_model(
//       primer::bert_nano(), primer::PrimerVariant::kFPC, rng);
//   auto result = session.infer({3, 17, 9, 28});
//   // result.predicted, result.logits, primer::report(result).
//
// To survive crashes, checkpoint into a store and allow restarts:
//
//   primer::DurableSessionStore store("/var/lib/primer/session");
//   auto options = primer::SessionOptions::from_env();
//   options.store = &store;
//   options.max_restarts = 5;
//   auto result = session.infer({3, 17, 9, 28}, options);
//
// A session pairs a (quantized) BERT model held by the "server" with a
// client input, and runs the selected Primer protocol variant end-to-end
// with real homomorphic encryption and real garbled circuits over a
// byte-accounted simulated channel.  See DESIGN.md for the architecture.
#pragma once

#include <string>
#include <vector>

#include "nn/config.h"
#include "nn/model.h"
#include "nn/thex.h"
#include "nn/train.h"
#include "proto/cost_model.h"
#include "proto/primer.h"
#include "serving/server.h"

namespace primer {

// Human-readable latency/traffic summary of one run: prediction, decoded
// logits, phase totals and one offline/online row per step in run.costs.
std::string report(const PrimerRunResult& run);

class PrivateInferenceSession {
 public:
  PrivateInferenceSession(BertWeightsI weights, PrimerVariant variant,
                          HeProfile profile = HeProfile::kProto2048,
                          std::uint64_t seed = 7);

  // Convenience: a session around a freshly initialized random model.
  static PrivateInferenceSession create_random_model(const BertConfig& config,
                                                     PrimerVariant variant,
                                                     Rng& rng);

  // One private inference under `options` (PrimerEngine::run): set
  // options.store and options.max_restarts to checkpoint the session and
  // survive retryable transport failures bit-identically.
  PrimerRunResult infer(const std::vector<std::size_t>& tokens,
                        SessionOptions options = SessionOptions::from_env());

  // The plaintext fixed-point reference the protocol must match bit-exactly
  // (variants kBase/kF/kFP) or track closely (kFPC).
  std::vector<std::int64_t> reference_logits(
      const std::vector<std::size_t>& tokens) const;

  const BertWeightsI& weights() const { return engine_.weights(); }
  PrimerVariant variant() const { return engine_.variant(); }

 private:
  PrimerEngine engine_;
};

// Client-side handle onto a shared PrimerServer: binds a client identity to
// the server so repeat requests reuse the same cached key material and
// checkpoint history (SessionManager).  This is the multi-tenant entry
// point; PrivateInferenceSession remains the single-tenant one.
//
//   primer::PrimerServer server({{weights, primer::PrimerVariant::kFP}});
//   primer::ServerHandle alice(server, /*client_id=*/1);
//   auto result = alice.infer({3, 17, 9, 28});
//
// infer() throws ServerOverloaded (typed, retryable) when admission sheds
// the request and std::runtime_error when the session resolves to a
// non-completed outcome; PrimerServer::infer returns the typed outcome
// instead of throwing.
class ServerHandle {
 public:
  ServerHandle(PrimerServer& server, std::uint64_t client_id)
      : server_(&server), client_id_(client_id) {}

  PrimerRunResult infer(std::vector<std::size_t> tokens,
                        std::size_t model = 0);

  std::uint64_t client_id() const { return client_id_; }

 private:
  PrimerServer* server_;
  std::uint64_t client_id_;
};

}  // namespace primer
