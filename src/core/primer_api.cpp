#include "core/primer_api.h"

#include <map>
#include <sstream>

namespace primer {

std::string report(const PrimerRunResult& run) {
  const PhaseCost off = run.costs.phase_total("offline");
  const PhaseCost on = run.costs.phase_total("online");
  std::ostringstream os;
  os << "prediction: class " << run.predicted << "\n";
  os << "logits:";
  for (const auto v : run.logits) os << " " << fp_decode(v);
  os << "\n";
  os << "offline: " << off.compute_seconds << " s compute + "
     << off.network_seconds << " s network\n";
  os << "online : " << on.compute_seconds << " s compute + "
     << on.network_seconds << " s network\n";
  os << "traffic: " << static_cast<double>(run.total_bytes) / 1e6 << " MB, "
     << run.rounds << " message flights\n";
  // One row per step the run charged, in either phase.
  std::map<std::string, std::pair<double, double>> steps;
  for (const auto& [phase, costs] : run.costs.all()) {
    for (const auto& [step, cost] : costs) {
      auto& row = steps[step];
      (phase == "offline" ? row.first : row.second) += cost.total_seconds();
    }
  }
  os << "per-step (offline_s / online_s):\n";
  for (const auto& [step, row] : steps) {
    os << "  " << step << ": " << row.first << " / " << row.second << "\n";
  }
  return os.str();
}

PrivateInferenceSession::PrivateInferenceSession(BertWeightsI weights,
                                                 PrimerVariant variant,
                                                 HeProfile profile,
                                                 std::uint64_t seed)
    : engine_(std::move(weights), variant, profile, seed) {}

PrivateInferenceSession PrivateInferenceSession::create_random_model(
    const BertConfig& config, PrimerVariant variant, Rng& rng) {
  return PrivateInferenceSession(quantize(BertWeightsD::random(config, rng)),
                                 variant);
}

PrimerRunResult PrivateInferenceSession::infer(
    const std::vector<std::size_t>& tokens, SessionOptions options) {
  return engine_.run(tokens, std::move(options));
}

PrimerRunResult ServerHandle::infer(std::vector<std::size_t> tokens,
                                    std::size_t model) {
  InferenceRequest req;
  req.client_id = client_id_;
  req.model = model;
  req.tokens = std::move(tokens);
  SessionOutcome out = server_->infer(std::move(req));
  if (out.status != SessionStatus::kCompleted) {
    throw std::runtime_error("ServerHandle::infer: session resolved to '" +
                             std::string(session_status_name(out.status)) +
                             "': " + out.error);
  }
  return std::move(out.result);
}

std::vector<std::int64_t> PrivateInferenceSession::reference_logits(
    const std::vector<std::size_t>& tokens) const {
  if (engine_.variant() == PrimerVariant::kFPC) {
    return fixed_forward_chgs(engine_.weights(), tokens);
  }
  return FixedBert(engine_.weights()).forward(tokens);
}

}  // namespace primer
