// PrimerEngine: live end-to-end private BERT inference between two
// simulated parties, in the paper's four ablation configurations:
//
//   kBase : Primer-base — hybrid HE+GC+SS, everything online (Table II r.1)
//   kF    : + HGS/FHGS offline offload (Table II row 2)
//   kFP   : + tokens-first packing (row 3)
//   kFPC  : + combined FHGS (CHGS) merging Embed/QKV/QxK (row 4)
//
// The engine runs real RLWE HE and real half-gates garbling over the
// byte-accounted channel, and reports per-step offline/online costs with the
// same step names as Table II (embed, qkv, qk, softmax, attnv, others) plus
// key_transfer, the evaluation-key upload.
//
// Protocol state between steps is the HGS invariant: for every activation X,
// the server holds D = X - R and the client holds the mask R (additive
// shares of X over Z_t).
//
// The garbled circuits are model-scoped: the engine owns one CircuitCache,
// and the first session that needs a circuit builds and layers it; every
// later session (of this engine, or of any PrimerServer worker hosting the
// model) garbles the same immutable layering with fresh randomness.  Every
// nonlinear layer of a block (QKV and AttnV truncation, softmax, LN1, LN2,
// GELU) is one GC stage over a replicated template: one value per copy for
// the element-wise layers, one row per copy for softmax (every head's rows)
// and LayerNorm.
#pragma once

#include <memory>
#include <vector>

#include "gc/circuit_cache.h"
#include "nn/model.h"
#include "proto/attention.h"
#include "proto/linear.h"
#include "proto/runtime.h"

namespace primer {

enum class PrimerVariant { kBase, kF, kFP, kFPC };

const char* variant_name(PrimerVariant v);

// One run's record.  `costs` is the only rollup of time and step counters:
// phase totals are costs.phase_total("offline" / "online"), run totals
// (GC garble/eval seconds included) are costs.total().  The flat fields are
// what the wire, the framing layer and the resume machinery report.
// Durable-storage counters are not copied here: read them from the
// SessionStore the caller attached (telemetry(), blob_bytes()).
struct PrimerRunResult {
  std::vector<std::int64_t> logits;  // raw fixed point, revealed to client
  std::size_t predicted = 0;
  std::uint64_t total_bytes = 0;     // every byte on the wire
  std::uint64_t rounds = 0;          // message flights
  std::uint64_t gc_and_gates = 0;    // AND gates garbled, all GC stages
  // Transport robustness telemetry: frames resent by the retry layer (plus
  // their bytes, charged to total_bytes already) and the smallest estimated
  // noise budget any decryption ran with (+inf if nothing was decrypted).
  std::uint64_t retransmits = 0;
  std::uint64_t retransmit_bytes = 0;
  double min_noise_margin_bits = 0;
  // Session-resilience telemetry: restarts survived before this result was
  // produced, the checkpoint epoch the final attempt resumed from (0 =
  // fresh), frames/bytes satisfied by zero-cost checkpoint replay instead of
  // the wire, resume-handshake traffic, checkpoints persisted, total frames
  // sent by the final attempt, and wire bytes burned by failed attempts.
  int restarts = 0;
  std::uint32_t resumed_epoch = 0;
  std::uint64_t replayed_frames = 0;
  std::uint64_t replayed_bytes = 0;
  std::uint64_t handshake_bytes = 0;
  std::uint32_t checkpoints = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t prior_attempt_bytes = 0;
  CostAccumulator costs;  // per step breakdown (Table II columns)
};

class PrimerEngine {
 public:
  // Weights must use power-of-two tokens/d_model/head_dim (nano/micro
  // configs); kProto2048 is the intended live profile.
  PrimerEngine(BertWeightsI weights, PrimerVariant variant,
               HeProfile profile = HeProfile::kProto2048,
               std::uint64_t seed = 7);

  // One private inference (offline + online, separately accounted) under
  // `options`: store, faults, deadline, cancel token, progress heartbeat,
  // drain flag and restart policy.  With options.max_restarts > 0, a
  // retryable failure (peer kill, deadline, retries exhausted, cancellation)
  // is re-attempted — resuming from the store's last common checkpoint via
  // the kSessionHello/kSessionResume handshake, with the checkpoint-covered
  // frame prefix replayed at zero wire cost — and injected one-shot faults
  // fire only on the first attempt; the result is bit-identical to an
  // unfaulted run.  Fatal errors and failures beyond max_restarts rethrow,
  // SessionDrained always does.  Each failed attempt's telemetry lands in
  // *options.partial when set.  The engine keeps no per-run state, so one
  // engine serves concurrent runs (the serving runtime relies on this).
  PrimerRunResult run(const std::vector<std::size_t>& tokens,
                      SessionOptions options = SessionOptions::from_env()) const;

  const BertWeightsI& weights() const { return w_; }
  PrimerVariant variant() const { return variant_; }
  HeProfile profile() const { return profile_; }
  std::uint64_t seed() const { return seed_; }

 private:
  // One protocol attempt.  On failure, stores the partial telemetry into
  // `partial_out` and rethrows.
  PrimerRunResult run_session(const std::vector<std::size_t>& tokens,
                              const SessionOptions& options,
                              PrimerRunResult& partial_out) const;
  // The protocol body proper, over an already-constructed context.
  PrimerRunResult run_protocol(const std::vector<std::size_t>& tokens,
                               ProtocolContext& pc) const;

  PackingStrategy linear_packing() const {
    return (variant_ == PrimerVariant::kBase || variant_ == PrimerVariant::kF)
               ? PackingStrategy::kFeatureBased
               : PackingStrategy::kTokensFirst;
  }
  bool offline_offload() const { return variant_ != PrimerVariant::kBase; }
  bool merged_qk() const { return variant_ == PrimerVariant::kFPC; }

  BertWeightsI w_;
  PrimerVariant variant_;
  HeProfile profile_;
  std::uint64_t seed_;
  std::unique_ptr<CircuitCache> circuits_;
};

// Reference logits for the kFPC variant, whose merged Q*K^T skips the
// intermediate Q/K truncations (higher precision, slightly different
// rounding than FixedBert).  Tests compare the live kFPC run against this.
std::vector<std::int64_t> fixed_forward_chgs(const BertWeightsI& w,
                                             const std::vector<std::size_t>& tokens);

}  // namespace primer
