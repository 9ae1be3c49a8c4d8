// ProtocolContext: everything a live two-party Primer execution needs —
// the HE stack (client-owned keys), the simulated channel, the share ring,
// per-step cost accounting, and the GC stage wrapper.
//
// Both parties run in-process; "client" state and "server" state are kept
// in separate members and only exchanged through the Channel so the traffic
// accounting matches a genuine deployment.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/timing.h"
#include "gc/fixed_circuits.h"
#include "gc/protocol.h"
#include "he/encoder.h"
#include "he/he.h"
#include "net/channel.h"
#include "net/framed_channel.h"
#include "net/session.h"
#include "proto/packing.h"
#include "ss/secret_share.h"

namespace primer {

struct PrimerRunResult;

// Configuration of one protocol session: the transport's fault and
// retry knobs plus the resilience layer (checkpoint store, deadlines,
// cooperative cancellation).  A null store disables checkpointing, the
// resume handshake and journaling — the pre-session behavior.
struct SessionOptions {
  SessionStore* store = nullptr;
  std::uint64_t session_id = 1;
  FaultSpec faults;
  RetryPolicy retry;
  // Per-phase budget in simulated-network + wall seconds (0 disables);
  // checked at frame and step granularity.  PRIMER_PHASE_DEADLINE_S.
  double phase_deadline_s = 0.0;
  // Optional watchdog-armed token folded into the same deadline checks.
  const CancelToken* cancel = nullptr;
  // Optional liveness heartbeat beaten at step/checkpoint granularity; the
  // serving runtime's eviction policy reads it from observer threads.
  SessionProgress* progress = nullptr;
  // Optional drain flag: when it flips true, the run stops at the *next*
  // checkpoint boundary — the checkpoint is persisted first, then
  // SessionDrained is thrown, so a later request resumes exactly there.
  // Only honored when a store is attached (without one there is nothing to
  // resume from, so the run is allowed to finish).
  const std::atomic<bool>* drain = nullptr;
  // Restart policy of PrimerEngine::run: retryable failures (transport
  // faults, deadlines, cancellation) are re-attempted up to this many times,
  // resuming from the store's last common checkpoint.  0 = one attempt.
  int max_restarts = 0;
  // Optional caller-owned sink for the telemetry of the most recent failed
  // attempt (costs accrued before the fault, smallest noise margin seen).
  PrimerRunResult* partial = nullptr;

  // Faults and retry from PRIMER_FAULT_* / PRIMER_RETRY_*, deadline from
  // PRIMER_PHASE_DEADLINE_S; no store or cancellation.  Malformed values
  // throw std::invalid_argument, out-of-range values clamp (common/env.h).
  static SessionOptions from_env();
};

class ProtocolContext {
 public:
  ProtocolContext(HeProfile profile, std::uint64_t seed,
                  std::vector<int> rotation_steps,
                  SessionOptions options = SessionOptions::from_env());
  ~ProtocolContext();
  ProtocolContext(const ProtocolContext&) = delete;
  ProtocolContext& operator=(const ProtocolContext&) = delete;

  HeContext he;
  BatchEncoder encoder;
  Rng client_rng;
  Rng server_rng;
  KeyGenerator keygen;      // client-owned secret key
  Encryptor enc;            // client symmetric encryptor
  Decryptor dec;            // client decryptor
  Evaluator eval;
  // The client's switching keys in the seeded form transfer_keys ships:
  // Galois keys for the constructor's rotation steps plus every step
  // ensure_rotation_steps adds, and the relinearization key.
  SeededGaloisKeys client_gk;
  SeededRelinKey client_rk;
  // Evaluation keys.  The constructor expands its own keys here, so a
  // fresh context can evaluate at once; transfer_keys replaces them with
  // the server's copies of every client key, expanded from the wire.
  GaloisKeys gk;
  RelinKey rk;
  Channel channel;
  SessionOptions session;
  // Deterministic per-phase deadline polled by the framed channel (every
  // frame) and step() (every protocol step).
  SimDeadline deadline;
  // All protocol traffic (HE, shares, GC, OT) flows through this one framed
  // wrapper: a single pair of per-direction sequence spaces, fault
  // injection and retry policy from SessionOptions.
  FramedChannel framed;
  ShareRing ring;
  CostAccumulator costs;
  FixedPointFormat fmt;

  std::uint64_t t() const { return he.t(); }
  std::size_t share_bits() const { return share_width(he.t()); }

  // Adds client Galois keys for any of `steps` not yet present.  Protocol
  // objects call this from their constructors with the BSGS step sets
  // their packed matmuls and rotate-sums need, so key material always
  // matches the rotation schedule regardless of what the engine seeded.
  // The new keys reach gk with the next transfer_keys — the client never
  // builds evaluation tables for them.
  void ensure_rotation_steps(const std::vector<int>& steps);

  // Runs `fn`, charging its wall-clock time plus the channel traffic it
  // generated to costs[phase][step].  Polls the phase deadline on entry.
  void step(const std::string& phase, const std::string& step_name,
            const std::function<void()>& fn);

  // --- session resilience -------------------------------------------------

  // Runs the resume handshake when a SessionStore is attached: client and
  // server exchange kSessionHello / kSessionResume, agree on the highest
  // checkpoint epoch whose digests match on both sides, and the framed
  // channel restarts its sequence spaces with the agreed replay plan
  // installed.  Without a store this is a no-op (no handshake traffic).
  void start_session();

  // Persists a checkpoint at a phase boundary: both parties snapshot the
  // send watermarks, CRC journal, and received-frame inventory under the
  // next epoch.  `completed` labels the phase that just finished; the
  // deadline budget restarts for the following segment.  No-op without a
  // store (the deadline still restarts).
  void checkpoint(const std::string& completed);

  // Ships the client's switching keys (Galois + relinearization) through
  // the accounted channel — one kKeyMaterial frame per key, each digit as
  // packed b plus the seed of a — and replaces gk/rk with the server's
  // expansion of what arrived, so the server evaluates with keys that
  // genuinely crossed the (fault-injected) transport.  Only the receiver
  // expands a and builds the quotient tables.
  // Charged to costs[phase]["key_transfer"].
  void transfer_keys(const std::string& phase = "offline");

  // Fingerprint of the negotiated parameters (profile moduli, plaintext
  // modulus, degree, seed) — must match for a resume to be accepted.
  std::uint64_t params_hash() const { return params_hash_; }
  // Epoch the current attempt resumed from (0 = fresh start).
  std::uint32_t resumed_epoch() const { return resumed_epoch_; }
  // Checkpoints taken so far in this attempt.
  std::uint32_t checkpoints_taken() const { return epoch_; }
  // Wire bytes the resume handshake cost this attempt.
  std::uint64_t handshake_bytes() const { return handshake_bytes_; }

  // Ciphertext transfer through the accounted channel (he/codec.h): fresh
  // symmetric ciphertexts ship packed c0 plus the seed of c1, every other
  // ciphertext ships all its parts packed.
  void send_cts(Party from, const std::vector<Ciphertext>& cts);
  void send_cts(Party from, const std::vector<SeededCiphertext>& cts);
  std::vector<Ciphertext> recv_cts(Party to);

  // Ring-matrix transfer (unencrypted share traffic).
  void send_ring(Party from, const MatI& m);
  MatI recv_ring(Party to, std::size_t rows, std::size_t cols);

  // Bit marshalling between ring matrices and GC input bit vectors.
  std::vector<bool> ring_bits(const MatI& m) const;
  MatI bits_to_ring(const std::vector<bool>& bits, std::size_t rows,
                    std::size_t cols) const;

 private:
  std::uint64_t params_hash_ = 0;
  std::uint32_t epoch_ = 0;          // checkpoints taken this attempt
  std::uint32_t resumed_epoch_ = 0;  // agreed at the handshake
  std::uint64_t handshake_bytes_ = 0;
};

// One garbled-circuit protocol stage with offline/online cost attribution:
// one whole nonlinear layer (every value, or every row of a softmax or
// LayerNorm), so one base-OT setup and one online exchange per layer.
// The circuit is borrowed: a ReplicatedCircuit shares ownership of an
// immutable, already-layered template (usually from the model's
// CircuitCache), so a stage never builds, layers or copies a circuit.
class GcStage {
 public:
  GcStage(ProtocolContext& pc, ReplicatedCircuit circuit, RevealTo reveal)
      : pc_(pc), session_(pc.framed, pc.server_rng),
        circuit_(std::move(circuit)), reveal_(reveal) {}

  // Garble + transmit tables; charge to costs[phase][step_name].
  void offline(const std::string& phase, const std::string& step_name) {
    const GcStats before = session_.stats();
    pc_.step(phase, step_name, [&] { session_.offline(circuit_, reveal_); });
    charge(phase, step_name, before);
  }

  std::vector<bool> online(const std::string& phase,
                           const std::string& step_name,
                           const std::vector<bool>& garbler_bits,
                           const std::vector<bool>& evaluator_bits) {
    const GcStats before = session_.stats();
    std::vector<bool> out;
    pc_.step(phase, step_name,
             [&] { out = session_.online(garbler_bits, evaluator_bits); });
    charge(phase, step_name, before);
    return out;
  }

  const GcStats& stats() const { return session_.stats(); }

 private:
  // Charges the session-stat delta of one offline/online call into the
  // step's PhaseCost, so GC work (AND gates, garble/eval seconds) is visible
  // per-step next to the HE op counters.
  void charge(const std::string& phase, const std::string& step_name,
              const GcStats& before) {
    const GcStats& after = session_.stats();
    PhaseCost& cost = pc_.costs.at(phase, step_name);
    cost.gc_and_gates += after.and_gates - before.and_gates;
    cost.gc_garble_seconds += after.garble_seconds - before.garble_seconds;
    cost.gc_eval_seconds += after.eval_seconds - before.eval_seconds;
  }

  ProtocolContext& pc_;
  GcSession session_;
  ReplicatedCircuit circuit_;
  RevealTo reveal_;
};

}  // namespace primer
