// Deterministic, seeded fault injection for the framed transport.
//
// The injector sits between FramedChannel::send and the underlying
// Channel: every outgoing frame is subjected to independent probability
// rolls for drop / reorder / duplicate / truncate / bit-flip, plus an
// additive delivery delay.  All randomness comes from one seeded Rng, so
// any failure a soak run finds is replayable from its seed alone.
//
// Configuration is programmatic (FaultSpec) or environment-driven:
//
//   PRIMER_FAULT_SEED      u64 seed (default 1)
//   PRIMER_FAULT_DROP      P(frame silently dropped)
//   PRIMER_FAULT_DUP       P(frame delivered twice)
//   PRIMER_FAULT_REORDER   P(frame held back past the next same-direction send)
//   PRIMER_FAULT_TRUNCATE  P(frame cut short at a random byte)
//   PRIMER_FAULT_BITFLIP   P(one random bit flipped)
//   PRIMER_FAULT_DELAY     P(extra delivery delay charged)
//   PRIMER_FAULT_DELAY_S   seconds of extra delay when the delay roll hits
//
// Two deterministic (non-probabilistic) triggers model peer death and
// peer hangs at an exact, replayable point in the protocol:
//
//   PRIMER_FAULT_KILL_AFTER   kill the sending process at the Nth wire
//                             frame (1-based; 0 disables)
//   PRIMER_FAULT_KILL_MODE    "throw" (default) surfaces the kill as a
//                             retryable kPeerKilled inside the process;
//                             "sigkill" raises SIGKILL instead — REAL
//                             process death at a deterministic frame, for
//                             crash-consistency tests against the durable
//                             store (tools/crash_soak.py)
//   PRIMER_FAULT_STALL_AFTER  stall delivery of the Nth wire frame
//   PRIMER_FAULT_STALL_S      seconds the stall lasts (simulated time)
//   PRIMER_FAULT_STALL_WALL_S real wall-clock seconds the stall also burns
//                             (for exercising wall-time watchdogs/eviction)
//   PRIMER_FAULT_HOSTILE_AFTER  at the Nth wire frame, flip a payload bit
//                             and reseal the CRC: the frame arrives
//                             checksum-valid but structurally hostile, so
//                             the receiver's validator must reject it as a
//                             *fatal* kMalformed (models a malicious peer,
//                             not a lossy wire)
//
// All knob parsing goes through common/env.h: malformed values throw,
// out-of-range values clamp — a typo'd knob can never silently configure a
// different experiment than the one asked for.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace primer {

// How an injected kill manifests: an in-process retryable throw (the
// simulation the retry loops recover from), or genuine SIGKILL (nothing
// recovers; only fsync'd durable state survives into the next process).
enum class FaultKillMode { kThrow, kSigkill };

struct FaultSpec {
  std::uint64_t seed = 1;
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double truncate = 0.0;
  double bitflip = 0.0;
  double delay = 0.0;
  double delay_s = 0.01;
  std::uint64_t kill_after = 0;   // kill at the Nth wire frame (0 = off)
  FaultKillMode kill_mode = FaultKillMode::kThrow;
  std::uint64_t stall_after = 0;  // stall the Nth wire frame (0 = off)
  double stall_s = 30.0;          // stall duration (simulated seconds)
  double stall_wall_s = 0.0;      // stall duration (real wall seconds)
  std::uint64_t hostile_after = 0;  // reseal-corrupt the Nth frame (0 = off)

  // Probabilistic per-frame faults (the corruption path).
  bool any_random() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || truncate > 0 ||
           bitflip > 0 || delay > 0;
  }

  bool any() const {
    return any_random() || kill_after > 0 || stall_after > 0 ||
           hostile_after > 0;
  }

  // Clears the deterministic one-shot triggers.  They model a crash (or
  // stall, or hostile frame) of one attempt; a restarted attempt must not
  // trip over the same trigger again.
  void disarm_one_shot() {
    kill_after = 0;
    stall_after = 0;
    hostile_after = 0;
  }

  // Reads PRIMER_FAULT_* from the environment; unset knobs keep defaults.
  static FaultSpec from_env();
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec)
      : spec_(spec), rng_(spec.seed) {}

  // What apply() decided to do with one outgoing frame.
  struct Outcome {
    // Frames to put on the wire now (possibly mutated copies; empty on drop
    // or hold).  Two entries on duplication.
    std::vector<std::vector<std::uint8_t>> deliver;
    // Frame held back for reordering; the caller releases it after its next
    // send in the same direction.
    std::vector<std::uint8_t> held;
    bool has_held = false;
    double extra_delay_s = 0.0;
  };

  // Rolls the configured faults against `frame`.  `allow_hold` is false for
  // retransmissions, where reordering again would defeat recovery.
  Outcome apply(const std::vector<std::uint8_t>& frame, bool allow_hold);

  // Deterministic liveness triggers, evaluated once per frame that reaches
  // the wire (retransmissions included — a real crash does not care which
  // copy of a frame the process was sending).
  struct WireEvent {
    std::uint64_t frame_index = 0;  // 1-based wire frame counter
    bool kill = false;              // caller must abandon the process
    double stall_s = 0.0;           // extra delivery delay to charge
    double stall_wall_s = 0.0;      // real wall seconds to burn in transmit
    bool hostile = false;           // mutate payload + reseal CRC
  };
  WireEvent on_wire_frame();

  std::uint64_t wire_frames() const { return wire_frames_; }

  struct Counters {
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t truncated = 0;
    std::uint64_t bitflipped = 0;
    std::uint64_t delayed = 0;
    std::uint64_t killed = 0;
    std::uint64_t stalled = 0;
    std::uint64_t hostile = 0;
    std::uint64_t total() const {
      return dropped + duplicated + reordered + truncated + bitflipped +
             delayed + killed + stalled + hostile;
    }
  };
  const Counters& counters() const { return counters_; }

  const FaultSpec& spec() const { return spec_; }

 private:
  bool roll(double p);

  FaultSpec spec_;
  Rng rng_;
  Counters counters_;
  std::uint64_t wire_frames_ = 0;
};

}  // namespace primer
