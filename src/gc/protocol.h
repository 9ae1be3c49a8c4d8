// Two-party garbled-circuit execution over a Channel, with the offline /
// online split the paper exploits ("the offline phase, e.g. garbling, of GC
// is performed [offline]").
//
// Convention: the SERVER is the garbler, the CLIENT is the evaluator
// (matching Gazelle/Delphi and the paper's Fig. 4, where the server holds
// the model and the client holds the random masks).  Circuit inputs are
// laid out as [garbler inputs | evaluator inputs].
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/timing.h"
#include "gc/garble.h"
#include "gc/ot.h"
#include "net/framed_channel.h"

namespace primer {

enum class RevealTo { kGarbler, kEvaluator, kBoth };

struct GcStats {
  std::size_t and_gates = 0;
  std::size_t table_bytes = 0;   // garbled-table payload
  std::size_t table_chunks = 0;  // kGcTableChunk frames shipped
  double garble_seconds = 0;     // offline compute, wall
  double eval_seconds = 0;       // online compute, wall
};

class GcSession {
 public:
  // Takes the session's FramedChannel (not the raw Channel): all parties on
  // one wire must share a single framing layer or the per-direction
  // sequence numbers desynchronize.
  GcSession(FramedChannel& channel, Rng& garbler_rng)
      : channel_(channel), rng_(garbler_rng), ot_(channel) {}

  // Offline phase: garble and ship the tables (and, if the evaluator may
  // learn outputs, the decode bits).  The tables travel as kGcTableChunk
  // frames, each carrying a dependency level's finalized table prefix while
  // later levels are still being garbled, so transfer overlaps garbling.
  // The session shares ownership of the circuit's layering (never copies
  // the circuit), so the caller may move or drop `circuit` once this
  // returns.
  void offline(const Circuit& circuit, RevealTo reveal);
  void offline(ReplicatedCircuit circuit, RevealTo reveal);

  // Online phase: exchange input labels, evaluate, reveal.
  // garbler_bits.size() + evaluator_bits.size() must equal num_inputs.
  // Returns the output bits (identical for both parties when kBoth).
  std::vector<bool> online(const std::vector<bool>& garbler_bits,
                           const std::vector<bool>& evaluator_bits);

  const GcStats& stats() const { return stats_; }

  // Minimum rows per table chunk (watermark spans are coalesced up to this
  // size so carry-chain circuits, whose levels finalize a few rows at a
  // time, do not flood the wire with tiny frames).  Must be set before
  // offline(); tests use it to force many small chunks through the
  // fault-injected wire.
  void set_stream_chunk_rows(std::size_t rows) {
    stream_chunk_rows_ = rows > 0 ? rows : 1;
  }

  // 4096 rows = 64 KiB per chunk: large enough to amortize framing, small
  // enough that transfer overlaps garbling on every fixed circuit.
  static constexpr std::size_t kDefaultStreamChunkRows = 4096;

 private:
  FramedChannel& channel_;
  Rng& rng_;
  SimulatedOt ot_;
  std::size_t stream_chunk_rows_ = kDefaultStreamChunkRows;
  ReplicatedCircuit circuit_;
  GarbledCircuit gc_;
  GarbledTable client_table_;       // evaluator's copy, parsed off the wire
  std::vector<bool> client_decode_; // evaluator's decode bits (if revealed)
  RevealTo reveal_ = RevealTo::kGarbler;
  GcStats stats_;
  bool offline_done_ = false;
};

// Packs bool bits into bytes (8 per byte) for channel transfer.
std::vector<std::uint8_t> pack_bits(const std::vector<bool>& bits);
std::vector<bool> unpack_bits(const std::vector<std::uint8_t>& bytes,
                              std::size_t count);

// Converts an unsigned value to a little-endian bit bus and back.
std::vector<bool> value_to_bits(std::uint64_t v, std::size_t width);
std::uint64_t bits_to_value(const std::vector<bool>& bits);

}  // namespace primer
