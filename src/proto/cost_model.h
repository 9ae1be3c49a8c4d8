// Calibrated operation-count cost model.
//
// Live end-to-end runs are only feasible for the nano/micro models on one
// core; the paper's numbers are for BERT-tiny..large on a two-instance Xeon
// testbed.  This model reproduces the paper's tables by composing EXACT
// operation counts (HE rotations/mults/ct-mults, GC AND gates, bytes,
// rounds) — derived from the same packing/protocol arithmetic the live code
// uses — with per-primitive costs measured on this machine (measure()) at
// the secure kProd8192 parameter set.
//
// Absolute seconds therefore differ from the paper's testbed, but every
// RATIO the paper reports (who wins, the ~160x online reduction from FHGS,
// the ~16x offline reduction from packing+CHGS, the 90.6–97.5% total
// reduction) is determined by the counts and reproduces.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "he/params.h"
#include "net/channel.h"
#include "nn/config.h"
#include "proto/packing.h"
#include "proto/primer.h"

namespace primer {

struct PrimitiveCosts {
  // HE (per operation, seconds).
  double rotation = 0;
  double hoisted_rotation = 0;  // amortized per rotation of a hoisted set
  double plain_mult = 0;
  double ct_mult = 0;     // tensoring + relinearization
  double add = 0;
  double encrypt = 0;
  double decrypt = 0;
  // GC (per AND gate, seconds).
  double gc_garble_and = 0;
  double gc_eval_and = 0;
  // Plaintext server MAC (per multiply-accumulate over Z_t).
  double plain_mac = 0;
  // Sizes (bytes).  Wire records from he/codec.h: a fresh client
  // ciphertext ships packed c0 plus the seed of c1, an evaluated (server)
  // ciphertext both parts packed.
  double fresh_ciphertext_bytes = 0;
  double evaluated_ciphertext_bytes = 0;
  double gc_table_bytes_per_and = 32;
  double label_bytes = 16;
  std::size_t slots = 4096;  // batching row size of the costed HE profile

  // Microbenchmark calibration on this machine (takes a few seconds).
  static PrimitiveCosts measure(HeProfile profile = HeProfile::kProd8192);
};

enum class CostedScheme {
  kTheX,        // FHE-only baseline, polynomial approximations
  kGcFormer,    // GC-only baseline
  kPrimerBase,  // hybrid, all online
  kPrimerF,     // + FHGS offline offload
  kPrimerFP,    // + tokens-first packing
  kPrimerFPC,   // + CHGS merge
};

const char* scheme_name(CostedScheme s);

struct StepEstimate {
  double offline_s = 0;
  double online_s = 0;
  std::uint64_t offline_bytes = 0;
  std::uint64_t online_bytes = 0;
  std::uint64_t rotations = 0;        // live BSGS key-switch schedule
  std::uint64_t naive_rotations = 0;  // the paper's sequential schedule
  std::uint64_t plain_mults = 0;
  std::uint64_t ct_mults = 0;
  std::uint64_t gc_ands = 0;

  StepEstimate& operator+=(const StepEstimate& o);
};

struct ModelEstimate {
  CostedScheme scheme = CostedScheme::kPrimerFPC;
  BertConfig config;
  // Keyed by the Table II step names: embed, qkv, qk, softmax, attnv, others.
  std::map<std::string, StepEstimate> steps;

  StepEstimate total() const;
  double offline_seconds() const { return total().offline_s; }
  double online_seconds() const { return total().online_s; }
  double total_seconds() const { return offline_seconds() + online_seconds(); }
  double message_gb() const;
  double throughput_tokens_per_s() const;
};

// Builds the estimate for one (config, scheme) pair.
ModelEstimate estimate_cost(const BertConfig& config, CostedScheme scheme,
                            const PrimitiveCosts& costs,
                            const NetworkModel& net = NetworkModel{});

// GC AND-gate counts for the protocol circuits at BERT dimensions, obtained
// by building the actual circuits (cached per shape).
struct GcGateCounts {
  std::size_t activation_identity_per_value = 0;
  std::size_t activation_gelu_per_value = 0;
  std::size_t softmax_row = 0;   // full row of `tokens` values
  std::size_t layernorm_row = 0; // full row of d values
};
GcGateCounts count_protocol_gates(std::uint64_t t, std::size_t tokens,
                                  std::size_t d);

// Paper-reported reference numbers for side-by-side printing.
struct PaperNumbers {
  double offline_s, online_s, accuracy;
};
PaperNumbers paper_table1(CostedScheme s);

}  // namespace primer
