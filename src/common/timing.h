// Wall-clock timing helpers plus the CostAccumulator that every protocol
// phase reports into.  Benchmarks combine measured compute seconds with the
// channel's simulated network seconds to reproduce the paper's
// offline/online latency split.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <limits>
#include <map>
#include <string>

namespace primer {

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

// CPU time consumed by the whole process (all threads).  With the parallel
// executor enabled, cpu_seconds / wall_seconds measures effective
// parallelism; on one thread the two coincide up to scheduler noise.
inline double process_cpu_seconds() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

// Measures wall and aggregate-CPU time over the same interval.
class CpuWallTimer {
 public:
  CpuWallTimer() : cpu_start_(process_cpu_seconds()) {}

  double wall_seconds() const { return wall_.seconds(); }
  double cpu_seconds() const { return process_cpu_seconds() - cpu_start_; }

 private:
  Stopwatch wall_;
  double cpu_start_;
};

// Named accumulation of compute seconds and primitive-operation counts,
// keyed by phase ("offline" / "online") and step name ("key_transfer",
// "embed", "qkv", "qk", "softmax", "attnv", "others" — the columns of
// Table II plus the evaluation-key upload).
struct PhaseCost {
  double compute_seconds = 0.0;  // wall-clock compute
  double cpu_seconds = 0.0;      // aggregate CPU across worker threads
  double network_seconds = 0.0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t rounds = 0;
  std::uint64_t he_mults = 0;       // ciphertext x plaintext
  std::uint64_t he_ct_mults = 0;    // ciphertext x ciphertext
  std::uint64_t he_rotations = 0;
  std::uint64_t gc_and_gates = 0;
  // GC compute split: garbling is offline work, evaluation online.
  double gc_garble_seconds = 0.0;
  double gc_eval_seconds = 0.0;
  // Smallest estimated noise budget (bits) observed at any decryption in
  // this step; +inf when the step decrypted nothing.
  double min_noise_margin_bits = std::numeric_limits<double>::infinity();

  double total_seconds() const { return compute_seconds + network_seconds; }

  PhaseCost& operator+=(const PhaseCost& o) {
    compute_seconds += o.compute_seconds;
    cpu_seconds += o.cpu_seconds;
    network_seconds += o.network_seconds;
    bytes_sent += o.bytes_sent;
    rounds += o.rounds;
    he_mults += o.he_mults;
    he_ct_mults += o.he_ct_mults;
    he_rotations += o.he_rotations;
    gc_and_gates += o.gc_and_gates;
    gc_garble_seconds += o.gc_garble_seconds;
    gc_eval_seconds += o.gc_eval_seconds;
    min_noise_margin_bits = std::min(min_noise_margin_bits, o.min_noise_margin_bits);
    return *this;
  }
};

class CostAccumulator {
 public:
  PhaseCost& at(const std::string& phase, const std::string& step) {
    return costs_[phase][step];
  }

  const std::map<std::string, std::map<std::string, PhaseCost>>& all() const {
    return costs_;
  }

  PhaseCost phase_total(const std::string& phase) const {
    PhaseCost total;
    auto it = costs_.find(phase);
    if (it == costs_.end()) return total;
    for (const auto& [step, cost] : it->second) total += cost;
    return total;
  }

  // Every step of every phase: the whole run.
  PhaseCost total() const {
    PhaseCost sum;
    for (const auto& [phase, steps] : costs_) {
      for (const auto& [step, cost] : steps) sum += cost;
    }
    return sum;
  }

 private:
  std::map<std::string, std::map<std::string, PhaseCost>> costs_;
};

}  // namespace primer
