// Shared pieces of the end-to-end benchmark: options, metric records,
// order statistics, process resource usage and the in-memory span trace.
//
// The benchmark drives the library only through its public entry points
// (PrimerEngine, PrimerServer and the per-layer protocol objects); every
// span and counter is recorded here, around those calls, never inside the
// program.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "he/params.h"
#include "nn/model.h"
#include "proto/primer.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;           // exactly one measured request
  bool inject_mismatch = false; // self-test: corrupt one result's logits
  // Workload shape (perfbench/workloads.json).
  std::string mode = "closed";  // "closed" (one client) or "serve"
  primer::PrimerVariant variant = primer::PrimerVariant::kFPC;
  primer::HeProfile profile = primer::HeProfile::kProto2048;
  double limit_s = 0;   // latency limit for goodput
  double rate_rps = 0;  // serve: offered Poisson rate
};

// Unmeasured requests per client (closed loop) or per worker (serving)
// before timing starts; none in a smoke run.
inline std::size_t warmup_requests(const Options& opt) { return opt.smoke ? 0 : 1; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// ---- order statistics -----------------------------------------------------

double median(std::vector<double> v);

// The highest percentile with at least ten samples above it: the sample of
// rank n-10 (1-based) in ascending order.  With ten samples or fewer no
// such percentile exists and the maximum is reported (percentile 100).
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> v);

// ---- process resource usage (getrusage, RUSAGE_SELF) ------------------------

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double minor_faults = 0;
  double peak_rss_mb = 0;
  double cpu_s() const { return user_s + sys_s; }
};
Usage usage_now();

// ---- model and reference ----------------------------------------------------

// The served model: BERT-nano with fixed random weights (the model is the
// server's, not a workload input).
primer::BertWeightsI nano_model();

// Plaintext reference logits the live protocol must reproduce exactly:
// FixedBert for base/F/FP, the merged-score reference for FPC.
std::vector<std::int64_t> reference_logits(const primer::BertWeightsI& w,
                                           primer::PrimerVariant v,
                                           const std::vector<std::size_t>& tokens);

// Seeded token sequence for the model's shape.
std::vector<std::size_t> random_tokens(const primer::BertConfig& cfg,
                                       primer::Rng& rng);

// Modeled wire time of a request under the paper's network (the Channel's
// NetworkModel: one-way delay per flight + bytes at bandwidth).
double modeled_network_s(double bytes, double flights);

// ---- span trace ----------------------------------------------------------

struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;  // index into the span list, -1 for a root
  std::uint64_t request = 0;
  double duration() const { return end_s - start_s; }
};

struct Counter {
  std::string name;
  double value = 0;
  std::uint64_t request = 0;
};

// Spans and counters kept in memory and written as `JSON {...}` lines when
// the run ends.  Spans nest through an explicit open-span stack; the
// benchmark is single-threaded while it traces.
class Trace {
 public:
  Trace();
  int open(const std::string& name, std::uint64_t request);
  void close(int id);
  void count(const std::string& name, double value, std::uint64_t request);
  // Sum of the durations of spans named `name` belonging to `request`.
  double sum(const std::string& name, std::uint64_t request) const;
  // Sum of leaf spans (no children) of `request`: the attributed time.
  double leaf_sum(std::uint64_t request) const;
  void write_jsonl() const;

  template <typename Fn>
  auto span(const std::string& name, std::uint64_t request, Fn&& fn) {
    struct Closer {
      Trace* t;
      int id;
      ~Closer() { t->close(id); }
    } closer{this, open(name, request)};
    return fn();
  }

 private:
  double now() const;

  double origin_ = 0;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
  std::vector<int> stack_;
};

// ---- workloads -----------------------------------------------------------

// Untraced runs: the end-to-end metrics.
RunReport run_closed_loop(const Options& opt);
RunReport run_serving(const Options& opt);
// Traced run: the per-layer metrics (replay.cpp).
RunReport run_traced(const Options& opt);

// Set-up time shared by both modes: median wall time of building the
// serving object, repeated for about a second (at least once).
double engine_setup_s(const Options& opt, const primer::BertWeightsI& w);
double server_setup_s(const Options& opt, const primer::BertWeightsI& w);

// Per-request record of one untraced closed-loop request.
struct RequestSample {
  double latency_s = 0;
  double sys_s = 0;
  double minor_faults = 0;
  bool ok = false;
  primer::PrimerRunResult result;
};

// Closed-loop body shared by the untraced and traced runs: warm-up, then
// requests until `seconds` of wall time have passed (at least one).
struct ClosedLoop {
  std::vector<RequestSample> samples;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t mismatches = 0;
};
ClosedLoop closed_loop(const Options& opt, const primer::BertWeightsI& w,
                       primer::PrimerEngine& engine, double seconds);

// Serving-layer record shared by the untraced and traced runs.
struct ServeLoop {
  std::size_t workers = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t within_limit = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t other_failures = 0;
  std::uint64_t generator_fallbacks = 0;
  std::vector<double> latency_s, wait_s, service_s;
  std::vector<double> bytes, flights, online_bytes, online_flights, replayed_bytes;
  double span_s = 0;      // start of the schedule to last resolution
  double busy_s = 0;      // summed worker service time
  double cpu_s = 0;
  double sys_s = 0;
  double minor_faults = 0;
  double max_lag_s = 0;   // how late the generator submitted
  double cache_hit_ratio = 0;
};
// Open loop: seeded Poisson arrivals against the serving workload's server.
ServeLoop serve_loop(const Options& opt, const primer::BertWeightsI& w,
                     double seconds);
// Closed loop through a one-worker PrimerServer: one distinct request at a
// time, each submitted as soon as the previous one resolved.  The traced
// run of a closed-loop workload measures the serving layer with it.
ServeLoop serial_serve_loop(const Options& opt, const primer::BertWeightsI& w,
                            double seconds);

}  // namespace perfbench
