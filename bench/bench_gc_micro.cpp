// GC nonlinear-layer microbenchmarks: half-gates garbling and evaluation
// throughput (AND gates per second) over every fixed circuit the Primer
// protocols ship to the GC layer, swept over thread counts.
//
// Usage:
//   bench_gc_micro [--threads 1,2,4] [--reps N] [--min-time SECONDS] [--json]
//
// Two kernels are reported for each circuit:
//   batched — the production path: pipelined AES-NI batch hashing over
//             dependency levels, slice-parallel across the thread pool.
//   scalar  — the seed's serial single-block-AES reference
//             (garble_reference / eval_reference), the baseline the
//             >=3x single-thread throughput gate measures against.
// ops_per_s in the JSON lines is AND gates per second, so the bench
// trajectory gate tracks garbling throughput directly.  Each record also
// carries the circuit's and_gates and AND-depth levels: a throughput
// change between two commits is only comparable when these match.
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timing.h"
#include "gc/fixed_circuit_suite.h"
#include "gc/garble.h"

using namespace primer;

namespace {

struct Options {
  std::vector<std::size_t> threads;
  int reps = 3;
  double min_time = 0.05;
  bool json_only = false;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (bench::match_threads_flag(argc, argv, i, opt.threads)) {
      continue;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json_only = true;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      opt.reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-time") == 0 && i + 1 < argc) {
      opt.min_time = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (opt.threads.empty()) opt.threads = {num_threads()};
  if (opt.reps < 1) opt.reps = 1;
  if (opt.min_time < 0.0) opt.min_time = 0.0;
  return opt;
}

// Runs `op` until min_time elapses; each call to `op` garbles or evaluates
// `circ` once, so ops_per_s is AND gates per second.
void run_bench(const char* name, const std::string& label, const char* kernel,
               std::size_t threads, const CircuitLayers& circ,
               const Options& opt, const std::function<void()>& op) {
  const std::size_t ops_per_iter = circ.and_count;
  op();  // warm-up (circuit layering cache, allocator)
  std::uint64_t iters = 0;
  CpuWallTimer timer;
  do {
    for (int r = 0; r < opt.reps; ++r) op();
    iters += static_cast<std::uint64_t>(opt.reps);
  } while (timer.wall_seconds() < opt.min_time);
  const double wall = timer.wall_seconds();
  const double cpu = timer.cpu_seconds();
  const double total_ops =
      static_cast<double>(iters) * static_cast<double>(ops_per_iter);
  const double per_op = wall / total_ops;
  if (!opt.json_only) {
    std::printf(
        "%-14s %-10s kernel=%-8s threads=%zu %7zu ANDs %12.1f gates/s  "
        "cpu/wall=%4.2f\n",
        name, label.c_str(), kernel, threads, ops_per_iter,
        per_op > 0 ? 1.0 / per_op : 0.0, wall > 0 ? cpu / wall : 0.0);
  }
  std::printf(
      "JSON {\"bench\":\"%s\",\"label\":\"%s\",\"kernel\":\"%s\","
      "\"threads\":%zu,\"and_gates\":%zu,\"levels\":%zu,\"iters\":%llu,"
      "\"wall_s\":%.6f,\"cpu_s\":%.6f,\"wall_s_per_op\":%.9f,"
      "\"ops_per_s\":%.3f}\n",
      name, label.c_str(), kernel, threads, ops_per_iter, circ.levels.size(),
      static_cast<unsigned long long>(iters), wall, cpu, per_op,
      per_op > 0 ? 1.0 / per_op : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const auto suite = fixed_circuit_suite();

  for (std::size_t ti = 0; ti < opt.threads.size(); ++ti) {
    const std::size_t n = opt.threads[ti];
    set_num_threads(n);
    for (const auto& [name, circ] : suite) {
      const CircuitLayers& lay = circ.layers();
      if (lay.and_count == 0) continue;

      // Pre-garble once (fixed seed) so the eval benches measure evaluation
      // only; active labels come from random input bits.
      Rng grng(404);
      Garbler garbler(grng);
      const GarbledCircuit gc = garbler.garble(circ);
      Rng in_rng(505);
      std::vector<Label> active(static_cast<std::size_t>(circ.num_inputs));
      for (std::size_t i = 0; i < active.size(); ++i) {
        active[i] = Garbler::active_input(gc, i, in_rng.next() & 1);
      }

      run_bench("gc_garble", name, "batched", n, lay, opt, [&] {
        Rng rng(404);
        Garbler g(rng);
        (void)g.garble(circ);
      });
      run_bench("gc_eval", name, "batched", n, lay, opt, [&] {
        (void)GcEvaluator::eval(circ, gc.table, active);
      });

      // Reference serial paths: thread-independent, bench once.
      if (ti == 0) {
        run_bench("gc_garble_ref", name, "scalar", 1, lay, opt, [&] {
          Rng rng(404);
          (void)garble_reference(circ, rng);
        });
        run_bench("gc_eval_ref", name, "scalar", 1, lay, opt, [&] {
          (void)eval_reference(circ, gc.table, active);
        });
      }
    }
  }
  return 0;
}
