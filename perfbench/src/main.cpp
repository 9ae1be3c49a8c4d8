// primer_bench: the repository's end-to-end benchmark program.
//
//   primer_bench --workload NAME --seed N --seconds S --trace 0|1
//                --mode closed|serve --variant base|f|fp|fpc
//                --profile proto2048|prod8192 --limit-s X [--rate-rps X]
//                [--smoke] [--inject-mismatch]
//
// perfbench/run.py builds this program and supplies the workload shape
// from perfbench/workloads.json.  The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}; earlier
// `JSON {...}` lines carry the configuration stamp, tail percentiles and,
// with --trace 1, the span trace.  A run whose logits differ from the
// plaintext reference prints correct=false and exits 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/parallel.h"
#include "gc/garble_kernels.h"
#include "he/context.h"

extern char** environ;

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "primer_bench: %s\n", why);
  std::exit(2);
}

primer::PrimerVariant parse_variant(const std::string& s) {
  if (s == "base") return primer::PrimerVariant::kBase;
  if (s == "f") return primer::PrimerVariant::kF;
  if (s == "fp") return primer::PrimerVariant::kFP;
  if (s == "fpc") return primer::PrimerVariant::kFPC;
  usage("unknown --variant");
}

primer::HeProfile parse_profile(const std::string& s) {
  if (s == "proto2048") return primer::HeProfile::kProto2048;
  if (s == "prod8192") return primer::HeProfile::kProd8192;
  usage("unknown --profile");
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = val();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(val().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(val().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = val() == "1";
    } else if (a == "--mode") {
      o.mode = val();
    } else if (a == "--variant") {
      o.variant = parse_variant(val());
    } else if (a == "--profile") {
      o.profile = parse_profile(val());
    } else if (a == "--limit-s") {
      o.limit_s = std::strtod(val().c_str(), nullptr);
    } else if (a == "--rate-rps") {
      o.rate_rps = std::strtod(val().c_str(), nullptr);
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--inject-mismatch") {
      o.inject_mismatch = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.mode != "closed" && o.mode != "serve") usage("--mode must be closed|serve");
  if (o.seconds <= 0 || o.limit_s <= 0) usage("--seconds and --limit-s must be positive");
  if (o.mode == "serve" && o.rate_rps <= 0) usage("serve mode needs a positive --rate-rps");
  return o;
}

// Injected faults or deadlines would measure the fault path, not the
// system: refuse to run under any of them.
void refuse_fault_knobs() {
  for (char** e = environ; *e != nullptr; ++e) {
    const char* kv = *e;
    if (std::strncmp(kv, "PRIMER_FAULT_", 13) == 0 ||
        std::strncmp(kv, "PRIMER_STORE_FAULT_", 19) == 0 ||
        std::strncmp(kv, "PRIMER_PHASE_DEADLINE_S=", 24) == 0) {
      std::fprintf(stderr, "primer_bench: refusing to run with %s set\n", kv);
      std::exit(3);
    }
  }
}

// The configuration every result is stamped with, so runs from different
// hosts or kernel tiers are never compared blind.
void print_stamp(const Options& o) {
  const primer::HeContext ctx(primer::make_params(o.profile));
  std::printf(
      "JSON {\"stamp\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"smoke\":%d,\"threads\":%zu,\"ntt_kernel\":\"%s\","
      "\"gc_kernel\":\"%s\",\"nproc\":%zu,\"avx512ifma\":%d,\"vaes\":%d,"
      "\"env\":{",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, o.smoke ? 1 : 0, primer::num_threads(),
      ctx.kernel_name(), primer::gc_kernel_name(), primer::hardware_threads(),
      __builtin_cpu_supports("avx512ifma") ? 1 : 0,
      __builtin_cpu_supports("vaes") ? 1 : 0);
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PRIMER_", 7) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    std::printf("%s\"%.*s\":\"%s\"", first ? "" : ",",
                static_cast<int>(eq - *e), *e, eq + 1);
    first = false;
  }
  std::printf("}}}\n");
}

void print_result(const RunReport& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  refuse_fault_knobs();
  print_stamp(opt);
  std::fflush(stdout);
  RunReport rep;
  try {
    if (opt.trace) {
      rep = run_traced(opt);
    } else if (opt.mode == "serve") {
      rep = run_serving(opt);
    } else {
      rep = run_closed_loop(opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "primer_bench: %s\n", e.what());
    return 1;
  }
  print_result(rep);
  return rep.correct ? 0 : 1;
}
