#!/usr/bin/env python3
"""End-to-end benchmark of one private inference.

Run from the root of the source tree:

    python3 perfbench/run.py --workload nano-fpc --seed 1 --seconds 25 --trace 0

Builds perfbench/ (and with it the library sources of this tree) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload of perfbench/workloads.json.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The metric names and units are checked against BENCHMARK.json when the
tree has one.

--smoke measures exactly one request; --inject-mismatch corrupts one
result's logits to prove the correctness check fires (exit status 1).
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170

# workloads.json key -> primer_bench flag
FLAGS = {
    "mode": "--mode",
    "variant": "--variant",
    "profile": "--profile",
    "latency_limit_s": "--limit-s",
    "rate_rps": "--rate-rps",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "primer_bench", "-j", "3"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "primer_bench")


def check_names(result, trace):
    """The result must carry exactly BENCHMARK.json's metrics for its mode."""
    spec_path = "BENCHMARK.json"
    if not os.path.exists(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        return f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(want.items())}"
    return None


def main():
    # subprocess.run kills and reaps its child when an exception unwinds
    # through it; turn SIGTERM into one so no benchmark process outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-mismatch", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")
    wl = workloads[args.workload]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for key, flag in FLAGS.items():
        if key in wl:
            cmd += [flag, str(wl[key])]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    env = dict(os.environ, PRIMER_THREADS="1")  # every workload is single-threaded per session
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = proc.stdout.splitlines()
    body, last = lines[:-1], lines[-1] if lines else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"no result line (exit status {proc.returncode})")
    problem = check_names(result, args.trace == 1)
    if problem:
        sys.stdout.write("\n".join(body) + "\n")
        fail(problem)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
