#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
mado_bench (the mado libraries from src/ plus perfbench/src) in the
directory named by CARGO_TARGET_DIR, default .bench_build; later runs only
rebuild what changed. The measuring program prints one JSON result line;
this script checks that its metric names and units match BENCHMARK.json
and passes it through as the last line of stdout. Spans of trace runs go
to <build dir>/traces/<workload>.spans.csv.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pingpong_inproc", "socket_pingpong", "collective_sim")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no mado sources at src/ next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    steps.append(["cmake", "--build", build_dir, "--target", "mado_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "mado_bench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("mado_bench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("mado_bench exited with code %d" % r.returncode)
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_metrics(args.trace):
        fail("metrics do not match BENCHMARK.json")
    sys.stdout.write(r.stdout if r.stdout.endswith("\n") else r.stdout + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
