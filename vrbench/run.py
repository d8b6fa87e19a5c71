#!/usr/bin/env python3
"""Build and run the repository benchmark (see DESIGN.md here).

    python3 vrbench/run.py --workload fig7-sweep --seed 42 --seconds 45 --trace 0
    python3 vrbench/run.py --selftest

Run from the root of a checkout. The simulator and the benchmark
driver are compiled from source into .bench_build/ (or
$CARGO_TARGET_DIR) on first use; later runs rebuild incrementally.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"vrbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir, targets):
    """Configure (once) and build @targets; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"simulator sources not found under {ROOT}/src")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    """{name: unit} the result line must carry, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "vrbench")
    if args.selftest:
        if not build(build_dir, ["vrbench_selftest"]):
            return 1
        return subprocess.run(
            [os.path.join(build_dir, "vrbench_selftest")],
            cwd=ROOT).returncode
    if not build(build_dir, ["vrbench"]):
        return 1

    cmd = [os.path.join(build_dir, "vrbench"),
           "--workload", args.workload,
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference_digests.txt")]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        log(f"no result line (exit {proc.returncode})")
        return proc.returncode or 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(args.trace)
    if got != want:
        print("\n".join(lines[:-1]))
        log(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
            f"{sorted(want.items())}")
        return 1
    print(proc.stdout, end="", flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
