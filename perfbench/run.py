#!/usr/bin/env python3
"""Builds and runs the ucqn end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the ucqn library from src/ plus the benchmark
program) into .bench_build/perfbench; later runs only rebuild what changed. The last
line of standard output is the run's JSON result; build output and the
readable metric table go to standard error. The exit status is non-zero
when the build fails, a correctness check fails, or the run overruns.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ucqn_perfbench")
WORKLOADS = ["hot_serial", "cold_wide", "delta_mixed"]
# A run must end within 180 s; stop it a little before that.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "ucqn_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def run_one(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, result line, parsed result).
    The result line is None when the run printed none."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}-{seed}.jsonl")]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: run overran {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, lines[-1], json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode or 1, None, None


def self_test():
    """Tiny runs of every workload must print every metric BENCHMARK.json
    names, with its unit; a corrupted answer digest must fail the run."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, _, result = run_one(workload, 20, 0.2, trace, ["--tiny"])
            what = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result.get("correct"):
                failures.append(f"{what}: exit {code}, result {result}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got.keys() & expected[trace].keys()
                               if got[k] != expected[trace][k])
                failures.append(f"{what}: missing {missing}, unexpected "
                                f"{extra}, wrong units {wrong}")
    code, _, result = run_one("hot_serial", 20, 0.2, 0,
                           ["--tiny", "--corrupt-digest"])
    if code == 0 or (result is not None and result.get("correct")):
        failures.append("a corrupted answer digest did not fail the run")
    for failure in failures:
        print("SELF-TEST FAILED: " + failure, file=sys.stderr)
    print(json.dumps({"self_test": "fail" if failures else "pass",
                      "failures": len(failures)}))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=20)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test()
    if args.workload != "all":
        code, line, _ = run_one(args.workload, args.seed, args.seconds,
                                args.trace)
        if line is not None:
            print(line)
        return code
    status, results = 0, {}
    for workload in WORKLOADS:
        code, _, result = run_one(workload, args.seed, args.seconds,
                                  args.trace)
        status = status or code
        results[workload] = result
    print(json.dumps({"correct": status == 0, "workloads": results}))
    return status


if __name__ == "__main__":
    sys.exit(main())
