#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep|overload|cells --seed N \
        --seconds S --trace 0|1 [--small]
    python3 perfbench/run.py --workload W --seed N --selftest [--small]
    python3 perfbench/run.py --record-digests 1-10

Run from the repository root. The first call configures and builds the
pcpda library and the pcpda_perf driver under $CARGO_TARGET_DIR (default
.bench_build) with CMake; later calls rebuild incrementally. A benchmark
run prints pcpda_perf's output, whose last line is the result JSON; this
script checks that line against BENCHMARK.json and exits non-zero, with no
result, when the build, the run or that check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.txt")
WORKLOADS = ("sweep", "overload", "cells")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# The full-size self-test runs all 8 protocols on every input: minutes.
SELFTEST_TIMEOUT_S = 1800


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds pcpda_perf; returns the binary path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = next((line.split("=", 1)[1].strip() for line in f
                         if line.startswith("CMAKE_HOME_DIRECTORY:")), "")
        if os.path.realpath(home) != os.path.realpath(HERE):
            shutil.rmtree(build_dir)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "pcpda_perf",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "pcpda_perf")


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    try:
        return subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("pcpda_perf timed out")


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json
    declares for this kind of run, each with its declared unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, wrong unit {wrong}")


def record_digests(binary, seeds):
    """Rewrites digests.txt with every unit digest of the given seeds.
    Overload and cells inputs come from fixed catalogs, so each of them
    records one line whatever the seeds."""
    lines = ["# Recorded RunMetrics::DebugString digests (FNV-1a, 8 hex "
             "digits per pool unit).",
             "# Regenerate: python3 perfbench/run.py --record-digests "
             f"{seeds[0]}-{seeds[-1]}"]
    for workload in WORKLOADS:
        for seed in seeds:
            done = run_binary(binary, ["--workload", workload, "--seed",
                                       str(seed), "--record"])
            if done.returncode != 0:
                fail(f"recording {workload} seed {seed} failed")
            line = done.stdout.strip()
            if line in lines:
                break  # The inputs do not depend on the seed.
            lines.append(line)
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    with open(DIGESTS, "w") as f:
        f.write("\n".join(lines) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    parser.add_argument("--selftest", action="store_true",
                        help="check TimingProtocol changes nothing")
    parser.add_argument("--record-digests", metavar="FIRST-LAST",
                        help="re-record digests.txt for a seed range")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    binary = build()
    if args.record_digests:
        first, _, last = args.record_digests.partition("-")
        record_digests(binary, list(range(int(first), int(last or first) + 1)))
        return
    if args.workload is None:
        parser.error("--workload is required")

    flags = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        flags.append("--small")
    if args.selftest:
        done = run_binary(binary, flags + ["--selftest"], SELFTEST_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.exit(done.returncode)
    done = run_binary(binary, flags + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--digests", DIGESTS])
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"pcpda_perf exited with {done.returncode}")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
