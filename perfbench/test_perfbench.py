#!/usr/bin/env python3
"""Tests of the benchmark itself, on reduced sizes (a few seconds each).

    python3 perfbench/test_perfbench.py

Builds through run.py like a benchmark run does, then checks that the
timing wrapper is invisible, that every run prints every metric named in
BENCHMARK.json with its unit, that the output check catches a wrong
digest, and that the benchmark fails cleanly without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ("sweep", "overload", "cells")
BUILD_ROOT = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BINARY = os.path.join(BUILD_ROOT, "perfbench", "pcpda_perf")


def run(args, cwd=ROOT, timeout=900):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        done = run(["--workload", "sweep", "--selftest", "--small"])
        assert done.returncode == 0, done.stderr

    def test_wrapped_runs_are_identical(self):
        for workload in WORKLOADS:
            done = run(["--workload", workload, "--seed", "3", "--selftest",
                        "--small"])
            self.assertEqual(done.returncode, 0, done.stderr)
            self.assertIn("wrapped runs identical", done.stdout)

    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in WORKLOADS:
                done = run(["--workload", workload, "--seed", "2",
                            "--seconds", "0.2", "--trace", str(trace),
                            "--small"])
                self.assertEqual(done.returncode, 0, done.stderr)
                result = result_of(done)
                self.assertTrue(result["correct"], done.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {name: m["unit"]
                       for name, m in result["metrics"].items()}
                self.assertEqual(got, want, f"{workload} trace={trace}")
                if trace == 0:
                    for name, m in result["metrics"].items():
                        self.assertGreater(m["value"], 0, name)
                    # Corrected times name the slowdown they divide by.
                    self.assertIn("host slowdown:", done.stdout)
                else:
                    # Every decision maps to a named locking rule.
                    self.assertEqual(
                        result["metrics"]["protocols.rule.other"]["value"],
                        0)

    def test_wrong_digest_counts_as_failed(self):
        recorded = subprocess.run(
            [BINARY, "--workload", "sweep", "--seed", "5", "--record",
             "--small"], capture_output=True, text=True, check=True)
        label, seed, digests = recorded.stdout.split()
        with tempfile.TemporaryDirectory(dir=BUILD_ROOT) as tmp:
            path = os.path.join(tmp, "digests.txt")
            for hex_digests, failed in ((digests, False),
                                        ("0" * len(digests), True)):
                with open(path, "w") as f:
                    f.write(f"{label} {seed} {hex_digests}\n")
                done = subprocess.run(
                    [BINARY, "--workload", "sweep", "--seed", "5",
                     "--seconds", "0.1", "--trace", "0", "--small",
                     "--digests", path], capture_output=True, text=True)
                self.assertEqual(done.returncode, 0, done.stderr)
                result = result_of(done)
                self.assertEqual(result["correct"], not failed)
                self.assertEqual(result["failed"] > 0, failed)

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory(dir=BUILD_ROOT) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
                env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
