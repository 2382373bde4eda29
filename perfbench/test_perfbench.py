#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py        (from the repository root)

Builds the benchmark if needed (as run.py does), then checks that:
  * two runs of one seed print identical deterministic counters and
    error rate, on every workload;
  * a second seed passes every correctness check;
  * a deliberately corrupted outcome makes the check fail;
  * the traced run writes a well-formed span file and every per-layer
    metric BENCHMARK.json names;
  * run.py fails without printing a result when the library sources are
    missing.
Runs take a few seconds each (every run makes at least three passes).
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (run.py: build() and paths)

SCRATCH = os.path.join(run.ROOT, ".bench_build", "test")


def perfbench(workload, seed, trace=0, extra=()):
    """Run the binary for a minimal run; returns (status, stdout)."""
    command = [run.BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", "0.1", "--trace", str(trace),
               "--out", SCRATCH] + list(extra)
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=run.ROOT, timeout=300)
    return done.returncode, done.stdout


def counters_section(stdout):
    lines = stdout.split("\n")
    begin = lines.index("--- counters (deterministic) ---")
    end = lines.index("--- end counters ---")
    return "\n".join(lines[begin:end + 1])


def error_rate_line(stdout):
    return [line for line in stdout.split("\n")
            if line.startswith("error_rate")][0]


def result_line(stdout):
    return json.loads(stdout.rstrip("\n").split("\n")[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(SCRATCH, exist_ok=True)

    def test_same_seed_gives_identical_counters(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first_status, first = perfbench(workload, 7)
                second_status, second = perfbench(workload, 7)
                self.assertEqual(first_status, 0, first)
                self.assertEqual(second_status, 0, second)
                self.assertEqual(counters_section(first),
                                 counters_section(second))
                self.assertEqual(error_rate_line(first),
                                 error_rate_line(second))

    def test_second_seed_passes_every_check(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                status, out = perfbench(workload, 2)
                result = result_line(out)
                self.assertEqual(status, 0, out)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_corrupted_outcome_fails_the_check(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                status, out = perfbench(workload, 7,
                                        extra=["--corrupt-outcome"])
                result = result_line(out)
                self.assertNotEqual(status, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("FAILED:", out)

    def test_traced_run_writes_spans_and_every_layer_metric(self):
        expected = run.expected_metrics(trace=True)
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                status, out = perfbench(workload, 3, trace=1)
                self.assertEqual(status, 0, out)
                self.assertEqual(run.check_result(out.split("\n")[-2], True),
                                 [])
                self.assertEqual(set(result_line(out)["metrics"]),
                                 set(expected))
                path = os.path.join(SCRATCH, f"{workload}-seed3.spans.jsonl")
                with open(path) as handle:
                    spans = [json.loads(line) for line in handle]
                names = {span["name"] for span in spans}
                for name in ("setup", "work", "scan.generate_population",
                             "replay.zone", "replay.server",
                             "replay.dnscore", "replay.dnssec"):
                    self.assertIn(name, names)
                for span in spans:
                    self.assertLessEqual(span["start_s"], span["end_s"])
                    if span["parent"] >= 0:
                        parent = next(s for s in spans
                                      if s["round"] == span["round"] and
                                      s["id"] == span["parent"])
                        self.assertLessEqual(parent["start_s"],
                                             span["start_s"])
                        self.assertLessEqual(span["end_s"], parent["end_s"])

    def test_fails_without_library_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", "scan", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
