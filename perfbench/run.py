#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
only re-check the build. The benchmark's standard output is passed through,
and its last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. Full results and the span file go to
.bench_build/results/. The exit status is non-zero when the build fails, a
correctness check fails, or the result does not match BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
# Compiler temporaries go here too, so nothing is written outside the tree.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("scan", "serve-hot", "serve-churn")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run(command, timeout, stdout):
    """Run `command` in its own process group; kill the whole group if it
    outlives `timeout`. Returns (exit status, captured stdout or None)."""
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    process = subprocess.Popen(command, stdout=stdout, cwd=ROOT, env=env,
                               start_new_session=True, text=True)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        die(f"{' '.join(command[:3])} ... timed out after {timeout} s")
    return process.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no library sources under {ROOT}/src; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            die(f"{tool} not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        status, _ = run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                        BUILD_TIMEOUT_S, sys.stderr)
        if status != 0:
            die("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    status, _ = run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                    BUILD_TIMEOUT_S, sys.stderr)
    if status != 0 or not os.path.isfile(BINARY):
        die("build failed")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Problems with the result line, as a list of strings."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
        return problems
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            problems.append(f"metrics differ from BENCHMARK.json: "
                            f"missing {missing}, unexpected {extra}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", RESULTS_DIR]
    status, out = run(command, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.rstrip("\n").split("\n")
    problems = check_result(lines[-1], args.trace == 1)
    if problems:
        # Keep the benchmark's own output for diagnosis, but no result line.
        sys.stderr.write(out)
        die("; ".join(problems))
    sys.stdout.write(out)
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
