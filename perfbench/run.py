#!/usr/bin/env python3
"""Benchmark runner: host cost per aggregation round, split by layer.

Builds the benchmark program (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench, runs one workload in fresh processes, checks the
outputs, and prints one JSON result as the last line of stdout:

    python3 perfbench/run.py --workload s3_dcube --seed 1 --seconds 10 --trace 0

--trace 0 runs the workload untraced and reports the end-to-end metrics
named in BENCHMARK.json. --trace 1 spends half the time on an untraced
run and half on a traced run of the same seed, checks that both produce
the same outcomes, and reports the per-layer metrics. Build output and
diagnostics go to stderr. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ctagg-perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the repository sources are not next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(
            0,
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        )
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_program(workload, seed, seconds, traced):
    cmd = [
        BINARY,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--traced", "1" if traced else "0",
    ]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("workload run timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("workload run exited with %d: %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(run, problems):
    """Output checks on one process's summary; appends to `problems`."""
    problems.extend(run["errors"])
    if run["rounds"] < 1:
        problems.append("no round measured")
    if len(set(run["digests"])) != 1:
        problems.append("campaigns of one seed disagree: %s" % sorted(set(run["digests"])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()

    problems = []
    if args.trace == 0:
        plain = run_program(args.workload, args.seed, args.seconds, False)
        check(plain, problems)
        runs = [plain]
        values = {
            "rounds_per_s": plain["rounds_per_s"],
            "round_ms_p50": plain["round_ms_p50"],
            "setup_s": plain["setup_s"],
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        metrics = spec["end_to_end"]
    else:
        half = args.seconds / 2
        plain = run_program(args.workload, args.seed, half, False)
        traced = run_program(args.workload, args.seed, half, True)
        check(plain, problems)
        check(traced, problems)
        if plain["digests"][0] != traced["digests"][0]:
            problems.append("traced and untraced outcomes differ")
        runs = [plain, traced]
        values = dict(traced["layers"])
        values.update({
            "round_ms_p90": plain["round_ms_p90"],
            "round_ms_p99": plain["round_ms_p99"],
            "rounds_sampled": plain["rounds"],
            "sim_latency_ms": plain["sim_latency_ms"],
            "failed_round_frac": plain["rounds_not_ok"] / plain["rounds"],
            "trace.overhead_frac": traced["round_ms_p50"] / plain["round_ms_p50"] - 1,
        })
        metrics = spec["per_layer"]

    for p in problems:
        print("perfbench: check failed: " + p, file=sys.stderr)
    attempted = sum(r["rounds"] for r in runs)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        # A layer a workload never reaches reports 0.
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in metrics
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
