#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call builds the harness (the pdet
libraries from src/ plus perfbench/*.cpp) into .bench_build/perfbench; later
calls only re-check the build. The harness prints a context line and, as its
last line, the result object, which this script passes through unchanged.

--selftest runs every workload of BENCHMARK.json briefly and checks that
metric names and units match the file, that the work fingerprint repeats
exactly on a second run of the same seed, and that a deliberately perturbed
expectation (fingerprint count or output check) makes the run fail.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        t0 = time.monotonic()
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
        log(f"{cmd[1]} done in {time.monotonic() - t0:.1f} s")
    return True


def run_harness(args):
    """Runs the harness; returns (exit code, stdout lines)."""
    cmd = [BINARY] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_output(lines):
    """(result object, context object) of one harness run, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != RESULT_KEYS:
        return None
    info = {}
    for line in lines:
        if line.startswith("perfbench-info "):
            info = json.loads(line[len("perfbench-info "):])
    return result, info


def bench(ns):
    if not build():
        return 1
    code, lines = run_harness(["--workload", ns.workload, "--seed", str(ns.seed),
                               "--seconds", str(ns.seconds), "--trace", str(ns.trace)])
    parsed = parse_output(lines)
    if code != 0 or parsed is None:
        log(f"harness failed (exit {code})")
        return 1
    for line in lines:
        print(line)
    return 0


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        return 1
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def run(workload, trace, seed=7, perturb=None):
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace)]
        if perturb:
            args += ["--perturb", perturb]
        code, lines = run_harness(args)
        parsed = parse_output(lines)
        if code != 0 or parsed is None:
            problems.append(f"{workload} trace={trace} perturb={perturb}: no result")
            return None, None
        return parsed

    for w in spec["workloads"]:
        name = w["name"]
        first, fingerprint_keys, check_names = None, [], []
        for trace in (0, 1):
            result, info = run(name, trace)
            if result is None:
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} != {expected[trace]}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: run not correct: {info}")
            if trace == 0:
                first = (info["fingerprint"]["digest"], result["metrics"]["lamr"]["value"])
                fingerprint_keys = list(info["fingerprint"]["counts"])
                check_names = info["checks"]["passed"]
        again, info2 = run(name, 0)
        if again is not None:
            second = (info2["fingerprint"]["digest"], again["metrics"]["lamr"]["value"])
            if second != first:
                problems.append(f"{name}: fingerprint/lamr {second} != {first} on a repeat")
        # A perturbed expectation must fail the run: one fingerprint count
        # and one output check.
        for perturb in (fingerprint_keys[-1:] + check_names[:1]):
            bad, _ = run(name, 0, perturb=perturb)
            if bad is not None and bad["correct"]:
                problems.append(f"{name}: perturbing '{perturb}' went unnoticed")
        log(f"selftest {name}: done")
    for p in problems:
        log(f"SELFTEST FAIL: {p}")
    print(json.dumps({"selftest": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    ns = parser.parse_args()
    if ns.selftest:
        return selftest()
    if not ns.workload:
        parser.error("--workload is required")
    return bench(ns)


if __name__ == "__main__":
    sys.exit(main())
