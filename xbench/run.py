#!/usr/bin/env python3
"""Build and run the repo benchmark (xbench).

One run, from the root of a checkout:

    python3 xbench/run.py --workload cbc-sharded --seed 1 --seconds 25 --trace 0

builds the engine and the benchmark from source into .bench_build/ (the
first run configures and compiles; later runs only relink what changed),
then runs one workload. The last line of standard output is the JSON
result; a failed correctness check or a failed build exits non-zero
without it.

Steadiness mode runs one workload N times on the same seed and prints, for
every metric, the median, the quartiles and the spread (q3 - q1) / median of
the N values; every run must report the same fingerprint:

    python3 xbench/run.py --steady 10 --workload service-restore --seed 1 \
        --seconds 25 --trace 0
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "xbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "xbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "xbench")
WORKLOADS = ("cbc-sharded", "default-stagger", "service-restore")
# The binary bounds its own run time; this only guards against a hang, so
# that a run always ends within 180 seconds.
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log(f"no {needed} at the checkout root; cannot build the engine")
            return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "..", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "xbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            except OSError as err:
                log(f"cannot run {cmd[0]}: {err}")
                return False
            if done.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return True


def run_once(workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, stdout text)."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace_out",
                os.path.join(TRACE_DIR, f"{workload}.trace.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as err:
        # subprocess.run kills the child and waits for it before raising.
        return 1, (err.stdout or "") + "\nrun.py: run timed out\n"
    return done.returncode, done.stdout


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def fingerprint_of(stdout):
    for line in stdout.splitlines():
        words = line.split()
        if words[:2] == ["info", "runs"] and "fingerprint" in words:
            return words[words.index("fingerprint") + 1]
    return None


def steady(args):
    values = {}
    units = {}
    fingerprints = set()
    for i in range(args.steady):
        code, out = run_once(args.workload, args.seed, args.seconds,
                             args.trace)
        if code != 0:
            sys.stdout.write(out)
            log(f"run {i + 1} failed (exit {code})")
            return 1
        fingerprint = fingerprint_of(out)
        if fingerprint is None:
            sys.stdout.write(out)
            log(f"run {i + 1} printed no fingerprint")
            return 1
        fingerprints.add(fingerprint)
        result = parse_result(out)
        summary = " ".join(f"{k}={v['value']:.6g}"
                           for k, v in result["metrics"].items())
        print(f"run {i + 1}: fingerprint {fingerprint} {summary}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"\n{args.workload}: {args.steady} runs, seed={args.seed}, "
          f"trace={args.trace}, seconds={args.seconds}")
    print(f"{'metric':44} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8}  unit")
    for name, xs in values.items():
        q1, med, q3 = (statistics.quantiles(xs, n=4) if len(xs) > 1
                       else (xs[0], xs[0], xs[0]))
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:44} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  "
              f"{units[name]}")
    if len(fingerprints) != 1:
        log(f"same seed gave different fingerprints: {sorted(fingerprints)}")
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="run N times on --seed and print spreads")
    args = parser.parse_args()

    if not build():
        return 1
    if args.steady > 0:
        return steady(args)
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
