#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The first run configures and builds
perfbench/ (the library from src/ plus the perfbench program) in Release into
.bench_build/; later runs reuse that build.  Build output goes to stderr.
Standard output carries the program's lines; the last one is the result
object, checked here against the metric names BENCHMARK.json declares.
Exits nonzero, printing no result, when the build, the run or that check
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; perfbench itself stays well inside this.
RUN_TIMEOUT_S = 170


def build():
    """Configure and build perfbench; raises on failure.  Both steps are
    quick no-ops once the build is current."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(lines, trace):
    """The parsed result when the last line is a well-formed result object
    carrying every declared metric with its declared unit (metrics a build
    without tracing names as not taken excepted); else raises ValueError."""
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise ValueError("result keys %s" % sorted(result))
    not_taken = set()
    if len(lines) >= 2:
        not_taken = set(json.loads(lines[-2]).get("not_taken", []))
    want = declared_metrics(trace)
    got = result["metrics"]
    missing = sorted(set(want) - set(got) - not_taken)
    extra = sorted(set(got) - set(want))
    if missing or extra:
        raise ValueError("metrics missing %s, undeclared %s" % (missing, extra))
    for name, unit in want.items():
        if name in got and got[name].get("unit") != unit:
            raise ValueError("metric %s has unit %r, declared %r"
                             % (name, got[name].get("unit"), unit))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out" % args.workload, file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if not lines:
        print("run.py: perfbench printed nothing (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        check_result(lines, args.trace)
    except (OSError, ValueError, KeyError) as e:
        print("run.py: bad result: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
