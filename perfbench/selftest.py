#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Builds perfbench like run.py does, then runs a tiny size of every workload
untraced and traced.  Each run must pass its correctness gate and print
every metric BENCHMARK.json declares for its mode, with the declared unit;
on fabric_omega the traced layer shares plus `other` must sum to 1.  The
gate itself must reject a hand-built unbalanced reply, and the program must
refuse to start when the environment overrides a library default.  Exits 0
when everything holds.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the sibling module, found through sys.path)

BUDGET_SHARES = [
    "traffic.busy_share", "runtime.inject_share", "runtime.present_share",
    "runtime.route_share", "runtime.resolve_share", "fabric.alloc_share",
    "fabric.route_share", "fabric.resolve_share", "plan.kernel_share",
    "engine.other_share",
]


def perfbench(args, env=None):
    return subprocess.run([run.BINARY] + args, stdout=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S, env=env)


def main():
    run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failures = []

    for name in workloads:
        for trace in (0, 1):
            label = "%s trace=%d" % (name, trace)
            proc = perfbench(["--workload", name, "--seed", "1",
                              "--seconds", "1", "--trace", str(trace),
                              "--tiny"])
            lines = proc.stdout.splitlines()
            try:
                result = run.check_result(lines, trace)
            except (ValueError, IndexError, KeyError) as e:
                failures.append("%s: %s" % (label, e))
                continue
            if proc.returncode != 0 or not result["correct"]:
                failures.append("%s: exit %d, correct=%s" %
                                (label, proc.returncode, result["correct"]))
            metrics = result["metrics"]
            if trace and name != "serve_mix" and "engine.other_share" in metrics:
                total = sum(metrics[s]["value"] for s in BUDGET_SHARES)
                if abs(total - 1.0) > 1e-6:
                    failures.append("%s: layer shares sum to %r" % (label, total))
            print("ok   %s (%d metrics)" % (label, len(metrics)))

    proc = perfbench(["--selftest-gate"])
    print(proc.stdout, end="")
    if proc.returncode != 0:
        failures.append("the gate accepted an unbalanced reply")

    for var, value in (("PCS_PLAN_EXEC", "legacy"),
                       ("PCS_FABRIC_EPOCHS_IN_FLIGHT", "4")):
        env = dict(os.environ, **{var: value})
        proc = perfbench(["--workload", workloads[0], "--seed", "1",
                          "--seconds", "1", "--trace", "0", "--tiny"], env)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("perfbench ran with %s set" % var)
        else:
            print("ok   refuses to run with %s set" % var)

    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
