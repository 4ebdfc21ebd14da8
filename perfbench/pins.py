"""Assert the benchmark's pinned work counters.

Usage (from the repository root): python3 perfbench/pins.py [--seed N]

Runs every workload traced for two whole passes and fails unless
  - each default-quadrature `norm diff` call at 2-D n=128 makes exactly
    1856 iterated_difference calls (672 polar steps plus 1184 for the
    refinement pass), and
  - every per-call work count (calls, FFT points, distinct steps,
    artifact bytes) repeats exactly between the two passes.
The counts describe today's algorithms: a change that removes work moves
them on purpose, and updates this pin in a change of its own.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run
import workloads

DIFF_CALLS_PER_NORM = 1856


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    failures = []
    for workload in workloads.WORKLOADS:
        work = os.path.join(run.WORK_ROOT, f"pins-{workload}-{os.getpid()}")
        try:
            os.makedirs(work)
            traced = run.Run(workload, args.seed, True, work)
            traced.measure(0.0, at_least=2)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for sample in traced.samples():
            failures += [f"{workload} {sample.invocation}: {p}" for p in sample.problems]
            calls = sample.layers["calls"].get("differences.iterated_difference", 0)
            if workload == "diff-2d" and calls != DIFF_CALLS_PER_NORM:
                failures.append(f"{sample.invocation}: {calls} iterated_difference calls, "
                                f"pinned {DIFF_CALLS_PER_NORM}")
        first, second = (run.layer_metrics(p, b) for p, b in zip(traced.passes, traced.pass_bytes))
        for name in run.EXACT_LAYER_METRICS:
            if first[name] != second[name]:
                failures.append(f"{workload} {name}: {first[name]} then {second[name]}")
            print(f"{workload:11s} {name:40s} {first[name]}")
    for failure in failures:
        print("FAILED " + failure, file=sys.stderr)
    print("pins hold" if not failures else f"{len(failures)} pin failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
