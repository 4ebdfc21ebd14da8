"""The lplab benchmark: closed-loop runs of fresh lplab CLI processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload diff-2d --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload diff-2d --seed 0 --record

One client runs the workload's invocation list in whole passes, one child
process at a time, each in a new interpreter, since every CLI user pays
interpreter start, imports and lazy tables on every call.  Passes repeat
while the next one is expected to end within --seconds.  Every
call's artifacts are checked (workloads.problems), must repeat byte for
byte within the run, and must match perfbench/reference/ for the seeds
recorded there.  The last line of stdout is one JSON object with
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of perfbench/tracer.py with --trace 1.
--record writes the reference of one seed from a single pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
WORK_ROOT = ".bench_work"
SETUP_REPEATS = 9
RUN_LIMIT_S = 165.0  # children are killed past this, so a run ends within 180 s

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "invocation_s.p50": "s", "invocation_s.p90": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "fields.fft_calls": "count",
    "fields.fft_points": "count",
    "fields.fft_s": "s",
    "differences.iterated_difference.calls": "count",
    "differences.iterated_difference.self_s": "s",
    "differences.distinct_step_ratio": "ratio",
    "maximal.weighted_offset_sup.calls": "count",
    "maximal.weighted_offset_sup.self_s": "s",
    "maximal.mean_max.calls": "count",
    "maximal.mean_max.self_s": "s",
    "bands.decompose.calls": "count",
    "bands.decompose.self_s": "s",
    "quasinorms.calls": "count",
    "quasinorms.self_s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}
# per-layer metrics that count work: they must repeat exactly across passes
EXACT_LAYER_METRICS = tuple(
    name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "ratio")
) + ("cli.artifact_bytes",)


@dataclass
class Sample:
    """One finished child: its cost and whether its outputs passed."""

    invocation: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]
    layers: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def spawn(cmd: list[str], log_dir: str, timeout: float) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, CPU s, max RSS MB).

    CPU and RSS come from the child's own rusage (os.wait4 on its pid), so
    they are not mixed with earlier children as RUSAGE_CHILDREN would be.
    """
    with open(os.path.join(log_dir, "stdout"), "wb") as out, \
            open(os.path.join(log_dir, "stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def measure_setup(work: str) -> list[float]:
    """Wall times of fresh interpreters importing lplab.cli (after one warm-up)."""
    cmd = [sys.executable, "-c", "import lplab.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        code, wall, _, _ = spawn(cmd, work, 60.0)
        if code != 0:
            raise RuntimeError("importing lplab.cli failed:\n" + _tail(work))
        if i:
            times.append(wall)
    return times


def _tail(log_dir: str) -> str:
    with open(os.path.join(log_dir, "stderr"), "r", encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-5:])


# ---------------------------------------------------------------------------
# trace aggregation


def layer_totals(trace: dict) -> dict:
    """Per-layer calls, self time and work counts of one traced call.

    A span's self time is its duration minus the durations of its direct
    children; the calls are serial, so children never overlap.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    fft_points = 0
    step_keys = set()
    for (name, start, end, _, detail), inner in zip(spans, child_time):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
        if name == "fields.fft":
            fft_points += detail
        elif name == "differences.iterated_difference":
            step_keys.add(detail)
    return {"calls": calls, "self_s": self_s, "fft_points": fft_points,
            "distinct_steps": len(step_keys), "overhead_s": trace["overhead_s"]}


def layer_metrics(samples: list[Sample], artifact_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one pass, summed over its calls."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    points = distinct = 0
    overhead = 0.0
    for sample in samples:
        layers = sample.layers
        for name, value in layers["calls"].items():
            calls[name] = calls.get(name, 0) + value
        for name, value in layers["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        points += layers["fft_points"]
        distinct += layers["distinct_steps"]
        overhead += layers["overhead_s"]
    diffs = calls.get("differences.iterated_difference", 0)
    out = {
        "fields.fft_calls": calls.get("fields.fft", 0),
        "fields.fft_points": points,
        "fields.fft_s": self_s.get("fields.fft", 0.0),
        "differences.distinct_step_ratio": distinct / diffs if diffs else 1.0,
        "cli.artifact_bytes": artifact_bytes,
        "trace.overhead_s": overhead,
    }
    for span in ("differences.iterated_difference", "maximal.weighted_offset_sup",
                 "maximal.mean_max", "bands.decompose", "quasinorms"):
        out[f"{span}.calls"] = calls.get(span, 0)
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
    out["verify.self_s"] = self_s.get("verify", 0.0)
    out["cli.self_s"] = self_s.get("cli", 0.0)
    return out


# ---------------------------------------------------------------------------
# the measured loop


class Run:
    """One benchmark run: the seeded call list, its checks and its samples."""

    def __init__(self, workload: str, seed: int, trace: bool, work: str):
        self.trace = trace
        self.work = work
        self.started = time.perf_counter()
        self.invocations = workloads.build(workload, seed, os.path.join(work, "inputs"))
        path = os.path.join(REFERENCE_DIR, f"{workload}-seed{seed}.json")
        self.reference = None
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                self.reference = json.load(fh)["invocations"]
        self.first_bytes: dict[str, bytes] = {}
        self.first_layers: dict[str, dict] = {}
        self.records: dict[str, dict] = {}
        self.passes: list[list[Sample]] = []
        self.pass_bytes: list[int] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def call(self, inv: workloads.Invocation, index: int) -> tuple[Sample, int]:
        run_dir = os.path.join(self.work, f"call{index}")
        out_dir = os.path.join(run_dir, "out")
        os.makedirs(run_dir)
        cmd = [sys.executable]
        if self.trace:
            cmd += [os.path.join(HERE, "tracer.py"), os.path.join(run_dir, "spans.json"), "--"]
        else:
            cmd += ["-m", "lplab.cli"]
        cmd += [*inv.argv, "--out", out_dir]
        code, wall, cpu, rss = spawn(cmd, run_dir, self.remaining())
        sample = Sample(inv.name, wall, cpu, rss, [])
        size = 0
        try:
            record, artifacts = workloads.read_record(inv, code, out_dir)
            size = len(artifacts)
            reference = self.reference.get(inv.name) if self.reference else None
            sample.problems = workloads.problems(inv, record, reference)
            self.records[inv.name] = record
            if self.first_bytes.setdefault(inv.name, artifacts) != artifacts:
                sample.problems.append("artifacts differ from this run's first call")
            if self.trace:
                with open(os.path.join(run_dir, "spans.json"), "r", encoding="utf-8") as fh:
                    sample.layers = layer_totals(json.load(fh))
                counts = {k: v for k, v in sample.layers.items()
                          if k not in ("self_s", "overhead_s")}
                if self.first_layers.setdefault(inv.name, counts) != counts:
                    sample.problems.append("work counts differ from this run's first call")
        except (OSError, ValueError, KeyError) as exc:
            sample.problems.append(f"unreadable output: {exc}")
        if sample.problems:
            sample.problems.insert(0, f"exit code {code}; stderr: {_tail(run_dir).strip()}")
        shutil.rmtree(run_dir, ignore_errors=True)
        return sample, size

    def measure(self, seconds: float, at_least: int = 1) -> None:
        """Whole passes while the next is expected to end within seconds."""
        index = 0
        while True:
            begun = time.perf_counter()
            samples, size = [], 0
            for inv in self.invocations:
                sample, written = self.call(inv, index)
                samples.append(sample)
                size += written
                index += 1
            self.passes.append(samples)
            self.pass_bytes.append(size)
            took = time.perf_counter() - begun
            elapsed = time.perf_counter() - self.started
            if len(self.passes) >= at_least and (
                elapsed + took > seconds or self.remaining() < 1.5 * took
            ):
                return

    def samples(self) -> list[Sample]:
        return [s for p in self.passes for s in p]

    def per_invocation(self, field: str) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for s in self.samples():
            out.setdefault(s.invocation, []).append(getattr(s, field))
        return out

    def end_to_end(self, setup: list[float]) -> dict[str, float]:
        walls = [s.wall_s for s in self.samples()]
        return {
            "wall_s": sum(statistics.median(v) for v in self.per_invocation("wall_s").values()),
            "cpu_s": sum(statistics.median(v) for v in self.per_invocation("cpu_s").values()),
            "invocation_s.p50": statistics.median(walls),
            "invocation_s.p90": statistics.quantiles(walls, n=10, method="inclusive")[8],
            "peak_rss_mb": max(s.rss_mb for s in self.samples()),
            "setup_s": statistics.median(setup),
        }

    def per_layer(self) -> dict[str, float]:
        per_pass = [layer_metrics(p, b) for p, b in zip(self.passes, self.pass_bytes)]
        return {
            name: (per_pass[0][name] if name in EXACT_LAYER_METRICS
                   else statistics.median(m[name] for m in per_pass))
            for name in PER_LAYER_UNITS
        }


# ---------------------------------------------------------------------------
# reporting


def report(run: Run, metrics: dict[str, float], units: dict[str, str], setup_n: int) -> dict:
    samples = run.samples()
    failed = sum(1 for s in samples if s.problems)
    for s in samples:
        for problem in s.problems:
            print(f"FAILED {s.invocation}: {problem}", file=sys.stderr)
    counts = {name: len(v) for name, v in run.per_invocation("wall_s").items()}
    print(f"{len(run.passes)} passes, {len(samples)} calls: "
          + ", ".join(f"{k} x{v}" for k, v in counts.items()))
    sample_counts = {
        "wall_s": "sum of per-call medians", "cpu_s": "sum of per-call medians",
        "invocation_s.p50": f"{len(samples)} calls", "invocation_s.p90": f"{len(samples)} calls",
        "peak_rss_mb": f"max of {len(samples)} calls", "setup_s": f"median of {setup_n} imports",
    }
    for name, value in metrics.items():
        how = sample_counts.get(name, f"median of {len(run.passes)} passes"
                                if units[name] == "s" else "per pass")
        print(f"  {name:42s} {value:14.6f} {units[name]:6s} ({how})")
    print(f"  failed_frac {failed / len(samples):.6f} ({failed} of {len(samples)} calls)")
    if run.trace:
        wall = statistics.median(sum(s.wall_s for s in p) for p in run.passes)
        shares = sorted(((v / wall, k) for k, v in metrics.items()
                         if k.endswith("self_s") or k == "fields.fft_s"), reverse=True)
        print("  self-time share of traced wall: "
              + ", ".join(f"{k} {v:.0%}" for v, k in shares[:4]))
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def record_reference(run: Run, workload: str, seed: int) -> int:
    bad = [p for s in run.samples() for p in s.problems]
    if bad or len(run.records) != len(run.invocations):
        print("not recording: " + "; ".join(bad), file=sys.stderr)
        return 1
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, f"{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "invocations": run.records}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write perfbench/reference/<workload>-seed<seed>.json")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join("src", "lplab", "cli.py")):
        print("error: run from the repository root; src/lplab/cli.py not found",
              file=sys.stderr)
        return 2

    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        os.makedirs(work)
        setup = [] if args.trace or args.record else measure_setup(work)
        run = Run(args.workload, args.seed, bool(args.trace), work)
        if args.record:
            run.measure(0.0)
            return record_reference(run, args.workload, args.seed)
        run.measure(args.seconds)
        if args.trace:
            result = report(run, run.per_layer(), PER_LAYER_UNITS, 0)
        else:
            result = report(run, run.end_to_end(setup), END_TO_END_UNITS, len(setup))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
