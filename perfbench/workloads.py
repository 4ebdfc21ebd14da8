"""Workloads of the lplab benchmark: seeded inputs, invocation lists, checks.

A workload is a fixed list of lplab CLI invocations.  Its inputs (raw
float64 field files for --in, corpus lists for --config) are generated
from the seed, so the program only ever sees generated data.  Every
invocation's artifacts are checked against invariants that hold for any
seed, and against recorded reference values where the seed has them.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# the reason for each workload is its "why" in BENCHMARK.json
WORKLOADS = ("diff-2d", "maximal-2d", "verify-mix")

CSV_HEADER = "function_id,characterization,s,p,q,L,value,flag"
FLAGS = ("OK", "TRUNCATION-WARN", "DIVERGENT")
REL_TOL = 1e-12


@dataclass(frozen=True)
class Invocation:
    """One lplab CLI call of a workload."""

    name: str  # unique within the workload
    argv: tuple[str, ...]  # CLI arguments without --out
    artifact: str  # base name of the CSV and summary JSON it writes
    rows: int  # CSV rows it must write
    verdict: str | None = None  # required summary verdict or classification


# ---------------------------------------------------------------------------
# seeded inputs (unit box throughout)


def _field(rng: np.random.Generator, dim: int, n: int) -> np.ndarray:
    """Real periodic field: three gaussian bumps plus a band-limited ripple."""
    x = np.arange(n) / n
    axes = np.meshgrid(*([x] * dim), indexing="ij", sparse=True)
    data = np.zeros((n,) * dim)
    for _ in range(3):
        center = rng.uniform(0.0, 1.0, dim)
        width = (4.0 / n) * ((n / 32.0) ** rng.uniform())  # 4 spacings .. box/8
        r2 = sum(((a - c + 0.5) % 1.0 - 0.5) ** 2 for a, c in zip(axes, center))
        data = data + rng.uniform(0.5, 1.5) * np.exp(-r2 / width**2)
    k = np.fft.fftfreq(n, 1.0 / n)
    rho = np.sqrt(sum(kk**2 for kk in np.meshgrid(*([k] * dim), indexing="ij", sparse=True)))
    shell = (rho >= 2.0) & (rho < n / 8.0)
    ripple = np.fft.ifftn(np.where(shell, np.fft.fftn(rng.standard_normal(data.shape)), 0.0)).real
    return data + 0.25 * ripple / np.abs(ripple).max()


def _corpus(rng: np.random.Generator, dim: int, n: int) -> list[dict]:
    """Twelve test-function specs inside the grid's capability.

    Widths stay in [4 spacings, box/8] (exactly 0.125 at n=32) and band
    indices in the resolvable range [1, log2(n/2) - 1], else sampling
    raises UnresolvableSpec.
    """
    lo, hi = 4.0 / n, 1.0 / 8.0
    j_max = int(math.log2(n / 2)) - 1

    def width() -> float:
        return min(hi, lo * (hi / lo) ** float(rng.uniform()))

    def center() -> list[float]:
        return [float(c) for c in rng.uniform(0.0, 1.0, dim)]

    def modulation() -> list[int]:
        m = [0] * dim
        m[int(rng.integers(dim))] = int(rng.choice([-1, 1]) * rng.integers(1, n // 8 + 1))
        return m

    specs: list[dict] = []
    for i in range(3):
        specs.append({"family": "gaussian", "width": width(), "center": center(),
                      "label": f"gauss{i}"})
    for i in range(2):
        specs.append({"family": "modulated_gaussian", "width": width(),
                      "center": center(), "modulation": modulation(),
                      "label": f"modulated{i}"})
    for i in range(2):
        specs.append({"family": "smooth_bump", "width": width(), "center": center(),
                      "label": f"bump{i}"})
    for i in range(3):
        specs.append({"family": "random_band", "band_index": int(rng.integers(1, j_max + 1)),
                      "seed": int(rng.integers(2**31)), "label": f"band{i}"})
    specs.append({"family": "windowed_polynomial", "width": width(), "center": center(),
                  "degree": int(rng.integers(1, 5)), "label": "poly"})
    specs.append({"family": "weierstrass", "ratio_a": float(rng.uniform(0.3, 0.7)),
                  "ratio_b": int(rng.integers(2, 4)), "terms": int(rng.integers(4, 9)),
                  "label": "lacunary"})
    return specs


def _write_field(work: str, name: str, data: np.ndarray) -> str:
    path = os.path.join(work, name)
    np.ascontiguousarray(data, dtype=np.float64).tofile(path)
    return path


def _write_corpus(work: str, name: str, specs: list[dict]) -> str:
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"corpus": specs}, fh)
    return path


def build(workload: str, seed: int, work: str) -> list[Invocation]:
    """Write the seeded inputs of a workload into work and list its calls."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(work, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    if workload == "diff-2d":
        grid = ("--grid-dim", "2", "--grid-n", "128")
        a = _write_field(work, "plane_a.bin", _field(rng, 2, 128))
        b = _write_field(work, "plane_b.bin", _field(rng, 2, 128))
        calls = []
        for space, L, s, path in (("F", 1, 0.5, a), ("F", 2, 1.25, b),
                                  ("B", 1, 0.5, b), ("B", 2, 1.25, a)):
            calls.append(Invocation(
                f"diff-{space}-L{L}",
                ("norm", "--characterization", "diff", *grid, "--space", space,
                 "--L", str(L), "--s", str(s), "--in", path),
                "norm", 1,
            ))
        return calls

    if workload == "maximal-2d":
        calls = []
        for i in range(4):
            path = _write_field(work, f"plane64_{i}.bin", _field(rng, 2, 64))
            calls.append(Invocation(
                f"maximal-64-{i}",
                ("maximal", "--variants", "S,V", "--grid-dim", "2", "--grid-n", "64",
                 "--in", path),
                "maximal", 2,
            ))
        path = _write_field(work, "plane32.bin", _field(rng, 2, 32))
        calls.append(Invocation(
            "maximal-32-all",
            ("maximal", "--variants", "S,V,S_SUP,V_SUP,D_SUP", "--grid-dim", "2",
             "--grid-n", "32", "--in", path),
            "maximal", 5,
        ))
        return calls

    line = _write_corpus(work, "corpus_line.json", _corpus(rng, 1, 512))
    plane = _write_corpus(work, "corpus_plane.json", _corpus(rng, 2, 32))
    probe = _write_field(work, "line256.bin", _field(rng, 1, 256))
    return [
        Invocation(
            "equivalence-T2i",
            ("verify", "equivalence", "--pair", "lp,diff", "--theorem", "T2i",
             "--grid-dim", "1", "--grid-n", "512", "--config", line),
            "verify_equivalence", 12, "PASS",
        ),
        Invocation(
            "equivalence-T4",
            ("verify", "equivalence", "--pair", "lp,max:V", "--theorem", "T4",
             "--grid-dim", "2", "--grid-n", "32", "--s", "1.5", "--L", "2",
             "--r", "1.5", "--config", plane),
            "verify_equivalence", 12, "PASS",
        ),
        Invocation(
            "divergence",
            ("verify", "divergence", "--grid-dim", "1", "--grid-n", "256", "--in", probe),
            "verify_divergence", 5, "CONVERGENT",
        ),
    ]


# ---------------------------------------------------------------------------
# output checks


def read_record(inv: Invocation, exit_code: int, out_dir: str) -> tuple[dict, bytes]:
    """The comparable outcome of one call, plus its artifact bytes.

    The record holds the exit code, every CSV row as (function_id,
    characterization, value, flag) and the summary's verdict or
    classification.  Missing or unreadable artifacts raise OSError or
    ValueError.
    """
    with open(os.path.join(out_dir, f"{inv.artifact}.csv"), "rb") as fh:
        csv_bytes = fh.read()
    with open(os.path.join(out_dir, f"{inv.artifact}_summary.json"), "rb") as fh:
        json_bytes = fh.read()
    lines = csv_bytes.decode("utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("CSV header differs from the fixed header")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 8:
            raise ValueError(f"CSV row has {len(cells)} cells: {line!r}")
        rows.append([cells[0], cells[1], float(cells[6]), cells[7]])
    summary = json.loads(json_bytes)
    verdict = summary.get("verdict", summary.get("classification"))
    record = {"exit": exit_code, "rows": rows, "verdict": verdict}
    return record, csv_bytes + json_bytes


def problems(inv: Invocation, record: dict, reference: dict | None) -> list[str]:
    """Every way a call's record breaks the invariants or the reference."""
    out = []
    if record["exit"] != 0:
        out.append(f"exit code {record['exit']}")
    if len(record["rows"]) != inv.rows:
        out.append(f"{len(record['rows'])} CSV rows, expected {inv.rows}")
    for fid, cid, value, flag in record["rows"]:
        if not (math.isfinite(value) and value > 0.0):
            out.append(f"{fid} {cid}: value {value!r} not finite and positive")
        if flag not in FLAGS:
            out.append(f"{fid} {cid}: unknown flag {flag!r}")
    if inv.verdict is not None and record["verdict"] != inv.verdict:
        out.append(f"verdict {record['verdict']!r}, expected {inv.verdict!r}")
    if reference is None:
        return out
    if reference["exit"] != record["exit"] or reference["verdict"] != record["verdict"]:
        out.append("exit code or verdict differs from the reference")
    if len(reference["rows"]) != len(record["rows"]):
        out.append("row count differs from the reference")
        return out
    for got, want in zip(record["rows"], reference["rows"]):
        if got[0] != want[0] or got[1] != want[1] or got[3] != want[3]:
            out.append(f"row {got[:2]} / flag {got[3]} differs from reference {want}")
        elif abs(got[2] - want[2]) > REL_TOL * abs(want[2]):
            out.append(f"{got[0]} {got[1]}: value {got[2]!r}, reference {want[2]!r}")
    return out
