"""Quasinorms of sampled fields in two aggregation orders.

The F scale takes an outer L^p norm in x of an inner l^q aggregate over
scales; the B scale reverses the order.  Scales are dyadic: band indices j
for frequency decompositions, shell indices k for step lengths, where shell
k holds steps 2^(-k) <= |h| < 2^(1-k).

Every result carries per-scale contributions c_k with the reproduction
contract sum_k c_k^q = value^q (max_k c_k = value when q = inf), a
truncation report extrapolating the mass lost outside the quadrature range,
and a flag: OK, DIVERGENT (difference forms with s >= L, whose continuum
integrals blow up at small steps for smooth inputs), or TRUNCATION-WARN
(extrapolated tails above a quarter of the captured mass, meaning the
reported value materially understates the untruncated aggregate).

`quasinorm` and `maximal_quasinorm_set` also take a sequence of fields on
one grid and return one result per field.  The fields run as stacks
through the calls one field makes: one band system, step engine and
maximal call per stack, so band multipliers, step symbols and energies,
mean symbols and supremum scans are shared, while every field keeps its
own aggregators.  One field is the one-field stack.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bands import BandDecomposition, build_band_system, decompose
from .differences import StepEngine
from .errors import (
    BandRangeEmpty,
    ConfigParseError,
    DimensionTooLow,
    EmptyDecomposition,
    GridMismatch,
    InvalidAxis,
    InvalidExponent,
    NonFiniteSample,
    QuadratureTooCoarse,
    UnknownTheoremId,
)
from .fields import (
    GridSpec,
    SampledField,
    lp_norm,
    lp_of_magnitudes,
    per_chunk,
    resolvable_band_range,
)
from .maximal import (
    Scale,
    _BlockScan,
    annulus_mean_max,
    annulus_radii,
    unit_sphere_nodes,
)

QUADRATURE_SPHERE_COUNT = {1: 2, 2: 32, 3: 64}

THEOREM_IDS = (
    "T2i", "T2ii", "T2iii", "T2iv",
    "T4", "T5",
    "T6i", "T6ii", "T6iii", "T6iv",
    "T7i", "T7ii", "T7iii", "T7iv",
    "T8i", "T8ii", "T8iii", "T8iv", "T8v",
)

CHARACTERIZATION_IDS = (
    "lp", "diff", "gagliardo", "axis",
    "max:S", "max:S_SUP", "max:V", "max:V_SUP", "max:D_SUP",
)


@dataclass(frozen=True)
class SpaceParams:
    """Smoothness/integrability parameters selecting a target space.

    scale F aggregates L^p over x of l^q over scales, scale B the reverse.
    L is the difference order, r the maximal-weight exponent parameter.
    """

    s: float
    p: float
    q: float
    L: int = 1
    r: float = 1.0
    scale: str = "F"
    homogeneous: bool = True

    def __post_init__(self) -> None:
        if self.scale not in ("F", "B"):
            raise InvalidExponent(f"scale must be F or B, got {self.scale!r}")
        if not math.isfinite(self.s):
            raise InvalidExponent(f"s must be finite, got {self.s}")
        if not (self.p > 0) or not (self.q > 0):
            raise InvalidExponent("p and q must be positive")
        if self.scale == "F" and self.homogeneous and not (self.p < math.inf):
            raise InvalidExponent("homogeneous F scale needs p < inf")
        if self.L < 1:
            raise InvalidExponent(f"difference order L must be >= 1, got {self.L}")
        if not (self.r > 0):
            raise InvalidExponent(f"r must be positive, got {self.r}")


@dataclass(frozen=True)
class Thresholds:
    """The four smoothness thresholds entering the hypothesis windows."""

    sigma_pq: float
    sigma_tilde_pq: float
    sigma_tilde1_pq: float
    sigma_p: float


def thresholds(p: float, q: float, n: int) -> Thresholds:
    """Evaluate the four max-formula thresholds exactly."""
    if not (p > 0) or not (q > 0):
        raise InvalidExponent("thresholds need p, q > 0")
    return Thresholds(
        sigma_pq=max(0.0, n * (1.0 / min(p, q) - 1.0)),
        sigma_tilde_pq=max(0.0, n * (1.0 / p - 1.0 / q)),
        sigma_tilde1_pq=max(0.0, 1.0 / p - 1.0 / q),
        sigma_p=max(0.0, n * (1.0 / p - 1.0)),
    )


class WindowReport(NamedTuple):
    """Outcome of a hypothesis-window check for one theorem id."""

    theorem: str
    satisfied: bool
    window: str
    detail: str = ""


def _window(theorem: str, s: float, lo: float, hi: float, extra: str = "",
            extra_ok: bool = True, detail: str = "") -> WindowReport:
    lo_txt = "-inf" if lo == -math.inf else f"{lo:g}"
    hi_txt = "inf" if hi == math.inf else f"{hi:g}"
    text = f"{lo_txt} < s < {hi_txt}" + (f" and {extra}" if extra else "")
    ok = (lo < s < hi) and extra_ok
    return WindowReport(theorem, ok, text, detail)


def _unmet(theorem: str, requirement: str) -> WindowReport:
    return WindowReport(theorem, False, f"requires {requirement}", requirement)


def hypothesis_window(theorem: str, params: SpaceParams, n: int) -> WindowReport:
    """Strict hypothesis check for one equivalence statement.

    All window comparisons on s (and on r where a statement constrains it)
    are strict; boundary values report unsatisfied so downstream experiments
    emit NO-VERDICT rather than asserting at an endpoint.
    """
    if theorem not in THEOREM_IDS:
        raise UnknownTheoremId(f"unknown theorem id {theorem!r}")
    s, p, q, L, r = params.s, params.p, params.q, params.L, params.r
    th = thresholds(p, q, n)
    inf = math.inf

    if theorem == "T2i":
        if not (p < inf and q < inf):
            return _unmet(theorem, "p < inf and q < inf")
        return _window(theorem, s, th.sigma_tilde_pq, L)
    if theorem == "T2ii":
        if not (p < inf and q < inf):
            return _unmet(theorem, "p < inf and q < inf")
        if q < 1:
            return _window(theorem, s, th.sigma_pq + th.sigma_tilde_pq, inf)
        return _window(theorem, s, -float(n), inf)
    if theorem == "T2iii":
        if not (p < inf and q == inf):
            return _unmet(theorem, "p < inf and q = inf")
        return _window(theorem, s, n / p, L)
    if theorem == "T2iv":
        if not (p < inf and q == inf):
            return _unmet(theorem, "p < inf and q = inf")
        return _window(theorem, s, -float(n), inf)

    if theorem == "T4":
        if n < 2:
            return _unmet(theorem, "n >= 2")
        if not (p < inf):
            return _unmet(theorem, "p < inf")
        lo = n / min(p, q)
        r_ok = s > 0 and (n / s < r < min(p, q))
        return _window(theorem, s, lo, L, extra="n/s < r < min(p,q)", extra_ok=r_ok)
    if theorem == "T5":
        if n < 2:
            return _unmet(theorem, "n >= 2")
        lo = 0.0 if p == inf else n / p
        r_ok = s > 0 and n / s < r and (p == inf or r < p)
        return _window(theorem, s, lo, L, extra="n/s < r < p", extra_ok=r_ok)

    if theorem == "T6i":
        if not (p < inf and q < inf):
            return _unmet(theorem, "p < inf and q < inf")
        return _window(theorem, s, th.sigma_tilde1_pq, L)
    if theorem == "T6ii":
        if not (p < inf and q < inf):
            return _unmet(theorem, "p < inf and q < inf")
        if min(p, q) > 1:
            return _window(theorem, s, -inf, inf)
        return _window(theorem, s, th.sigma_pq + th.sigma_tilde1_pq, inf)
    if theorem == "T6iii":
        if not (p < inf and q == inf):
            return _unmet(theorem, "p < inf and q = inf")
        return _window(theorem, s, 1.0 / p, L)
    if theorem == "T6iv":
        if not (p < inf and q == inf):
            return _unmet(theorem, "p < inf and q = inf")
        if p > 1:
            return _window(theorem, s, -inf, inf)
        return _window(theorem, s, th.sigma_p + 1.0 / p, inf)

    if theorem == "T7i":
        if not (q < inf):
            return _unmet(theorem, "q < inf")
        return _window(theorem, s, 0.0, L)
    if theorem == "T7ii":
        if not (q < inf):
            return _unmet(theorem, "q < inf")
        if p > 1 and q >= 1:
            return _window(theorem, s, -inf, inf)
        if p > 1:
            return _window(theorem, s, 0.0, L)
        return _window(theorem, s, th.sigma_p, L)
    if theorem == "T7iii":
        if not (q == inf):
            return _unmet(theorem, "q = inf")
        return _window(theorem, s, 0.0, L)
    if theorem == "T7iv":
        if not (q == inf):
            return _unmet(theorem, "q = inf")
        if p > 1:
            return _window(theorem, s, -inf, inf)
        return _window(theorem, s, th.sigma_p, inf)

    if theorem == "T8i":
        if not (q < inf):
            return _unmet(theorem, "q < inf")
        return _window(theorem, s, 0.0, L)
    if theorem == "T8ii":
        if not (q < inf):
            return _unmet(theorem, "q < inf")
        if p > 1:
            return _window(theorem, s, -inf, inf)
        if p == 1:
            return _unmet(theorem, "p != 1 (see T8v for p = 1)")
        return _window(theorem, s, th.sigma_p, inf)
    if theorem == "T8iii":
        if not (q == inf):
            return _unmet(theorem, "q = inf")
        return _window(theorem, s, 0.0, L)
    if theorem == "T8iv":
        if not (q == inf):
            return _unmet(theorem, "q = inf")
        if p > 1:
            return _window(theorem, s, -inf, inf)
        if p == 1:
            return _unmet(theorem, "p != 1 (see T8v for p = 1)")
        return _window(theorem, s, th.sigma_p, inf)
    # T8v
    if p != 1:
        return _unmet(theorem, "p = 1")
    if q == inf or q >= 1:
        return _window(theorem, s, -float(n), inf)
    return _window(theorem, s, 0.0, inf)


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization of the step-length measures dh/|h|^n and dt/t.

    Radial and t nodes are log-spaced between h_min and h_max with
    log-trapezoid weights; sphere nodes carry uniform weights summing to
    the sphere measure, QUADRATURE_SPHERE_COUNT of them unless sphere_nodes
    is set.  tau_* control the ladder sampling the suprema of the sup
    maximal variants (S_SUP, V_SUP, D_SUP) over (0, 2).  allow_subgrid
    permits h_min below the grid spacing (steps act on the trigonometric
    interpolant).
    """

    h_min: float
    h_max: float
    radial_nodes_per_octave: int = 4
    sphere_nodes: int | None = None
    t_nodes_per_octave: int = 4
    tau_nodes_per_octave: int = 16
    tau_octaves: int = 5
    allow_subgrid: bool = False

    def __post_init__(self) -> None:
        if not (0 < self.h_min < self.h_max):
            raise QuadratureTooCoarse("need 0 < h_min < h_max")
        for name in ("radial_nodes_per_octave", "t_nodes_per_octave",
                     "tau_nodes_per_octave", "tau_octaves"):
            if getattr(self, name) < 1:
                raise QuadratureTooCoarse(f"{name} must be >= 1")

    def validate_for(self, grid: GridSpec) -> None:
        tol = 1.0 + 1e-12
        if not self.allow_subgrid and self.h_min * tol < grid.spacing:
            raise QuadratureTooCoarse(
                f"h_min {self.h_min} below grid spacing {grid.spacing}"
            )
        if self.h_max > grid.box / 4.0 * tol:
            raise QuadratureTooCoarse(
                f"h_max {self.h_max} above box/4 = {grid.box / 4.0}"
            )
        # a 1-D sphere is the two points +1 and -1 whatever the count
        if grid.dim >= 2 and self.sphere_nodes is not None and self.sphere_nodes < 4:
            raise QuadratureTooCoarse(
                f"need at least 4 sphere nodes, got {self.sphere_nodes}"
            )


def default_quadrature(grid: GridSpec, **overrides) -> QuadratureSpec:
    """Quadrature spanning the full usable step range of a grid."""
    kwargs = {"h_min": grid.spacing, "h_max": grid.box / 4.0}
    kwargs.update(overrides)
    return QuadratureSpec(**kwargs)


def _log_trapezoid(nodes: np.ndarray) -> np.ndarray:
    """Trapezoid weights for integration against d(log rho)."""
    x = np.log(nodes)
    w = np.zeros_like(x)
    w[1:-1] = (x[2:] - x[:-2]) / 2.0
    w[0] = (x[1] - x[0]) / 2.0
    w[-1] = (x[-1] - x[-2]) / 2.0
    return w


def radial_ladder(quad: QuadratureSpec, per_octave: int) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced nodes in [h_min, h_max] with d(log)-trapezoid weights."""
    octaves = math.log2(quad.h_max / quad.h_min)
    count = max(2, int(round(octaves * per_octave)) + 1)
    nodes = np.geomspace(quad.h_min, quad.h_max, count)
    return nodes, _log_trapezoid(nodes)


def sphere_quadrature(dim: int, count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Unit-sphere nodes with weights summing to the sphere measure."""
    if count is None:
        count = QUADRATURE_SPHERE_COUNT[dim]
    nodes = unit_sphere_nodes(dim, count)
    total = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[dim]
    weights = np.full(nodes.shape[0], total / nodes.shape[0])
    return nodes, weights


def shell_index(rho: float) -> int:
    """Index k of the dyadic shell 2^(-k) <= rho < 2^(1-k)."""
    return math.ceil(-math.log2(rho) - 1e-12)


class QuasinormResult(NamedTuple):
    """A quasinorm value with its per-scale and truncation diagnostics."""

    value: float
    per_scale: tuple[tuple[int, float], ...]
    truncation_report: dict
    params_echo: SpaceParams
    flag: str


def _shares(value: float, masses: dict[int, float], q: float) -> tuple[tuple[int, float], ...]:
    """Per-scale contributions whose q-aggregate reproduces value exactly."""
    if not masses:
        return ()
    ks = sorted(masses)
    if q == math.inf:
        top = max(masses.values())
        if top == 0.0:
            return tuple((k, 0.0) for k in ks)
        return tuple((k, value * masses[k] / top) for k in ks)
    total = sum(masses.values())
    if total == 0.0:
        return tuple((k, 0.0) for k in ks)
    return tuple((k, value * (masses[k] / total) ** (1.0 / q)) for k in ks)


def _tail_report(masses: dict[int, float], q: float) -> dict:
    """Geometric extrapolation of the mass outside the kept scale range.

    low_tail extends past the smallest kept step (largest shell index),
    high_tail past the largest; each assumes the edge decay ratio persists
    and reports inf when the edge masses grow outward.
    """
    ks = sorted(masses)  # ascending k = biggest steps first
    m = [masses[k] for k in ks]
    total = (max(m) if q == math.inf else sum(m)) if m else 0.0

    def extrapolate(edge: float, inner: float) -> float:
        if edge == 0.0:
            return 0.0
        if inner <= 0.0 or edge >= inner:
            return math.inf
        ratio = edge / inner
        return edge * ratio / (1.0 - ratio)

    if len(m) < 2:
        low = high = 0.0
    else:
        low = extrapolate(m[-1], m[-2])
        high = extrapolate(m[0], m[1])
    return {"low_tail": low, "high_tail": high, "mass_total": total}


REFINEMENT_OCTAVES = 4
DIVERGENCE_GROWTH = 2.0


TAIL_WARN_FRACTION = 0.25


def _flag_for(report: dict) -> str:
    """DIVERGENT on refinement growth, else TRUNCATION-WARN on fat tails.

    Divergence is a rate phenomenon: the flag fires when extending the step
    quadrature four octaves below h_min more than doubles the value, which
    happens for smooth fields when s >= L.  Magnitude plays no role.

    The truncation warning fires when the extrapolated outside-mass tops a
    quarter of the captured mass.  Smaller tails are routine - the small-step
    edge decays only like 2^-(L-s)q per octave - and are left to the
    truncation report itself; a quarter of the mass means the value itself
    is materially understated (an under-resolved or badly windowed run).
    """
    if report.get("refinement_growth", 1.0) > DIVERGENCE_GROWTH:
        return "DIVERGENT"
    total = report.get("mass_total", 0.0)
    tails = report.get("low_tail", 0.0) + report.get("high_tail", 0.0)
    if total > 0.0 and tails > TAIL_WARN_FRACTION * total:
        return "TRUNCATION-WARN"
    return "OK"


def _result(value: float, masses: dict[int, float], params: SpaceParams,
            report: dict) -> QuasinormResult:
    """The result of one aggregate: its shares and the flag of its report."""
    return QuasinormResult(value, _shares(value, masses, params.q), report, params,
                           _flag_for(report))


def _check_finite(*values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise NonFiniteSample("quasinorm aggregate overflows: the samples are too large")


class _ScaleAggregator:
    """Accumulates weighted scale contributions in both aggregation orders.

    Feed nonnegative magnitude arrays g (already weighted by the scale
    factor) tagged with a shell/band index k and a quadrature weight w; for
    the F scale the aggregate is ||(sum w g^q)^(1/q)||_p, for the B scale
    (sum w ||g||_p^q)^(1/q), with maxima replacing sums when q = inf.
    Where only the norms ||g||_p enter, feed them with `add_norms`.
    """

    def __init__(self, grid: GridSpec, params: SpaceParams):
        self.grid = grid
        self.params = params
        self.fields: dict[int, np.ndarray] = {}
        self.scalars: dict[int, float] = {}

    @np.errstate(over="ignore")  # finish raises NonFiniteSample
    def add(self, k: int, magnitudes: np.ndarray, weight: float = 1.0) -> None:
        p, q = self.params.p, self.params.q
        if self.params.scale == "F":
            if q == math.inf:
                g = magnitudes
                slot = self.fields.setdefault(k, np.zeros(self.grid.shape))
                np.maximum(slot, g, out=slot)
            else:
                g = weight * magnitudes**q
                slot = self.fields.setdefault(k, np.zeros(self.grid.shape))
                slot += g
        else:
            norm = lp_of_magnitudes(magnitudes, self.grid, p)
            self.add_norms(k, np.array([norm]), np.array([weight]))

    @np.errstate(over="ignore")  # finish raises NonFiniteSample
    def add_norms(self, k: int, norms: np.ndarray, weights: np.ndarray) -> None:
        """Feed the norms ||g||_p of a row of magnitude arrays g, with their
        weights, instead of the arrays themselves.

        These are the B-scale sums; at p = q = 2 they are the F-scale ones
        too, since ||(sum w g^2)^(1/2)||_2^2 = sum w ||g||_2^2.
        """
        if self.params.q == math.inf:
            self.scalars[k] = max(self.scalars.get(k, 0.0), float(norms.max()))
        else:
            self.scalars[k] = self.scalars.get(k, 0.0) + float(np.dot(weights, norms**self.params.q))

    def finish(self) -> tuple[float, dict[int, float]]:
        """(value, per-scale masses); NonFiniteSample if any overflowed."""
        value, masses = self._totals()
        _check_finite(value, *masses.values())
        return value, masses

    @np.errstate(over="ignore")  # finish raises NonFiniteSample
    def _totals(self) -> tuple[float, dict[int, float]]:
        p, q = self.params.p, self.params.q
        if self.fields:
            if q == math.inf:
                pooled = np.zeros(self.grid.shape)
                for g in self.fields.values():
                    np.maximum(pooled, g, out=pooled)
                value = lp_of_magnitudes(pooled, self.grid, p)
                masses = {k: lp_of_magnitudes(g, self.grid, p) for k, g in self.fields.items()}
                return value, masses
            pooled = np.zeros(self.grid.shape)
            for g in self.fields.values():
                pooled += g
            value = lp_of_magnitudes(pooled ** (1.0 / q), self.grid, p)
            masses = {
                k: float(np.float64(lp_of_magnitudes(g ** (1.0 / q), self.grid, p)) ** q)
                for k, g in self.fields.items()
            }
            return value, masses
        if not self.scalars:
            return 0.0, {}
        if q == math.inf:
            value = max(self.scalars.values())
            return value, dict(self.scalars)
        value = sum(self.scalars.values()) ** (1.0 / q)
        return value, dict(self.scalars)


def lp_band_quasinorm(decomp: BandDecomposition, params: SpaceParams) -> QuasinormResult:
    """Quasinorm of a band decomposition: weights 2^(js) across bands.

    F scale: L^p norm of the pointwise l^q aggregate of 2^(js)|f_j|;
    B scale: l^q aggregate of 2^(js)||f_j||_p.  Inhomogeneous
    decompositions add the L^p norm of the lowpass part to the value.
    """
    if not decomp.bands:
        raise EmptyDecomposition("decomposition holds no bands")
    grid = decomp.system.grid
    agg = _ScaleAggregator(grid, params)
    for j, part in decomp.bands:
        agg.add(j, (2.0 ** (j * params.s)) * np.abs(part.data))
    value, masses = agg.finish()
    if not decomp.homogeneous and decomp.lowpass is not None:
        value += lp_norm(decomp.lowpass, params.p)
        _check_finite(value)
    report = {**_tail_report(masses, params.q), "low_tail": 0.0, "high_tail": 0.0}
    return _result(value, masses, params, report)


def _refined(quad: QuadratureSpec) -> QuadratureSpec:
    """The same quadrature extended four octaves below h_min."""
    return dataclasses.replace(
        quad, h_min=quad.h_min / 2.0**REFINEMENT_OCTAVES, allow_subgrid=True
    )


SHARED_NODE_RTOL = 1e-12


def _merged_ladders(ladders: list[list[tuple[float, float]]]):
    """Yield one node per ladder over the union of the ladders' lengths.

    Each ladder is a list of (length, weight) nodes in ascending length;
    each yielded tuple holds every ladder's node at the current length, or
    None where the length is absent from that ladder.  Lengths equal to
    1e-12 relative are yielded once: with h_min = h_max 2^(-i/m) the
    ladders of halved h_min contain every node of the shorter ones,
    otherwise they share only h_max.
    """
    heads = [0] * len(ladders)
    while True:
        live = [ladder[i][0] for ladder, i in zip(ladders, heads) if i < len(ladder)]
        if not live:
            return
        shortest = min(live)
        row = []
        for j, ladder in enumerate(ladders):
            i = heads[j]
            if i < len(ladder) and ladder[i][0] - shortest <= SHARED_NODE_RTOL * shortest:
                heads[j] += 1
                row.append(ladder[i])
            else:
                row.append(None)
        yield tuple(row)


def _as_stack(field: SampledField | Sequence[SampledField]) -> list[SampledField]:
    """field as a list of fields on one grid, [field] for one field."""
    fields = [field] if isinstance(field, SampledField) else list(field)
    if any(f.grid != fields[0].grid for f in fields):
        raise GridMismatch("stacked fields live on different grids")
    return fields


def _unstack(field: SampledField | Sequence[SampledField], results: list):
    """The one result of a single field, else the list of results."""
    return results[0] if isinstance(field, SampledField) else results


def _groups(fields: list[SampledField]):
    """Yield runs of consecutive fields that fit the working-set budget
    (one field at least)."""
    if fields:
        # one float64 sample per point of each member
        size = per_chunk(8 * fields[0].grid.num_points)
        for lo in range(0, len(fields), size):
            yield fields[lo : lo + size]


def _norms_suffice(params: SpaceParams) -> bool:
    """Whether the step aggregate needs only each step's L^2 norm: p = 2 on
    the B scale, or p = q = 2 on the F scale, whose sums are the B ones."""
    return params.p == 2.0 and (params.scale == "B" or params.q == 2.0)


# Largest |z + z'| of sphere nodes z, z' taken as antipodes: a uniform 2-D
# node and its antipode differ from exact negatives by at most 5.8e-16,
# and the closest 3-D Fibonacci nodes to antipodes are 0.039 apart.
_ANTIPODE_TOL = 1e-14


def _fold_antipodes(directions: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first direction of each antipodal pair, with the pair's summed
    weight, and every unpaired direction with its own, in their order."""
    gap = np.abs(directions[:, None] + directions[None]).max(axis=2)
    partner = gap.argmin(axis=1)
    paired = gap[np.arange(len(directions)), partner] <= _ANTIPODE_TOL
    keep = ~paired | (partner > np.arange(len(directions)))
    return directions[keep], np.where(paired, weights + weights[partner], weights)[keep]


def _step_sweep(
    fields: list[SampledField],
    params: SpaceParams,
    quads: list[QuadratureSpec],
    per_octave: int,
    directions: np.ndarray,
    direction_weights: np.ndarray,
    engine: StepEngine,
) -> list[list[tuple[float, dict[int, float]]]]:
    """Aggregate |h|^(-s) |Delta_h f| over step lengths times directions,
    once per field and quadrature, and return each field's aggregates'
    (value, masses), one per quadrature.

    One sweep over the union of the quadratures' length ladders feeds one
    aggregator per field and quadrature, each with its own lengths and
    weights, so a step shared by several ladders is evaluated once, for
    the whole stack of fields, by the engine of that stack.  Where the
    steps' L^2 norms suffice, `engine.norms` serves every step in one
    call.  There the L^2 norm is even in h, so each antipodal pair of
    directions costs one step per length, and each (field, length,
    quadrature) feeds its row of direction norms to its aggregator at
    once.  Otherwise `engine.magnitudes` steps every direction of one
    length, a chunk of directions at a time, feeding the aggregators in
    (length, direction, field) order: off the lattice, |Delta_{-h} f| is
    |Delta_h f| shifted by a non-lattice h, so its L^p norm may differ.
    """
    grid = fields[0].grid
    for quad in quads:
        quad.validate_for(grid)
    ladders = [list(zip(*radial_ladder(quad, per_octave))) for quad in quads]
    aggs = [[_ScaleAggregator(grid, params) for _ in quads] for _ in fields]
    rows = list(_merged_ladders(ladders))
    lengths = [next(node for node in nodes if node is not None)[0] for nodes in rows]
    if _norms_suffice(params):
        directions, direction_weights = _fold_antipodes(directions, direction_weights)
        steps = np.array(lengths)[:, None, None] * directions
        norms = engine.norms(steps.reshape(-1, grid.dim), params.L)
        for field_aggs, field_norms in zip(aggs, norms.reshape(len(fields), len(rows), -1)):
            for nodes, row in zip(rows, field_norms):
                for agg, node in zip(field_aggs, nodes):
                    if node is not None:
                        rr, rw = node
                        agg.add_norms(shell_index(rr), (rr ** -params.s) * row,
                                      rw * direction_weights)
        return [[agg.finish() for agg in field_aggs] for field_aggs in aggs]
    for nodes, length in zip(rows, lengths):
        # each direction's (fields,) + grid magnitudes
        per_direction = (chunk[:, j] for chunk in engine.magnitudes(length * directions, params.L)
                         for j in range(chunk.shape[1]))
        for zw, mags in zip(direction_weights, per_direction):
            for field_aggs, mag in zip(aggs, mags):
                for agg, node in zip(field_aggs, nodes):
                    if node is not None:
                        rr, rw = node
                        agg.add(shell_index(rr), (rr ** -params.s) * mag, weight=rw * zw)
    return [[agg.finish() for agg in field_aggs] for field_aggs in aggs]


def _step_quasinorm(
    fields: list[SampledField],
    params: SpaceParams,
    quad: QuadratureSpec,
    per_octave: int,
    directions: np.ndarray,
    direction_weights: np.ndarray,
    engine: StepEngine,
) -> list[QuasinormResult]:
    """Aggregate |h|^(-s) |Delta_h f| over step lengths times directions,
    one result per field.

    The value comes from the requested quadrature; the refined quadrature
    (steps acting on the trigonometric interpolant, so sub-spacing lengths
    are exact) measures the divergence growth rate.  Both come from one
    sweep.
    """
    results = []
    for (value, masses), (refined_value, _) in _step_sweep(
        fields, params, [quad, _refined(quad)], per_octave,
        directions, direction_weights, engine,
    ):
        report = _tail_report(masses, params.q)
        report["refinement_growth"] = refined_value / value if value > 0.0 else 1.0
        results.append(_result(value, masses, params, report))
    return results


def difference_values(
    field: SampledField, params: SpaceParams, quads: list[QuadratureSpec]
) -> list[float]:
    """The `diff` quasinorm value on each quadrature, from one step sweep.

    The quadratures share the node counts of the first.  Only the values
    come out: no refinement growth, flags or per-scale shares, so no
    refined ladder is stepped.
    """
    theta, theta_w = sphere_quadrature(field.grid.dim, quads[0].sphere_nodes)
    [results] = _step_sweep(
        [field], params, quads, quads[0].radial_nodes_per_octave, theta, theta_w,
        StepEngine([field]),
    )
    return [value for value, _ in results]


MAXIMAL_VARIANTS = ("S", "S_SUP", "V", "V_SUP", "D_SUP")


def _point_sup_field(
    engine: StepEngine,
    lengths: list[float],
    r: float,
    order: int,
    directions: np.ndarray,
    pieces: list[int],
) -> np.ndarray:
    """Largest single-step weighted sup over directions at each step length.

    The sup weight depends only on |h|, so the direction maximum commutes
    with the offset sup and one weighted sup covers all directions.  Each
    length's direction maximum is fed to one scan as it is formed.  Returns
    one row per piece for each field of the engine's stack, (fields,
    pieces) + grid shape.
    """
    grid = engine.grid
    scan = _BlockScan(grid, grid.dim / r, max(pieces) + 1, engine.stack)
    for h_len, piece in zip(lengths, pieces):
        direction_max = np.zeros(engine.stack + grid.shape)
        for chunk in engine.magnitudes(h_len * directions, order):
            np.maximum(direction_max, chunk.max(axis=1), out=direction_max)
        scan.feed(direction_max, 1.0 / h_len, piece)
    return scan.maxima()


def _band_pieces(keys: list, group, bands: range):
    """Split a ladder into pieces: runs of consecutive keys of one group.

    group(key) is the pair (key, if a variant reads its scale alone, else
    None; the bands whose sup ladders hold it).  Returns the piece of each
    key, the piece of each key read alone, and the pieces of each band's
    sup ladder.
    """
    labels, groups = [], []
    for key in keys:
        if not groups or groups[-1] != group(key):
            groups.append(group(key))
        labels.append(len(groups) - 1)
    alone = {key: p for p, (key, _) in enumerate(groups) if key is not None}
    sups = {k: [p for p, (_, in_sups) in enumerate(groups) if k in in_sups] for k in bands}
    return labels, alone, sups


def maximal_quasinorm_set(
    field: SampledField | Sequence[SampledField],
    params: SpaceParams,
    variants: tuple[str, ...],
    quad: QuadratureSpec,
) -> dict[str, QuasinormResult] | list[dict[str, QuasinormResult]]:
    """Band aggregates of mean-difference maximal fields, computed jointly.

    Variants S / V use the sphere / shell mean at step scale exactly
    2^(-k); S_SUP / V_SUP maximize over the tau ladder of scales tau 2^(-k)
    with tau in (0, 2); D_SUP maximizes single-step weighted sups over
    steps h with |h| in shell-radius ladders below 2^(1-k).

    Each family's ladder holds every scale a band and variant reads, once,
    and is split into pieces: an exact scale 2^(-k) that S or V reads on
    its own, then runs of scales that lie in the same bands' sup ladders.
    One call for the two mean families, and one scan for D_SUP, return
    the maximal field of each piece, the max over its scales, so a sup
    variant of band k is the max over the pieces in its ladder.  The plain scales
    sit on the sup ladders, so S <= S_SUP and V <= V_SUP hold pointwise by
    construction.

    A sequence of fields on one grid gives one dict per field.  They run
    as stacks that fit the working-set budget: one engine per stack, so
    each mean symbol and step symbol serves all its fields, and the same
    calls as for one field, each field's pieces its own.
    """
    for variant in variants:
        if variant not in MAXIMAL_VARIANTS:
            raise ConfigParseError(f"unknown maximal variant {variant!r}")
    fields = _as_stack(field)
    if not fields:
        return []
    grid = fields[0].grid
    if grid.dim < 2:
        raise DimensionTooLow("maximal quasinorms need dim >= 2")
    j_min, j_max = resolvable_band_range(grid)
    k_lo = max(j_min, math.ceil(math.log2(4.0 / grid.box)))
    if k_lo > j_max:
        raise BandRangeEmpty("no band scale fits difference steps in the box")
    directions, _ = sphere_quadrature(grid.dim, quad.sphere_nodes)
    L, r = params.L, params.r
    eta = quad.tau_nodes_per_octave
    bands = range(k_lo, j_max + 1)

    def scale_of(i: int) -> Scale:
        # absolute scales u_i = 2^(1 - k_lo - i/eta); u is exactly 2^(-k)
        # when i = eta (k + 1 - k_lo)
        return Scale(2.0 ** (1 - k_lo)).times_power(-i, eta)

    def exact_index(k: int) -> int:
        return eta * (k + 1 - k_lo)

    def sup_indices(k: int) -> range:
        return range(eta * (k - k_lo) + 1, eta * (k - k_lo + quad.tau_octaves) + 1)

    # family -> its ladder of exact scales, and its pieces
    ladders, pieces = {}, {}
    for family, exact_variant, sup_variant in (("sphere", "S", "S_SUP"), ("shell", "V", "V_SUP")):
        exact = {exact_index(k) for k in bands} if exact_variant in variants else set()
        sups = {k: sup_indices(k) for k in bands} if sup_variant in variants else {}
        indices = sorted(exact.union(*sups.values()))
        if indices:
            ladders[family] = [scale_of(i) for i in indices]
            pieces[family] = _band_pieces(indices, lambda i: (
                i if i in exact else None, frozenset(k for k, sup in sups.items() if i in sup)),
                bands)
    if "D_SUP" in variants:
        radii = annulus_radii()
        keys = [(m, ridx) for m in range(k_lo, j_max + quad.tau_octaves)
                for ridx in range(radii.size)]
        pieces["point"] = _band_pieces(keys, lambda key: (None, frozenset(
            k for k in bands if k <= key[0] < k + quad.tau_octaves)), bands)
    results: list[dict[str, QuasinormResult]] = []
    for group in _groups(fields):
        engine = StepEngine(group)
        rows = {}  # family -> maximal field of each piece, (fields, pieces) + grid shape
        if ladders:
            # the shell radii t r_j lie on the lattice of the sphere scales,
            # so one walk over the radii of both families serves them
            rows["shell"], rows["sphere"] = annulus_mean_max(
                group, ladders.get("shell", []), r, L, len(directions),
                spheres=ladders.get("sphere", []), engine=engine,
                pieces=[pieces[f][0] if f in ladders else [] for f in ("shell", "sphere")])
        if "D_SUP" in variants:
            rows["point"] = _point_sup_field(
                engine, [radii[ridx] * 2.0**-m for m, ridx in keys], r, L,
                directions, pieces["point"][0])
        for i in range(len(group)):
            results.append({})
            for variant in variants:
                family = {"S": "sphere", "S_SUP": "sphere", "V": "shell", "V_SUP": "shell",
                          "D_SUP": "point"}[variant]
                _, alone, sups = pieces[family]
                agg = _ScaleAggregator(grid, params)
                for k in bands:
                    if variant in ("S", "V"):
                        x_k = rows[family][i, alone[exact_index(k)]]
                    else:  # the pieces of band k's sup ladder
                        x_k = rows[family][i, sups[k]].max(axis=0)
                    agg.add(k, 2.0 ** (k * params.s) * x_k)
                value, masses = agg.finish()
                results[-1][variant] = _result(value, masses, params,
                                               _tail_report(masses, params.q))
    return _unstack(field, results)


def quasinorm(
    field: SampledField | Sequence[SampledField],
    characterization: str,
    params: SpaceParams,
    quad: QuadratureSpec | None = None,
) -> QuasinormResult | list[QuasinormResult]:
    """Dispatch a characterization id to its quasinorm.

    Ids: lp (band decomposition), diff (full polar steps), gagliardo
    (diff of order 1), axis (sum over all coordinate axes) or
    axis:J for one 1-based axis, and max:S, max:S_SUP, max:V, max:V_SUP,
    max:D_SUP for the mean-difference maximal forms.

    field may be a sequence of fields on one grid; the result is then a
    list, one result per field.  The fields run as stacks that fit the
    working-set budget, each through the calls one field makes: one band
    system, step engine or maximal call per stack shares its band
    multipliers, step symbols and energies, mean symbols and supremum
    scans.  The aggregates stay per field, and the first field that fails
    raises.
    """
    fields = _as_stack(field)
    results: list[QuasinormResult] = []
    for group in _groups(fields):
        results += _stack_quasinorms(group, characterization, params, quad)
    return _unstack(field, results)


def _stack_quasinorms(
    fields: list[SampledField],
    characterization: str,
    params: SpaceParams,
    quad: QuadratureSpec | None,
) -> list[QuasinormResult]:
    """The quasinorm of each field of one stack.

    diff, gagliardo and each axis of axis are step aggregates of
    |h|^(-s) |Delta_h f|: diff and gagliardo over polar steps, with
    radial_nodes_per_octave lengths and the sphere quadrature's
    directions, axis over t e_J for each axis J, with t_nodes_per_octave
    lengths.  gagliardo is diff of order 1, for p, q < inf.  All of them
    take their steps from one StepEngine of the stack.  F scale: L^p over
    x of the step aggregate; B scale: the step aggregate of L^p norms.
    """
    grid = fields[0].grid
    if characterization == "lp":
        system = build_band_system(grid)
        return [lp_band_quasinorm(decomp, params)
                for decomp in decompose(fields, system, homogeneous=params.homogeneous)]
    if quad is None:
        quad = default_quadrature(grid)
    if characterization.startswith("max:"):
        variant = characterization[4:]
        return [res[variant] for res in maximal_quasinorm_set(fields, params, (variant,), quad)]
    if characterization in ("diff", "gagliardo"):
        if characterization == "gagliardo":
            if params.L != 1:
                raise InvalidExponent("gagliardo characterization is order 1")
            if not (params.p < math.inf and params.q < math.inf):
                raise InvalidExponent("gagliardo characterization needs p, q < inf")
        per_octave = quad.radial_nodes_per_octave
        direction_sets = [sphere_quadrature(grid.dim, quad.sphere_nodes)]
    elif characterization == "axis" or characterization.startswith("axis:"):
        if characterization == "axis":
            axes = range(1, grid.dim + 1)
        else:
            try:
                axes = [int(characterization.split(":", 1)[1])]
            except ValueError as exc:
                raise ConfigParseError(
                    f"axis:J needs an integer J, got {characterization!r}") from exc
            if not (1 <= axes[0] <= grid.dim):
                raise InvalidAxis(f"axis {axes[0]} outside 1..{grid.dim}")
        per_octave = quad.t_nodes_per_octave
        direction_sets = [(np.eye(grid.dim)[a - 1 : a], np.ones(1)) for a in axes]
    else:
        raise ConfigParseError(f"unknown characterization {characterization!r}")
    engine = StepEngine(fields)
    per_set = [_step_quasinorm(fields, params, quad, per_octave, directions, weights, engine)
               for directions, weights in direction_sets]
    if characterization in ("diff", "gagliardo"):
        return per_set[0]
    return [_axis_sum(results, params) for results in zip(*per_set)]


def _axis_sum(results: tuple[QuasinormResult, ...], params: SpaceParams) -> QuasinormResult:
    """The `axis` quasinorm of one field from its one-axis results."""
    value = sum(res.value for res in results)
    masses: dict[int, float] = {}
    for res in results:
        for k, c in res.per_scale:
            contrib = c**params.q if params.q < math.inf else c
            if params.q < math.inf:
                masses[k] = masses.get(k, 0.0) + contrib
            else:
                masses[k] = max(masses.get(k, 0.0), contrib)
    report = _tail_report(masses, params.q)
    report["refinement_growth"] = max(
        res.truncation_report["refinement_growth"] for res in results
    )
    return _result(value, masses, params, report)
