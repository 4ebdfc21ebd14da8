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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bands import BandDecomposition, build_band_system, decompose
from .differences import StepEngine
from .errors import (
    BandRangeEmpty,
    ConfigParseError,
    DimensionTooLow,
    EmptyDecomposition,
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
    resolvable_band_range,
    stable_sum,
    translate,
)
from .maximal import (
    Scale,
    annulus_mean_max,
    annulus_radii,
    unit_sphere_nodes,
    weighted_offset_sup,
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


@dataclass(frozen=True)
class WindowReport:
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
    the sphere measure.  tau_* control the ladder sampling the suprema of
    the _SUP maximal variants over (0, 2).  allow_subgrid permits h_min
    below the grid spacing (steps act on the trigonometric interpolant).
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


@dataclass(frozen=True)
class QuasinormResult:
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


@np.errstate(over="ignore")  # finish raises NonFiniteSample
def _lp_of_array(values: np.ndarray, grid: GridSpec, p: float) -> float:
    """L^p norm of a nonnegative sample array."""
    if p == math.inf:
        return float(values.max(initial=0.0))
    return float((stable_sum(values**p) * grid.cell_volume) ** (1.0 / p))


def _check_finite(*values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise NonFiniteSample("quasinorm aggregate overflows: the samples are too large")


class _ScaleAggregator:
    """Accumulates weighted scale contributions in both aggregation orders.

    Feed nonnegative magnitude arrays g (already weighted by the scale
    factor) tagged with a shell/band index k and a quadrature weight w; for
    the F scale the aggregate is ||(sum w g^q)^(1/q)||_p, for the B scale
    (sum w ||g||_p^q)^(1/q), with maxima replacing sums when q = inf.
    Where only the norms ||g||_p enter, feed them with `add_norm`.
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
            self.add_norm(k, _lp_of_array(magnitudes, self.grid, p), weight)

    def add_norm(self, k: int, norm: float, weight: float = 1.0) -> None:
        """Feed ||g||_p of one magnitude array g instead of g itself.

        These are the B-scale sums; at p = q = 2 they are the F-scale ones
        too, since ||(sum w g^2)^(1/2)||_2^2 = sum w ||g||_2^2.
        """
        if self.params.q == math.inf:
            self.scalars[k] = max(self.scalars.get(k, 0.0), norm)
        else:
            try:
                power = float(norm) ** self.params.q
            except OverflowError:  # finish raises NonFiniteSample
                power = math.inf
            self.scalars[k] = self.scalars.get(k, 0.0) + weight * power

    def finish(self) -> tuple[float, dict[int, float]]:
        """(value, per-scale masses); NonFiniteSample if any overflowed."""
        value, masses = self._totals()
        _check_finite(value, *masses.values())
        return value, masses

    def _totals(self) -> tuple[float, dict[int, float]]:
        p, q = self.params.p, self.params.q
        if self.fields:
            if q == math.inf:
                pooled = np.zeros(self.grid.shape)
                for g in self.fields.values():
                    np.maximum(pooled, g, out=pooled)
                value = _lp_of_array(pooled, self.grid, p)
                masses = {k: _lp_of_array(g, self.grid, p) for k, g in self.fields.items()}
                return value, masses
            pooled = np.zeros(self.grid.shape)
            for g in self.fields.values():
                pooled += g
            value = _lp_of_array(pooled ** (1.0 / q), self.grid, p)
            masses = {
                k: _lp_of_array(g ** (1.0 / q), self.grid, p) ** q
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


def _norms_suffice(params: SpaceParams) -> bool:
    """Whether the step aggregate needs only each step's L^2 norm: p = 2 on
    the B scale, or p = q = 2 on the F scale, whose sums are the B ones."""
    return params.p == 2.0 and (params.scale == "B" or params.q == 2.0)


def _step_sweep(
    field: SampledField,
    params: SpaceParams,
    quads: list[QuadratureSpec],
    per_octave: int,
    directions: np.ndarray,
    direction_weights: np.ndarray,
    step_magnitudes,
    step_norms=None,
) -> list[tuple[float, dict[int, float]]]:
    """Aggregate |h|^(-s) |Delta_h f| over step lengths times directions,
    once per quadrature, and return each aggregate's (value, masses).

    One sweep over the union of the quadratures' length ladders feeds one
    aggregator per quadrature, each with its own lengths and weights, so a
    step shared by several ladders is evaluated once.  step_magnitudes
    maps one step to |Delta_h f| on the grid; step_norms, if given, maps a
    (steps, dim) array to the L^2 norms and serves every step in one call
    where those norms suffice.
    """
    grid = field.grid
    for quad in quads:
        quad.validate_for(grid)
    ladders = [list(zip(*radial_ladder(quad, per_octave))) for quad in quads]
    aggs = [_ScaleAggregator(grid, params) for _ in quads]
    rows = list(_merged_ladders(ladders))
    lengths = [next(node for node in nodes if node is not None)[0] for nodes in rows]
    if step_norms is not None and _norms_suffice(params):
        steps = np.array(lengths)[:, None, None] * directions
        norms = step_norms(steps.reshape(-1, grid.dim)).reshape(len(rows), len(directions))
        for nodes, row in zip(rows, norms.tolist()):
            for agg, node in zip(aggs, nodes):
                if node is not None:
                    rr, rw = node
                    for norm, zw in zip(row, direction_weights):
                        agg.add_norm(shell_index(rr), (rr ** -params.s) * norm, weight=rw * zw)
        return [agg.finish() for agg in aggs]
    for nodes, length in zip(rows, lengths):
        for z, zw in zip(directions, direction_weights):
            mag = step_magnitudes(tuple(length * z))
            for agg, node in zip(aggs, nodes):
                if node is not None:
                    rr, rw = node
                    agg.add(shell_index(rr), (rr ** -params.s) * mag, weight=rw * zw)
    return [agg.finish() for agg in aggs]


def _step_quasinorm(
    field: SampledField,
    params: SpaceParams,
    quad: QuadratureSpec,
    per_octave: int,
    directions: np.ndarray,
    direction_weights: np.ndarray,
    step_magnitudes,
    step_norms=None,
) -> QuasinormResult:
    """Aggregate |h|^(-s) |Delta_h f| over step lengths times directions.

    The value comes from the requested quadrature; the refined quadrature
    (steps acting on the trigonometric interpolant, so sub-spacing lengths
    are exact) measures the divergence growth rate.  Both come from one
    sweep.
    """
    (value, masses), (refined_value, _) = _step_sweep(
        field, params, [quad, _refined(quad)], per_octave,
        directions, direction_weights, step_magnitudes, step_norms,
    )
    report = _tail_report(masses, params.q)
    report["refinement_growth"] = refined_value / value if value > 0.0 else 1.0
    return _result(value, masses, params, report)


def _engine_steps(field: SampledField, order: int):
    """The step magnitude and step norm maps of one StepEngine of field."""
    engine = StepEngine(field)
    return (lambda step: engine.magnitude(step, order),
            lambda steps: engine.norms(steps, order))


def difference_values(
    field: SampledField, params: SpaceParams, quads: list[QuadratureSpec]
) -> list[float]:
    """The `diff` quasinorm value on each quadrature, from one step sweep.

    The quadratures share the node counts of the first.  Only the values
    come out: no refinement growth, flags or per-scale shares, so no
    refined ladder is stepped.
    """
    theta, theta_w = sphere_quadrature(field.grid.dim, quads[0].sphere_nodes)
    results = _step_sweep(
        field, params, quads, quads[0].radial_nodes_per_octave, theta, theta_w,
        *_engine_steps(field, params.L),
    )
    return [value for value, _ in results]


def _difference_core(
    field: SampledField,
    params: SpaceParams,
    quad: QuadratureSpec,
    step_magnitudes,
    step_norms=None,
) -> QuasinormResult:
    """Polar-quadrature aggregate of |h|^(-s) |Delta_h f|.

    F scale: L^p over x of the polar step aggregate; B scale: the polar
    step aggregate of L^p norms.
    """
    theta, theta_w = sphere_quadrature(field.grid.dim, quad.sphere_nodes)
    return _step_quasinorm(
        field, params, quad, quad.radial_nodes_per_octave, theta, theta_w,
        step_magnitudes, step_norms,
    )


def gagliardo_seminorm(
    field: SampledField, s: float, p: float, q: float, quad: QuadratureSpec
) -> QuasinormResult:
    """Double-integral seminorm via the translate-and-subtract step form.

    Uses literal f(x+h) - f(x) on the same polar nodes as the
    order-1 F-scale difference quasinorm, to which it is equal up to
    floating-point roundoff.
    """
    if not (p < math.inf and q < math.inf):
        raise InvalidExponent("gagliardo_seminorm needs p, q < inf")
    params = SpaceParams(s=s, p=p, q=q, L=1, scale="F")
    return _difference_core(
        field, params, quad,
        lambda step: np.abs(translate(field, step).data - field.data),
    )


def axis_quasinorm(
    field: SampledField,
    params: SpaceParams,
    axis: int,
    quad: QuadratureSpec,
) -> QuasinormResult:
    """One-axis step aggregate of t^(-s) Delta^L_(t e_axis) f.

    axis is 1-based following the coordinate-direction convention; the t
    ladder is log-spaced in [h_min, h_max] against dt/t.
    """
    grid = field.grid
    if not (1 <= axis <= grid.dim):
        raise InvalidAxis(f"axis {axis} outside 1..{grid.dim}")
    unit = np.zeros((1, grid.dim))
    unit[0, axis - 1] = 1.0
    return _step_quasinorm(
        field, params, quad, quad.t_nodes_per_octave, unit, np.ones(1),
        *_engine_steps(field, params.L),
    )


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
    with the offset sup and one weighted sup covers all directions.
    Returns one row per length, or per piece, from one stacked scan.
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    grid = engine.grid
    direction_max = np.empty((lengths.size,) + grid.shape)
    for i, h_len in enumerate(lengths):
        direction_max[i] = engine.max_magnitude(h_len * directions, order)
    return weighted_offset_sup(direction_max, grid, 1.0 / lengths, grid.dim / r, pieces)


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
    field: SampledField,
    params: SpaceParams,
    variants: tuple[str, ...],
    quad: QuadratureSpec,
) -> dict[str, QuasinormResult]:
    """Band aggregates of mean-difference maximal fields, computed jointly.

    Variants S / V use the sphere / shell mean at step scale exactly
    2^(-k); S_SUP / V_SUP maximize over the tau ladder of scales tau 2^(-k)
    with tau in (0, 2); D_SUP maximizes single-step weighted sups over
    steps h with |h| in shell-radius ladders below 2^(1-k).

    Each family's ladder holds every scale a band and variant reads, once,
    and is split into pieces: an exact scale 2^(-k) that S or V reads on
    its own, then runs of scales that lie in the same bands' sup ladders.
    One call for the two mean families, and one for D_SUP, returns the
    maximal field of each piece, the max over its scales, so a sup variant
    of band k is the max over the pieces in its ladder.  The plain scales
    sit on the sup ladders, so S <= S_SUP and V <= V_SUP hold pointwise by
    construction.
    """
    for variant in variants:
        if variant not in MAXIMAL_VARIANTS:
            raise ConfigParseError(f"unknown maximal variant {variant!r}")
    grid = field.grid
    if grid.dim < 2:
        raise DimensionTooLow("maximal quasinorms need dim >= 2")
    j_min, j_max = resolvable_band_range(grid)
    k_lo = max(j_min, math.ceil(math.log2(4.0 / grid.box)))
    if k_lo > j_max:
        raise BandRangeEmpty("no band scale fits difference steps in the box")
    sphere_count = quad.sphere_nodes or QUADRATURE_SPHERE_COUNT[grid.dim]
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
    engine = StepEngine(field)
    rows = {}  # family -> maximal field of each piece
    if ladders:
        # one walk over the radii of both families: the shell radii t r_j
        # lie on the lattice of the sphere scales
        labels = pieces["shell"][0] if "shell" in ladders else []
        split = labels[-1] + 1 if labels else 0
        if "sphere" in ladders:
            labels = labels + [split + p for p in pieces["sphere"][0]]
        out = annulus_mean_max(field, ladders.get("shell", []), r, L, sphere_count,
                               spheres=ladders.get("sphere", []), engine=engine, pieces=labels)
        rows["shell"], rows["sphere"] = out[:split], out[split:]
    if "D_SUP" in variants:
        radii = annulus_radii()
        keys = [(m, ridx) for m in range(k_lo, j_max + quad.tau_octaves)
                for ridx in range(radii.size)]
        pieces["point"] = _band_pieces(keys, lambda key: (None, frozenset(
            k for k in bands if k <= key[0] < k + quad.tau_octaves)), bands)
        rows["point"] = _point_sup_field(
            engine, [radii[ridx] * 2.0**-m for m, ridx in keys], r, L,
            unit_sphere_nodes(grid.dim, sphere_count), pieces["point"][0])

    results: dict[str, QuasinormResult] = {}
    for variant in variants:
        family = {"S": "sphere", "S_SUP": "sphere", "V": "shell", "V_SUP": "shell",
                  "D_SUP": "point"}[variant]
        _, alone, sups = pieces[family]
        agg = _ScaleAggregator(grid, params)
        for k in bands:
            if variant in ("S", "V"):
                x_k = rows[family][alone[exact_index(k)]]
            else:
                x_k = np.zeros(grid.shape)
                for p in sups[k]:
                    np.maximum(x_k, rows[family][p], out=x_k)
            agg.add(k, 2.0 ** (k * params.s) * x_k)
        value, masses = agg.finish()
        results[variant] = _result(value, masses, params, _tail_report(masses, params.q))
    return results


def quasinorm(
    field: SampledField,
    characterization: str,
    params: SpaceParams,
    quad: QuadratureSpec | None = None,
) -> QuasinormResult:
    """Dispatch a characterization id to its quasinorm.

    Ids: lp (band decomposition), diff (full polar steps), gagliardo
    (order-1 translate form), axis (sum over all coordinate axes) or
    axis:J for one 1-based axis, and max:S, max:S_SUP, max:V, max:V_SUP,
    max:D_SUP for the mean-difference maximal forms.
    """
    grid = field.grid
    if characterization == "lp":
        system = build_band_system(grid)
        decomp = decompose(field, system, homogeneous=params.homogeneous)
        return lp_band_quasinorm(decomp, params)
    if quad is None:
        quad = default_quadrature(grid)
    if characterization == "diff":
        return _difference_core(field, params, quad, *_engine_steps(field, params.L))
    if characterization == "gagliardo":
        if params.L != 1:
            raise InvalidExponent("gagliardo characterization is order 1")
        return gagliardo_seminorm(field, params.s, params.p, params.q, quad)
    if characterization == "axis" or characterization.startswith("axis:"):
        if characterization == "axis":
            axes = range(1, grid.dim + 1)
        else:
            try:
                axes = [int(characterization.split(":", 1)[1])]
            except ValueError as exc:
                raise ConfigParseError(
                    f"axis:J needs an integer J, got {characterization!r}") from exc
        results = [axis_quasinorm(field, params, a, quad) for a in axes]
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
    if characterization.startswith("max:"):
        variant = characterization[4:]
        return maximal_quasinorm_set(field, params, (variant,), quad)[variant]
    raise ConfigParseError(f"unknown characterization {characterization!r}")
