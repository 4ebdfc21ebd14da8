"""Maximal fields: ball means, weighted suprema, and mean-difference forms.

All suprema run over the full lattice of periodic offsets with minimal-image
distances, so every maximal field dominates its base field pointwise by the
zero-offset term.  The weighted supremum

    g(x) = max_z u(x - z) * (1 + scale |z|)^(-exponent)

is evaluated exactly; offsets are visited in decreasing weight order and the
scan stops once the best remaining weight cannot beat the current floor
anywhere, which keeps fast-decaying weights cheap without changing results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .differences import StepEngine, finite_magnitude, iterated_difference
from .errors import (
    DimensionTooLow,
    GridMismatch,
    InvalidExponent,
    QuadratureTooCoarse,
    ShapeMismatch,
)
from .fields import GridSpec, SampledField

_GATHER_BUDGET = 4_194_304  # elements per gather chunk
_TABLE_LIMIT = 1 << 25  # cache full gather tables up to this many entries

DEFAULT_SPHERE_COUNT = {1: 2, 2: 64, 3: 256}
DEFAULT_ANNULUS_RADII = 8


@dataclass(frozen=True)
class MaximalSpec:
    """Variant selector for :func:`maximal_field`.

    variant: HL (ball means of |f|), PEETRE (weighted sup of |f|),
    SPHERE_S / BALL_V (weighted sup of a sphere / annulus mean of the
    t-scaled difference), POINT_D (weighted sup of one fixed-step
    difference, step = t * direction).
    """

    variant: str
    t: float = 1.0
    r: float = 1.0
    order: int = 1
    direction: tuple[float, ...] | None = None
    sphere_count: int | None = None
    radial_count: int = DEFAULT_ANNULUS_RADII

    def __post_init__(self) -> None:
        if self.variant not in ("HL", "PEETRE", "SPHERE_S", "BALL_V", "POINT_D"):
            raise InvalidExponent(f"unknown maximal variant {self.variant!r}")
        if not (self.t > 0):
            raise InvalidExponent(f"scale t must be positive, got {self.t}")
        if not (self.r > 0):
            raise InvalidExponent(f"exponent r must be positive, got {self.r}")
        if self.order < 1:
            raise InvalidExponent(f"difference order must be >= 1, got {self.order}")


@lru_cache(maxsize=16)
def _offset_tables(grid: GridSpec) -> tuple[tuple[np.ndarray, ...], np.ndarray, tuple[np.ndarray, ...]]:
    """Lattice offsets sorted by minimal-image radius, plus point coords.

    All index math fits int32 because grids are capped at 2^30 points.
    """
    radii = grid.minimal_image_radii().ravel(order="C")
    order_idx = np.argsort(radii, kind="stable")
    idx = np.unravel_index(order_idx, grid.shape)
    offsets = tuple(a.astype(np.int32) for a in idx)
    coords = np.indices(grid.shape).reshape(grid.dim, -1)
    points = tuple(c.astype(np.int32) for c in coords)
    return offsets, radii[order_idx], points


def _gather_rows(grid: GridSpec, start: int, stop: int) -> np.ndarray:
    """Flat indices of x - z for offsets[start:stop], one row per offset."""
    offsets, _, points = _offset_tables(grid)
    n = grid.n
    flat = np.zeros((stop - start, grid.num_points), dtype=np.int32)
    for a in range(grid.dim):
        comp = (points[a][None, :] - offsets[a][start:stop, None]) % n
        flat *= n
        flat += comp
    return flat


@lru_cache(maxsize=2)
def _full_gather_table(grid: GridSpec) -> np.ndarray:
    """The complete (num_points, num_points) gather table, small grids only."""
    return _gather_rows(grid, 0, grid.num_points)


def weighted_offset_sup(
    field_magnitudes: np.ndarray,
    grid: GridSpec,
    scale: float,
    exponent: float,
) -> np.ndarray:
    """Exact sup over lattice offsets z of u(x-z) (1 + scale |z|)^(-exponent)."""
    if field_magnitudes.shape != grid.shape:
        raise ShapeMismatch("magnitude array does not match the grid")
    if scale < 0 or exponent < 0:
        raise InvalidExponent("weight scale and exponent must be nonnegative")
    u = np.ascontiguousarray(field_magnitudes, dtype=np.float64).ravel(order="C")
    u_max = float(u.max(initial=0.0))
    out = np.zeros(grid.num_points)
    if u_max == 0.0:
        return out.reshape(grid.shape)
    _, radii, _ = _offset_tables(grid)
    weights = (1.0 + scale * radii) ** (-exponent)
    total = radii.size
    chunk = max(1, min(total, _GATHER_BUDGET // max(1, grid.num_points)))
    table = None
    if total * grid.num_points <= _TABLE_LIMIT:
        table = _full_gather_table(grid)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        flat = table[start:stop] if table is not None else _gather_rows(grid, start, stop)
        gathered = u[flat]
        gathered *= weights[start:stop, None]
        np.maximum(out, gathered.max(axis=0), out=out)
        if stop < total and weights[stop] * u_max <= float(out.min()):
            break
    return out.reshape(grid.shape)


def peetre_max(field: SampledField, t: float, r: float) -> SampledField:
    """Weighted sup of |f| with weight (1 + t |z|)^(-dim/r)."""
    if not (t > 0 and r > 0):
        raise InvalidExponent("peetre_max needs t > 0 and r > 0")
    grid = field.grid
    out = weighted_offset_sup(np.abs(field.data), grid, t, grid.dim / r)
    return SampledField(grid, out.astype(complex))


def hardy_littlewood_max(field: SampledField) -> SampledField:
    """Max over a dyadic ladder of ball radii of the ball mean of |f|.

    The ladder is spacing * 2^i up to box/2 together with the degenerate
    single-point ball, so the result dominates |f| exactly.
    """
    grid = field.grid
    mag = np.abs(field.data)
    out = mag.copy()
    radii = grid.minimal_image_radii()
    mag_hat = np.fft.fftn(mag)
    delta = grid.spacing
    while delta <= grid.box / 2.0 + 1e-12 * grid.box:
        ball = (radii <= delta + 1e-12 * grid.box).astype(np.float64)
        count = ball.sum()
        mean = np.fft.ifftn(mag_hat * np.fft.fftn(ball)).real / count
        np.maximum(out, mean, out=out)
        delta *= 2.0
    return SampledField(grid, out.astype(complex))


def unit_sphere_nodes(dim: int, count: int | None = None) -> np.ndarray:
    """Quadrature nodes on the unit sphere, shape (count, dim).

    dim 1 uses the two-point sphere {+1, -1}; dim 2 uniform angles; dim 3 a
    Fibonacci spiral.  Node weights are uniform in all three cases.
    """
    if count is None:
        count = DEFAULT_SPHERE_COUNT[dim]
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if count < 4:
        raise QuadratureTooCoarse(f"need at least 4 sphere nodes, got {count}")
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if dim == 3:
        i = np.arange(count)
        z = 1.0 - (2.0 * i + 1.0) / count
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = np.pi * (3.0 - math.sqrt(5.0))
        return np.column_stack([rho * np.cos(golden * i), rho * np.sin(golden * i), z])
    raise DimensionTooLow(f"no sphere nodes for dim {dim}")


def annulus_nodes(
    dim: int, sphere_count: int | None = None, radial_count: int = DEFAULT_ANNULUS_RADII
) -> tuple[np.ndarray, np.ndarray]:
    """Volume-quadrature nodes for the shell {1 <= |z| < 2}.

    Returns (points, weights); weights sum to 1 so weighting realizes the
    volume average over the shell.
    """
    if radial_count < 2:
        raise QuadratureTooCoarse(f"need at least 2 annulus radii, got {radial_count}")
    sphere = unit_sphere_nodes(dim, sphere_count)
    radii = 2.0 ** ((np.arange(radial_count) + 0.5) / radial_count)
    radial_w = radii**dim  # volume density against d(log rho)
    points = (radii[:, None, None] * sphere[None, :, :]).reshape(-1, dim)
    weights = np.repeat(radial_w, sphere.shape[0])
    return points, weights / weights.sum()


def annulus_radii(radial_count: int = DEFAULT_ANNULUS_RADII) -> np.ndarray:
    """The log-spaced shell radii used by :func:`annulus_nodes`."""
    return 2.0 ** ((np.arange(radial_count) + 0.5) / radial_count)


def _mean_difference_magnitude(
    engine: StepEngine,
    points: np.ndarray,
    weights: np.ndarray,
    t: float,
    order: int,
) -> np.ndarray:
    """|sum_m w_m diff(f, t z_m, L)|, built as one averaged spectral symbol."""
    grid = engine.grid
    symbol = np.zeros(grid.shape, dtype=complex)
    for z, w in zip(points, weights):
        symbol += w * engine.symbol(tuple(t * z[a] for a in range(grid.dim)), order)
    return finite_magnitude(engine.apply(symbol))


def sphere_mean_max(
    field: SampledField,
    t: float,
    r: float,
    order: int,
    sphere_count: int | None = None,
    *,
    engine: StepEngine | None = None,
) -> SampledField:
    """Weighted sup of the spherical mean of the t-scaled difference.

    The base field is |average over unit directions z of diff(f, t z, L)|
    and the sup weight is (1 + |y|/t)^(-dim/r).  engine, built from field,
    lets calls at several scales share one forward transform.
    """
    grid = field.grid
    if grid.dim < 2:
        raise DimensionTooLow("sphere means need dim >= 2")
    nodes = unit_sphere_nodes(grid.dim, sphere_count)
    weights = np.full(nodes.shape[0], 1.0 / nodes.shape[0])
    mag = _mean_difference_magnitude(engine or StepEngine(field), nodes, weights, t, order)
    out = weighted_offset_sup(mag, grid, 1.0 / t, grid.dim / r)
    return SampledField(grid, out.astype(complex))


def annulus_mean_max(
    field: SampledField,
    t: float,
    r: float,
    order: int,
    sphere_count: int | None = None,
    radial_count: int = DEFAULT_ANNULUS_RADII,
    *,
    engine: StepEngine | None = None,
) -> SampledField:
    """Weighted sup of the shell-volume mean of the t-scaled difference.

    engine, built from field, lets calls at several scales share one
    forward transform.
    """
    grid = field.grid
    points, weights = annulus_nodes(grid.dim, sphere_count, radial_count)
    mag = _mean_difference_magnitude(engine or StepEngine(field), points, weights, t, order)
    out = weighted_offset_sup(mag, grid, 1.0 / t, grid.dim / r)
    return SampledField(grid, out.astype(complex))


def point_difference_max(
    field: SampledField, step: tuple[float, ...], r: float, order: int
) -> SampledField:
    """Weighted sup of one fixed-step difference, weight (1 + |y|/|h|)^(-dim/r)."""
    grid = field.grid
    h_len = math.sqrt(sum(c * c for c in step))
    if h_len == 0.0:
        raise InvalidExponent("point difference needs a nonzero step")
    mag = np.abs(iterated_difference(field, step, order).data)
    out = weighted_offset_sup(mag, grid, 1.0 / h_len, grid.dim / r)
    return SampledField(grid, out.astype(complex))


def maximal_field(field: SampledField, spec: MaximalSpec) -> SampledField:
    """Dispatch a MaximalSpec to the matching maximal construction."""
    if spec.variant == "HL":
        return hardy_littlewood_max(field)
    if spec.variant == "PEETRE":
        return peetre_max(field, spec.t, spec.r)
    if spec.variant == "SPHERE_S":
        return sphere_mean_max(field, spec.t, spec.r, spec.order, spec.sphere_count)
    if spec.variant == "BALL_V":
        return annulus_mean_max(
            field, spec.t, spec.r, spec.order, spec.sphere_count, spec.radial_count
        )
    direction = spec.direction
    if direction is None:
        direction = tuple(1.0 if a == 0 else 0.0 for a in range(field.grid.dim))
    if len(direction) != field.grid.dim:
        raise GridMismatch("direction dimensionality does not match the field")
    step = tuple(spec.t * c for c in direction)
    return point_difference_max(field, step, spec.r, spec.order)
