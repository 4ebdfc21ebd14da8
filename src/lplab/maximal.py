"""Maximal fields: ball means, weighted suprema, and mean-difference forms.

All suprema run over the full lattice of periodic offsets with minimal-image
distances, so every maximal field dominates its base field pointwise by the
zero-offset term.  The weighted supremum

    g(x) = max_z u(x - z) * (1 + scale |z|)^(-exponent)

is evaluated exactly, as the max over the same float products as a scan of
every offset.  The grid is tiled into blocks of 4 points per axis (the
whole axis when it is shorter).  A (target block, source block) pair is
evaluated only when the largest u in the source block times the largest
weight between the two blocks can beat the smallest value reached so far
in the target block, and the scan ends once no pair can.  Its work grows
with the surviving pairs, not with the square of the point count.
"""

from __future__ import annotations

import math

import numpy as np

from .differences import StepEngine
from .errors import (
    DimensionTooLow,
    InvalidExponent,
    QuadratureTooCoarse,
    ShapeMismatch,
)
from .fields import GridSpec, SampledField

_BLOCK = 4  # block edge of the pruned supremum, in samples per axis

DEFAULT_SPHERE_COUNT = {1: 2, 2: 64, 3: 256}
DEFAULT_ANNULUS_RADII = 8


def _block_pruned_sup(
    u: np.ndarray, grid: GridSpec, scale: float, exponent: float
) -> tuple[np.ndarray, int]:
    """The weighted offset sup of u, and the number of block pairs evaluated.

    Target block T meets source block S = T - delta through the patch
    P[delta][c_s, c_t] = w((delta b + c_t - c_s) mod n) of the weight
    table w, so out[T b + c_t] = max over delta and c_s of
    u[S b + c_s] P[delta][c_s, c_t].  Float products are monotone in each
    nonnegative factor, so max(u on S) * max(P[delta]) bounds every product
    of the pair; a pair is evaluated only while that bound exceeds the
    current minimum of out on T, and the scan over delta, in decreasing
    max(P[delta]) order, ends once max(u) * max(P[delta]) cannot beat the
    minimum of out anywhere.  Every skipped product is at most a value
    already reached, so the result is the same max over the same products
    as the full scan.
    """
    dim, n = grid.dim, grid.n
    b = min(_BLOCK, n)
    nb = n // b
    weights = (1.0 + scale * grid.minimal_image_radii()) ** (-exponent)
    # per axis: (delta, c_s, c_t) -> (delta b + c_t - c_s) mod n
    axis_index = (
        np.arange(nb)[:, None, None] * b - np.arange(b)[None, :, None] + np.arange(b)[None, None, :]
    ) % n
    index = []
    for a in range(dim):
        shape = [1] * (3 * dim)
        shape[a], shape[dim + a], shape[2 * dim + a] = nb, b, b
        index.append(axis_index.reshape(shape))
    patches = weights[tuple(index)].reshape(nb**dim, b**dim, b**dim)
    patch_max = patches.max(axis=(1, 2))

    # blocks[c, T]: in-block position c and block T, both in C order; the
    # position axis leads so that reductions over it run across rows
    split = (nb, b) * dim
    to_blocks = tuple(range(1, 2 * dim, 2)) + tuple(range(0, 2 * dim, 2))
    blocks = u.reshape(split).transpose(to_blocks).reshape(b**dim, nb**dim)
    block_max = blocks.max(axis=0)
    u_max = float(block_max.max())
    coords = np.indices((nb,) * dim).reshape(dim, -1)
    out = np.zeros(blocks.shape)
    floor = np.zeros(nb**dim)
    pairs = 0
    for delta in np.argsort(-patch_max, kind="stable"):
        w = patch_max[delta]
        if w * u_max <= floor.min():
            break
        source = np.ravel_multi_index((coords - coords[:, delta, None]) % nb, (nb,) * dim)
        live = (block_max[source] * w > floor).nonzero()[0]
        if live.size == 0:
            continue
        products = blocks[:, None, source[live]] * patches[delta][:, :, None]
        best = np.maximum(out[:, live], products.max(axis=0))
        out[:, live] = best
        floor[live] = best.min(axis=0)
        pairs += live.size
    shaped = out.reshape((b,) * dim + (nb,) * dim).transpose(np.argsort(to_blocks))
    return shaped.reshape(grid.shape), pairs


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
    u = np.asarray(field_magnitudes, dtype=np.float64)
    return _block_pruned_sup(u, grid, scale, exponent)[0]


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
    radii = annulus_radii(radial_count)
    radial_w = radii**dim  # volume density against d(log rho)
    points = (radii[:, None, None] * sphere[None, :, :]).reshape(-1, dim)
    weights = np.repeat(radial_w, sphere.shape[0])
    return points, weights / weights.sum()


def annulus_radii(radial_count: int = DEFAULT_ANNULUS_RADII) -> np.ndarray:
    """The log-spaced shell radii used by :func:`annulus_nodes`."""
    return 2.0 ** ((np.arange(radial_count) + 0.5) / radial_count)


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
    mag = (engine or StepEngine(field)).mean_magnitude(t * nodes, weights, order)
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
    mag = (engine or StepEngine(field)).mean_magnitude(t * points, weights, order)
    out = weighted_offset_sup(mag, grid, 1.0 / t, grid.dim / r)
    return SampledField(grid, out.astype(complex))
