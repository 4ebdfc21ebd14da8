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

Suprema on one grid with one exponent run as a stacked scan, each field
with its own weight scale: all fields visit the block offsets in one
order, so the numpy calls that pick each offset's live pairs and update
the maxima serve the whole stack.  The mean-difference forms take a ladder
of scales and return the stack of maximal fields from one such call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

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
# Grid points of the fields scanned together.  A scan holds a few arrays
# of this size (weight tables, blocks, patch maxima); whole 96-scale
# ladders at 2-D n = 32 raised the traced peak of a five-variant
# maximal_quasinorm_set from 3.2 to 7.5 MB, and 2^14 to 3.5 MB, with no
# measurable gain in speed.
_STACK_POINTS = 1 << 13
# Most products formed by one numpy operation of the scan: 64 block pairs
# at 2-D, so each temporary stays at 128 KB whatever the stack or grid.
_PRODUCT_CHUNK = 1 << 14

DEFAULT_SPHERE_COUNT = {1: 2, 2: 64, 3: 256}
DEFAULT_ANNULUS_RADII = 8


def _block_pruned_sup(
    u: np.ndarray, grid: GridSpec, scales: np.ndarray, exponent: float
) -> tuple[np.ndarray, int]:
    """The weighted offset sups of the stacked fields u[i], field i with
    weight scale scales[i], and the number of block pairs evaluated.

    Target block T meets source block S = T - delta through the patch
    P[delta][c_s, c_t] = w((delta b + c_t - c_s) mod n) of the field's
    weight table w, so out[T b + c_t] = max over delta and c_s of
    u[S b + c_s] P[delta][c_s, c_t].  Float products are monotone in each
    nonnegative factor, so max(u on S) * max(P[delta]) bounds every product
    of the pair; a pair is evaluated only while that bound exceeds the
    current minimum of out on T.  All fields visit delta in one order, by
    the least offset radius of the patch, and a field has no pair left once
    max(u) times the largest patch max still to come cannot beat the
    minimum of its out anywhere; the scan ends when no field has one.
    Every skipped product is at most a value already reached, so each
    result is the same max over the same products as the full scan.
    """
    dim, n = grid.dim, grid.n
    b = min(_BLOCK, n)
    nb = n // b
    count, size, depth = nb**dim, b**dim, len(scales)  # blocks, points per block, fields
    radii = grid.minimal_image_radii()
    # one weight table per field, each one array power, as a full scan
    # builds it
    tables = np.empty((depth,) + grid.shape)
    for i, scale in enumerate(scales):
        tables[i] = (1.0 + scale * radii) ** (-exponent)
    # P[delta] holds, along each axis a, the offsets delta_a b + j for
    # j = 1 - b .. b - 1, so its max is a max over that box, axis by axis
    window = (np.arange(nb)[:, None] * b + np.arange(1 - b, b)) % n
    patch_max = tables
    for a in range(dim):
        patch_max = np.take(patch_max, window, axis=a + 1).max(axis=a + 2)
    patch_max = patch_max.reshape(depth, count)
    # per axis: (delta_a, c_s, c_t) -> (delta_a b + c_t - c_s) mod n, as a
    # term of the flat grid index with c_s on axis a and c_t on axis dim + a
    axis_index = (
        np.arange(nb)[:, None, None] * b - np.arange(b)[None, :, None] + np.arange(b)[None, None, :]
    ) % n
    terms = []
    for a in range(dim):
        shape = [nb] + [1] * (2 * dim)
        shape[1 + a] = shape[1 + dim + a] = b
        terms.append((axis_index * n ** (dim - 1 - a)).reshape(shape))
    # all fields visit delta by the least squared offset, in samples, of
    # its patch
    near = np.minimum(axis_index, n - axis_index).min(axis=(1, 2)) ** 2
    least = sum(near.reshape((nb,) + (1,) * (dim - 1 - a)) for a in range(dim))
    order = np.argsort(np.broadcast_to(least, (nb,) * dim).reshape(-1), kind="stable")

    # cols[c, i count + T]: in-block position c of field i's block T, both
    # in C order; the position axis leads so that reductions over it run
    # across rows
    split = (depth,) + (nb, b) * dim
    to_blocks = tuple(range(2, 2 * dim + 1, 2)) + (0,) + tuple(range(1, 2 * dim, 2))
    cols = u.reshape(split).transpose(to_blocks).reshape(size, depth * count)
    block_max = cols.max(axis=0).reshape(depth, count)
    # reach[step, i]: the most a product of field i can reach from that
    # step of the order on, max(u) times the largest patch max to come;
    # then patch_max[delta] as a (field, 1) column
    still = np.maximum.accumulate(patch_max[:, order[::-1]], axis=1)[:, ::-1]
    reach = (still * block_max.max(axis=1)[:, None]).T.copy()
    patch_max = patch_max.T[:, :, None].copy()
    # per axis: (delta_a, T_a) -> (T_a - delta_a) mod nb, as a term of the
    # row of source block S in cols, shaped to broadcast over (field,
    # block axes) from the first block of each field
    shifted = (np.arange(nb)[None, :] - np.arange(nb)[:, None]) % nb
    sources = []
    for a in range(dim):
        shape = [nb, 1] + [1] * dim
        shape[2 + a] = nb
        sources.append((shifted * nb ** (dim - 1 - a)).reshape(shape))
    first_block = np.arange(depth).reshape((depth,) + (1,) * dim) * count
    coords = np.indices((nb,) * dim).reshape(dim, -1).T.tolist()
    edges = np.arange(depth + 1) * count
    tables = tables.reshape(depth, -1)
    out = np.zeros(cols.shape)
    floor = np.zeros(block_max.shape)
    chunk = max(1, _PRODUCT_CHUNK // (size * size))
    pairs = 0
    for step, delta in enumerate(order.tolist()):
        if (reach[step] <= floor.min(axis=1)).all():
            break
        shift = coords[delta]
        source = sum((term[d] for term, d in zip(sources, shift)), first_block)
        source = source.reshape(depth, count)
        bound = block_max.take(source)
        bound *= patch_max[delta]
        live = np.flatnonzero(bound > floor)
        if live.size == 0:
            continue
        index = sum(term[d] for term, d in zip(terms, shift)).reshape(size, size)
        patches = tables.take(index, axis=1)
        values = cols.take(source.take(live), axis=1)[:, None]
        best = np.empty((size, live.size))
        # live is sorted, so each field's pairs are one run of it
        bounds = np.searchsorted(live, edges).tolist() if depth > 1 else [0, live.size]
        for i in range(depth):
            for lo in range(bounds[i], bounds[i + 1], chunk):
                part = slice(lo, min(lo + chunk, bounds[i + 1]))
                products = values[:, :, part] * patches[i][:, :, None]
                products.max(axis=0, out=best[:, part])
        np.maximum(best, out.take(live, axis=1), out=best)
        out[:, live] = best
        floor.put(live, best.min(axis=0))
        pairs += live.size
    shaped = out.reshape((b,) * dim + (depth,) + (nb,) * dim).transpose(np.argsort(to_blocks))
    return shaped.reshape(u.shape), pairs


def weighted_offset_sup(
    field_magnitudes: np.ndarray,
    grid: GridSpec,
    scale: float | np.ndarray,
    exponent: float,
) -> np.ndarray:
    """Exact sup over lattice offsets z of u(x-z) (1 + scale |z|)^(-exponent).

    Leading axes of field_magnitudes stack fields, each with its own weight
    scale: scale has the shape of those axes, a scalar for one field.
    """
    scales = np.asarray(scale, dtype=np.float64)
    if np.shape(field_magnitudes) != scales.shape + grid.shape:
        raise ShapeMismatch("magnitude array does not match the grid")
    if (scales < 0).any() or exponent < 0:
        raise InvalidExponent("weight scale and exponent must be nonnegative")
    u = np.asarray(field_magnitudes, dtype=np.float64).reshape((-1,) + grid.shape)
    scales = scales.reshape(-1)
    out = np.empty(u.shape)
    depth = max(1, _STACK_POINTS // grid.num_points)
    for lo in range(0, len(scales), depth):
        out[lo : lo + depth] = _block_pruned_sup(
            u[lo : lo + depth], grid, scales[lo : lo + depth], exponent)[0]
    return out.reshape(np.shape(field_magnitudes))


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
    ladder: Sequence[float],
    r: float,
    order: int,
    sphere_count: int | None = None,
    *,
    engine: StepEngine | None = None,
) -> np.ndarray:
    """Weighted sups of the spherical means of the t-scaled differences.

    At each scale t of the ladder the base field is |average over unit
    directions z of diff(f, t z, L)| and the sup weight is
    (1 + |y|/t)^(-dim/r).  Returns the real stack of maximal fields, one
    row per scale, from one stacked scan.  engine, built from field, lets
    several calls share one forward transform.
    """
    if field.grid.dim < 2:
        raise DimensionTooLow("sphere means need dim >= 2")
    nodes = unit_sphere_nodes(field.grid.dim, sphere_count)
    weights = np.full(nodes.shape[0], 1.0 / nodes.shape[0])
    return _mean_max(field, ladder, r, order, nodes, weights, engine)


def annulus_mean_max(
    field: SampledField,
    ladder: Sequence[float],
    r: float,
    order: int,
    sphere_count: int | None = None,
    radial_count: int = DEFAULT_ANNULUS_RADII,
    *,
    engine: StepEngine | None = None,
) -> np.ndarray:
    """Weighted sups of the shell-volume means of the t-scaled differences,
    one row per scale of the ladder, as in :func:`sphere_mean_max`."""
    points, weights = annulus_nodes(field.grid.dim, sphere_count, radial_count)
    return _mean_max(field, ladder, r, order, points, weights, engine)


def _mean_max(field, ladder, r, order, nodes, weights, engine) -> np.ndarray:
    """Weighted sups of |sum_m w_m diff(f, t z_m, L)| over the scales t."""
    grid = field.grid
    engine = engine or StepEngine(field)
    ladder = np.asarray(ladder, dtype=np.float64)
    mags = np.empty((ladder.size,) + grid.shape)
    for i, t in enumerate(ladder):
        mags[i] = engine.mean_magnitude(t * nodes, weights, order)
    return weighted_offset_sup(mags, grid, 1.0 / ladder, grid.dim / r)
