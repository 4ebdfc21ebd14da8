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
the maxima serve the whole stack.  Where only the max over runs of fields
is read, the runs ("pieces") share one output and one floor, which carry
from one stack to the next: a piece's later fields skip every pair its
earlier fields have already beaten.

The mean-difference forms take a ladder of scales and return the maximal
fields of its scales, or of its pieces, from one such call.  A shell mean
is a radial sum of sphere means, sum_j w_j M(t r_j), so its symbol is the
same sum of sphere-mean symbols.  One walk over the radii of a call's
shell and sphere means builds each distinct radius's symbol once, keyed by
the exact radius when the ladders give exact scales (`Scale`, top times a
rational power of 2), in increasing order of radius, and forms a mean's
field as soon as its last radius is in, so only the shells straddling the
current radius are held.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

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
# Stacks of more than two fields gather each pair's patch, fewer broadcast
# each field's patch over its run of pairs: on a 2-vCPU x86 VM the gather
# made the sups of the 2-D n = 32 five-variant call (stacks of 8) 14 %
# faster, and those of S,V at n = 64 (stacks of 2) 5 % slower.
_PRODUCT_CHUNK = 1 << 14

DEFAULT_SPHERE_COUNT = {1: 2, 2: 64, 3: 256}
DEFAULT_ANNULUS_RADII = 8


class _BlockScan:
    """The pruned supremum on one grid with one exponent, for stacks of
    fields whose weighted sups are maximized into pieces.

    Target block T meets source block S = T - delta through the patch
    P[delta][c_s, c_t] = w((delta b + c_t - c_s) mod n) of a field's weight
    table w, so its sup at T b + c_t is the max over delta and c_s of
    u[S b + c_s] P[delta][c_s, c_t].  Float products are monotone in each
    nonnegative factor, so max(u on S) * max(P[delta]) bounds every product
    of the pair; a pair is evaluated only while that bound exceeds the
    floor of its piece on T, the current minimum of the piece's maximum
    there.  All fields of a stack visit delta in one order, by the least
    offset radius of the patch, and a field has no pair left once max(u)
    times the largest patch max still to come cannot beat the minimum of
    its piece's floor; the stack ends when no field has one.  Every
    skipped product is at most a value already reached, so each piece is
    the max over the same products as full scans of its fields.  A piece
    that goes on into the next stack hands its maximum and floor on, so
    its later fields start from the values its earlier ones reached.
    """

    def __init__(self, grid: GridSpec, exponent: float):
        dim, n = grid.dim, grid.n
        b = min(_BLOCK, n)
        nb = n // b
        self.grid, self.exponent, self.b, self.nb = grid, exponent, b, nb
        self.count, self.size = nb**dim, b**dim  # blocks, points per block
        self.radii = grid.minimal_image_radii()
        # P[delta] holds, along each axis a, the offsets delta_a b + j for
        # j = 1 - b .. b - 1, so its max is a max over that box, axis by axis
        self.window = (np.arange(nb)[:, None] * b + np.arange(1 - b, b)) % n
        # per axis: (delta_a, c_s, c_t) -> (delta_a b + c_t - c_s) mod n, as
        # a term of the flat grid index with c_s on axis a and c_t on axis
        # dim + a
        axis_index = (
            np.arange(nb)[:, None, None] * b - np.arange(b)[None, :, None]
            + np.arange(b)[None, None, :]
        ) % n
        self.terms = []
        for a in range(dim):
            shape = [nb] + [1] * (2 * dim)
            shape[1 + a] = shape[1 + dim + a] = b
            self.terms.append((axis_index * n ** (dim - 1 - a)).reshape(shape))
        # all fields visit delta by the least squared offset, in samples, of
        # its patch
        near = np.minimum(axis_index, n - axis_index).min(axis=(1, 2)) ** 2
        least = sum(near.reshape((nb,) + (1,) * (dim - 1 - a)) for a in range(dim))
        self.order = np.argsort(np.broadcast_to(least, (nb,) * dim).reshape(-1), kind="stable")
        # per axis: (delta_a, T_a) -> (T_a - delta_a) mod nb, as a term of
        # the row of source block S in the stack's blocks, shaped to
        # broadcast over (field, block axes) from the first block of each
        # field
        shifted = (np.arange(nb)[None, :] - np.arange(nb)[:, None]) % nb
        self.sources = []
        for a in range(dim):
            shape = [nb, 1] + [1] * dim
            shape[2 + a] = nb
            self.sources.append((shifted * nb ** (dim - 1 - a)).reshape(shape))
        self.coords = np.indices((nb,) * dim).reshape(dim, -1).T.tolist()
        # blocked layout of C-ordered fields: in-block position first, so
        # reductions over it run across rows
        self.to_blocks = tuple(range(2, 2 * dim + 1, 2)) + (0,) + tuple(range(1, 2 * dim, 2))
        self.chunk = max(1, _PRODUCT_CHUNK // (self.size * self.size))

    def add(self, u: np.ndarray, scales: np.ndarray, rows: np.ndarray,
            out: np.ndarray, floor: np.ndarray) -> int:
        """Maximize the sups of the stacked fields u[i], field i with weight
        scale scales[i], into pieces rows[i]; return the block pairs
        evaluated.

        out[c, p count + T] is the maximum of piece p at in-block position
        c of block T, and floor[p count + T] its minimum over c; both are
        updated in place.
        """
        dim, b, nb, count, size = self.grid.dim, self.b, self.nb, self.count, self.size
        depth = len(scales)
        # one weight table per field, each one array power, as a full scan
        # builds it
        tables = np.empty((depth,) + self.grid.shape)
        for i, scale in enumerate(scales):
            tables[i] = (1.0 + scale * self.radii) ** (-self.exponent)
        patch_max = tables
        for a in range(dim):
            patch_max = np.take(patch_max, self.window, axis=a + 1).max(axis=a + 2)
        patch_max = patch_max.reshape(depth, count)
        # cols[c, i count + T]: in-block position c of field i's block T
        cols = u.reshape((depth,) + (nb, b) * dim).transpose(self.to_blocks)
        cols = cols.reshape(size, depth * count)
        block_max = cols.max(axis=0).reshape(depth, count)
        # reach[step, i]: the most a product of field i can reach from that
        # step of the order on, max(u) times the largest patch max to come;
        # then patch_max[delta] as a (field, 1) column
        order = self.order
        still = np.maximum.accumulate(patch_max[:, order[::-1]], axis=1)[:, ::-1]
        reach = (still * block_max.max(axis=1)[:, None]).T.copy()
        patch_max = patch_max.T[:, :, None].copy()
        first_block = np.arange(depth).reshape((depth,) + (1,) * dim) * count
        tables = tables.reshape(depth, -1)
        # target[i count + T]: the column of out that field i's block T feeds;
        # None when that is i count + T, each field its own piece
        rows = np.asarray(rows)
        target = None
        if not np.array_equal(rows, np.arange(depth)):
            target = (rows[:, None] * count + np.arange(count)).reshape(-1)
        shared = len(set(rows.tolist())) < depth  # some piece has several fields here
        chunk = self.chunk
        edges = np.arange(depth + 1) * count
        pairs = 0
        for step, delta in enumerate(order.tolist()):
            floors = (floor if target is None else floor.take(target)).reshape(depth, count)
            if (reach[step] <= floors.min(axis=1)).all():
                break
            shift = self.coords[delta]
            source = sum((term[d] for term, d in zip(self.sources, shift)), first_block)
            source = source.reshape(depth, count)
            bound = block_max.take(source)
            bound *= patch_max[delta]
            live = np.flatnonzero(bound > floors)
            if live.size == 0:
                continue
            index = sum(term[d] for term, d in zip(self.terms, shift)).reshape(size, size)
            patches = tables.take(index, axis=1)
            values = cols.take(source.take(live), axis=1)[:, None]
            best = np.empty((size, live.size))
            if depth > 2:
                # each pair takes its field's patch, patches[i][c_s, c_t],
                # gathered: one numpy operation per chunk whatever the fields
                fields = live // count
                for lo in range(0, live.size, chunk):
                    part = slice(lo, lo + chunk)
                    patch = patches.take(fields[part], axis=0).transpose(1, 2, 0)
                    products = values[:, :, part] * patch
                    products.max(axis=0, out=best[:, part])
            else:
                # live is sorted, so each field's pairs are one run of it,
                # and the field's patch broadcasts over the run
                bounds = np.searchsorted(live, edges).tolist() if depth > 1 else [0, live.size]
                for i in range(depth):
                    for lo in range(bounds[i], bounds[i + 1], chunk):
                        part = slice(lo, min(lo + chunk, bounds[i + 1]))
                        products = values[:, :, part] * patches[i][:, :, None]
                        products.max(axis=0, out=best[:, part])
            columns = live if target is None else target.take(live)
            if shared:
                # pairs of one piece's fields may share a target column: max
                # them into one column each
                by_column = np.argsort(columns, kind="stable")
                columns = columns.take(by_column)
                opens = np.ones(columns.size, dtype=bool)
                np.not_equal(columns[1:], columns[:-1], out=opens[1:])
                starts = np.flatnonzero(opens)
                columns = columns.take(starts)
                best = np.maximum.reduceat(best.take(by_column, axis=1), starts, axis=1)
            np.maximum(best, out.take(columns, axis=1), out=best)
            out[:, columns] = best
            floor.put(columns, best.min(axis=0))
            pairs += live.size
        return pairs

    def unblock(self, out: np.ndarray) -> np.ndarray:
        """The pieces of a blocked maximum out as grid fields, shape
        (pieces,) + grid shape."""
        dim, b, nb = self.grid.dim, self.b, self.nb
        pieces = out.shape[1] // self.count
        shaped = out.reshape((b,) * dim + (pieces,) + (nb,) * dim)
        return shaped.transpose(np.argsort(self.to_blocks)).reshape((pieces,) + self.grid.shape)


def _block_pruned_sup(
    u: np.ndarray, grid: GridSpec, scales: np.ndarray, exponent: float
) -> tuple[np.ndarray, int]:
    """The weighted offset sups of the stacked fields u[i], field i with
    weight scale scales[i], each its own piece, and the number of block
    pairs evaluated."""
    scan = _BlockScan(grid, exponent)
    out = np.zeros((scan.size, len(scales) * scan.count))
    pairs = scan.add(u, scales, np.arange(len(scales)), out, np.zeros(out.shape[1]))
    return scan.unblock(out), pairs


def weighted_offset_sup(
    field_magnitudes: np.ndarray,
    grid: GridSpec,
    scale: float | np.ndarray,
    exponent: float,
    pieces: Sequence[int] | None = None,
) -> np.ndarray:
    """Exact sup over lattice offsets z of u(x-z) (1 + scale |z|)^(-exponent).

    Leading axes of field_magnitudes stack fields, each with its own weight
    scale: scale has the shape of those axes, a scalar for one field.
    pieces, if given, splits the flattened stack into runs of consecutive
    fields, labelled 0, 1, ... in order; the result then has one row per
    run, the max of its fields' sups.
    """
    scales = np.asarray(scale, dtype=np.float64)
    if np.shape(field_magnitudes) != scales.shape + grid.shape:
        raise ShapeMismatch("magnitude array does not match the grid")
    if (scales < 0).any() or exponent < 0:
        raise InvalidExponent("weight scale and exponent must be nonnegative")
    u = np.asarray(field_magnitudes, dtype=np.float64).reshape((-1,) + grid.shape)
    scales = scales.reshape(-1)
    if pieces is None:
        labels = np.arange(len(scales))
    else:
        labels = np.asarray(pieces, dtype=np.intp)
        if (labels.shape != scales.shape or (labels.size and labels[0] != 0)
                or not np.isin(np.diff(labels), (0, 1)).all()):
            raise ShapeMismatch("pieces must number runs of consecutive fields 0, 1, ...")
    result = np.empty((labels[-1] + 1 if labels.size else 0,) + grid.shape)
    scan = _BlockScan(grid, exponent)
    count = scan.count
    depth = max(1, _STACK_POINTS // grid.num_points)
    held = None  # blocked maximum and floor of the piece going on into the next stack
    for lo in range(0, len(scales), depth):
        rows = labels[lo : lo + depth]
        first, last = int(rows[0]), int(rows[-1])
        out = np.zeros((scan.size, (last - first + 1) * count))
        floor = np.zeros(out.shape[1])
        if held is not None:
            out[:, :count], floor[:count] = held
        scan.add(u[lo : lo + depth], scales[lo : lo + depth], rows - first, out, floor)
        if lo + depth < len(scales) and labels[lo + depth] == last:
            held = out[:, -count:].copy(), floor[-count:].copy()
            out = out[:, :-count]
        else:
            held = None
        result[first : first + out.shape[1] // count] = scan.unblock(out)
    return result.reshape(np.shape(field_magnitudes)) if pieces is None else result


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


class Scale(NamedTuple):
    """The scale top 2^(numerator / denominator), the exponent in lowest
    terms.

    Mean ladders may give their scales this way instead of as floats.  The
    sphere-mean radii of one top are then keyed by their exact exponent, so
    a call builds each sphere-mean symbol once wherever its shell radii
    t r_j and sphere scales meet.
    """

    top: float
    numerator: int = 0
    denominator: int = 1

    def __float__(self) -> float:
        return self.top * 2.0 ** (self.numerator / self.denominator)

    def times_power(self, numerator: int, denominator: int) -> Scale:
        """This scale times 2^(numerator / denominator)."""
        num = self.numerator * denominator + numerator * self.denominator
        den = self.denominator * denominator
        common = math.gcd(num, den)
        return Scale(self.top, num // common, den // common)


def sphere_mean_max(
    field: SampledField,
    ladder: Sequence[float | Scale],
    r: float,
    order: int,
    sphere_count: int | None = None,
    *,
    engine: StepEngine | None = None,
    pieces: Sequence[int] | None = None,
) -> np.ndarray:
    """Weighted sups of the spherical means of the t-scaled differences.

    At each scale t of the ladder the base field is |average over unit
    directions z of diff(f, t z, L)| and the sup weight is
    (1 + |y|/t)^(-dim/r).  Returns the real stack of maximal fields, one
    row per scale, from one stacked scan, or with pieces one row per
    piece, as in :func:`weighted_offset_sup`.  engine, built from field,
    lets several calls share one forward transform.
    """
    return _mean_max(field, [], ladder, r, order, sphere_count, DEFAULT_ANNULUS_RADII,
                     engine, pieces)


def annulus_mean_max(
    field: SampledField,
    ladder: Sequence[float | Scale],
    r: float,
    order: int,
    sphere_count: int | None = None,
    radial_count: int = DEFAULT_ANNULUS_RADII,
    *,
    spheres: Sequence[float | Scale] = (),
    engine: StepEngine | None = None,
    pieces: Sequence[int] | None = None,
) -> np.ndarray:
    """Weighted sups of the shell-volume means of the t-scaled differences,
    one row per scale of the ladder, then one per scale of spheres with
    the sphere means of :func:`sphere_mean_max` (or one row per piece of
    the two ladders in that order), as in :func:`sphere_mean_max`.

    The shell mean at t is sum_j w_j M(t r_j): M(rho) the sphere mean at
    radius rho, and r_j and w_j the radii and radial weights of
    :func:`annulus_nodes`, r_j = 2^((j + 1/2) / radial_count) and
    w_j = r_j^dim / sum r^dim.  The shell and sphere means are formed in
    one walk over their radii, so a radius that several of them use gets
    one sphere-mean symbol.
    """
    if radial_count < 2:
        raise QuadratureTooCoarse(f"need at least 2 annulus radii, got {radial_count}")
    return _mean_max(field, ladder, spheres, r, order, sphere_count, radial_count, engine, pieces)


def _mean_max(field, shells, spheres, r, order, sphere_count, radial_count, engine, pieces):
    """Weighted sups of |sum_j w_j M(t r_j)| over the scales t of shells,
    then of |M(t)| over the scales of spheres, M(rho) the sphere mean at
    radius rho.

    Each distinct radius gets one sphere-mean symbol, added into every mean
    that uses it.  The symbols are built in increasing order of radius, and
    a mean's field is formed as soon as its last symbol is in, so only the
    shells whose radii straddle the current one are held, never a table of
    symbols.
    """
    grid = field.grid
    if spheres and grid.dim < 2:
        raise DimensionTooLow("sphere means need dim >= 2")
    engine = engine or StepEngine(field)
    nodes = unit_sphere_nodes(grid.dim, sphere_count)
    node_w = np.full(nodes.shape[0], 1.0 / nodes.shape[0])
    radial_w = annulus_radii(radial_count) ** grid.dim
    radial_w = (radial_w / radial_w.sum()).tolist()
    ladder = [t if isinstance(t, Scale) else Scale(float(t)) for t in (*shells, *spheres)]
    # the (radius, weight) terms of each row's mean
    means = [[(t.times_power(2 * j + 1, 2 * radial_count), w) for j, w in enumerate(radial_w)]
             for t in ladder[: len(shells)]]
    means += [[(t, 1.0)] for t in ladder[len(shells) :]]
    users: dict[Scale, list[tuple[int, float]]] = {}
    for row, mean in enumerate(means):
        for radius, w in mean:
            users.setdefault(radius, []).append((row, w))
    missing = [len(mean) for mean in means]
    sums: dict[int, np.ndarray] = {}
    mags = np.empty((len(means),) + grid.shape)
    radii = sorted(users, key=float)
    scaled = np.array([float(radius) for radius in radii])[:, None, None] * nodes
    for radius, symbol in zip(radii, engine.mean_symbols(scaled, node_w, order)):
        done = []
        for row, w in users[radius]:
            if row in sums:
                sums[row] += w * symbol
            else:  # w is 1 only for a sphere mean, whose one term this is
                sums[row] = symbol if w == 1.0 else w * symbol
            missing[row] -= 1
            if missing[row] == 0:
                done.append(row)
        for row in done:
            mags[row] = engine.symbol_magnitude(sums.pop(row))
    weight_scales = 1.0 / np.array([float(t) for t in ladder])
    labels = np.arange(len(ladder)) if pieces is None else np.asarray(pieces, dtype=np.intp)
    cut = len(shells)
    if labels.shape != (len(ladder),) or 0 < cut < len(ladder) and labels[cut - 1] == labels[cut]:
        raise ShapeMismatch("pieces must number runs of shell scales, then of sphere scales")
    # one scan per family: a stack that pairs the smallest shell scales with
    # the largest sphere scales keeps visiting offsets for its wide weights
    # while its narrow ones are done (7 % more sup time in S,V calls at
    # 2-D n = 64)
    return np.concatenate([np.empty((0,) + grid.shape)] + [
        weighted_offset_sup(mags[lo:hi], grid, weight_scales[lo:hi], grid.dim / r,
                            labels[lo:hi] - labels[lo])
        for lo, hi in ((0, cut), (cut, len(ladder))) if hi > lo])
