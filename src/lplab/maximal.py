"""Maximal fields: ball means, weighted suprema, and mean-difference forms.

All suprema run over the full lattice of periodic offsets with minimal-image
distances, so every maximal field dominates its base field pointwise by the
zero-offset term.  The weighted supremum

    g(x) = max_z u(x - z) * (1 + scale |z|)^(-exponent)

is evaluated exactly, as the max over the same float products as a scan of
every offset.  The grid is tiled into blocks of 4 points per axis (the
whole axis when it is shorter).  The block offsets are visited in rings,
runs of offsets whose blocks are equally near, nearest first.  As a ring
starts, it reads the smallest value reached so far in each target block
from the maxima themselves; a (target block, source block) pair of the
ring is evaluated only when the largest u in the source block times the
largest weight between the two blocks can beat that value, and the scan
ends once no pair can.  Its work grows with the surviving pairs, not with
the square of the point count.

Suprema on one grid with one exponent run as one scan, fed one field at a
time, each with its own weight scale, in stacks: all fields of a stack
visit the rings together, so the numpy calls that pick a ring's live
pairs, form their products and scatter them into the maxima serve the
whole stack.  Where only the max over runs of fields is read, the runs
("pieces") each keep one maximum for the whole scan, whatever stacks their
fields fall in: a piece's later fields skip every pair its earlier fields
have already beaten.

The mean-difference forms take a ladder of scales and return the maximal
fields of its scales, or of its pieces, one stack per family.  A shell
mean is a radial sum of sphere means, sum_j w_j M(t r_j), so its symbol is
the same sum of sphere-mean symbols.  One walk over the radii of a call's
shell and sphere means builds each distinct radius's symbol once, keyed
by the exact radius when the ladders give exact scales (`Scale`, top
times a rational power of 2), in increasing order of radius, and forms a
mean's field as soon as its last radius is in, to feed its family's scan
once its piece is complete: no ladder of fields is held.  Given a stack
of fields on one grid, a call builds each symbol once for the whole stack
and feeds one scan per family, each field's pieces its own.
"""

from __future__ import annotations

import collections
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
from .fields import GridSpec, SampledField, per_chunk

_BLOCK = 4  # block edge of the pruned supremum, in samples per axis

_ANNULUS_RADII = 8  # shell radii of an annulus mean


class _BlockScan:
    """The pruned supremum on one grid with one exponent, fed fields whose
    weighted sups are maximized into pieces.

    Target block T meets source block S = T - delta through the patch
    P[delta][c_s, c_t] = w((delta b + c_t - c_s) mod n) of a field's weight
    table w, so its sup at T b + c_t is the max over delta and c_s of
    u[S b + c_s] P[delta][c_s, c_t].  Float products are monotone in each
    nonnegative factor, so max(u on S) * max(P[delta]) bounds every product
    of the pair; a pair is evaluated only while that bound exceeds the
    floor of its piece on T, the minimum of the piece's maximum there.

    `add` scans the fields `feed` holds once they fill a stack.  All
    fields of a stack visit delta in rings: runs of offsets with the same
    least offset radius of the patch, in increasing order of it.  A ring
    reads its floors from the blocked maxima as it starts and keeps them to
    its end, and a field has no pair left once max(u) times the largest
    patch max still to come cannot beat the minimum of its piece's floor;
    the stack ends when no field has one.  A ring runs in batches of
    offsets whose patches, for every field, fit the working-set budget; a
    batch's live pairs form their products in chunks, each maxed into the
    blocked maxima by one scatter, which also merges pairs that share a
    target row.  Every skipped product is at most a value already reached,
    so each piece is the max over the same products as full scans of its
    fields, fed in any order.  The maxima belong to the whole scan, so a
    piece's fields in a later stack start from the values its earlier ones
    reached.  Each piece's blocked maximum fills the memory its grid field
    takes, which `maxima` reorders in place.
    """

    def __init__(self, grid: GridSpec, exponent: float, pieces: int, stack: tuple = ()):
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
        # its patch; a ring is one run of equal values
        near = np.minimum(axis_index, n - axis_index).min(axis=(1, 2)) ** 2
        least = sum(near.reshape((nb,) + (1,) * (dim - 1 - a)) for a in range(dim))
        least = np.broadcast_to(least, (nb,) * dim).reshape(-1)
        self.order = np.argsort(least, kind="stable")
        starts = np.flatnonzero(np.diff(least[self.order])) + 1
        self.rings = list(zip([0, *starts.tolist()], [*starts.tolist(), self.count]))
        # the block coordinates of each delta, in visiting order
        self.coords = np.indices((nb,) * dim).reshape(dim, -1).T[self.order]
        # per axis: (delta_a, T_a) -> (T_a - delta_a) mod nb, as a term of
        # the row of source block S in the stack's blocks, shaped to
        # broadcast over block axes
        shifted = (np.arange(nb)[None, :] - np.arange(nb)[:, None]) % nb
        self.sources = []
        for a in range(dim):
            shape = [nb] + [1] * dim
            shape[1 + a] = nb
            self.sources.append((shifted * nb ** (dim - 1 - a)).reshape(shape))
        # a field's (block, in-block position) axes per axis -> its blocked
        # layout, block axes then in-block axes, and back
        self.to_blocks = tuple(range(0, 2 * dim, 2)) + tuple(range(1, 2 * dim, 2))
        self.from_blocks = tuple(a for axis in range(dim) for a in (axis, dim + axis))
        # out[p F + f, T, c]: piece p of field f of F at position c of block T
        self.stack, self.fields = stack, math.prod(stack)
        self.out = np.zeros((pieces * self.fields, self.count, self.size))
        # the held fields, blocked, with their scales and rows of out; a
        # scan stack holds a weight table and a blocked copy per field
        depth = per_chunk(16 * grid.num_points)
        self.blocks = np.empty((depth, self.count, self.size))
        self.scales = np.empty(depth)
        self.rows = np.empty(depth, dtype=np.intp)
        self.held = 0

    def feed(self, u: np.ndarray, scale: float, piece: int) -> None:
        """Hold each field of u, stack + grid shape, with weight scale
        `scale`, to be maximized into its piece `piece`; `add` runs on each
        full scan stack."""
        dim, nb, b = self.grid.dim, self.nb, self.b
        for f, field in enumerate(u.reshape((self.fields,) + self.grid.shape)):
            blocked = self.blocks[self.held].reshape((nb,) * dim + (b,) * dim)
            blocked[...] = field.reshape((nb, b) * dim).transpose(self.to_blocks)
            self.scales[self.held] = scale
            self.rows[self.held] = piece * self.fields + f
            self.held += 1
            if self.held == len(self.scales):
                self.add()

    def add(self) -> int:
        """Maximize the sups of the held fields into their rows of out, and
        return the block pairs evaluated; the rows may come in any order."""
        dim, b, nb, count, size = self.grid.dim, self.b, self.nb, self.count, self.size
        depth, self.held = self.held, 0
        scales, rows = self.scales[:depth], self.rows[:depth]
        # one weight table per field, each one array power, as a full scan
        # builds it
        tables = np.empty((depth,) + self.grid.shape)
        for i, scale in enumerate(scales):
            tables[i] = (1.0 + scale * self.radii) ** (-self.exponent)
        patch_max = tables
        for a in range(dim):
            patch_max = np.take(patch_max, self.window, axis=a + 1).max(axis=a + 2)
        patch_max = patch_max.reshape(depth, count)[:, self.order]
        # blocks[i count + T, c]: in-block position c of field i's block T
        blocks = self.blocks[:depth].reshape(depth * count, size)
        block_max = blocks.max(axis=1)
        # reach[i, step]: the most a product of field i can reach from that
        # step of the order on, max(u) times the largest patch max to come
        reach = np.maximum.accumulate(patch_max[:, ::-1], axis=1)[:, ::-1]
        reach *= block_max.reshape(depth, count).max(axis=1)[:, None]
        first_block = np.arange(depth).reshape((depth, 1) + (1,) * dim) * count
        tables = tables.reshape(depth, -1)
        maxima = self.out.reshape(-1)
        cells = np.arange(size)
        first = rows.min()
        fed = self.out[first : rows.max() + 1]  # the pieces of this stack
        # offsets per batch of a ring: their patches for every field
        batch = per_chunk(8 * depth * size * size)
        chunk = per_chunk(8 * size * size)  # pairs per product chunk
        gathered = np.empty((chunk, size, size))  # one chunk's patches
        pairs = 0
        for start, stop in self.rings:
            floors = fed.min(axis=2).take(rows - first, axis=0)
            if (reach[:, start] <= floors.min(axis=1)).all():
                break
            for lo in range(start, stop, batch):
                hi = min(lo + batch, stop)
                shifts = self.coords[lo:hi].T
                # source[i, k, T]: the row of blocks that feeds field i's
                # block T at offset lo + k; bound over the same axes
                source = sum((term[d] for term, d in zip(self.sources, shifts)), first_block)
                source = source.reshape(depth, hi - lo, count)
                bound = block_max.take(source)
                bound *= patch_max[:, lo:hi, None]
                live = np.flatnonzero(bound > floors[:, None])
                if live.size == 0:
                    continue
                # patches[i (hi - lo) + k]: field i's patch at offset lo + k,
                # so pair live[j] takes patches[live[j] // count]
                index = sum(term[d] for term, d in zip(self.terms, shifts))
                patches = tables.take(index.reshape(-1, size, size), axis=1).reshape(-1, size, size)
                which = live // count
                # feeds[j]: where pair live[j]'s row, the piece of its field
                # at its target block, starts in the flat maxima
                feeds = (rows.take(which // (hi - lo)) * count + live % count)[:, None] * size
                source = source.take(live)
                for part in range(0, live.size, chunk):
                    cut = slice(part, part + chunk)
                    products = patches.take(which[cut], axis=0, mode="clip",
                                            out=gathered[: which[cut].size])
                    products *= blocks.take(source[cut], axis=0)[:, :, None]
                    np.maximum.at(maxima, (feeds[cut] + cells).reshape(-1),
                                  products.max(axis=1).reshape(-1))
                pairs += live.size
        return pairs

    def maxima(self) -> np.ndarray:
        """Scan the fields still held, then return the pieces' maxima as
        grid fields, stack + (pieces,) + grid shape, in out's memory: one
        piece at a time is copied aside and written back in grid order."""
        if self.held:
            self.add()
        dim, b, nb = self.grid.dim, self.b, self.nb
        fields = self.out.reshape((len(self.out),) + (nb, b) * dim)
        for piece, field in zip(self.out, fields):
            blocked = piece.reshape((nb,) * dim + (b,) * dim).copy()
            field[...] = blocked.transpose(self.from_blocks)
        out = self.out.reshape((-1,) + self.stack + self.grid.shape)
        return np.moveaxis(out, 0, len(self.stack))


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
    scan = _BlockScan(grid, exponent, len(u))
    for i, (field, t) in enumerate(zip(u, scales.reshape(-1))):
        scan.feed(field, t, i)
    return scan.maxima().reshape(np.shape(field_magnitudes))


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


def unit_sphere_nodes(dim: int, count: int) -> np.ndarray:
    """Quadrature nodes on the unit sphere, shape (count, dim).

    dim 1 uses the two-point sphere {+1, -1} whatever the count; dim 2
    uniform angles; dim 3 a Fibonacci spiral.  Node weights are uniform in
    all three cases.
    """
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


def annulus_radii() -> np.ndarray:
    """The 8 log-spaced radii 2^((j + 1/2) / 8) of the sphere means that
    make up a shell mean over {1 <= |z| < 2}."""
    return 2.0 ** ((np.arange(_ANNULUS_RADII) + 0.5) / _ANNULUS_RADII)


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
    field: SampledField | Sequence[SampledField],
    ladder: Sequence[float | Scale],
    r: float,
    order: int,
    sphere_count: int,
    *,
    engine: StepEngine | None = None,
) -> np.ndarray:
    """Weighted sups of the spherical means of the t-scaled differences.

    At each scale t of the ladder the base field is |average over the
    sphere_count unit directions z of diff(f, t z, L)| and the sup weight is
    (1 + |y|/t)^(-dim/r).  Returns the real stack of maximal fields, one
    row per scale, from one stacked scan.  engine, built from field, lets
    several calls share one forward transform.

    field may be a sequence of fields on one grid: the result then has a
    leading axis of one such stack per field, each mean symbol is built
    once for all of them, and one scan covers them all.
    """
    return annulus_mean_max(field, [], r, order, sphere_count, spheres=ladder, engine=engine)[1]


def annulus_mean_max(
    field: SampledField | Sequence[SampledField],
    ladder: Sequence[float | Scale],
    r: float,
    order: int,
    sphere_count: int,
    *,
    spheres: Sequence[float | Scale] = (),
    engine: StepEngine | None = None,
    pieces: tuple[Sequence[int], Sequence[int]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sups of the shell-volume means of the t-scaled differences,
    one row per scale of the ladder, and of the sphere means of
    :func:`sphere_mean_max`, one row per scale of spheres: the two stacks,
    as in :func:`sphere_mean_max`, from one scan per family.  pieces, if
    given, numbers runs of consecutive scales of the ladder, then of
    spheres, 0, 1, ... in each family; each stack then has one row per
    piece, the max of its scales' maximal fields.

    The shell mean at t is sum_j w_j M(t r_j): M(rho) the sphere mean at
    radius rho, r_j = 2^((j + 1/2) / 8) the radii of :func:`annulus_radii`
    and w_j = r_j^dim / sum r^dim their volume weights.  One walk over the
    radii of both families builds each distinct radius's sphere-mean symbol
    once, in increasing order of radius, and adds it into the mean of every
    field of the engine's stack that uses it.  A mean's field is formed as
    soon as its last symbol is in, so only the shells whose radii straddle
    the current one are held, never a table of symbols.  A formed field
    waits only for the rest of its piece: the means finish smallest scale
    first, and each piece goes to its family's scan in ladder order, which
    on the ladders of `maximal_quasinorm_set` is largest scale, widest
    weight, first.  A sequence of fields gives one pair of stacks with a
    leading axis of one row per field.
    """
    engine = engine or StepEngine(field)
    grid, stack = engine.grid, engine.stack
    if spheres and grid.dim < 2:
        raise DimensionTooLow("sphere means need dim >= 2")
    families = [np.asarray(labels, dtype=np.intp) for labels in (
        pieces or (range(len(ladder)), range(len(spheres))))]
    for labels, given in zip(families, (ladder, spheres)):
        if labels.shape != (len(given),) or labels.size and (
                labels[0] != 0 or not np.isin(np.diff(labels), (0, 1)).all()):
            raise ShapeMismatch("pieces must number runs of each family's scales 0, 1, ...")
    scans = [_BlockScan(grid, grid.dim / r, labels.max() + 1, stack) if labels.size else None
             for labels in families]
    nodes = unit_sphere_nodes(grid.dim, sphere_count)
    node_w = np.full(nodes.shape[0], 1.0 / nodes.shape[0])
    radial_w = annulus_radii() ** grid.dim
    radial_w = (radial_w / radial_w.sum()).tolist()
    # the scale of each row: the ladder's shells, then the spheres
    scales = [t if isinstance(t, Scale) else Scale(float(t)) for t in (*ladder, *spheres)]
    # the (radius, weight) terms of each row's mean
    means = [[(t.times_power(2 * j + 1, 2 * _ANNULUS_RADII), w) for j, w in enumerate(radial_w)]
             for t in scales[: len(ladder)]]
    means += [[(t, 1.0)] for t in scales[len(ladder) :]]
    users: dict[Scale, list[tuple[int, float]]] = {}
    for row, mean in enumerate(means):
        for radius, w in mean:
            users.setdefault(radius, []).append((row, w))
    missing = [len(mean) for mean in means]
    sums: dict[int, np.ndarray] = {}
    # each row's (family, piece); a piece's formed fields wait for its last
    piece_of = [(0, p) for p in families[0].tolist()] + [(1, p) for p in families[1].tolist()]
    left = collections.Counter(piece_of)
    formed: dict[int, np.ndarray] = {}
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
            formed[row] = engine.symbol_magnitude(sums.pop(row))
            left[piece_of[row]] -= 1
            if not left[piece_of[row]]:
                family, piece = piece_of[row]
                for member in sorted(m for m in formed if piece_of[m] == piece_of[row]):
                    scans[family].feed(formed.pop(member), 1.0 / float(scales[member]), piece)
    return tuple(np.empty(stack + (0,) + grid.shape) if scan is None else scan.maxima()
                 for scan in scans)
