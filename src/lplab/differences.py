"""Iterated forward differences of sampled fields.

The L-fold difference with step h is

    diff(f, h, 1)(x) = f(x + h) - f(x),      diff(f, h, L) = diff(diff(f, h, L-1), h, 1),

equivalently the spectral multiplier (exp(2 pi i h.xi) - 1)^L.  The shift
path composes exact circular shifts and therefore needs h on the sample
lattice; the spectral path accepts any real step and is exact on the
trigonometric interpolant of the samples.  Every spectral step runs
through a :class:`StepEngine`, which transforms its field forward once with
`fftn` and then pays one `ifftn` per chunk of steps, or per weighted mean
of steps, on its one inverse path.  Where only the L^2 norm of each
difference is needed, :meth:`StepEngine.norms` reads it off the power
spectrum by Plancherel and pays no inverse transform.  That norm is even
in h, so a quasinorm sweep evaluates one step of each antipodal pair.

An engine may hold a stack of fields on one grid.  Step symbols, mean
symbols and step energies depend only on the grid, so each is formed once
for the whole stack: a mean's magnitudes come from one batched `ifftn`,
and a chunk of step energies meets every field's power spectrum in one
matrix product, its trigonometric factors formed with those of a block of
steps.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from .errors import (
    GridMismatch,
    InvalidExponent,
    MisalignedStep,
    NonFiniteSample,
    ShapeMismatch,
)
from .fields import GridSpec, SampledField, per_chunk

ALIGNMENT_TOL = 1e-9
# Most multiply-adds of one real matrix product.  This caps BLAS threading,
# not bytes: when numpy is imported before lplab, OpenBLAS runs threaded
# and splits a larger dgemm over its threads, and on a 2-vCPU x86 VM with
# numpy 2.4 such a call either kept a second core spinning or waited about
# 8 ms to wake it; at most 10^6 it ran on the calling thread alone.
_SERIAL_GEMM = 1_000_000


def _lattice_steps(grid: GridSpec, step: tuple[float, ...]) -> tuple[int, ...]:
    out = []
    for a, h in enumerate(step):
        ratio = h / grid.spacing
        nearest = round(ratio)
        if abs(ratio - nearest) > ALIGNMENT_TOL * max(1.0, abs(ratio)):
            raise MisalignedStep(
                f"step component {h:g} on axis {a} is not a multiple of spacing {grid.spacing:g}"
            )
        out.append(int(nearest))
    return tuple(out)


def _add_product(out: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """out += a @ b for complex C-ordered a and b, as real products.

    Viewed as floats, a's columns pair (Re, Im) of each term; b becomes
    the real matrix whose rows 2r and 2r + 1 are b_r and i b_r viewed as
    floats, so one real product gives out's (Re, Im) pairs: the four real
    products of a complex one in one call.  Row blocks keep each call
    within _SERIAL_GEMM multiply-adds.
    """
    paired = np.empty((b.shape[0], 2, b.shape[1]), dtype=complex)
    paired[:, 0] = b
    np.multiply(b, 1j, out=paired[:, 1])
    real_b = paired.view(np.float64).reshape(2 * b.shape[0], 2 * b.shape[1])
    real_a, real_out = a.view(np.float64), out.view(np.float64)
    most = max(1, _SERIAL_GEMM // real_b.size)
    step = -(-a.shape[0] // -(-a.shape[0] // most))  # even blocks of at most `most` rows
    for lo in range(0, a.shape[0], step):
        real_out[lo : lo + step] += real_a[lo : lo + step] @ real_b


def _power(base, order: int):
    """base^order by repeated multiplication."""
    out = base
    for _ in range(order - 1):
        out = out * base
    return out


class StepEngine:
    """Spectral L-fold differences of one field, or of a stack of fields on
    one grid, for any number of steps.

    The engine transforms its fields forward once.  A step symbol
    S(k) = (exp(2 pi i h.k / B) - 1)^L is the broadcast product of one 1-D
    phase factor exp(2 pi i k_a h_a / B) per axis with a nonzero step
    component, so no step needs a full-grid exponential.  Every modulus
    comes from `symbol_magnitude`, one inverse transform of the spectra
    times one symbol or a leading axis of them: `magnitudes` sends the
    steps through it a chunk at a time, and a weighted sum of steps, its
    symbol built as low-rank real matrix products (`mean_symbols`), costs
    one transform.  The spectrum X is the full `np.fft.fftn` of each
    field, real or complex; `norms` reads |X|^2 off it with no inverse
    transform.

    Built from a sequence of fields, the engine holds their spectra as one
    stack, and every result gains a leading axis of one row per field; a
    symbol is formed once and serves the whole stack.  Built from one
    field, results have no stack axis.  `steps` counts the step symbols
    formed and `forward_ffts` the forward transforms, which stays 1.
    """

    def __init__(self, field: SampledField | Sequence[SampledField]):
        if isinstance(field, SampledField):
            self.grid, self.stack, data = field.grid, (), field.data
        else:
            fields = list(field)
            if not fields:
                raise ShapeMismatch("a step engine needs at least one field")
            self.grid, self.stack = fields[0].grid, (len(fields),)
            if any(f.grid != self.grid for f in fields):
                raise GridMismatch("stacked fields live on different grids")
            data = np.stack([f.data for f in fields])
        self._axes = tuple(range(-self.grid.dim, 0))
        self._k = self.grid.frequency_integers().astype(np.float64)
        self._fold = np.abs(self.grid.frequency_integers())  # the |k| of each k
        with np.errstate(over="ignore", invalid="ignore"):  # the uses check finiteness
            self._coeffs = np.fft.fftn(data, axes=self._axes)
        self._power = None
        self.forward_ffts = 1
        self.steps = 0

    def magnitudes(self, steps, order: int) -> Iterator[np.ndarray]:
        """Yield |diff(f, h_m, L)| for the rows h_m of steps, checked finite,
        one chunk of steps at a time, shape stack + (chunk,) + grid shape.

        Each chunk's symbols come from one broadcast and its magnitudes
        from one inverse transform with a leading step axis; the steps
        count when called.
        """
        steps = self._count(steps, order)
        # a step's complex spectra of every field
        chunk = per_chunk(16 * self.grid.num_points * math.prod(self.stack))
        return (self.symbol_magnitude(self._step_symbols(steps[lo : lo + chunk], order))
                for lo in range(0, len(steps), chunk))

    def mean_symbols(self, steps: np.ndarray, weights: np.ndarray,
                     order: int) -> Iterator[np.ndarray]:
        """Yield the multiplier sum_m w_m S_m of each mean of steps h_m,
        (means, nodes, dim), with weights (nodes,) or (means, nodes), in
        `fftn` order.

        Means of few nodes are built together, so they share each node
        chunk's array operations, and each group's chunk arrays are freed
        before its means are yielded; the steps count when called.
        """
        steps = np.asarray(steps, dtype=np.float64)
        weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), steps.shape[:2])
        self._count(steps.reshape(-1, steps.shape[-1]), order)
        # nodes per chunk: a node's lead, lead_j and cols of an L = 2 mean
        # take 4 complex values per point of the leading plane
        chunk = per_chunk(64 * self.grid.num_points // self.grid.n)
        group = max(1, chunk // steps.shape[1])  # means per chunk, when a mean fits
        return (symbol for lo in range(0, len(steps), group) for symbol in self._mean_symbols(
            steps[lo : lo + group], weights[lo : lo + group], order, chunk))

    @np.errstate(over="ignore", invalid="ignore")  # non-finite results raise below
    def symbol_magnitude(self, symbols: np.ndarray) -> np.ndarray:
        """|ifftn(X S)| of each field for each multiplier S of symbols, one
        on the grid or a leading axis of them, from one transform of the
        stack, checked finite, shape stack + symbols' shape."""
        # one axis of the spectra per leading axis of symbols, in this
        # operand order, bit for bit
        lead = (1,) * (symbols.ndim - self.grid.dim)
        spectra = self._coeffs.reshape(self.stack + lead + self.grid.shape) * symbols
        mag = np.abs(np.fft.ifftn(spectra, axes=self._axes, out=spectra))
        if not np.isfinite(mag).all():
            raise NonFiniteSample("difference samples contain NaN or infinity")
        return mag

    @np.errstate(over="ignore", invalid="ignore")  # SampledField rejects non-finite samples
    def difference(self, step: tuple[float, ...], order: int) -> SampledField:
        """The L-fold difference with step h as a validated field, for an
        engine of one field."""
        symbol = self._step_symbols(self._count([step], order), order)[0]
        return SampledField(self.grid, np.fft.ifftn(self._coeffs * symbol))

    @np.errstate(over="ignore", invalid="ignore")  # non-finite results raise below
    def norms(self, steps, order: int) -> np.ndarray:
        """||diff(f, h_m, L)||_2 for each row h_m of steps, checked finite,
        shape stack + (steps,).

        By Plancherel the squared norm is cell_volume / N times
        sum_k |X(k)|^2 u(k)^(2L) with u(k) = 2 sin(pi h.k / B), so no
        inverse transform is needed.  sin(pi h.k / B) comes from per-axis
        sines and cosines by angle addition, in real arithmetic, as the
        rank-2 product of a factor on the leading plane and one on the last
        axis.  Those factors are formed per block of whole chunks, within
        the working-set budget; each chunk's energies u^(2L) are formed
        once and meet every field's |X|^2 in one real matrix product,
        split over the fields to stay within _SERIAL_GEMM.  A
        chunk's product sums in an order set by its row count, so the
        chunks, and with them the results, do not depend on the blocks.
        """
        grid = self.grid
        steps = self._count(steps, order)
        power = self._power_spectrum().reshape(-1, grid.num_points)  # (fields, points)
        plane = grid.num_points // grid.n
        chunk = per_chunk(8 * grid.num_points)  # a step's energies
        per_product = max(1, _SERIAL_GEMM // (chunk * grid.num_points))  # fields
        # whole chunks of steps whose factors, 2 (plane + n) values a step,
        # are formed at once
        block = chunk * per_chunk(16 * (plane + grid.n) * chunk)
        # grid-sized work arrays, reused by every chunk
        work = np.empty((2, min(chunk, len(steps)), plane, grid.n))
        sums = np.empty((len(steps), len(power)))
        for first in range(0, len(steps), block):
            lead, last = self._norm_factors(steps[first : first + block])
            for lo in range(0, len(lead), chunk):
                count = min(chunk, len(lead) - lo)
                u, spare = work[:, :count]
                if grid.dim == 1:
                    u = lead[lo : lo + chunk].reshape(u.shape)
                else:
                    np.matmul(lead[lo : lo + chunk], last[lo : lo + chunk], out=u)
                energy = np.multiply(u, u, out=u)  # u^2, then u^(2L)
                if order > 1:
                    energy = np.multiply(u, u, out=spare)
                    for _ in range(order - 2):
                        energy *= u
                energy = energy.reshape(count, -1)
                rows = sums[first + lo : first + lo + count]
                for i in range(0, len(power), per_product):
                    np.matmul(energy, power[i : i + per_product].T, out=rows[:, i : i + per_product])
        out = np.sqrt(sums.T * (grid.cell_volume / grid.num_points)).reshape(
            self.stack + (len(steps),))
        if not np.isfinite(out).all():
            raise NonFiniteSample("difference norms contain NaN or infinity")
        return out

    def _norm_factors(self, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The factors of u = 2 sin(pi h.k / B) for each step of a block.

        In 1-D, u itself, (steps, n).  Otherwise u = 2 sin(a) cos(b) +
        2 cos(a) sin(b), a the angle sum over the axes before the last and
        b the last axis's angle, as the rank-2 product of the leading
        factor (steps, plane, 2) and the last (steps, 2, n).
        """
        grid = self.grid
        # pi k h_a / B, indexed (step, axis, k); the first axis carries
        # the factor 2 of u
        angle = np.pi * (self._k * (steps[:, :, None] / grid.box))
        sin = np.sin(angle)
        sin[:, 0] *= 2.0
        if grid.dim == 1:
            return sin[:, 0], None
        cos = np.cos(angle, out=angle)
        cos[:, 0] *= 2.0
        # 2 sin and 2 cos of the angle sum over the axes before the last,
        # indexed (step, flattened axes)
        sin_sum, cos_sum = sin[:, 0], cos[:, 0]
        for a in range(1, grid.dim - 1):
            sin_a, cos_a = sin[:, a, None, :], cos[:, a, None, :]
            sin_sum, cos_sum = (
                (sin_sum[..., None] * cos_a + cos_sum[..., None] * sin_a).reshape(len(steps), -1),
                (cos_sum[..., None] * cos_a - sin_sum[..., None] * sin_a).reshape(len(steps), -1),
            )
        return (np.stack([sin_sum, cos_sum], axis=2),
                np.stack([cos[:, -1], sin[:, -1]], axis=1))

    @np.errstate(over="ignore")  # norms raises on the overflow
    def _power_spectrum(self) -> np.ndarray:
        """|X|^2 in `fftn` order, built on first use."""
        if self._power is None:
            self._power = self._coeffs.real**2 + self._coeffs.imag**2
        return self._power

    def _count(self, steps, order: int) -> np.ndarray:
        """steps as a (steps, dim) float array, counted, after the checks."""
        steps = np.asarray(steps, dtype=np.float64)
        if steps.ndim != 2 or steps.shape[1] != self.grid.dim:
            raise ShapeMismatch(f"step has {steps.shape[-1]} components, grid dim {self.grid.dim}")
        if order < 1:
            raise InvalidExponent(f"difference order must be >= 1, got {order}")
        self.steps += len(steps)
        return steps

    def _step_symbols(self, steps: np.ndarray, order: int) -> np.ndarray:
        """The multipliers S_m of the rows h_m of steps, (steps,) + grid
        shape, from one broadcast of the per-axis phase factors."""
        grid = self.grid
        # exp(2 pi i k h_a / B), indexed (step, axis, k)
        factors = np.exp(2j * np.pi * (self._k * (steps[:, :, None] / grid.box)))
        phase = factors[:, 0].reshape((len(steps), -1) + (1,) * (grid.dim - 1))
        for a in range(1, grid.dim):
            shape = [len(steps)] + [1] * grid.dim
            shape[1 + a] = -1
            phase = phase * factors[:, a].reshape(shape)
        return _power(phase - 1.0, order)

    def _mean_symbols(self, steps: np.ndarray, weights: np.ndarray, order: int,
                      chunk: int) -> np.ndarray:
        """sum_m w_m S_m on the grid, in `fftn` order, for each mean of steps
        (means, nodes, dim) with weights (means, nodes), from node chunks of
        chunk steps: shape (means,) + grid shape.

        Split the phase as phi = phi' phi_d, phi' the product over the axes
        before the last.  Then phi - 1 = (phi' - 1) phi_d + (phi_d - 1), so

            S = sum_j C(L, j) (phi' - 1)^j phi_d^j (phi_d - 1)^(L - j),

        L + 1 products of a function on the leading plane and one on the
        last axis.  The j = 0 terms of all nodes add up to one row over the
        last axis.  The others are the columns of A, C(L, j) w_m
        (phi'_m - 1)^j, and the rows of B, phi_d^j (phi_d - 1)^(L - j), of
        one product A B per node chunk and mean.  phi' - 1 comes from the
        same split applied axis by axis, and each phi_a - 1 =
        -2 sin^2(theta_a / 2) + i sin(theta_a), so no factor loses digits to
        cancellation at small steps, as expanding (phi - 1)^L in powers of
        phi would.
        """
        grid = self.grid
        last = grid.n
        plane = grid.num_points // grid.n
        size, nodes = steps.shape[:2]
        binomials = [math.comb(order, j) for j in range(order + 1)]
        negative = slice((last + 1) // 2, None)  # the k < 0 in `fftn` order
        row = np.zeros((size, last), dtype=complex)  # the j = 0 terms
        total = np.zeros((size, plane, last), dtype=complex)
        for lo in range(0, nodes, chunk):
            part = steps[:, lo : lo + chunk]
            w = weights[:, lo : lo + chunk]
            count = part.shape[1]
            # pi |k| h_a / B, indexed (axis, |k|, mean, node); phi_a - 1
            # at -k is the conjugate of its value at k, so the sines, the
            # largest cost of a mean, are taken for k >= 0 only
            half = np.pi * (np.arange(last // 2 + 1.0)[:, None, None]
                            * (part.transpose(2, 0, 1)[:, None] / grid.box))
            sine = np.sin(half)
            minus = (-2.0 * sine * sine + 1j * np.sin(2.0 * half)).take(self._fold, axis=1)
            np.conjugate(minus[:, negative], out=minus[:, negative])  # phi_a - 1
            phase = minus + 1.0
            # (phi_d - 1)^i for i = 0 .. L on the last axis, indexed
            # (mean, node, k)
            minus_d = [1.0, minus[-1].transpose(1, 2, 0)]
            for _ in range(order - 1):
                minus_d.append(minus_d[-1] * minus_d[1])
            for i in range(size):  # no BLAS: zgemv threads
                row[i] += np.einsum("m,mk->k", w[i], minus_d[order][i])
            if grid.dim == 1:
                continue
            lead = minus[0]  # phi' - 1, indexed (flattened plane, mean, node)
            for a in range(1, grid.dim - 1):
                lead = (lead[:, None] * phase[a] + minus[a]).reshape(-1, size, count)
            phase_d = phase[-1].transpose(1, 2, 0)
            cols = np.empty((size, plane, order, count), dtype=complex)
            rows = np.empty((size, order, count, last), dtype=complex)
            lead_j, phase_j = lead, phase_d
            for j in range(1, order + 1):
                if j > 1:
                    lead_j = lead_j * lead
                    phase_j = phase_j * phase_d
                np.multiply(lead_j.transpose(1, 0, 2), (binomials[j] * w)[:, None],
                            out=cols[:, :, j - 1])
                np.multiply(phase_j, minus_d[order - j], out=rows[:, j - 1])
            for i in range(size):
                _add_product(total[i], cols[i].reshape(plane, -1), rows[i].reshape(-1, last))
        total += row[:, None]
        return total.reshape((size,) + grid.shape)


def iterated_difference(
    field: SampledField,
    step: tuple[float, ...],
    order: int,
    method: str = "spectral",
) -> SampledField:
    """L-fold forward difference with vector step h."""
    if order < 1:
        raise InvalidExponent(f"difference order must be >= 1, got {order}")
    if method not in ("shift", "spectral"):
        raise InvalidExponent(f"method must be 'shift' or 'spectral', got {method!r}")
    grid = field.grid
    if len(step) != grid.dim:
        raise ShapeMismatch(f"step has {len(step)} components, grid dim {grid.dim}")
    if method == "shift":
        rolls = _lattice_steps(grid, step)
        data = field.data
        for _ in range(order):
            shifted = np.roll(data, shift=tuple(-r for r in rolls), axis=tuple(range(grid.dim)))
            data = shifted - data
        return SampledField(grid, data)
    return StepEngine(field).difference(step, order)
