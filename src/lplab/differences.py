"""Iterated forward differences of sampled fields.

The L-fold difference with step h is

    diff(f, h, 1)(x) = f(x + h) - f(x),      diff(f, h, L) = diff(diff(f, h, L-1), h, 1),

equivalently the spectral multiplier (exp(2 pi i h.xi) - 1)^L.  The shift
path composes exact circular shifts and therefore needs h on the sample
lattice; the spectral path accepts any real step and is exact on the
trigonometric interpolant of the samples.  Every spectral step runs
through a :class:`StepEngine`, which transforms its field forward once with
`fftn` and then pays one `ifftn` per step.  Where only the L^2 norm of each
difference is needed, :meth:`StepEngine.norms` reads it off the power
spectrum by Plancherel and pays no inverse transform.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .errors import (
    InvalidExponent,
    MisalignedStep,
    NonFiniteSample,
    ShapeMismatch,
)
from .fields import GridSpec, SampledField

ALIGNMENT_TOL = 1e-9
# Leading-plane points times nodes of a weighted mean held at once: 64 nodes
# at 2-D n = 32, 2 at 3-D 32^3.  At 2-D n = 32, chunks of 2^13 (all 256
# nodes of an annulus mean) raised the peak RSS of a `verify equivalence`
# call from 38.0 MB (per-node symbols) to 40.5 MB, against 38.4 MB at 2^11.
# On a 2-vCPU x86 VM, 2^13 made a 512-node L = 2 annulus mean faster at
# 3-D 16^3 (5.5 against 9.5 ms) but slower at 2-D 128^2 (17 against 13 ms).
_MEAN_CHUNK_POINTS = 1 << 11
# Most multiply-adds of one real matrix product.  OpenBLAS splits a larger
# dgemm over its threads, and on a 2-vCPU x86 VM with numpy 2.4 such a call
# either kept a second core spinning or waited about 8 ms to wake it; at
# most 10^6 it ran on the calling thread alone.
_SERIAL_GEMM = 1_000_000
# Grid points of step energies held at once by StepEngine.norms: 2^17 raised
# the peak RSS of a 2-D 128^2, L = 2 `norm diff` call from 32.7 to 34.4 MB.
_NORM_CHUNK_POINTS = 1 << 14
# Grid points of step spectra sent through one inverse transform by
# StepEngine.max_magnitude: 8 directions at 2-D n = 32.
_MAX_CHUNK_POINTS = 1 << 13


def difference_coefficients(order: int) -> np.ndarray:
    """Weights d_j with sign (-1)^(L+1) diff(f,h,L)(x) = sum_j d_j f(x+jh) - f(x).

    d_j = (-1)^(j+1) binom(L, j) for j = 1..L; the weights always sum to 1.
    """
    if order < 1:
        raise InvalidExponent(f"difference order must be >= 1, got {order}")
    return np.array(
        [(-1) ** (j + 1) * math.comb(order, j) for j in range(1, order + 1)],
        dtype=np.int64,
    )


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
    """Spectral L-fold differences of one field, for any number of steps.

    The engine transforms the field forward once.  A step symbol
    S(k) = (exp(2 pi i h.k / B) - 1)^L is the broadcast product of one 1-D
    phase factor exp(2 pi i k_a h_a / B) per axis with a nonzero step
    component, so each step costs one inverse transform and no full-grid
    exponential.  A weighted sum of steps also costs one inverse transform
    (`symbol_magnitude`), its symbol built as low-rank real matrix products
    (`mean_symbol`), and `max_magnitude` sends a chunk of steps through one
    inverse transform.  The spectrum X is the full `np.fft.fftn` of the
    field, real or complex; `norms` reads |X|^2 off it with no inverse
    transform.

    `steps` counts the step symbols formed and `forward_ffts` the forward
    transforms of the whole field, which stays 1.
    """

    def __init__(self, field: SampledField):
        self.grid = field.grid
        self._k = self.grid.frequency_integers().astype(np.float64)
        self._fold = np.abs(self.grid.frequency_integers())  # the |k| of each k
        self._coeffs = np.fft.fftn(field.data)
        self._power = None
        self.forward_ffts = 1
        self.steps = 0

    def magnitude(self, step: tuple[float, ...], order: int) -> np.ndarray:
        """|diff(f, h, L)| on the grid, checked finite."""
        return self.symbol_magnitude(self._step_symbol(step, order))

    def mean_magnitude(self, steps: np.ndarray, weights: np.ndarray, order: int) -> np.ndarray:
        """|sum_m w_m diff(f, h_m, L)| on the grid, checked finite."""
        return self.symbol_magnitude(self.mean_symbol(steps, weights, order))

    def mean_symbol(self, steps: np.ndarray, weights: np.ndarray, order: int) -> np.ndarray:
        """The multiplier sum_m w_m S_m of a weighted mean of steps, in `fftn`
        order; the steps count toward `steps`."""
        return next(self.mean_symbols(np.asarray(steps)[None], weights, order))

    def mean_symbols(self, steps: np.ndarray, weights: np.ndarray,
                     order: int) -> Iterator[np.ndarray]:
        """Yield the multiplier of each mean of steps, (means, nodes, dim),
        with weights (nodes,) or (means, nodes), as `mean_symbol` does.

        Means of few nodes are built together, so they share each node
        chunk's array operations; the steps count when called.
        """
        steps = np.asarray(steps, dtype=np.float64)
        weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), steps.shape[:2])
        self._count(steps.reshape(-1, steps.shape[-1]), order)
        return self._mean_symbols(steps, weights, order)

    @np.errstate(over="ignore", invalid="ignore")  # non-finite results raise below
    def symbol_magnitude(self, symbol: np.ndarray) -> np.ndarray:
        """|ifftn(X symbol)|, the modulus of the field with multiplier symbol,
        checked finite."""
        mag = np.abs(np.fft.ifftn(self._coeffs * symbol))
        if not np.isfinite(mag).all():
            raise NonFiniteSample("difference samples contain NaN or infinity")
        return mag

    @np.errstate(over="ignore", invalid="ignore")  # non-finite results raise below
    def max_magnitude(self, steps, order: int) -> np.ndarray:
        """max over the rows h_m of steps of |diff(f, h_m, L)|, checked finite.

        Each chunk of steps forms its symbols in one broadcast and pays one
        inverse transform with a leading step axis.
        """
        grid = self.grid
        steps = self._count(steps, order)
        chunk = max(1, _MAX_CHUNK_POINTS // grid.num_points)
        axes = tuple(range(1, grid.dim + 1))
        out = np.zeros(grid.shape)
        for lo in range(0, len(steps), chunk):
            part = steps[lo : lo + chunk]
            # exp(2 pi i k h_a / B), indexed (step, axis, k)
            factors = np.exp(2j * np.pi * (self._k * (part[:, :, None] / grid.box)))
            phase = factors[:, 0].reshape((len(part), -1) + (1,) * (grid.dim - 1))
            for a in range(1, grid.dim):
                shape = [len(part)] + [1] * grid.dim
                shape[1 + a] = -1
                phase = phase * factors[:, a].reshape(shape)
            spectra = _power(phase - 1.0, order)
            np.multiply(self._coeffs, spectra, out=spectra)  # this operand order, bit for bit
            np.maximum(out, np.abs(np.fft.ifftn(spectra, axes=axes)).max(axis=0), out=out)
        if not np.isfinite(out).all():
            raise NonFiniteSample("difference samples contain NaN or infinity")
        return out

    @np.errstate(over="ignore", invalid="ignore")  # SampledField rejects non-finite samples
    def difference(self, step: tuple[float, ...], order: int) -> SampledField:
        """The L-fold difference with step h as a validated field."""
        return SampledField(self.grid, np.fft.ifftn(self._coeffs * self._step_symbol(step, order)))

    @np.errstate(over="ignore", invalid="ignore")  # non-finite results raise below
    def norms(self, steps, order: int) -> np.ndarray:
        """||diff(f, h_m, L)||_2 for each row h_m of steps, checked finite.

        By Plancherel the squared norm is cell_volume / N times
        sum_k |X(k)|^2 u(k)^(2L) with u(k) = 2 sin(pi h.k / B), so no
        inverse transform is needed.  sin(pi h.k / B) comes from per-axis
        sines and cosines by angle addition, in real arithmetic; only the
        last axis's product is grid-sized.
        """
        grid = self.grid
        steps = self._count(steps, order)
        power = self._power_spectrum().reshape(-1, grid.n)
        chunk = max(1, _NORM_CHUNK_POINTS // grid.num_points)
        # grid-sized work arrays, reused by every chunk
        work = np.empty((2, min(chunk, len(steps)), grid.num_points // grid.n, grid.n))
        sums = np.empty(len(steps))
        for lo in range(0, len(steps), chunk):
            part = steps[lo : lo + chunk]
            u, spare = work[:, : len(part)]
            # pi k h_a / B, indexed (step, axis, k); the first axis carries
            # the factor 2 of u
            angle = np.pi * (self._k * (part[:, :, None] / grid.box))
            sin = np.sin(angle)
            sin[:, 0] *= 2.0
            if grid.dim == 1:
                u = sin.reshape(u.shape)
            else:
                cos = np.cos(angle)
                cos[:, 0] *= 2.0
                # 2 sin and 2 cos of the angle sum over the axes before the
                # last, indexed (step, flattened axes)
                sin_sum, cos_sum = sin[:, 0], cos[:, 0]
                for a in range(1, grid.dim - 1):
                    sin_a, cos_a = sin[:, a, None, :], cos[:, a, None, :]
                    sin_sum, cos_sum = (
                        (sin_sum[..., None] * cos_a + cos_sum[..., None] * sin_a).reshape(len(part), -1),
                        (cos_sum[..., None] * cos_a - sin_sum[..., None] * sin_a).reshape(len(part), -1),
                    )
                # u = sin_sum cos_last + cos_sum sin_last as one rank-2 product
                np.matmul(np.stack([sin_sum, cos_sum], axis=2),
                          np.stack([cos[:, -1], sin[:, -1]], axis=1), out=u)
            energy = np.multiply(u, u, out=u)  # u^2, then u^(2L)
            if order > 1:
                energy = np.multiply(u, u, out=spare)
                for _ in range(order - 2):
                    energy *= u
            energy *= power
            sums[lo : lo + chunk] = energy.reshape(len(part), -1).sum(axis=1)
        out = np.sqrt(sums * (grid.cell_volume / grid.num_points))
        if not np.isfinite(out).all():
            raise NonFiniteSample("difference norms contain NaN or infinity")
        return out

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

    def _step_symbol(self, step: tuple[float, ...], order: int) -> np.ndarray | float:
        """One step's multiplier, counted, broadcastable to the grid.

        Axes with a zero step component are left out of the product, so an
        axis step yields an array that is flat along the other axes, and the
        zero step yields the scalar 0.
        """
        dim = self.grid.dim
        phase = 1.0
        for a, h in enumerate(self._count([step], order)[0].tolist()):
            if h != 0.0:
                shape = [1] * dim
                shape[a] = -1
                # exp(2 pi i k h_a / B) along axis a
                phase = phase * np.exp(2j * np.pi * (self._k * (h / self.grid.box))).reshape(shape)
        return _power(phase - 1.0, order)

    def _mean_symbols(self, steps: np.ndarray, weights: np.ndarray,
                      order: int) -> Iterator[np.ndarray]:
        """Yield sum_m w_m S_m on the grid, in `fftn` order, for each mean of
        steps (means, nodes, dim) with weights (means, nodes).

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
        means, nodes = steps.shape[:2]
        binomials = [math.comb(order, j) for j in range(order + 1)]
        negative = slice((last + 1) // 2, None)  # the k < 0 in `fftn` order
        chunk = max(1, _MEAN_CHUNK_POINTS // plane)
        group = max(1, chunk // nodes)  # means per chunk, when a mean fits
        for first in range(0, means, group):
            size = min(group, means - first)
            row = np.zeros((size, last), dtype=complex)  # the j = 0 terms
            total = np.zeros((size, plane, last), dtype=complex)
            for lo in range(0, nodes, chunk):
                part = steps[first : first + group, lo : lo + chunk]
                w = weights[first : first + group, lo : lo + chunk]
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
            yield from total.reshape((size,) + grid.shape)


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
