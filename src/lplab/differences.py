"""Iterated forward differences of sampled fields.

The L-fold difference with step h is

    diff(f, h, 1)(x) = f(x + h) - f(x),      diff(f, h, L) = diff(diff(f, h, L-1), h, 1),

equivalently the spectral multiplier (exp(2 pi i h.xi) - 1)^L.  The shift
path composes exact circular shifts and therefore needs h on the sample
lattice; the spectral path accepts any real step and is exact on the
trigonometric interpolant of the samples.  Every spectral step runs
through a :class:`StepEngine`, which transforms its field forward once and
then pays one inverse transform per step: a real-input one for a real
field of at least 8192 samples, a complex one otherwise.  Where only the
L^2 norm of each difference is needed, :meth:`StepEngine.norms` reads it
off the power spectrum by Plancherel and pays no inverse transform.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    InvalidExponent,
    MisalignedStep,
    NonFiniteSample,
    ShapeMismatch,
)
from .fields import GridSpec, SampledField

ALIGNMENT_TOL = 1e-9
# Fewest samples for the real-input layout.  Below it the per-step Nyquist
# plane work costs more than the smaller inverse transform saves: per step
# on a 2-vCPU x86 VM with numpy 2.4, the real layout took 1.3x the complex
# time at 2-D 64^2 and 1.4x at 3-D 16^3, but 0.6-0.85x at 1-D 8192,
# 2-D 128^2 and 3-D 32^3.
_REAL_LAYOUT_MIN_POINTS = 8192
_NODE_CHUNK = 32  # nodes of a weighted mean whose phase factors are held at once
# Grid points of step energies held at once by StepEngine.norms: 2^17 raised
# the peak RSS of a 2-D 128^2, L = 2 `norm diff` call from 32.7 to 34.4 MB.
_NORM_CHUNK_POINTS = 1 << 14


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
    component, so each step, or weighted sum of steps, costs one inverse
    transform and no full-grid exponential.

    A field of at least _REAL_LAYOUT_MIN_POINTS samples, none with a
    nonzero imaginary part, keeps (`real` is True) the half spectrum X of
    `np.fft.rfftn` (last axis k = 0 .. n/2 - 1 and the Nyquist entry
    k = -n/2, as `fftfreq` orders it) and pays one `np.fft.irfftn` per
    step.  The difference y = ifftn(X S) has real part
    irfftn(X (S(k) + conj S(-k)) / 2), and conj S(-k) differs from S(k)
    only on the Nyquist planes k_a = -n/2, where -k aliases: there it is S
    with the Nyquist entry of every phase factor conjugated.  `irfftn`
    folds the last axis's plane itself; the planes of the other axes are
    averaged here.  The imaginary part, the inverse transform of
    X (S(k) - conj S(-k)) / 2i, lives on those planes only, so it is a sum
    over axes a of (-1)^(x_a) times a (d-1)-dimensional inverse transform
    of the piece of plane a off the planes of earlier axes.  Any other
    field keeps the full `fftn`/`ifftn` pair.

    `norms` needs only the full power spectrum |X|^2, which it mirrors
    from the half spectrum of the real layout.

    `steps` counts the step symbols formed and `forward_ffts` the forward
    transforms of the whole field, which stays 1.
    """

    def __init__(self, field: SampledField):
        grid = self.grid = field.grid
        self.real = (grid.num_points >= _REAL_LAYOUT_MIN_POINTS
                     and not field.data.imag.any())
        self._k = grid.frequency_integers().astype(np.float64)
        if self.real:
            samples = field.data.real
            self._coeffs = np.fft.rfftn(samples)
            alternating = (-1.0) ** np.arange(grid.n)
            # the full spectrum on the plane k_a = -n/2 of each axis a, over
            # the other axes in order
            self._planes = np.stack([
                np.fft.fftn(np.einsum("...i,i->...", np.moveaxis(samples, a, -1), alternating))
                for a in range(grid.dim)
            ])
            # half the stored spectrum on those planes, for all axes but the last
            self._half_planes = [0.5 * self._coeffs[(slice(None),) * a + (grid.n // 2,)]
                                 for a in range(grid.dim - 1)]
            # row i: for each plane a, the i-th axis other than a
            self._others = np.array([[b for b in range(grid.dim) if b != a]
                                     for a in range(grid.dim)], dtype=np.intp).T
            # (-1)^(sum of the plane coordinates) / 2n, and the shape from
            # which plane a's piece broadcasts over the grid
            self._checker = (-1.0) ** np.indices(grid.shape[1:]).sum(axis=0) / (2 * grid.n)
            self._spread = [grid.shape[:a] + (1,) + grid.shape[a + 1:] for a in range(grid.dim)]
        else:
            self._coeffs = np.fft.fftn(field.data)
        self._power = None
        self.forward_ffts = 1
        self.steps = 0

    def magnitude(self, step: tuple[float, ...], order: int) -> np.ndarray:
        """|diff(f, h, L)| on the grid, checked finite."""
        return self._combine([step], None, order, modulus=True)

    def mean_magnitude(self, steps: np.ndarray, weights: np.ndarray, order: int) -> np.ndarray:
        """|sum_m w_m diff(f, h_m, L)| on the grid, checked finite."""
        return self._combine(steps, weights, order, modulus=True)

    def difference(self, step: tuple[float, ...], order: int) -> SampledField:
        """The L-fold difference with step h as a validated field."""
        return SampledField(self.grid, self._combine([step], None, order, modulus=False))

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

    def _power_spectrum(self) -> np.ndarray:
        """|X|^2 on the full grid in `fftn` order, built on first use.

        In the real layout the negative last-axis frequencies are the
        mirror X(k', -j) = conj X(-k', j) of the stored half.
        """
        if self._power is None:
            power = self._coeffs.real**2 + self._coeffs.imag**2
            if self.real:
                n, dim = self.grid.n, self.grid.dim
                mirror = power[..., n // 2 - 1 : 0 : -1]
                negated = -np.arange(n) % n
                for a in range(dim - 1):
                    mirror = np.take(mirror, negated, axis=a)
                power = np.concatenate([power, mirror], axis=-1)
            self._power = power
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

    def _combine(self, steps, weights, order: int, modulus: bool) -> np.ndarray:
        """sum_m w_m diff(f, h_m, L), or its modulus checked finite.

        weights None stands for the single unweighted step steps[0].
        """
        grid = self.grid
        steps = self._count(steps, order)
        if weights is not None:
            symbol = np.zeros(self._coeffs.shape, dtype=complex)
        jump = 0.0
        for lo in range(0, len(steps), _NODE_CHUNK):
            part = steps[lo : lo + _NODE_CHUNK]
            part_weights = None if weights is None else weights[lo : lo + _NODE_CHUNK]
            # exp(2 pi i k h_a / B), indexed (node, axis, k)
            factors = np.exp(2j * np.pi * (self._k * (part[:, :, None] / grid.box)))
            if weights is None:
                symbol = self._symbol(part[0], factors[0], order)
            else:
                for step, factor, w in zip(part, factors, part_weights):
                    symbol += w * self._symbol(step, factor, order)
            if self.real:
                jump = jump + self._plane_jump(factors, part_weights, order)
        spectrum = self._coeffs * symbol
        if self.real:
            twisted = self._nyquist_planes(spectrum, jump)
            real_part = np.fft.irfftn(spectrum)
            if not modulus:
                checker = (-1.0) ** np.indices(grid.shape).sum(axis=0)
                return real_part + 1j * (checker * twisted)
            mag = np.multiply(real_part, real_part, out=real_part)
            mag += np.multiply(twisted, twisted, out=twisted)
            np.sqrt(mag, out=mag)
        else:
            samples = np.fft.ifftn(spectrum)
            if not modulus:
                return samples
            mag = np.abs(samples)
        if not np.isfinite(mag).all():
            raise NonFiniteSample("difference samples contain NaN or infinity")
        return mag

    def _symbol(self, step: np.ndarray, factor: np.ndarray, order: int) -> np.ndarray | float:
        """One step's multiplier, broadcastable to the stored spectrum.

        Axes with a zero step component are left out of the product, so an
        axis step yields an array that is flat along the other axes, and the
        zero step yields the scalar 0.
        """
        dim = self.grid.dim
        phase = 1.0
        for a, h in enumerate(step.tolist()):
            if h != 0.0:
                shape = [1] * dim
                shape[a] = self._coeffs.shape[a]
                phase = phase * factor[a, : shape[a]].reshape(shape)
        return _power(phase - 1.0, order)

    def _plane_jump(self, factors, weights, order: int) -> np.ndarray:
        """sum_m w_m (S_m(k) - conj S_m(-k)) on the Nyquist plane of every
        axis, indexed (a, other axes), for nodes with the given phase
        factors; conj S(-k) is S with every Nyquist phase entry conjugated.
        """
        dim, n, nyquist = self.grid.dim, self.grid.n, self.grid.n // 2
        # the phase factors and their primed forms, indexed (form, node, axis, k)
        both = np.empty((2,) + factors.shape, dtype=complex)
        both[:] = factors
        both[1, :, :, nyquist] = factors[:, :, nyquist].conj()
        # both forms of S on every plane, indexed (form, node, a, other axes)
        phase = both[:, :, :, nyquist].reshape(both.shape[:3] + (1,) * (dim - 1))
        for i, other in enumerate(self._others):
            shape = [2, -1, dim] + [1] * (dim - 1)
            shape[3 + i] = n
            phase = phase * both[:, :, other].reshape(shape)
        forms = _power(phase - 1.0, order)
        jump = forms[0] - forms[1]
        return jump[0] if weights is None else np.einsum("m,m...->...", weights, jump)

    def _nyquist_planes(self, spectrum: np.ndarray, jump: np.ndarray) -> np.ndarray:
        """Average the Nyquist planes of all but the last axis of the half
        spectrum in place, and return the imaginary part of the samples
        times (-1)^(x_1 + ... + x_d).

        jump is X's multiplier S(k) - conj S(-k) on the planes.  The
        imaginary part is sum_a (-1)^(x_a) g_a(x without x_a), so that
        product is the sum of the g_a times the signs of the other
        coordinates, each a function of d - 1 coordinates broadcast over
        the grid; squaring it gives the squared imaginary part.
        """
        dim, nyquist = self.grid.dim, self.grid.n // 2
        # plane a keeps only its piece off the planes of the axes before a
        for b in range(dim - 1):
            jump[(slice(b + 1, None),) + (slice(None),) * b + (nyquist,)] = 0.0
        for a, half_plane in enumerate(self._half_planes):
            spectrum[(slice(None),) * a + (nyquist,)] -= half_plane * jump[a, ..., : spectrum.shape[-1]]
        pieces = self._planes * jump
        for axis in range(1, dim):
            pieces = np.fft.ifft(pieces, axis=axis)
        pieces = pieces.imag * self._checker
        twisted = pieces[0].reshape(self._spread[0])
        for a in range(1, dim):
            twisted = twisted + pieces[a].reshape(self._spread[a])
        return twisted


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
