"""Iterated forward differences of sampled fields.

The L-fold difference with step h is

    diff(f, h, 1)(x) = f(x + h) - f(x),      diff(f, h, L) = diff(diff(f, h, L-1), h, 1),

equivalently the spectral multiplier (exp(2 pi i h.xi) - 1)^L.  The shift
path composes exact circular shifts and therefore needs h on the sample
lattice; the spectral path accepts any real step and is exact on the
trigonometric interpolant of the samples.  Every spectral step runs
through a :class:`StepEngine`, which transforms its field forward once and
then pays one inverse transform per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidAxis,
    InvalidExponent,
    MisalignedStep,
    NonFiniteSample,
    ShapeMismatch,
)
from .fields import GridSpec, SampledField

ALIGNMENT_TOL = 1e-9


@dataclass(frozen=True)
class DifferenceSpec:
    """Order and evaluation path of an iterated difference."""

    order: int
    method: str = "spectral"

    def __post_init__(self) -> None:
        if self.order < 1:
            raise InvalidExponent(f"difference order must be >= 1, got {self.order}")
        if self.method not in ("shift", "spectral"):
            raise InvalidExponent(f"method must be 'shift' or 'spectral', got {self.method!r}")


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


class StepEngine:
    """Spectral L-fold differences of one field, for any number of steps.

    The engine transforms the field forward once.  A step symbol
    (exp(2 pi i h.k / B) - 1)^L is the broadcast product of one 1-D phase
    factor exp(2 pi i k_a h_a / B) per axis with a nonzero step component,
    so each step costs one inverse transform and no full-grid exponential.
    `steps` counts the step symbols formed and `forward_ffts` the forward
    transforms, which stays 1.
    """

    def __init__(self, field: SampledField):
        self.grid = field.grid
        self._coeffs = np.fft.fftn(field.data)
        self._k = self.grid.frequency_integers().astype(np.float64)
        self.forward_ffts = 1
        self.steps = 0

    def symbol(self, step: tuple[float, ...], order: int) -> np.ndarray | float:
        """The multiplier (exp(2 pi i h.k / B) - 1)^L, broadcastable to the grid.

        Axes with a zero step component are left out of the product, so an
        axis step yields an array that is flat along the other axes, and the
        zero step yields the scalar 0.
        """
        grid = self.grid
        if len(step) != grid.dim:
            raise ShapeMismatch(f"step has {len(step)} components, grid dim {grid.dim}")
        if order < 1:
            raise InvalidExponent(f"difference order must be >= 1, got {order}")
        self.steps += 1
        phase = 1.0
        for a, h in enumerate(step):
            if h != 0.0:
                shape = [1] * grid.dim
                shape[a] = grid.n
                factor = np.exp(2j * np.pi * (self._k * (h / grid.box)))
                phase = phase * factor.reshape(shape)
        base = phase - 1.0
        out = base
        for _ in range(order - 1):
            out = out * base
        return out

    def apply(self, symbol: np.ndarray | float) -> np.ndarray:
        """Samples of the field filtered by a spectral multiplier (unchecked)."""
        return np.fft.ifftn(self._coeffs * symbol)

    def difference(self, step: tuple[float, ...], order: int) -> SampledField:
        """The L-fold difference with step h as a validated field."""
        return SampledField(self.grid, self.apply(self.symbol(step, order)))

    def magnitude(self, step: tuple[float, ...], order: int) -> np.ndarray:
        """|diff(f, h, L)| on the grid, checked finite."""
        return finite_magnitude(self.apply(self.symbol(step, order)))


def finite_magnitude(data: np.ndarray) -> np.ndarray:
    """|data|, raising NonFiniteSample unless every entry is finite."""
    mag = np.abs(data)
    if not np.isfinite(mag).all():
        raise NonFiniteSample("difference samples contain NaN or infinity")
    return mag


def iterated_difference(
    field: SampledField,
    step: tuple[float, ...],
    order: int,
    method: str = "spectral",
) -> SampledField:
    """L-fold forward difference with vector step h."""
    DifferenceSpec(order, method)
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


def axis_difference(
    field: SampledField,
    t: float,
    axis: int,
    order: int,
    method: str = "spectral",
) -> SampledField:
    """Iterated difference along one coordinate axis with scalar step t."""
    if not (0 <= axis < field.grid.dim):
        raise InvalidAxis(f"axis {axis} outside range(dim={field.grid.dim})")
    step = tuple(t if a == axis else 0.0 for a in range(field.grid.dim))
    return iterated_difference(field, step, order, method)
