"""Dyadic Littlewood-Paley band systems on the frequency lattice.

The radial profile chi is exactly 1 below 1, exactly 0 above 2, and on
(1, 2) equals s(2-u) / (s(2-u) + s(u-1)) with s(t) = exp(-1/t), so the
annulus multiplier psi_hat(xi) = chi(|xi|) - chi(2|xi|) is supported in
{1/2 <= |xi| < 2}, takes values in [0, 1], and the shifted copies
psi_hat(2^-j xi) telescope to an exact partition of unity away from zero
frequency.

`decompose` splits a sequence of fields on one grid in one call: the band
multipliers depend only on the grid, so each is built once for them all.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    BandOutOfRange,
    BandRangeEmpty,
    EmptyDecomposition,
    GridMismatch,
    NonFiniteSample,
    RangeTooNarrow,
    UnresolvedEnergy,
)
from .fields import (
    COMPLEX,
    GridSpec,
    SampledField,
    resolvable_band_range,
    stable_sum,
)

# Largest relative spectral energy a decomposition may leave unrepresented.
_UNRESOLVED_TOL = 1e-10


def dyadic_profile(u) -> np.ndarray:
    """Radial cutoff chi: 1 on [0, 1], 0 on [2, inf), smooth crossover."""
    u = np.asarray(u, dtype=np.float64)
    out = np.ones(u.shape)
    out[u >= 2.0] = 0.0
    mid = (u > 1.0) & (u < 2.0)
    if np.any(mid):
        t_fall = 2.0 - u[mid]
        t_rise = u[mid] - 1.0
        s_fall = np.exp(-1.0 / t_fall)
        s_rise = np.exp(-1.0 / t_rise)
        out[mid] = s_fall / (s_fall + s_rise)
    return out


def band_profile(u) -> np.ndarray:
    """Annulus multiplier psi_hat(u) = chi(u) - chi(2u), supported in [1/2, 2)."""
    u = np.asarray(u, dtype=np.float64)
    return dyadic_profile(u) - dyadic_profile(2.0 * u)


@dataclass(frozen=True)
class DyadicBandSystem:
    """Band indices [j_min, j_max] realizable on a grid."""

    grid: GridSpec
    j_min: int
    j_max: int

    def __post_init__(self) -> None:
        if self.j_min > self.j_max:
            raise BandRangeEmpty(f"j_min {self.j_min} > j_max {self.j_max}")
        lo, hi = resolvable_band_range(self.grid)
        if self.j_min < lo or self.j_max > hi:
            raise BandOutOfRange(
                f"bands [{self.j_min}, {self.j_max}] exceed grid capability [{lo}, {hi}]"
            )
        if self.j_max - self.j_min + 1 < 3:
            raise RangeTooNarrow(
                f"grid supports only {self.j_max - self.j_min + 1} bands, need >= 3"
            )

    @property
    def band_indices(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def band_multiplier(self, j: int) -> np.ndarray:
        """psi_hat(2^-j |xi|) on the FFT-ordered lattice."""
        radii = self.grid.frequency_radii()
        return band_profile(radii * 2.0 ** (-j))

    def lowpass_multiplier(self) -> np.ndarray:
        """chi(2^-(j_min-1) |xi|), covering |xi| <= 2^(j_min-1) exactly."""
        radii = self.grid.frequency_radii()
        return dyadic_profile(radii * 2.0 ** (-(self.j_min - 1)))


def build_band_system(grid: GridSpec) -> DyadicBandSystem:
    """Band system over every band index the grid can represent."""
    lo, hi = resolvable_band_range(grid)
    return DyadicBandSystem(grid=grid, j_min=lo, j_max=hi)


def band_project(field: SampledField, system: DyadicBandSystem, j: int) -> SampledField:
    """Spectral projection of the field onto dyadic band j."""
    if field.grid != system.grid:
        raise GridMismatch("field and band system live on different grids")
    if j < system.j_min or j > system.j_max:
        raise BandOutOfRange(f"band {j} outside [{system.j_min}, {system.j_max}]")
    return SampledField(field.grid,
                        np.fft.ifftn(np.fft.fftn(field.data) * system.band_multiplier(j)))


@dataclass(frozen=True, eq=False)
class BandDecomposition:
    """Ordered band fields, optional lowpass, and the truncation diagnostic.

    truncated_energy is the relative spectral energy the decomposition cannot
    represent: outside [2^(j_min-1), 2^(j_max+1)) in homogeneous mode (zero
    frequency excluded on both sides of the ratio, constants being the
    periodic analogue of the quotiented polynomials), above 2^(j_max+1) in
    inhomogeneous mode.
    """

    system: DyadicBandSystem
    bands: tuple[tuple[int, SampledField], ...]
    lowpass: SampledField | None
    truncated_energy: float
    homogeneous: bool

    def __post_init__(self) -> None:
        if not self.bands and self.lowpass is None:
            raise EmptyDecomposition("decomposition holds no bands and no lowpass")
        js = [j for j, _ in self.bands]
        if any(b <= a for a, b in zip(js, js[1:])):
            raise EmptyDecomposition(f"band indices must strictly increase, got {js}")


def decompose(
    field: SampledField | Sequence[SampledField],
    system: DyadicBandSystem,
    homogeneous: bool = True,
) -> BandDecomposition | list[BandDecomposition]:
    """Split a field into its dyadic bands.

    Homogeneous mode drops the zero mode (the quotiented constant) and
    requires the relative energy outside [2^(j_min-1), 2^(j_max+1)) to stay
    below 1e-10.  Inhomogeneous mode keeps a lowpass field covering
    everything below band j_min and only energy above 2^(j_max+1) counts as
    unresolved.  The measured fraction is stored either way.

    A sequence of fields on the system's grid gives one decomposition per
    field, in order, with each multiplier built once for all of them.  The
    fields are checked in order, so the first that fails raises, as one
    call per field would.
    """
    fields = [field] if isinstance(field, SampledField) else list(field)
    if any(f.grid != system.grid for f in fields):
        raise GridMismatch("field and band system live on different grids")
    grid = system.grid
    radii = grid.frequency_radii()
    nonzero = radii > 0.0
    lo_edge = 2.0 ** (system.j_min - 1)
    hi_edge = 2.0 ** (system.j_max + 1)
    multipliers = [(j, system.band_multiplier(j)) for j in system.band_indices]
    lowpass_multiplier = None if homogeneous else system.lowpass_multiplier()
    out = []
    for f in fields:
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            spectrum = np.fft.fftn(f.data)
        # the fraction is scale-invariant, so square the coefficients over
        # their largest component, where no square can overflow
        peak = float(np.abs(spectrum.view(np.float64)).max())
        if not math.isfinite(peak):
            raise NonFiniteSample("spectrum overflows: the samples are too large")
        power = np.abs(spectrum / peak if peak > 0.0 else spectrum) ** 2
        if homogeneous:
            total = stable_sum(power[nonzero])
            outside = nonzero & ((radii < lo_edge) | (radii >= hi_edge))
            lost = stable_sum(power[outside]) if np.any(outside) else 0.0
            fraction = lost / total if total > 0.0 else 0.0
            if fraction > _UNRESOLVED_TOL:
                raise UnresolvedEnergy(
                    f"{fraction:.3e} of the nonzero-frequency energy lies outside "
                    f"[{lo_edge:g}, {hi_edge:g}); tolerance {_UNRESOLVED_TOL:g}"
                )
            spectrum = np.where(nonzero, spectrum, 0.0 + 0.0j)
            lowpass = None
        else:
            total = stable_sum(power)
            outside = radii >= hi_edge
            lost = stable_sum(power[outside]) if np.any(outside) else 0.0
            fraction = lost / total if total > 0.0 else 0.0
            if fraction > _UNRESOLVED_TOL:
                raise UnresolvedEnergy(
                    f"{fraction:.3e} of the energy lies above |xi| = {hi_edge:g}; "
                    f"tolerance {_UNRESOLVED_TOL:g}"
                )
            lowpass = SampledField(grid, np.fft.ifftn(spectrum * lowpass_multiplier))
        bands = tuple((j, SampledField(grid, np.fft.ifftn(spectrum * multiplier)))
                      for j, multiplier in multipliers)
        out.append(BandDecomposition(
            system=system,
            bands=bands,
            lowpass=lowpass,
            truncated_energy=float(fraction),
            homogeneous=homogeneous,
        ))
    return out[0] if isinstance(field, SampledField) else out


def reconstruct(decomposition: BandDecomposition) -> SampledField:
    """Sum the bands (plus lowpass when present)."""
    grid = decomposition.system.grid
    acc = np.zeros(grid.shape, dtype=COMPLEX)
    for _, f in decomposition.bands:
        acc = acc + f.data
    if decomposition.lowpass is not None:
        acc = acc + decomposition.lowpass.data
    return SampledField(grid, acc)
