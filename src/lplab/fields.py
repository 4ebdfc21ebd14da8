"""Sampled fields on periodic grids and their exact spectral manipulations.

A field lives on the torus [0, B)^dim sampled at N points per axis.  The
frequency lattice is the integer lattice k in [-N/2, N/2)^dim with physical
frequency xi = k / B cycles per unit length.  The package has one transform
convention, numpy's unnormalized DFT: a spectrum is `np.fft.fftn` of the
samples and `np.fft.ifftn` inverts it, so coefficient k is (N/B)^dim times
integral over the box of f(x) exp(-2 pi i x.xi) dx for the trigonometric
interpolant f of the samples.  Every spectral quantity that reaches a result
is a multiplier applied between the two transforms or a ratio of spectral
magnitudes, so no result depends on that factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidExponent,
    NonFiniteSample,
    ShapeMismatch,
    UnresolvableSpec,
)

COMPLEX = np.complex128
# Bytes of working set each chunked loop holds at once: steps of a norm or
# maximum sweep, mean nodes, fields of a stack or a supremum scan, block
# pairs of one product.  Measured against larger chunks on a 2-vCPU x86 VM:
# a 2-D 128^2, L = 2 `norm diff` call peaked at 32.7 MB, against 34.4 MB
# with 8x the norm chunk; a 2-D n = 32 `verify equivalence` call at
# 38.4 MB, against 40.5 MB with 4x the mean chunk; a 2-D n = 32
# five-variant maximal_quasinorm_set traced 3.2 MB, against 3.5 MB with
# twice the scan stack and no measurable gain in speed.
WORK_BYTES = 1 << 17


def per_chunk(item_bytes: int) -> int:
    """Items of item_bytes each that fit in WORK_BYTES, one at least."""
    return max(1, WORK_BYTES // item_bytes)


@dataclass(frozen=True)
class GridSpec:
    """Periodic sampling grid: dim axes, n points per axis, box edge length."""

    dim: int
    n: int
    box: float = 1.0

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ShapeMismatch(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ShapeMismatch(f"n must be a power of two >= 2, got {self.n}")
        if self.dim * math.log2(self.n) > 30 + 1e-9:
            raise ShapeMismatch(
                f"grid too large: dim*log2(n) = {self.dim * math.log2(self.n):.1f} > 30"
            )
        if not (math.isfinite(self.box) and self.box > 0):
            raise ShapeMismatch(f"box must be positive and finite, got {self.box}")

    @property
    def spacing(self) -> float:
        return self.box / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def num_points(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Sample positions 0, spacing, ..., box - spacing along one axis."""
        return np.arange(self.n) * self.spacing

    def frequency_integers(self) -> np.ndarray:
        """Integer frequencies along one axis in numpy FFT order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)

    def frequency_lattice(self) -> list[np.ndarray]:
        """Integer frequency arrays broadcast to the full grid shape."""
        k = self.frequency_integers()
        return list(np.meshgrid(*([k] * self.dim), indexing="ij", sparse=True))

    def frequency_radii(self) -> np.ndarray:
        """|xi| = |k|/box on the full FFT-ordered lattice."""
        parts = self.frequency_lattice()
        rad2 = sum((kk.astype(np.float64) / self.box) ** 2 for kk in parts)
        return np.sqrt(rad2)

    def minimal_image_coords(self, center: tuple[float, ...] | None = None) -> list[np.ndarray]:
        """Per-axis displacements from center folded into [-box/2, box/2)."""
        if center is None:
            center = (0.0,) * self.dim
        x = self.axis_coordinates()
        out = []
        for a in range(self.dim):
            d = np.mod(x - center[a] + 0.5 * self.box, self.box) - 0.5 * self.box
            shape = [1] * self.dim
            shape[a] = self.n
            out.append(d.reshape(shape))
        return out

    def minimal_image_radii(self, center: tuple[float, ...] | None = None) -> np.ndarray:
        d = self.minimal_image_coords(center)
        return np.sqrt(sum(dd**2 for dd in d))


def resolvable_band_range(grid: GridSpec) -> tuple[int, int]:
    """Dyadic band indices [j_min, j_max] the grid can represent.

    Band j carries frequencies 2^(j-1) <= |xi| < 2^(j+1).  The lowest band
    must sit at or above the smallest nonzero lattice frequency 1/box and
    the highest band must fit under the Nyquist frequency n/(2 box).
    """
    j_min = math.ceil(1.0 - math.log2(grid.box) - 1e-12)
    j_max = math.floor(math.log2(grid.n / (2.0 * grid.box)) + 1e-12) - 1
    return j_min, j_max


@dataclass(frozen=True, eq=False)
class SampledField:
    """Complex samples on a grid, shape (n,)*dim, all finite."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=COMPLEX)
        if arr.shape != self.grid.shape:
            raise ShapeMismatch(
                f"samples shape {arr.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise NonFiniteSample("samples contain NaN or infinity")
        object.__setattr__(self, "data", arr)


def stable_sum(values: np.ndarray) -> float:
    """Deterministic compensated sum in fixed lexicographic order.

    Chunks of 4096 values, at every array size, are reduced with numpy's
    deterministic pairwise sum and the chunk totals are combined exactly
    with math.fsum, so reruns on identical input produce bit-identical
    results.  A sum beyond the float range is inf: every caller sums
    nonnegative terms.
    """
    flat = np.ravel(np.asarray(values, dtype=np.float64), order="C")
    if flat.size == 0:
        return 0.0
    with np.errstate(over="ignore"):
        totals = np.add.reduceat(flat, np.arange(0, flat.size, 4096))
    try:
        return float(math.fsum(totals.tolist()))
    except OverflowError:
        return math.inf


@np.errstate(over="ignore")  # callers check that the value is finite
def lp_of_magnitudes(values: np.ndarray, grid: GridSpec, p: float) -> float:
    """L^p quasinorm, with the cell-volume measure, of a nonnegative sample
    array; p = inf gives the max.  inf where the value overflows."""
    if math.isinf(p):
        return float(values.max(initial=0.0))
    try:
        return float((stable_sum(values**p) * grid.cell_volume) ** (1.0 / p))
    except OverflowError:  # a float power past the float range
        return math.inf


def lp_norm(field: SampledField, p: float) -> float:
    """L^p quasinorm with the cell-volume measure; p = inf gives the max.

    NonFiniteSample when the samples are finite but the norm overflows.
    """
    if not (p > 0):
        raise InvalidExponent(f"p must be positive, got {p}")
    value = lp_of_magnitudes(np.abs(field.data), field.grid, p)
    if not math.isfinite(value):
        raise NonFiniteSample(f"L^{p:g} norm overflows: the samples are too large")
    return value


def derivative(field: SampledField, orders: tuple[int, ...]) -> SampledField:
    """Spectral partial derivative with multi-index orders per axis."""
    grid = field.grid
    if len(orders) != grid.dim:
        raise ShapeMismatch(f"orders has {len(orders)} components, grid dim {grid.dim}")
    mult = np.ones(grid.shape, dtype=COMPLEX)
    for a, kk in enumerate(grid.frequency_lattice()):
        if orders[a] < 0:
            raise InvalidExponent(f"derivative order must be >= 0, got {orders[a]}")
        if orders[a]:
            mult = mult * (2j * np.pi * kk.astype(np.float64) / grid.box) ** orders[a]
    return SampledField(grid, np.fft.ifftn(np.fft.fftn(field.data) * mult))


# ---------------------------------------------------------------------------
# Test-function corpus


_FAMILIES = (
    "gaussian",
    "modulated_gaussian",
    "smooth_bump",
    "random_band",
    "windowed_polynomial",
    "weierstrass",
)


@dataclass(frozen=True)
class TestFunctionSpec:
    """Parameters selecting one analytic test function.

    width is the gaussian/bump length scale sigma; modulation is an integer
    frequency vector; band_index selects the dyadic annulus of random_band;
    (ratio_a, ratio_b, terms) control the lacunary cosine sum; degree the
    windowed polynomial.
    """

    __test__ = False  # data container, not a pytest case

    family: str
    width: float | None = None
    center: tuple[float, ...] | None = None
    modulation: tuple[int, ...] | None = None
    band_index: int | None = None
    seed: int = 0
    degree: int = 3
    ratio_a: float = 0.5
    ratio_b: int = 3
    terms: int = 8
    label: str | None = None

    def function_id(self) -> str:
        if self.label:
            return self.label
        bits = [self.family]
        if self.width is not None:
            bits.append(f"w{self.width:g}")
        if self.modulation is not None:
            bits.append("m" + "x".join(str(int(v)) for v in self.modulation))
        if self.band_index is not None:
            bits.append(f"j{self.band_index}")
        if self.family == "random_band":
            bits.append(f"s{self.seed}")
        if self.family == "windowed_polynomial":
            bits.append(f"d{self.degree}")
        if self.family == "weierstrass":
            bits.append(f"a{self.ratio_a:g}b{self.ratio_b}t{self.terms}")
        return "_".join(bits)


def _grid_center(grid: GridSpec) -> tuple[float, ...]:
    return ((grid.n // 2) * grid.spacing,) * grid.dim


def _check_width(width: float | None, grid: GridSpec) -> float:
    if width is None:
        raise UnresolvableSpec("this family needs an explicit width")
    lo, hi = 4.0 * grid.spacing, grid.box / 8.0
    if not (lo <= width <= hi):
        raise UnresolvableSpec(
            f"width {width:g} outside grid capability [{lo:g}, {hi:g}]"
        )
    return float(width)


def sample_family(spec: TestFunctionSpec, grid: GridSpec) -> SampledField:
    """Sample one analytic test function on the grid."""
    if spec.family not in _FAMILIES:
        raise UnresolvableSpec(f"unknown family {spec.family!r}")
    center = spec.center if spec.center is not None else _grid_center(grid)
    if len(center) != grid.dim:
        raise UnresolvableSpec("center dimensionality does not match the grid")

    if spec.family == "gaussian":
        width = _check_width(spec.width, grid)
        r2 = grid.minimal_image_radii(center) ** 2
        return SampledField(grid, np.exp(-r2 / width**2).astype(COMPLEX))

    if spec.family == "modulated_gaussian":
        width = _check_width(spec.width, grid)
        if spec.modulation is None or len(spec.modulation) != grid.dim:
            raise UnresolvableSpec("modulated_gaussian needs an integer modulation vector")
        r2 = grid.minimal_image_radii(center) ** 2
        env = np.exp(-r2 / width**2)
        phase = np.zeros(grid.shape)
        x = grid.axis_coordinates()
        for a in range(grid.dim):
            shape = [1] * grid.dim
            shape[a] = grid.n
            phase = phase + spec.modulation[a] * x.reshape(shape) / grid.box
        return SampledField(grid, env * np.exp(2j * np.pi * phase))

    if spec.family == "smooth_bump":
        width = _check_width(spec.width, grid)
        r2 = grid.minimal_image_radii(center) ** 2
        u2 = r2 / width**2
        out = np.zeros(grid.shape)
        inside = u2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
        return SampledField(grid, out.astype(COMPLEX))

    if spec.family == "random_band":
        if spec.band_index is None:
            raise UnresolvableSpec("random_band needs band_index")
        j_min, j_max = resolvable_band_range(grid)
        if not (j_min <= spec.band_index <= j_max):
            raise UnresolvableSpec(
                f"band_index {spec.band_index} outside grid capability [{j_min}, {j_max}]"
            )
        rng = np.random.default_rng(spec.seed)
        noise = rng.standard_normal(grid.shape)
        radii = grid.frequency_radii()
        annulus = (radii >= 2.0 ** (spec.band_index - 1)) & (radii < 2.0 ** (spec.band_index + 1))
        data = np.fft.ifftn(np.where(annulus, np.fft.fftn(noise), 0.0)).real
        peak = float(np.max(np.abs(data)))
        if peak == 0.0:
            raise UnresolvableSpec("annulus holds no lattice frequencies")
        return SampledField(grid, (data / peak).astype(COMPLEX))

    if spec.family == "windowed_polynomial":
        width = _check_width(spec.width, grid)
        if spec.degree < 0:
            raise UnresolvableSpec("degree must be >= 0")
        d = grid.minimal_image_coords(center)
        r2 = sum(dd**2 for dd in d) / width**2
        window = np.zeros(grid.shape)
        inside = r2 < 1.0
        window[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        poly = (np.broadcast_to(d[0], grid.shape) / width) ** spec.degree
        return SampledField(grid, (poly * window).astype(COMPLEX))

    # weierstrass: lacunary cosine sum along the diagonal lattice direction
    if not (0.0 < spec.ratio_a < 1.0):
        raise UnresolvableSpec("weierstrass needs 0 < ratio_a < 1")
    if spec.ratio_b < 2:
        raise UnresolvableSpec("weierstrass needs integer ratio_b >= 2")
    if spec.terms < 1:
        raise UnresolvableSpec("weierstrass needs terms >= 1")
    x = grid.axis_coordinates()
    diag = np.zeros(grid.shape)
    for a in range(grid.dim):
        shape = [1] * grid.dim
        shape[a] = grid.n
        diag = diag + x.reshape(shape) / grid.box
    out = np.zeros(grid.shape)
    kept = 0
    for k in range(spec.terms):
        freq = spec.ratio_b**k
        if freq > grid.n // 2 - 1:
            break
        out = out + spec.ratio_a**k * np.cos(2.0 * np.pi * freq * diag)
        kept += 1
    if kept == 0:
        raise UnresolvableSpec("no weierstrass term resolvable on this grid")
    return SampledField(grid, out.astype(COMPLEX))

