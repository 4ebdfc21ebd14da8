import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from lplab import maximal, quasinorms
from lplab.differences import StepEngine
from lplab.errors import InvalidExponent
from lplab.fields import GridSpec, SampledField, lp_norm
from lplab.maximal import annulus_radii, unit_sphere_nodes


@pytest.fixture
def grid1d() -> GridSpec:
    return GridSpec(dim=1, n=256, box=1.0)


@pytest.fixture
def grid1d_big() -> GridSpec:
    return GridSpec(dim=1, n=1024, box=1.0)


@pytest.fixture
def grid2d() -> GridSpec:
    return GridSpec(dim=2, n=64, box=1.0)


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_complex_field(grid: GridSpec, seed: int = 0) -> SampledField:
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SampledField(grid, data)


def field_of_kind(grid: GridSpec, kind: str) -> SampledField:
    """Real white noise (strong Nyquist planes), a real centred Gaussian, or
    that Gaussian modulated by exp(2 pi i 5 x_1 / B) ("modulated")."""
    if kind == "noise":
        return SampledField(grid, np.random.default_rng(45).standard_normal(grid.shape))
    x = np.meshgrid(*[grid.axis_coordinates()] * grid.dim, indexing="ij", sparse=True)
    data = np.exp(-sum((xx - grid.box / 2) ** 2 for xx in x) / (2 * (0.08 * grid.box) ** 2))
    if kind == "modulated":
        data = data * np.exp(2j * np.pi * 5 * x[0] / grid.box)
    return SampledField(grid, data)


def unusual_quadrature(allow_subgrid: bool = True) -> quasinorms.QuadratureSpec:
    """A quadrature whose fields all differ from the defaults, except
    allow_subgrid when it is False."""
    return quasinorms.QuadratureSpec(
        h_min=1 / 96, h_max=0.2, radial_nodes_per_octave=3, sphere_nodes=12,
        t_nodes_per_octave=5, tau_nodes_per_octave=7, tau_octaves=2,
        allow_subgrid=allow_subgrid,
    )


def assert_replaced(before, after, **changes) -> None:
    """after is the dataclass before with exactly the given fields changed."""
    assert dataclasses.asdict(after) == {**dataclasses.asdict(before), **changes}


def translate(field: SampledField, shift) -> SampledField:
    """x -> f(x + shift), exact for the trigonometric interpolant, from one
    full-grid spectral phase."""
    grid = field.grid
    assert len(shift) == grid.dim
    phase = sum(kk.astype(np.float64) * (h / grid.box)
                for kk, h in zip(grid.frequency_lattice(), shift))
    return SampledField(grid, np.fft.ifftn(np.fft.fftn(field.data) * np.exp(2j * np.pi * phase)))


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


def annulus_nodes(dim: int, sphere_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Volume-quadrature nodes for the shell {1 <= |z| < 2}, the oracle of
    the maximal layer's shell means: sphere_count directions on each radius
    of `annulus_radii`.

    Returns (points, weights); weights sum to 1 so weighting realizes the
    volume average over the shell.
    """
    sphere = unit_sphere_nodes(dim, sphere_count)
    radii = annulus_radii()
    radial_w = radii**dim  # volume density against d(log rho)
    points = (radii[:, None, None] * sphere[None, :, :]).reshape(-1, dim)
    weights = np.repeat(radial_w, sphere.shape[0])
    return points, weights / weights.sum()


class TranslateSteps:
    """A stand-in for the StepEngine of a stack of fields whose first-order
    steps are the literal translate(f, h) - f: the oracle of the engine's
    step magnitudes and Plancherel norms."""

    def __init__(self, fields):
        self.fields = list(fields)

    def difference(self, f: SampledField, step) -> SampledField:
        return SampledField(f.grid, translate(f, tuple(step)).data - f.data)

    def magnitudes(self, steps, order: int):
        assert order == 1
        yield np.array([[np.abs(self.difference(f, step).data) for step in steps]
                        for f in self.fields])

    def norms(self, steps, order: int) -> np.ndarray:
        assert order == 1
        return np.array([[lp_norm(self.difference(f, step), 2.0) for step in steps]
                         for f in self.fields])


def full_grid_symbol(grid: GridSpec, step, order: int) -> np.ndarray:
    """The step symbol as one full-grid complex exponential of k.h / B."""
    phase = sum(
        kk.astype(np.float64) * (h / grid.box)
        for kk, h in zip(grid.frequency_lattice(), step)
    )
    return (np.exp(2j * np.pi * phase) - 1.0) ** order


def step_magnitude(engine: StepEngine, step, order: int) -> np.ndarray:
    """|diff(f, h, L)| of one step h, as engine.magnitudes gives it, without
    the step axis."""
    [chunk] = engine.magnitudes([step], order)
    return chunk.reshape(engine.stack + engine.grid.shape)


def mean_magnitude(engine: StepEngine, steps, weights, order: int) -> np.ndarray:
    """|sum_m w_m diff(f, h_m, L)| of one weighted mean of the steps h_m, as
    the engine forms a mean of the maximal fields."""
    symbol = next(engine.mean_symbols(np.asarray(steps)[None], weights, order))
    return engine.symbol_magnitude(symbol)


class FullGridMeans(StepEngine):
    """A StepEngine whose weighted-mean symbols add one full-grid symbol per
    node: the oracle of the low-rank mean symbols."""

    def _mean_symbols(self, steps, weights, order, chunk):
        for mean, mean_w in zip(steps, weights):
            symbol = np.zeros(self.grid.shape, dtype=complex)
            for step, w in zip(mean, mean_w):
                symbol += w * full_grid_symbol(self.grid, step, order)
            yield symbol


@pytest.fixture
def recorded_engines(monkeypatch):
    """Every StepEngine the quasinorm layer builds, in order, in its own
    module and in the maximal means it calls."""
    engines = []

    class RecordingEngine(StepEngine):
        def __init__(self, field):
            super().__init__(field)
            engines.append(self)

    monkeypatch.setattr(quasinorms, "StepEngine", RecordingEngine)
    monkeypatch.setattr(maximal, "StepEngine", RecordingEngine)
    return engines
