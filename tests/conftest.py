import dataclasses

import numpy as np
import pytest

from lplab import quasinorms
from lplab.differences import StepEngine
from lplab.fields import GridSpec, SampledField


@pytest.fixture
def grid1d() -> GridSpec:
    return GridSpec(dim=1, n=256, box=1.0)


@pytest.fixture
def grid1d_big() -> GridSpec:
    return GridSpec(dim=1, n=1024, box=1.0)


@pytest.fixture
def grid2d() -> GridSpec:
    return GridSpec(dim=2, n=64, box=1.0)


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


def full_grid_symbol(grid: GridSpec, step, order: int) -> np.ndarray:
    """The step symbol as one full-grid complex exponential of k.h / B."""
    phase = sum(
        kk.astype(np.float64) * (h / grid.box)
        for kk, h in zip(grid.frequency_lattice(), step)
    )
    return (np.exp(2j * np.pi * phase) - 1.0) ** order


class FullGridMeans(StepEngine):
    """A StepEngine whose weighted means add one full-grid symbol per node
    and pay one complex inverse transform: the oracle of the low-rank
    mean symbols."""

    def __init__(self, field: SampledField):
        super().__init__(field)
        self._spectrum = np.fft.fftn(field.data)

    def mean_magnitude(self, steps, weights, order):
        steps = self._count(steps, order)
        symbol = np.zeros(self.grid.shape, dtype=complex)
        for step, w in zip(steps, weights):
            symbol += w * full_grid_symbol(self.grid, step, order)
        return np.abs(np.fft.ifftn(self._spectrum * symbol))


@pytest.fixture
def recorded_engines(monkeypatch):
    """Every StepEngine the quasinorm layer builds, in order."""
    engines = []

    class RecordingEngine(StepEngine):
        def __init__(self, field):
            super().__init__(field)
            engines.append(self)

    monkeypatch.setattr(quasinorms, "StepEngine", RecordingEngine)
    return engines
