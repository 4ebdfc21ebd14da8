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
