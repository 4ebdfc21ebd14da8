"""Band system tests: profile identities, projections, decompositions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lplab.bands import (
    BandDecomposition,
    DyadicBandSystem,
    band_profile,
    band_project,
    build_band_system,
    decompose,
    dyadic_profile,
    reconstruct,
)
from lplab.errors import (
    BandOutOfRange,
    BandRangeEmpty,
    EmptyDecomposition,
    GridMismatch,
    RangeTooNarrow,
    UnresolvedEnergy,
)
from lplab.fields import (
    GridSpec,
    SampledField,
    TestFunctionSpec as FnSpec,
    lp_norm,
    sample_family,
)

from conftest import random_complex_field


class TestProfile:
    def test_plateau_values(self):
        u = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 100.0])
        assert dyadic_profile(u).tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]

    def test_midpoint_symmetry(self):
        # at u = 1.5 the rise and fall weights coincide, giving exactly 1/2
        assert dyadic_profile(np.array([1.5]))[0] == pytest.approx(0.5, abs=1e-15)

    def test_band_profile_at_one(self):
        assert band_profile(np.array([1.0]))[0] == 1.0

    def test_band_profile_support(self):
        u = np.linspace(0.0, 4.0, 1601)
        psi = band_profile(u)
        assert np.all(psi[(u < 0.5) | (u >= 2.0)] == 0.0)
        assert np.all((psi >= 0.0) & (psi <= 1.0))

    @given(u=st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=60, deadline=None)
    def test_profile_bounds(self, u):
        val = dyadic_profile(np.array([u]))[0]
        assert 0.0 <= val <= 1.0

    def test_profile_monotone(self):
        u = np.linspace(0.0, 3.0, 901)
        vals = dyadic_profile(u)
        assert np.all(np.diff(vals) <= 1e-12)


class TestSystem:
    def test_default_range_reference_grid(self):
        system = build_band_system(GridSpec(dim=1, n=1024, box=1.0))
        assert (system.j_min, system.j_max) == (1, 8)

    def test_too_few_bands(self):
        with pytest.raises(RangeTooNarrow):
            build_band_system(GridSpec(dim=1, n=16, box=1.0))

    def test_band_out_of_range(self):
        # the grid resolves bands 1..8
        grid = GridSpec(dim=1, n=1024)
        with pytest.raises(BandOutOfRange):
            DyadicBandSystem(grid, 0, 8)
        with pytest.raises(BandOutOfRange):
            DyadicBandSystem(grid, 1, 9)

    def test_empty_range(self):
        with pytest.raises(BandRangeEmpty):
            DyadicBandSystem(GridSpec(dim=1, n=1024), 5, 4)
        # n = 4 resolves no band: j_min 1 > j_max 0
        with pytest.raises(BandRangeEmpty):
            build_band_system(GridSpec(dim=1, n=4))

    def test_telescoping_partition(self):
        # sum of band multipliers is exactly 1 on the covered annulus
        grid = GridSpec(dim=1, n=1024)
        system = build_band_system(grid)
        radii = grid.frequency_radii()
        total = sum(system.band_multiplier(j) for j in system.band_indices)
        covered = (radii >= 2.0**system.j_min) & (radii <= 2.0**system.j_max)
        assert np.max(np.abs(total[covered] - 1.0)) <= 1e-12
        assert np.all(total <= 1.0 + 1e-12)

    def test_telescoping_partition_2d(self):
        grid = GridSpec(dim=2, n=64)
        system = build_band_system(grid)
        radii = grid.frequency_radii()
        total = sum(system.band_multiplier(j) for j in system.band_indices)
        covered = (radii >= 2.0**system.j_min) & (radii <= 2.0**system.j_max)
        assert np.max(np.abs(total[covered] - 1.0)) <= 1e-12

    def test_lowpass_completes_partition(self):
        # lowpass + all bands = 1 for every |xi| <= 2^j_max
        grid = GridSpec(dim=1, n=1024)
        system = build_band_system(grid)
        radii = grid.frequency_radii()
        total = system.lowpass_multiplier() + sum(
            system.band_multiplier(j) for j in system.band_indices
        )
        inside = radii <= 2.0**system.j_max
        assert np.max(np.abs(total[inside] - 1.0)) <= 1e-12


class TestProjection:
    def test_project_support(self, grid1d_big):
        system = build_band_system(grid1d_big)
        f = random_complex_field(grid1d_big, seed=21)
        fj = band_project(f, system, 5)
        coeffs = np.fft.fftn(fj.data)
        radii = grid1d_big.frequency_radii()
        outside = (radii < 2.0**4) | (radii >= 2.0**6)
        assert np.max(np.abs(coeffs[outside])) <= 1e-14 * np.max(np.abs(coeffs))

    def test_real_in_real_out(self, grid1d_big):
        system = build_band_system(grid1d_big)
        rng = np.random.default_rng(3)
        f = SampledField(grid1d_big, rng.standard_normal(grid1d_big.shape))
        fj = band_project(f, system, 4)
        assert np.max(np.abs(fj.data.imag)) <= 1e-12 * np.max(np.abs(fj.data))

    def test_pure_dyadic_mode_passthrough(self):
        grid = GridSpec(dim=1, n=1024)
        system = build_band_system(grid)
        x = grid.axis_coordinates()
        f = SampledField(grid, np.exp(2j * np.pi * 16 * x))
        fj = band_project(f, system, 4)
        assert np.max(np.abs(fj.data - f.data)) <= 1e-12
        for j in (3, 5):
            assert lp_norm(band_project(f, system, j), 2.0) <= 1e-12

    def test_out_of_range(self, grid1d_big):
        system = build_band_system(grid1d_big)
        f = random_complex_field(grid1d_big)
        with pytest.raises(BandOutOfRange):
            band_project(f, system, system.j_max + 1)

    def test_grid_mismatch(self, grid1d, grid1d_big):
        system = build_band_system(grid1d_big)
        f = random_complex_field(grid1d)
        with pytest.raises(GridMismatch):
            band_project(f, system, 4)

    def test_three_band_identity(self, grid1d_big):
        # a band field equals the sum of its own three neighboring projections
        system = build_band_system(grid1d_big)
        f = random_complex_field(grid1d_big, seed=22)
        fj = band_project(f, system, 5)
        total = sum(band_project(fj, system, l).data for l in (4, 5, 6))
        assert np.max(np.abs(total - fj.data)) <= 1e-12 * np.max(np.abs(fj.data))


class TestDecompose:
    def test_random_band_occupies_three_bands(self):
        grid = GridSpec(dim=1, n=1024)
        system = build_band_system(grid)
        f = sample_family(FnSpec("random_band", band_index=3, seed=1), grid)
        dec = decompose(f, system)
        nonzero = {j for j, fj in dec.bands if lp_norm(fj, 2.0) > 1e-13}
        assert nonzero == {2, 3, 4}
        # each band's spectrum vanishes off its annulus
        radii = grid.frequency_radii()
        for j, fj in dec.bands:
            coeffs = np.abs(np.fft.fftn(fj.data))
            outside = (radii < 2.0 ** (j - 1)) | (radii >= 2.0 ** (j + 1))
            assert np.max(coeffs[outside]) <= 1e-14 * np.max(coeffs)

    def test_reconstruct_interior_band_field(self):
        grid = GridSpec(dim=1, n=1024)
        system = build_band_system(grid)
        f = sample_family(FnSpec("random_band", band_index=3, seed=2), grid)
        back = reconstruct(decompose(f, system))
        peak = float(np.max(np.abs(f.data)))
        assert np.max(np.abs(back.data - f.data)) <= 1e-10 * peak

    def test_inhomogeneous_reconstructs_gaussian(self):
        grid = GridSpec(dim=1, n=1024)
        system = build_band_system(grid)
        f = sample_family(FnSpec("gaussian", width=0.05), grid)
        dec = decompose(f, system, homogeneous=False)
        back = reconstruct(dec)
        assert np.max(np.abs(back.data - f.data)) <= 1e-10
        assert dec.lowpass is not None
        assert dec.truncated_energy <= 1e-12

    def test_homogeneous_gaussian_ignores_mean(self):
        # constants are quotiented out: f and f + 5 decompose identically
        grid = GridSpec(dim=1, n=1024)
        system = build_band_system(grid)
        f = sample_family(FnSpec("gaussian", width=0.05), grid)
        g = SampledField(grid, f.data + 5.0)
        d1 = decompose(f, system)
        d2 = decompose(g, system)
        for (j1, b1), (j2, b2) in zip(d1.bands, d2.bands):
            assert j1 == j2
            assert np.max(np.abs(b1.data - b2.data)) <= 1e-11

    def test_unresolved_energy_raises(self, grid1d_big):
        f = random_complex_field(grid1d_big, seed=23)
        system = build_band_system(grid1d_big)
        with pytest.raises(UnresolvedEnergy):
            decompose(f, system)

    def test_records_unresolved_fraction(self, grid1d_big):
        # a band field with faint white noise leaves a fraction under the
        # 1e-10 tolerance unrepresented, and the decomposition records it
        system = build_band_system(grid1d_big)
        band = sample_family(FnSpec("random_band", band_index=4, seed=5), grid1d_big).data
        noise = np.random.default_rng(23).standard_normal(grid1d_big.shape)
        dec = decompose(SampledField(grid1d_big, band + 1e-7 * noise), system)
        assert 0.0 < dec.truncated_energy < 1e-10

    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_fraction_is_scale_invariant(self, homogeneous):
        # squaring coefficients of samples near 1e160 used to overflow, so the
        # check compared nan > tol, passed, and recorded a nan fraction
        grid = GridSpec(dim=2, n=32)
        system = build_band_system(grid)
        noise = np.random.default_rng(31).standard_normal(grid.shape)
        band = sample_family(FnSpec("random_band", band_index=2, seed=4), grid).data
        messages = []
        for scale in (1.0, 1e160):
            with pytest.raises(UnresolvedEnergy) as err:
                decompose(SampledField(grid, scale * noise), system, homogeneous)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        fractions = [
            decompose(SampledField(grid, scale * (band + 1e-7 * noise)), system,
                      homogeneous).truncated_energy
            for scale in (1.0, 1e160)
        ]
        assert 0.0 < fractions[0] < 1e-10
        assert fractions[1] == pytest.approx(fractions[0], rel=1e-12)

    def test_band_ordering_enforced(self, grid1d_big):
        system = build_band_system(grid1d_big)
        f = random_complex_field(grid1d_big)
        fj = band_project(f, system, 4)
        with pytest.raises(EmptyDecomposition, match="increase"):
            BandDecomposition(
                system=system,
                bands=((5, fj), (4, fj)),
                lowpass=None,
                truncated_energy=0.0,
                homogeneous=True,
            )

    def test_empty_decomposition(self, grid1d_big):
        system = build_band_system(grid1d_big)
        with pytest.raises(EmptyDecomposition):
            BandDecomposition(
                system=system, bands=(), lowpass=None, truncated_energy=0.0, homogeneous=True
            )

    def test_lowpass_projection_covers_dc(self, grid1d_big):
        system = build_band_system(grid1d_big)
        f = SampledField(grid1d_big, np.full(grid1d_big.shape, 2.5 + 0.0j))
        low = decompose(f, system, homogeneous=False).lowpass
        assert np.max(np.abs(low.data - f.data)) <= 1e-12
