"""Core field tests: grids, norms, derivatives, sampling.

Spectra are numpy's unnormalized DFT; the family tests divide it by the
point count, so on the unit box their bounds are on the continuum
transform.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lplab.errors import (
    InvalidExponent,
    NonFiniteSample,
    ShapeMismatch,
    UnresolvableSpec,
)
from lplab.fields import (
    GridSpec,
    SampledField,
    TestFunctionSpec as FnSpec,
    derivative,
    lp_norm,
    resolvable_band_range,
    sample_family,
    stable_sum,
)

from conftest import random_complex_field, translate


class TestGridSpec:
    def test_spacing_and_shape(self):
        g = GridSpec(dim=2, n=64, box=2.0)
        assert g.spacing == pytest.approx(2.0 / 64)
        assert g.shape == (64, 64)
        assert g.num_points == 4096

    def test_rejects_bad_dim(self):
        with pytest.raises(ShapeMismatch, match="dim"):
            GridSpec(dim=4, n=64)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ShapeMismatch, match="power of two"):
            GridSpec(dim=1, n=100)

    def test_rejects_oversized_grid(self):
        with pytest.raises(ShapeMismatch, match="too large"):
            GridSpec(dim=3, n=2048)

    def test_rejects_bad_box(self):
        with pytest.raises(ShapeMismatch, match="box"):
            GridSpec(dim=1, n=64, box=-1.0)

    def test_band_range_reference_grid(self):
        # Nyquist 512 on the unit box: top band reaches |xi| < 512,
        # bottom band floor sits at the first nonzero lattice frequency.
        assert resolvable_band_range(GridSpec(dim=1, n=1024, box=1.0)) == (1, 8)

    def test_band_range_scales_with_box(self):
        assert resolvable_band_range(GridSpec(dim=1, n=1024, box=2.0)) == (0, 7)


class TestFieldValidation:
    def test_shape_mismatch(self, grid1d):
        with pytest.raises(ShapeMismatch, match="shape"):
            SampledField(grid1d, np.zeros(17))

    def test_nonfinite(self, grid1d):
        data = np.zeros(grid1d.shape)
        data[3] = np.nan
        with pytest.raises(NonFiniteSample):
            SampledField(grid1d, data)


class TestNorms:
    def test_gaussian_l2_closed_form(self):
        # integral of exp(-2 x^2 / s^2) over the line is s sqrt(pi/2)
        grid = GridSpec(dim=1, n=1024)
        f = sample_family(FnSpec("gaussian", width=0.05), grid)
        expected = (0.05**2 * math.pi / 2.0) ** 0.25
        assert lp_norm(f, 2.0) == pytest.approx(expected, rel=1e-6)

    def test_linf_is_peak(self, grid1d):
        f = sample_family(FnSpec("gaussian", width=0.05), grid1d)
        assert lp_norm(f, math.inf) == 1.0

    def test_rejects_nonpositive_p(self, grid1d):
        f = random_complex_field(grid1d)
        with pytest.raises(InvalidExponent):
            lp_norm(f, 0.0)

    @pytest.mark.parametrize("grid,scale,p", [
        (GridSpec(1, 64), 1e160, 2.0),  # the squares overflow
        (GridSpec(1, 64, box=1e10), 1e300, 0.5),  # the final float power overflows
    ], ids=["squares", "power"])
    def test_overflow_raises(self, grid, scale, p):
        f = SampledField(grid, np.full(grid.shape, scale))
        with pytest.raises(NonFiniteSample, match="overflows"):
            lp_norm(f, p)

    def test_stable_sum_matches_fsum(self):
        # one chunk of 4096 values, at most, and more than one
        for size in (100000, 1, 4096, 4097):
            rng = np.random.default_rng(7)
            vals = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size=size)
            assert stable_sum(vals) == pytest.approx(math.fsum(vals.tolist()), rel=1e-13)

    def test_stable_sum_deterministic(self):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal(50001)
        assert stable_sum(vals) == stable_sum(vals.copy())

    @given(
        p=st.floats(min_value=0.3, max_value=4.0),
        scale=st.floats(min_value=-50.0, max_value=50.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_norm_absolute_homogeneity(self, p, scale):
        grid = GridSpec(dim=1, n=64)
        f = random_complex_field(grid, seed=11)
        scaled = SampledField(grid, scale * f.data)
        assert lp_norm(scaled, p) == pytest.approx(abs(scale) * lp_norm(f, p), rel=1e-10, abs=1e-12)

    @given(p=st.floats(min_value=0.5, max_value=8.0), bump=st.floats(min_value=0.1, max_value=4.0))
    @settings(max_examples=30, deadline=None)
    def test_norm_monotone_in_p_on_unit_box(self, p, bump):
        # with total measure 1 the L^p scale is nondecreasing in p
        grid = GridSpec(dim=1, n=64)
        f = random_complex_field(grid, seed=12)
        assert lp_norm(f, p) <= lp_norm(f, p + bump) * (1 + 1e-10)


class TestTranslateDilate:
    def test_lattice_translate_is_roll(self, grid1d):
        f = random_complex_field(grid1d, seed=5)
        shifted = translate(f, (7 * grid1d.spacing,))
        rolled = np.roll(f.data, -7)
        assert np.max(np.abs(shifted.data - rolled)) <= 1e-10 * np.max(np.abs(f.data))

    def test_derivative_pure_mode(self):
        grid = GridSpec(dim=1, n=64)
        x = grid.axis_coordinates()
        f = SampledField(grid, np.exp(2j * np.pi * 4 * x))
        df = derivative(f, (1,))
        want = 2j * np.pi * 4 * f.data
        assert np.max(np.abs(df.data - want)) <= 1e-10 * np.max(np.abs(want))


class TestFamilies:
    def test_gaussian_peak_exact(self, grid1d):
        f = sample_family(FnSpec("gaussian", width=0.05), grid1d)
        assert f.data[grid1d.n // 2] == 1.0 + 0.0j

    def test_width_window_enforced(self, grid1d):
        with pytest.raises(UnresolvableSpec, match="width"):
            sample_family(FnSpec("gaussian", width=grid1d.box), grid1d)
        with pytest.raises(UnresolvableSpec, match="width"):
            sample_family(FnSpec("gaussian", width=grid1d.spacing), grid1d)

    def test_random_band_annulus_support(self):
        grid = GridSpec(dim=1, n=1024)
        f = sample_family(FnSpec("random_band", band_index=3, seed=1), grid)
        radii = grid.frequency_radii()
        coeffs = np.fft.fftn(f.data) / grid.num_points
        outside = (radii < 4.0) | (radii >= 16.0)
        assert np.max(np.abs(coeffs[outside])) <= 1e-12 * np.max(np.abs(coeffs))
        assert not np.any(f.data.imag)

    def test_random_band_out_of_range(self, grid1d):
        with pytest.raises(UnresolvableSpec, match="band_index"):
            sample_family(FnSpec("random_band", band_index=40), grid1d)

    def test_random_band_seeded(self, grid1d):
        a = sample_family(FnSpec("random_band", band_index=3, seed=9), grid1d)
        b = sample_family(FnSpec("random_band", band_index=3, seed=9), grid1d)
        assert np.array_equal(a.data, b.data)

    def test_modulated_gaussian_spectrum_center(self):
        grid = GridSpec(dim=1, n=512)
        f = sample_family(
            FnSpec("modulated_gaussian", width=0.05, modulation=(40,)), grid
        )
        coeffs = np.abs(np.fft.fftn(f.data)) / grid.num_points
        k = grid.frequency_integers()
        assert k[np.argmax(coeffs)] == 40

    def test_smooth_bump_compact_support(self, grid1d):
        f = sample_family(FnSpec("smooth_bump", width=0.1), grid1d)
        r = grid1d.minimal_image_radii(((grid1d.n // 2) * grid1d.spacing,))
        assert np.all(f.data[r >= 0.1] == 0.0)
        assert float(np.max(np.abs(f.data))) == 1.0

    def test_weierstrass_clips_terms(self):
        grid = GridSpec(dim=1, n=1024)
        spec = FnSpec("weierstrass", ratio_a=0.5, ratio_b=3, terms=8)
        # 3^k <= 511 holds for k <= 5, so six of the eight terms materialize
        f = sample_family(spec, grid)
        coeffs = np.abs(np.fft.fftn(f.data)) / grid.num_points
        k = grid.frequency_integers()
        for power in range(6):
            assert coeffs[k == 3**power][0] > 0.2 * 0.5**power
        assert coeffs[np.abs(k) > 243].max() <= 1e-12

    def test_windowed_polynomial_supported(self, grid1d):
        f = sample_family(FnSpec("windowed_polynomial", width=0.1, degree=3), grid1d)
        r = grid1d.minimal_image_radii(((grid1d.n // 2) * grid1d.spacing,))
        assert np.all(f.data[r >= 0.1] == 0.0)
        assert np.any(f.data != 0.0)

    def test_unknown_family(self, grid1d):
        with pytest.raises(UnresolvableSpec, match="unknown family"):
            sample_family(FnSpec("sawtooth"), grid1d)

    def test_function_ids_distinct(self):
        specs = [
            FnSpec("gaussian", width=0.05),
            FnSpec("gaussian", width=0.1),
            FnSpec("random_band", band_index=3, seed=0),
            FnSpec("random_band", band_index=3, seed=1),
        ]
        ids = [s.function_id() for s in specs]
        assert len(set(ids)) == len(ids)

