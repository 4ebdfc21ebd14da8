"""Experiment-harness behavior: frozen oracle values and error contracts."""

import dataclasses
import math

import numpy as np
import pytest

from lplab.bands import band_project, build_band_system
from lplab.errors import (
    BandOutOfRange,
    DimensionTooLow,
    GeometryViolated,
    GridMismatch,
    InvalidExponent,
    ShapeMismatch,
    UnresolvableSpec,
)
from lplab.fields import GridSpec, SampledField, TestFunctionSpec, sample_family
from lplab import verify
from lplab.quasinorms import SpaceParams, default_quadrature, quasinorm
from lplab.verify import (
    band_limited_profile,
    default_corpus,
    directional_window,
    divergence_probe,
    equivalence_experiment,
    kernel_decay_probe,
    ppn_probe,
    rescaled_dilate,
    scaled_quadrature,
    scaling_experiment,
    slice_support_check,
)

from conftest import assert_replaced, traced_peak, unusual_quadrature


@pytest.fixture(scope="module")
def grid2d_small():
    return GridSpec(2, 32, 1.0)


@pytest.fixture(scope="module")
def light_quad(grid2d_small):
    return default_quadrature(
        grid2d_small, sphere_nodes=8, tau_nodes_per_octave=4, tau_octaves=3
    )


class TestDilationPlumbing:
    def test_rescaled_dilate_shrinks_box_keeps_data(self, grid1d):
        f = sample_family(TestFunctionSpec(family="gaussian", width=1 / 16), grid1d)
        g = rescaled_dilate(f, 2)
        assert g.grid.box == pytest.approx(grid1d.box / 4.0)
        assert g.grid.n == grid1d.n
        np.testing.assert_array_equal(g.data, f.data)

    def test_rescaled_dilate_zero_is_identity(self, grid1d):
        f = sample_family(TestFunctionSpec(family="gaussian", width=1 / 16), grid1d)
        g = rescaled_dilate(f, 0)
        assert g.grid == grid1d
        np.testing.assert_array_equal(g.data, f.data)

    def test_scaled_quadrature_moves_window_keeps_counts(self):
        for quad in (unusual_quadrature(True), unusual_quadrature(False)):
            for m in (-1, 1, 2):
                assert_replaced(quad, scaled_quadrature(quad, m), h_min=quad.h_min * 2.0**-m,
                                h_max=quad.h_max * 2.0**-m)


class TestDefaultCorpus:
    def test_twelve_unique_labels(self, grid1d):
        corpus = default_corpus(grid1d)
        labels = [c.label for c in corpus]
        assert len(corpus) == 12
        assert len(set(labels)) == 12

    def test_gaussian_widths_quadruple_on_512(self):
        corpus = default_corpus(GridSpec(1, 512, 1.0))
        widths = [c.width for c in corpus[:3]]
        assert widths[1] / widths[0] == pytest.approx(4.0, rel=1e-12)
        assert widths[2] / widths[1] == pytest.approx(4.0, rel=1e-12)

    def test_every_member_samples_finite(self, grid1d):
        for spec in default_corpus(grid1d):
            f = sample_family(spec, grid1d)
            assert np.all(np.isfinite(f.data)), spec.label

    def test_members_cover_families(self, grid1d):
        families = {c.family for c in default_corpus(grid1d)}
        assert {
            "gaussian",
            "modulated_gaussian",
            "smooth_bump",
            "random_band",
            "windowed_polynomial",
            "weierstrass",
        } == families


class TestScalingExperiment:
    def test_lp_exponent_exact(self):
        grid = GridSpec(1, 512, 1.0)
        band = sample_family(
            TestFunctionSpec(family="random_band", band_index=4, seed=9), grid
        )
        params = SpaceParams(s=0.5, p=2, q=2, L=1)
        rep = scaling_experiment(band, "lp", params, [-1, 0, 1])
        assert rep.expected_exponent == pytest.approx(0.0)  # s - n/p
        assert rep.max_deviation <= 1e-10
        assert rep.tolerance == pytest.approx(0.03)
        assert rep.passed

    def test_unit_dilation_ratio_is_one(self, grid1d):
        band = sample_family(
            TestFunctionSpec(family="random_band", band_index=4, seed=9), grid1d
        )
        rep = scaling_experiment(
            band, "diff", SpaceParams(s=0.5, p=2, q=2, L=1), [0, 1]
        )
        assert rep.ratios[0] == 1.0

    def test_no_nonzero_dilation_rejected(self, grid1d):
        # m = 0 reads back the expected exponent and would pass unmeasured
        band = sample_family(
            TestFunctionSpec(family="random_band", band_index=4, seed=9), grid1d
        )
        with pytest.raises(InvalidExponent, match="nonzero"):
            scaling_experiment(band, "diff", SpaceParams(s=0.5, p=2, q=2, L=1), [0, 0])

    @pytest.mark.parametrize("cid", ["diff", "axis", "gagliardo"])
    def test_quadrature_forms_exact_with_scaled_windows(self, grid1d, cid):
        band = sample_family(
            TestFunctionSpec(family="random_band", band_index=4, seed=9), grid1d
        )
        params = SpaceParams(s=0.5, p=2, q=2, L=1)
        rep = scaling_experiment(band, cid, params, [-1, 0, 1])
        assert rep.tolerance == pytest.approx(0.07)
        assert rep.max_deviation <= 1e-9
        assert rep.passed

    def test_maximal_exponent_exact(self, grid2d_small, light_quad):
        band = sample_family(
            TestFunctionSpec(family="random_band", band_index=3, seed=9),
            grid2d_small,
        )
        params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
        rep = scaling_experiment(band, "max:S", params, [-1, 0, 1], light_quad)
        assert rep.expected_exponent == pytest.approx(0.5)  # s - n/p
        assert rep.max_deviation <= 1e-9
        assert rep.passed

    def test_exponent_reflects_s_minus_n_over_p(self, grid1d):
        band = sample_family(
            TestFunctionSpec(family="random_band", band_index=4, seed=9), grid1d
        )
        params = SpaceParams(s=0.9, p=4, q=2, L=1)
        rep = scaling_experiment(band, "lp", params, [1])
        assert rep.expected_exponent == pytest.approx(0.9 - 1.0 / 4.0)
        assert rep.measured_exponents[0] == pytest.approx(0.65, abs=1e-10)


class TestEquivalenceExperiment:
    @pytest.mark.parametrize(
        "pair, scale, theorem",
        [
            (("lp", "diff"), "F", "T2i"),
            (("lp", "axis"), "F", "T6i"),
            (("lp", "diff"), "B", "T8i"),
        ],
    )
    def test_one_dimensional_pairs_pass(self, grid1d, pair, scale, theorem):
        params = SpaceParams(s=0.5, p=2, q=2, L=1, scale=scale)
        rep = equivalence_experiment(
            default_corpus(grid1d), pair, params, grid1d, theorem
        )
        assert rep.verdict == "PASS"
        assert rep.spread == pytest.approx(1.363903, rel=1e-4)
        assert rep.dilation_drift <= 1e-12
        assert len(rep.per_function) == 12

    @pytest.mark.parametrize(
        "pair, theorem, spread", [(("lp", "max:V"), "T4", 4.694327),
                                  (("lp", "max:S"), "T5", 2.726010)]
    )
    def test_maximal_pairs_pass(self, grid2d_small, light_quad, pair, theorem, spread):
        params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
        rep = equivalence_experiment(
            default_corpus(grid2d_small), pair, params, grid2d_small,
            theorem, light_quad,
        )
        assert rep.verdict == "PASS"
        assert rep.spread == pytest.approx(spread, rel=1e-4)
        assert rep.dilation_drift <= 1e-12

    def test_identical_pair_spread_is_one(self, grid1d):
        params = SpaceParams(s=0.5, p=2, q=2, L=1)
        rep = equivalence_experiment(
            default_corpus(grid1d)[:4], ("diff", "diff"), params, grid1d, "T2i"
        )
        assert rep.spread == 1.0
        assert rep.dilation_drift == 0.0
        assert all(e.ratio == 1.0 for e in rep.per_function)

    def test_outside_window_is_no_verdict(self, grid2d_small, light_quad):
        params = SpaceParams(s=0.5, p=2, q=2, L=2, r=1.5)
        rep = equivalence_experiment(
            default_corpus(grid2d_small)[:3], ("lp", "max:V"), params,
            grid2d_small, "T4", light_quad,
        )
        assert not rep.hypothesis.satisfied
        assert rep.verdict == "NO-VERDICT"

    def test_divergent_entries_are_recorded_not_used(self, grid1d):
        # s above the window and above L: difference side diverges everywhere
        params = SpaceParams(s=1.5, p=2, q=2, L=1)
        rep = equivalence_experiment(
            default_corpus(grid1d)[:3], ("lp", "diff"), params, grid1d, "T2i"
        )
        assert rep.verdict == "NO-VERDICT"
        assert all("DIVERGENT" in e.flags for e in rep.per_function)
        assert all(not e.usable for e in rep.per_function)

    def test_empty_corpus_rejected(self, grid1d):
        with pytest.raises(UnresolvableSpec):
            equivalence_experiment(
                (), ("lp", "diff"), SpaceParams(s=0.5, p=2, q=2, L=1),
                grid1d, "T2i",
            )

    def test_single_band_ratio_dilation_invariant(self, grid1d):
        corpus = (TestFunctionSpec(family="random_band", band_index=4, seed=9),)
        params = SpaceParams(s=0.5, p=2, q=2, L=1)
        rep = equivalence_experiment(corpus, ("lp", "diff"), params, grid1d, "T2i")
        entry = rep.per_function[0]
        assert abs(entry.dilated_ratio / entry.ratio - 1.0) <= 1e-3

    def test_deterministic_reports(self, grid1d):
        params = SpaceParams(s=0.5, p=2, q=2, L=1)
        corpus = default_corpus(grid1d)[:4]
        a = equivalence_experiment(corpus, ("lp", "diff"), params, grid1d, "T2i")
        b = equivalence_experiment(corpus, ("lp", "diff"), params, grid1d, "T2i")
        assert a == b


class TestBandLimitedProfile:
    def test_spectrum_confined_to_shell(self, grid1d):
        u = band_limited_profile(grid1d, 16.0)
        coeffs = np.fft.fftn(u.data)
        rho = grid1d.frequency_radii()
        outside = (rho > 16.0 * (1 + 1e-9)) | (rho < 16.0 / 4.0 * (1 - 1e-9))
        assert np.max(np.abs(coeffs[outside])) <= 1e-12 * np.max(np.abs(coeffs))

    def test_peak_normalized(self, grid1d):
        u = band_limited_profile(grid1d, 16.0)
        assert np.abs(u.data).max() == pytest.approx(1.0)

    def test_empty_shell_rejected(self):
        with pytest.raises(UnresolvableSpec):
            band_limited_profile(GridSpec(1, 64, 1.0), 0.2)


class TestPpnProbe:
    GRID = GridSpec(1, 512, 1.0)

    # independently computed ratio tables: rows alpha 0/1/2; cols
    # (p, q) = (2, 2), (1, 2), (2, inf)
    FROZEN = {
        (0, 2.0, 2.0): 1.0,
        (0, 1.0, 2.0): 0.526803,
        (0, 2.0, math.inf): 0.978179,
        (1, 2.0, 2.0): 3.38354,
        (1, 1.0, 2.0): 1.78246,
        (1, 2.0, math.inf): 3.16894,
        (2, 2.0, 2.0): 12.3198,
        (2, 1.0, 2.0): 6.49012,
        (2, 2.0, math.inf): 12.3514,
    }

    @pytest.mark.parametrize("key", sorted(FROZEN, key=str))
    def test_ratios_frozen_and_constant(self, key):
        alpha, p, q = key
        u = band_limited_profile(self.GRID, 8.0)
        rep = ppn_probe(u, alpha, p, q, [8.0, 16.0, 32.0])
        assert rep.passed
        assert rep.max_over_min <= 1.0 + 1e-12
        for r in rep.ratios:
            assert r == pytest.approx(self.FROZEN[key], rel=1e-4)

    def test_zero_derivative_same_exponents_ratio_one(self):
        u = band_limited_profile(self.GRID, 8.0)
        rep = ppn_probe(u, 0, 2.0, 2.0, [8.0, 32.0])
        for r in rep.ratios:
            assert r == pytest.approx(1.0, abs=1e-12)

    def test_q_below_p_rejected(self):
        u = band_limited_profile(self.GRID, 8.0)
        with pytest.raises(InvalidExponent):
            ppn_probe(u, 1, 2.0, 1.0, [8.0])

    def test_spectrum_wider_than_radius_rejected(self):
        u = band_limited_profile(self.GRID, 8.0)
        with pytest.raises(GeometryViolated):
            ppn_probe(u, 1, 2.0, 2.0, [4.0, 8.0])

    def test_non_dyadic_radius_list_rejected(self):
        u = band_limited_profile(self.GRID, 8.0)
        with pytest.raises(UnresolvableSpec):
            ppn_probe(u, 1, 2.0, 2.0, [8.0, 24.0])

    def test_bad_multi_index_rejected(self):
        u = band_limited_profile(self.GRID, 8.0)
        with pytest.raises(UnresolvableSpec):
            ppn_probe(u, (1, 1), 2.0, 2.0, [8.0])

    def test_single_radius_rejected(self):
        # one ratio has a spread of 1 and would pass without a comparison
        u = band_limited_profile(self.GRID, 8.0)
        with pytest.raises(UnresolvableSpec, match="two spectrum radii"):
            ppn_probe(u, 1, 2.0, 2.0, [8.0])


class TestKernelDecayProbe:
    GRID = GridSpec(2, 512, 64.0)

    @pytest.mark.parametrize("order", [1, 2])
    def test_order_four_window_beats_limit(self, order):
        theta = (1.0, 0.0)
        rep = kernel_decay_probe(
            directional_window(theta, smoothness=4), order, 4,
            [1.0, 1.5, 2.0], theta, self.GRID,
        )
        assert rep.passed
        assert rep.slope_limit == pytest.approx(-3.5)
        for s in rep.slopes:
            assert -6.8 < s < -6.0

    def test_order_eight_window_beats_limit(self):
        ang = math.pi / 8.0
        theta = (math.cos(ang), math.sin(ang))
        rep = kernel_decay_probe(
            directional_window(theta, smoothness=8), 2, 8,
            [1.0, 1.5, 2.0], theta, self.GRID,
        )
        assert rep.passed
        assert rep.slope_limit == pytest.approx(-7.5)
        for s in rep.slopes:
            assert -9.8 < s < -9.2

    def test_amplitude_stable_across_tau(self):
        theta = (0.0, 1.0)
        rep = kernel_decay_probe(
            directional_window(theta, smoothness=4), 2, 4,
            [1.0, 1.5, 2.0], theta, self.GRID,
        )
        assert max(rep.amplitudes) / min(rep.amplitudes) <= 2.0

    def test_zero_order_rejected(self):
        theta = (1.0, 0.0)
        with pytest.raises(InvalidExponent):
            kernel_decay_probe(
                directional_window(theta), 0, 4, [1.0], theta, self.GRID
            )

    def test_direction_dimension_mismatch(self):
        with pytest.raises(GridMismatch):
            kernel_decay_probe(
                directional_window((1.0, 0.0, 0.0)), 1, 4, [1.0],
                (1.0, 0.0, 0.0), self.GRID,
            )

    def test_vanishing_window_rejected(self):
        theta = (1.0, 0.0)
        with pytest.raises(UnresolvableSpec):
            kernel_decay_probe(
                lambda xi: np.zeros_like(xi[0]), 1, 4, [1.0], theta, self.GRID
            )

    def test_support_breach_detected(self):
        # the window reaches |theta.xi| = 3, beyond the probe's [1/4, 2]
        theta = (1.0, 0.0)
        with pytest.raises(GeometryViolated, match="leaves"):
            kernel_decay_probe(
                lambda xi: ((np.abs(xi[0]) >= 0.5) & (np.abs(xi[0]) <= 3.0)
                            & (np.abs(xi[1]) <= 1.0)).astype(float),
                1, 4, [1.0], theta, self.GRID,
            )

    @staticmethod
    def hat_of_first_axis(xi):
        # a function of xi[0] alone, supported on 1/4 <= |xi[0]| <= 7/4
        return np.clip(1.0 - np.abs(np.abs(xi[0]) - 1.0) / 0.75, 0.0, None)

    def test_broadcast_window_matches_full_shape(self):
        grid = GridSpec(2, 64, 16.0)
        theta = (1.0, 0.0)
        assert self.hat_of_first_axis(grid.frequency_lattice()).shape == (64, 1)
        rep = kernel_decay_probe(self.hat_of_first_axis, 1, 1, [1.0, 2.0], theta, grid)
        full = kernel_decay_probe(
            lambda xi: np.broadcast_to(self.hat_of_first_axis(xi), grid.shape).copy(),
            1, 1, [1.0, 2.0], theta, grid,
        )
        assert rep == full

    def test_window_off_the_grid_shape_rejected(self):
        grid = GridSpec(2, 64, 16.0)
        with pytest.raises(ShapeMismatch, match="broadcast"):
            kernel_decay_probe(lambda xi: self.hat_of_first_axis(xi)[:-1], 1, 1, [1.0],
                               (1.0, 0.0), grid)

    def test_step_reaching_symbol_zero_detected(self):
        # the step 4 / 8 = 1/2 reaches the symbol zero at |theta.xi| = 2
        theta = (1.0, 0.0)
        with pytest.raises(GeometryViolated, match="zero"):
            kernel_decay_probe(
                directional_window(theta), 1, 4, [4.0], theta, self.GRID,
            )

    def test_window_smoothness_validated(self):
        with pytest.raises(InvalidExponent):
            directional_window((1.0, 0.0), smoothness=0)


class TestDivergenceProbe:
    @pytest.fixture
    def smooth_field(self, grid1d):
        return sample_family(
            TestFunctionSpec(family="gaussian", width=1 / 16), grid1d
        )

    def test_supercritical_doubles_per_octave(self, smooth_field):
        rep = divergence_probe(smooth_field, SpaceParams(s=2.0, p=2, q=2, L=1))
        assert rep.classification == "DIVERGENT"
        for g in rep.growth_factors:
            assert 1.4 <= g <= 2.6  # per-octave factor near 2^(s-L) = 2

    def test_critical_slowly_diverges(self, smooth_field):
        rep = divergence_probe(smooth_field, SpaceParams(s=1.0, p=2, q=2, L=1))
        assert rep.classification == "DIVERGENT"
        assert all(g >= 1.05 for g in rep.growth_factors)
        assert rep.growth_factors[0] == pytest.approx(1.1009, rel=1e-3)

    def test_subcritical_converges_to_one(self, smooth_field):
        rep = divergence_probe(smooth_field, SpaceParams(s=0.5, p=2, q=2, L=1))
        assert rep.classification == "CONVERGENT"
        gs = rep.growth_factors
        assert all(b < a for a, b in zip(gs, gs[1:]))
        assert gs[-1] < 1.01

    def test_constant_field_is_zero_class(self, grid1d):
        const = SampledField(
            grid1d, np.full(grid1d.shape, 2.0, dtype=np.complex128)
        )
        rep = divergence_probe(const, SpaceParams(s=2.0, p=2, q=2, L=1))
        assert rep.classification == "CONVERGENT-ZERO"
        assert all(v == 0.0 for v in rep.values)

    def test_values_monotone_when_diverging(self, smooth_field):
        rep = divergence_probe(smooth_field, SpaceParams(s=2.0, p=2, q=2, L=1))
        vals = rep.values
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("allow_subgrid", [True, False])
    def test_levels_change_only_h_min_and_subgrid(self, smooth_field, monkeypatch,
                                                  allow_subgrid):
        seen = []

        def record(field, params, quads):
            seen.extend(quads)
            return [0.0] * len(quads)

        monkeypatch.setattr(verify, "difference_values", record)
        quad = unusual_quadrature(allow_subgrid)
        divergence_probe(smooth_field, SpaceParams(s=1.0, p=2, q=2), 3, quad)
        assert len(seen) == 4
        for level, refined in enumerate(seen):
            assert_replaced(quad, refined, h_min=quad.h_min / 2**level, allow_subgrid=True)

    @pytest.mark.parametrize("s, L", [(0.5, 1), (1.0, 1), (2.0, 1), (1.0, 2)])
    def test_one_sweep_matches_level_runs(self, smooth_field, recorded_engines, s, L):
        # one engine steps the deepest level's 41 lengths in one of the 2
        # directions, whose norms are equal; every shallower ladder is a
        # subset, and no refined ladder is needed
        params = SpaceParams(s=s, p=2, q=2, L=L)
        rep = divergence_probe(smooth_field, params)
        assert [(e.forward_ffts, e.steps) for e in recorded_engines] == [(1, 41)]
        base = default_quadrature(smooth_field.grid)
        for level, value in enumerate(rep.values):
            quad = dataclasses.replace(base, h_min=base.h_min / 2**level, allow_subgrid=True)
            separate = quasinorm(smooth_field, "diff", params, quad).value
            assert value == pytest.approx(separate, rel=1e-12)


class TestSliceSupportCheck:
    @pytest.fixture
    def setup2d(self, grid2d):
        system = build_band_system(grid2d)
        f = sample_family(
            TestFunctionSpec(family="random_band", band_index=3, seed=5), grid2d
        )
        return grid2d, system, band_project(f, system, 3)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_genuine_band_slices_confined(self, setup2d, axis):
        grid, system, band = setup2d
        rep = slice_support_check(band, system, 3, axis)
        assert rep.passed
        assert rep.max_violation <= 1e-12

    def test_corrupted_band_detected(self, setup2d):
        grid, system, band = setup2d
        x = grid.axis_coordinates()
        bad = band.data + 1e-2 * np.exp(2j * np.pi * 32 * x)[:, None]
        rep = slice_support_check(SampledField(grid, bad), system, 3, 1)
        assert not rep.passed
        assert rep.max_violation > 1e-6

    def test_one_dimensional_grid_rejected(self, grid1d):
        system = build_band_system(grid1d)
        f = sample_family(
            TestFunctionSpec(family="random_band", band_index=4, seed=5), grid1d
        )
        with pytest.raises(DimensionTooLow):
            slice_support_check(f, system, 4, 1)

    def test_grid_mismatch_rejected(self, setup2d):
        grid, system, band = setup2d
        other = GridSpec(2, 32, 1.0)
        f = sample_family(
            TestFunctionSpec(family="random_band", band_index=3, seed=5), other
        )
        with pytest.raises(GridMismatch):
            slice_support_check(f, system, 3, 1)

    def test_band_out_of_range_rejected(self, setup2d):
        grid, system, band = setup2d
        with pytest.raises(BandOutOfRange):
            slice_support_check(band, system, 99, 1)

    def test_axis_out_of_range_rejected(self, setup2d):
        grid, system, band = setup2d
        with pytest.raises(BandOutOfRange):
            slice_support_check(band, system, 3, 3)


def per_member_loop(corpus, pair, params, grid, quad=None):
    """The equivalence experiment's four quasinorms per member, one call per
    member and grid: [(a, b, dilated a, dilated b)] in corpus order."""
    dilated_quad = scaled_quadrature(quad, 1) if quad is not None else None
    rows = []
    for spec in corpus:
        f = verify._shell_projection(sample_family(spec, grid))
        moved = rescaled_dilate(f, 1)
        rows.append([quasinorm(f, cid, params, quad) for cid in pair]
                    + [quasinorm(moved, cid, params, dilated_quad) for cid in pair])
    return rows


@pytest.fixture
def work_counts(monkeypatch):
    """Engine steps, supremum scans and band multipliers built."""
    from lplab import maximal
    from lplab.bands import DyadicBandSystem
    from lplab.differences import StepEngine

    counts = {"steps": 0, "sups": 0, "multipliers": 0}
    count, scan, multiplier = (StepEngine._count, maximal._BlockScan.__init__,
                               DyadicBandSystem.band_multiplier)

    def counted_steps(self, steps, order):
        out = count(self, steps, order)
        counts["steps"] += len(out)
        return out

    def counted_scan(self, *args):
        counts["sups"] += 1
        scan(self, *args)

    def counted_multiplier(self, j):
        counts["multipliers"] += 1
        return multiplier(self, j)

    monkeypatch.setattr(StepEngine, "_count", counted_steps)
    monkeypatch.setattr(maximal._BlockScan, "__init__", counted_scan)
    monkeypatch.setattr(DyadicBandSystem, "band_multiplier", counted_multiplier)
    return counts


T4_CASE = (GridSpec(2, 32), ("lp", "max:V"), SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5), "T4")
T2I_CASE = (GridSpec(1, 512), ("lp", "diff"), SpaceParams(s=0.5, p=2, q=2, L=1), "T2i")


class TestCorpusStacks:
    """The equivalence experiment evaluates its corpus as one stack per grid."""

    @pytest.mark.parametrize("case", [T4_CASE, T2I_CASE], ids=["T4", "T2i"])
    def test_matches_per_member_loop(self, case):
        # T4 and every lp value bit for bit; diff (stacked step norms) to 1e-13
        grid, pair, params, theorem = case
        corpus = default_corpus(grid)
        rep = equivalence_experiment(corpus, pair, params, grid, theorem)
        for entry, (a, b, moved_a, moved_b) in zip(rep.per_function, per_member_loop(
                corpus, pair, params, grid)):
            assert entry.flags == (a.flag, b.flag)
            assert entry.value_a == a.value
            if pair[1] == "diff":
                assert entry.value_b == pytest.approx(b.value, rel=1e-13)
                assert entry.dilated_ratio == pytest.approx(moved_a.value / moved_b.value,
                                                            rel=1e-13)
            else:
                assert entry.value_b == b.value
                assert entry.dilated_ratio == moved_a.value / moved_b.value

    @pytest.mark.parametrize("case, loop, stacked", [
        (T4_CASE, {"steps": 12288, "sups": 24, "multipliers": 72},
         {"steps": 1024, "sups": 2, "multipliers": 6}),
        (T2I_CASE, {"multipliers": 168, "sups": 0}, {"multipliers": 14, "sups": 0}),
    ], ids=["T4", "T2i"])
    def test_work_counts(self, work_counts, case, loop, stacked):
        # per grid: the T4 call's 16 shell radii of 32 nodes, one sup scan,
        # 3 band multipliers (T2i: 7); the member loop pays each per member
        grid, pair, params, theorem = case
        corpus = default_corpus(grid)
        per_member_loop(corpus, pair, params, grid)
        loop_steps = work_counts["steps"]
        assert {k: work_counts[k] for k in loop} == loop
        work_counts.update(dict.fromkeys(work_counts, 0))
        equivalence_experiment(corpus, pair, params, grid, theorem)
        assert {k: work_counts[k] for k in stacked} == stacked
        assert work_counts["steps"] * len(corpus) == loop_steps

    def test_failing_member_raises_as_in_the_loop(self):
        grid, pair, params, theorem = T4_CASE
        corpus = list(default_corpus(grid))
        corpus.insert(5, TestFunctionSpec(family="gaussian", width=0.001, label="too_narrow"))
        with pytest.raises(UnresolvableSpec) as looped:
            per_member_loop(corpus, pair, params, grid)
        with pytest.raises(UnresolvableSpec) as stacked:
            equivalence_experiment(corpus, pair, params, grid, theorem)
        assert str(stacked.value) == str(looped.value)

    def test_t4_traced_peak(self):
        # one grid's stack at a time; a prototype that held both grids' fields
        # and wide scan stacks peaked at 1.8-1.9 MB, the member loop at 0.7 MB
        grid, pair, params, theorem = T4_CASE
        corpus = default_corpus(grid)
        # an untraced first call: in a fresh interpreter it imports lazily
        # loaded modules, about 0.8 MB of allocations that are not the call's
        equivalence_experiment(corpus, pair, params, grid, theorem)
        assert traced_peak(lambda: equivalence_experiment(corpus, pair, params, grid,
                                                          theorem)) <= 1.5 * 2**20
