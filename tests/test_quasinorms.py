"""Tests for space parameters, hypothesis windows, and the quasinorms.

Numeric expectations marked as frozen were produced by independent oracle
runs (literal double sums, closed-form band values) and are asserted as
constants here.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lplab.bands import BandDecomposition, build_band_system, decompose, resolvable_band_range
from lplab.errors import (
    BandRangeEmpty,
    ConfigParseError,
    DimensionTooLow,
    EmptyDecomposition,
    GridMismatch,
    InvalidAxis,
    InvalidExponent,
    NonFiniteSample,
    QuadratureTooCoarse,
    UnknownTheoremId,
)
from lplab.fields import (
    GridSpec,
    SampledField,
    TestFunctionSpec,
    sample_family,
)
from lplab import quasinorms
from lplab.differences import StepEngine
from lplab.maximal import peetre_max
from lplab.quasinorms import (
    CHARACTERIZATION_IDS,
    MAXIMAL_VARIANTS,
    THEOREM_IDS,
    QuadratureSpec,
    QuasinormResult,
    SpaceParams,
    default_quadrature,
    hypothesis_window,
    lp_band_quasinorm,
    maximal_quasinorm_set,
    quasinorm,
    radial_ladder,
    shell_index,
    sphere_quadrature,
    thresholds,
)
from lplab.cli import main
from lplab.verify import default_corpus

from conftest import (
    FullGridMeans,
    TranslateSteps,
    assert_replaced,
    field_of_kind,
    random_complex_field,
    traced_peak,
    translate,
    unusual_quadrature,
)


def gaussian(grid: GridSpec, width_frac: float = 1 / 16) -> SampledField:
    return sample_family(
        TestFunctionSpec(family="gaussian", width=grid.box * width_frac), grid
    )


def rescaled_box(field: SampledField, m: int) -> SampledField:
    """The same samples read on a box shrunk by 2^m: realizes f(2^m x)."""
    grid = field.grid
    smaller = GridSpec(grid.dim, grid.n, grid.box * 2.0**-m)
    return SampledField(smaller, field.data.copy())


def resolvable_random(grid: GridSpec, seed: int) -> SampledField:
    """Random field with spectrum inside the resolvable band range."""
    f = random_complex_field(grid, seed)
    coeffs = np.fft.fftn(f.data)
    ks = np.meshgrid(*([np.fft.fftfreq(grid.n, 1.0 / grid.n)] * grid.dim),
                     indexing="ij")
    rho = np.sqrt(sum(k**2 for k in ks))
    coeffs[(rho == 0) | (rho >= grid.n / 2)] = 0.0
    return SampledField(grid, np.fft.ifftn(coeffs))


def reconstructed_value(result: QuasinormResult) -> float:
    q = result.params_echo.q
    shares = [c for _, c in result.per_scale]
    if not shares:
        return 0.0
    if q == math.inf:
        return max(shares)
    return sum(c**q for c in shares) ** (1.0 / q)


class TestThresholds:
    def test_all_four_equal_one(self):
        th = thresholds(p=0.5, q=1.0, n=1)
        assert th.sigma_pq == 1.0
        assert th.sigma_tilde_pq == 1.0
        assert th.sigma_tilde1_pq == 1.0
        assert th.sigma_p == 1.0

    def test_all_zero_above_one(self):
        th = thresholds(p=2.0, q=2.0, n=2)
        assert th.sigma_pq == 0.0
        assert th.sigma_tilde_pq == 0.0
        assert th.sigma_tilde1_pq == 0.0
        assert th.sigma_p == 0.0

    def test_mixed_example(self):
        th = thresholds(p=2 / 3, q=2.0, n=1)
        assert th.sigma_p == pytest.approx(0.5, abs=1e-15)
        assert th.sigma_pq == pytest.approx(0.5, abs=1e-15)
        assert th.sigma_tilde_pq == pytest.approx(1.0, abs=1e-15)
        assert th.sigma_tilde1_pq == pytest.approx(1.0, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidExponent):
            thresholds(p=0.0, q=1.0, n=1)
        with pytest.raises(InvalidExponent):
            thresholds(p=1.0, q=-1.0, n=1)


class TestHypothesisWindows:
    def test_every_id_returns_report(self):
        params = SpaceParams(s=0.5, p=2, q=2, L=1, r=4.0)
        for tid in THEOREM_IDS:
            rep = hypothesis_window(tid, params, n=1)
            assert rep.theorem == tid
            assert isinstance(rep.satisfied, bool)
            assert rep.window

    def test_unknown_id(self):
        with pytest.raises(UnknownTheoremId):
            hypothesis_window("T3", SpaceParams(s=0.5, p=2, q=2), n=1)

    def test_inner_window_satisfied(self):
        rep = hypothesis_window("T2i", SpaceParams(s=0.5, p=2, q=2, L=1), n=1)
        assert rep.satisfied
        assert rep.window == "0 < s < 1"

    def test_boundaries_are_strict(self):
        assert not hypothesis_window(
            "T2i", SpaceParams(s=1.0, p=2, q=2, L=1), n=1
        ).satisfied
        assert not hypothesis_window(
            "T2i", SpaceParams(s=0.0, p=2, q=2, L=1), n=1
        ).satisfied
        assert not hypothesis_window(
            "T7i", SpaceParams(s=0.0, p=2, q=2, L=1), n=1
        ).satisfied

    def test_sphere_mean_window_needs_large_s(self):
        inside = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
        outside = SpaceParams(s=0.5, p=2, q=2, L=2, r=1.5)
        assert hypothesis_window("T4", inside, n=2).satisfied
        assert not hypothesis_window("T4", outside, n=2).satisfied
        assert "n/s < r" in hypothesis_window("T4", inside, n=2).window

    def test_sphere_mean_rejects_dim_one(self):
        params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
        rep = hypothesis_window("T4", params, n=1)
        assert not rep.satisfied
        assert "n >= 2" in rep.window

    def test_sup_variant_r_above_p(self):
        bad_r = SpaceParams(s=1.5, p=2, q=2, L=2, r=3.0)
        assert not hypothesis_window("T5", bad_r, n=2).satisfied

    def test_one_axis_window_uses_scalar_thresholds(self):
        rep = hypothesis_window("T6i", SpaceParams(s=0.5, p=2, q=2, L=1), n=3)
        assert rep.satisfied
        assert rep.window == "0 < s < 1"

    def test_small_p_shifts_lower_edge(self):
        rep = hypothesis_window("T7ii", SpaceParams(s=0.25, p=0.5, q=2, L=1), n=1)
        assert not rep.satisfied  # sigma_p = 1 for p = 1/2, n = 1
        assert hypothesis_window(
            "T7ii", SpaceParams(s=1.5, p=0.5, q=2, L=2), n=1
        ).satisfied

    def test_endpoint_p_equal_one_routes_to_last_case(self):
        params = SpaceParams(s=0.5, p=1, q=2, L=1, scale="B")
        rep = hypothesis_window("T8ii", params, n=1)
        assert not rep.satisfied
        assert "T8v" in rep.window
        assert hypothesis_window("T8v", params, n=1).satisfied

    def test_last_case_needs_p_one(self):
        rep = hypothesis_window("T8v", SpaceParams(s=0.5, p=2, q=2), n=1)
        assert not rep.satisfied

    def test_unconstrained_cases_accept_any_s(self):
        params = SpaceParams(s=-3.0, p=2, q=2, L=1)
        assert hypothesis_window("T6ii", params, n=1).satisfied
        assert hypothesis_window("T8ii", params, n=1).satisfied

    def test_sup_scale_ids_need_q_infinite(self):
        finite_q = SpaceParams(s=0.5, p=2, q=2, L=1)
        for tid in ("T2iii", "T6iii", "T7iii", "T8iii"):
            assert not hypothesis_window(tid, finite_q, n=1).satisfied


class TestSpaceParams:
    def test_rejects_bad_scale(self):
        with pytest.raises(InvalidExponent):
            SpaceParams(s=0.5, p=2, q=2, scale="G")

    def test_rejects_nonpositive_exponents(self):
        with pytest.raises(InvalidExponent):
            SpaceParams(s=0.5, p=0, q=2)
        with pytest.raises(InvalidExponent):
            SpaceParams(s=0.5, p=2, q=-1)
        with pytest.raises(InvalidExponent):
            SpaceParams(s=0.5, p=2, q=2, r=0.0)

    def test_pointwise_scale_needs_finite_p(self):
        with pytest.raises(InvalidExponent):
            SpaceParams(s=0.5, p=math.inf, q=2, scale="F")
        SpaceParams(s=0.5, p=math.inf, q=2, scale="B")  # fine

    def test_rejects_order_below_one(self):
        with pytest.raises(InvalidExponent):
            SpaceParams(s=0.5, p=2, q=2, L=0)


class TestQuadratureSpec:
    def test_rejects_bad_window(self):
        with pytest.raises(QuadratureTooCoarse):
            QuadratureSpec(h_min=0.25, h_max=0.25)
        with pytest.raises(QuadratureTooCoarse):
            QuadratureSpec(h_min=0.0, h_max=0.25)
        with pytest.raises(QuadratureTooCoarse):
            QuadratureSpec(h_min=0.01, h_max=0.25, radial_nodes_per_octave=0)

    def test_validate_for_grid(self, grid1d):
        too_fine = QuadratureSpec(h_min=grid1d.spacing / 2, h_max=0.25)
        with pytest.raises(QuadratureTooCoarse):
            too_fine.validate_for(grid1d)
        too_wide = QuadratureSpec(h_min=grid1d.spacing, h_max=0.3)
        with pytest.raises(QuadratureTooCoarse):
            too_wide.validate_for(grid1d)

    def test_subgrid_flag_allows_fine_steps(self, grid1d):
        fine = QuadratureSpec(
            h_min=grid1d.spacing / 16, h_max=0.25, allow_subgrid=True
        )
        fine.validate_for(grid1d)

    def test_defaults_span_spacing_to_quarter_box(self, grid1d):
        quad = default_quadrature(grid1d)
        assert quad.h_min == grid1d.spacing
        assert quad.h_max == grid1d.box / 4
        quad.validate_for(grid1d)

    def test_override_keyword(self, grid1d):
        quad = default_quadrature(grid1d, sphere_nodes=16)
        assert quad.sphere_nodes == 16

    @pytest.mark.parametrize("allow_subgrid", [True, False])
    def test_refined_changes_only_h_min_and_subgrid(self, allow_subgrid):
        quad = unusual_quadrature(allow_subgrid)
        assert_replaced(quad, quasinorms._refined(quad), h_min=quad.h_min / 16,
                        allow_subgrid=True)


class TestLadders:
    def test_radial_weights_integrate_dlog(self):
        quad = QuadratureSpec(h_min=1 / 64, h_max=1 / 4)
        nodes, weights = radial_ladder(quad, quad.radial_nodes_per_octave)
        assert nodes[0] == pytest.approx(1 / 64)
        assert nodes[-1] == pytest.approx(1 / 4)
        assert weights.sum() == pytest.approx(math.log(16.0), rel=1e-12)

    def test_sphere_measures(self):
        for dim, total in ((1, 2.0), (2, 2 * math.pi), (3, 4 * math.pi)):
            _, w = sphere_quadrature(dim)
            assert w.sum() == pytest.approx(total, rel=1e-12)

    def test_shell_index_convention(self):
        assert shell_index(1.0) == 0
        assert shell_index(1.99) == 0
        assert shell_index(2.0) == -1
        assert shell_index(0.75) == 1
        assert shell_index(0.5) == 1
        assert shell_index(0.25) == 2


class TestLpBand:
    def freeze_pure_mode(self, grid, s):
        x = grid.axis_coordinates()
        f = SampledField(grid, np.exp(2j * np.pi * 8.0 * x / grid.box))
        params = SpaceParams(s=s, p=2, q=2)
        return quasinorm(f, "lp", params)

    def test_pure_mode_value_is_exact(self, grid1d):
        # |k| = 8 sits entirely in band 3, so the value is 2^(3s) exactly
        for s, expect in ((0.0, 1.0), (0.5, 2.0**1.5), (1.0, 8.0)):
            res = self.freeze_pure_mode(grid1d, s)
            assert res.value == pytest.approx(expect, rel=1e-12)
            assert res.flag == "OK"

    def test_pure_mode_single_scale(self, grid1d):
        res = self.freeze_pure_mode(grid1d, 0.5)
        live = [k for k, c in res.per_scale if c > 1e-12 * res.value]
        assert live == [3]

    def test_sequence_norm_monotone_in_q(self, grid1d):
        f = resolvable_random(grid1d, seed=3)
        values = [
            quasinorm(f, "lp", SpaceParams(s=0.5, p=2, q=q)).value
            for q in (1.0, 2.0, math.inf)
        ]
        assert values[0] >= values[1] >= values[2]

    def test_orders_agree_when_p_equals_q(self, grid1d):
        f = resolvable_random(grid1d, seed=4)
        vf = quasinorm(f, "lp", SpaceParams(s=0.5, p=2, q=2, scale="F")).value
        vb = quasinorm(f, "lp", SpaceParams(s=0.5, p=2, q=2, scale="B")).value
        assert vf == pytest.approx(vb, rel=1e-10)

    def test_per_scale_reconstructs_value(self, grid1d):
        f = resolvable_random(grid1d, seed=5)
        for q in (1.0, 2.0, math.inf):
            for scale in ("F", "B"):
                p = 2.0 if scale == "F" else 2.0
                res = quasinorm(f, "lp", SpaceParams(s=0.5, p=p, q=q, scale=scale))
                assert reconstructed_value(res) == pytest.approx(res.value, rel=1e-10)

    def test_inhomogeneous_adds_lowpass(self, grid1d):
        f = gaussian(grid1d)
        hom = quasinorm(f, "lp", SpaceParams(s=0.5, p=2, q=2, homogeneous=True))
        inhom = quasinorm(f, "lp", SpaceParams(s=0.5, p=2, q=2, homogeneous=False))
        assert inhom.value > hom.value

    def test_empty_decomposition_rejected(self, grid1d):
        system = build_band_system(grid1d)
        with pytest.raises(EmptyDecomposition):
            BandDecomposition(
                system=system, bands=(), lowpass=None,
                truncated_energy=0.0, homogeneous=True,
            )
        lowpass_only = BandDecomposition(
            system=system,
            bands=(),
            lowpass=gaussian(grid1d),
            truncated_energy=0.0,
            homogeneous=False,
        )
        with pytest.raises(EmptyDecomposition):
            lp_band_quasinorm(lowpass_only, SpaceParams(s=0.5, p=2, q=2))

    def test_dilation_covariance_exact(self, grid1d):
        f = sample_family(
            TestFunctionSpec(family="random_band", band_index=4, seed=9), grid1d
        )
        params = SpaceParams(s=0.5, p=2, q=2)
        base = quasinorm(f, "lp", params).value
        for m in (-1, 1):
            moved = quasinorm(rescaled_box(f, m), "lp", params).value
            expect = 2.0 ** (m * (params.s - grid1d.dim / params.p))
            assert moved / base == pytest.approx(expect, rel=1e-10)


class TestDifferenceQuasinorms:
    def test_translate_form_matches_first_order_steps(self, grid1d):
        f = gaussian(grid1d)
        quad = default_quadrature(grid1d)
        params = SpaceParams(s=0.5, p=2, q=2, L=1)
        a = quasinorm(f, "diff", params, quad)
        b = quasinorm(f, "gagliardo", params, quad)
        assert a.value == pytest.approx(b.value, rel=1e-10)

    def test_translate_form_follows_the_b_scale(self, grid1d):
        # with p != q the B scale's step aggregate of L^p norms differs from
        # the F scale's L^p norm of the step aggregate
        f = gaussian(grid1d)
        quad = default_quadrature(grid1d)
        params = SpaceParams(s=0.5, p=1, q=2, scale="B")
        b = quasinorm(f, "gagliardo", params, quad)
        assert b.params_echo == params
        assert b.value == pytest.approx(quasinorm(f, "diff", params, quad).value, rel=1e-12)
        f_value = quasinorm(f, "gagliardo", dataclasses.replace(params, scale="F"), quad).value
        assert abs(b.value - f_value) > 1e-3 * f_value

    def test_orders_agree_when_p_equals_q(self, grid1d):
        f = random_complex_field(grid1d, seed=6)
        quad = default_quadrature(grid1d)
        vf = quasinorm(f, "diff", SpaceParams(s=0.5, p=2, q=2), quad).value
        vb = quasinorm(
            f, "diff", SpaceParams(s=0.5, p=2, q=2, scale="B"), quad
        ).value
        assert vf == pytest.approx(vb, rel=1e-10)

    def test_translation_invariance_grid_aligned(self, grid1d):
        f = random_complex_field(grid1d, seed=7)
        quad = default_quadrature(grid1d)
        params = SpaceParams(s=0.5, p=2, q=2)
        base = quasinorm(f, "diff", params, quad).value
        moved = quasinorm(
            translate(f, (17 * grid1d.spacing,)), "diff", params, quad
        ).value
        assert moved == pytest.approx(base, rel=1e-12)

    def test_translation_invariance_off_grid(self, grid1d):
        f = gaussian(grid1d)
        quad = default_quadrature(grid1d)
        params = SpaceParams(s=0.5, p=2, q=2)
        base = quasinorm(f, "diff", params, quad).value
        moved = quasinorm(
            translate(f, (0.3456789 * grid1d.box,)), "diff", params, quad
        ).value
        assert moved == pytest.approx(base, rel=1e-8)

    def test_positive_homogeneity(self, grid1d):
        f = random_complex_field(grid1d, seed=8)
        quad = default_quadrature(grid1d)
        params = SpaceParams(s=0.5, p=2, q=2)
        base = quasinorm(f, "diff", params, quad).value
        scaled = quasinorm(
            SampledField(grid1d, 3.7 * f.data), "diff", params, quad
        ).value
        assert scaled == pytest.approx(3.7 * base, rel=1e-10)

    def test_dilation_covariance(self, grid1d):
        f = gaussian(grid1d)
        params = SpaceParams(s=0.75, p=2, q=2, L=1)
        base = quasinorm(f, "diff", params, default_quadrature(grid1d)).value
        moved = rescaled_box(f, 1)
        dil = quasinorm(
            moved, "diff", params, default_quadrature(moved.grid)
        ).value
        expect = 2.0 ** (params.s - grid1d.dim / params.p)
        # the spec tolerance is 5%; the discrete problem is self-similar
        # under box halving, so the ratio is tight
        assert dil / base == pytest.approx(expect, rel=1e-6)

    def test_smooth_field_above_order_flags_divergent(self, grid1d):
        f = gaussian(grid1d)
        quad = default_quadrature(grid1d)
        res = quasinorm(f, "diff", SpaceParams(s=1.5, p=2, q=2, L=1), quad)
        assert res.flag == "DIVERGENT"
        growth = res.truncation_report["refinement_growth"]
        assert 3.5 < growth < 4.7  # rate 2^(s-L) per octave over 4 octaves

    def test_below_order_growth_settles(self, grid1d):
        f = gaussian(grid1d)
        quad = default_quadrature(grid1d)
        res = quasinorm(f, "diff", SpaceParams(s=0.5, p=2, q=2, L=1), quad)
        assert res.flag != "DIVERGENT"
        assert res.truncation_report["refinement_growth"] < 1.05

    def test_logarithmic_edge_not_flagged(self, grid1d):
        f = gaussian(grid1d)
        quad = default_quadrature(grid1d)
        res = quasinorm(f, "diff", SpaceParams(s=1.0, p=2, q=2, L=1), quad)
        assert res.flag != "DIVERGENT"
        assert 1.2 < res.truncation_report["refinement_growth"] < 1.6

    def test_higher_order_restores_convergence(self, grid1d):
        f = gaussian(grid1d)
        quad = default_quadrature(grid1d)
        res = quasinorm(f, "diff", SpaceParams(s=1.5, p=2, q=2, L=2), quad)
        assert res.flag != "DIVERGENT"

    def test_per_scale_reconstructs_value(self, grid1d):
        f = gaussian(grid1d)
        quad = default_quadrature(grid1d)
        for q in (1.0, 2.0, math.inf):
            res = quasinorm(f, "diff", SpaceParams(s=0.5, p=2, q=q), quad)
            assert reconstructed_value(res) == pytest.approx(res.value, rel=1e-10)

    @given(c=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=15, deadline=None)
    def test_homogeneity_property(self, c):
        grid = GridSpec(1, 64, 1.0)
        f = random_complex_field(grid, seed=11)
        quad = default_quadrature(grid)
        params = SpaceParams(s=0.5, p=2, q=2)
        base = quasinorm(f, "diff", params, quad).value
        scaled = quasinorm(
            SampledField(grid, c * f.data), "diff", params, quad
        ).value
        assert scaled == pytest.approx(c * base, rel=1e-10)


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of the inverse and real-input transforms called through
    numpy.fft, by name."""
    counts = {}
    for name in ("ifft", "ifftn", "rfft", "rfftn", "irfft", "irfftn"):
        def counted(*args, _name=name, _inner=getattr(np.fft, name), **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


class TestStepEngineSweep:
    @pytest.mark.parametrize("grid", [GridSpec(1, 256), GridSpec(2, 64, 0.5)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("h_min", [None, 0.01], ids=["dyadic", "h_min=0.01"])
    @pytest.mark.parametrize("s", [0.5, 1.5])
    def test_engine_matches_translate_oracle(self, grid, h_min, s):
        # the sweep fed literal translate(f, h) - f for every step: the
        # oracle of the engine's Plancherel norms (p = 2) and of its step
        # magnitudes (p = 1)
        f = gaussian(grid)
        quad = default_quadrature(grid) if h_min is None else default_quadrature(grid, h_min=h_min)
        theta, theta_w = quasinorms.sphere_quadrature(grid.dim, quad.sphere_nodes)
        for params in (SpaceParams(s=s, p=2, q=2, L=1), SpaceParams(s=s, p=1, q=2, L=1)):
            res = quasinorm(f, "diff", params, quad)
            [oracle] = quasinorms._step_quasinorm([f], params, quad, quad.radial_nodes_per_octave,
                                                  theta, theta_w, TranslateSteps([f]))
            assert res.value == pytest.approx(oracle.value, rel=1e-12)
            assert res.truncation_report["refinement_growth"] == pytest.approx(
                oracle.truncation_report["refinement_growth"], rel=1e-12
            )
            assert res.flag == oracle.flag

    def test_default_2d_work_counts(self, recorded_engines, fft_calls):
        # 21 base lengths lie on the 37-length refined ladder, and each of
        # the 16 antipodal pairs of the 32 directions costs one step, so the
        # sweep makes 37 x 16 steps instead of (21 + 37) x 32 = 1856, for
        # complex and real fields alike; at p = q = 2 the steps read the
        # power spectrum, with no inverse transform on either scale
        grid = GridSpec(2, 128)
        for f in (random_complex_field(grid, seed=50), gaussian(grid)):
            for scale in ("F", "B"):
                quasinorm(f, "diff", SpaceParams(s=0.5, p=2, q=2, scale=scale))
        assert [(e.forward_ffts, e.steps) for e in recorded_engines] == [(1, 592)] * 4
        assert fft_calls == {}

    def test_non_dyadic_ladders_share_only_h_max(self, recorded_engines, grid1d):
        quad = default_quadrature(grid1d, h_min=0.01)
        base, _ = radial_ladder(quad, quad.radial_nodes_per_octave)
        fine, _ = radial_ladder(quasinorms._refined(quad), quad.radial_nodes_per_octave)
        quasinorm(gaussian(grid1d), "diff", SpaceParams(s=0.5, p=2, q=2), quad)
        # the two 1-D directions +1 and -1 are one antipodal pair
        assert recorded_engines[0].steps == len(base) + len(fine) - 1

    @pytest.mark.parametrize("h_min", [None, 0.01], ids=["dyadic", "h_min=0.01"])
    @pytest.mark.parametrize("cid", ["diff", "axis"])
    def test_growth_matches_separate_runs(self, grid1d, h_min, cid):
        # the joint sweep's refined aggregate equals a run on the refined
        # quadrature alone
        quad = default_quadrature(grid1d) if h_min is None else default_quadrature(grid1d, h_min=h_min)
        params = SpaceParams(s=1.5, p=2, q=2, L=1)
        f = gaussian(grid1d)
        res = quasinorm(f, cid, params, quad)
        refined = quasinorm(f, cid, params, quasinorms._refined(quad))
        assert res.truncation_report["refinement_growth"] == pytest.approx(
            refined.value / res.value, rel=1e-12
        )

    def test_one_engine_per_field(self, recorded_engines, light_quad_params):
        params, make = light_quad_params
        grid = GridSpec(2, 32)
        f = random_complex_field(grid, seed=51)
        maximal_quasinorm_set(f, params, MAXIMAL_VARIANTS, make(grid))
        assert [e.forward_ffts for e in recorded_engines] == [1]

    def test_benchmark_maximal_work_counts(self, tmp_path, monkeypatch, recorded_engines,
                                           fft_calls):
        # the `maximal` calls of the benchmark's maximal-2d workload, with the
        # CLI defaults: S,V at 2-D n=64 (3 bands of a 32-node sphere mean and
        # a shell mean over 8 sphere radii) and all five variants at n=32
        # (96-scale sphere and shell ladders, 48 D_SUP step lengths of 32
        # directions); the sphere scales and shell radii of the n=32 call lie
        # on one 2^(1/16) lattice of 111 radii, each a 32-node symbol built
        # once; every mean pays one complex inverse transform and each step
        # length one per chunk of 8 of its 32 directions, so the transformed
        # 2-D slices stay one per mean and one per step
        inverse, slices, points = [], [], []
        counted = np.fft.ifftn
        monkeypatch.setattr(np.fft, "ifftn",
                            lambda a, *args, **kwargs: points.append(np.size(a))
                            or counted(a, *args, **kwargs))
        for n, variants in ((64, "S,V"), (32, "S,V,S_SUP,V_SUP,D_SUP")):
            path = tmp_path / f"plane{n}.bin"
            gaussian(GridSpec(2, n), 1 / 8).data.real.tofile(path)
            fft_calls.clear()
            points.clear()
            assert main(["maximal", "--variants", variants, "--grid-dim", "2", "--grid-n",
                         str(n), "--in", str(path), "--out", str(tmp_path / f"out{n}")]) == 0
            inverse.append(dict(fft_calls))
            slices.append(sum(points) // n**2)
        assert [(e.forward_ffts, e.steps) for e in recorded_engines] == [(1, 864),
                                                                         (1, 111 * 32 + 48 * 32)]
        assert inverse == [{"ifftn": 6}, {"ifftn": 2 * 96 + 48 * 4}]
        assert slices == [6, 1728]

    def test_five_variant_call_builds_each_radius_once(self, monkeypatch):
        # at 2-D n=32 the 96 sphere scales and the radii t r_j of the 96
        # shells lie on one 2^(1/16) lattice of 111 radii: each 32-node
        # symbol is built once and serves both families
        radii = []

        class Recording(StepEngine):
            def _mean_symbols(self, steps, weights, order, chunk):
                radii.extend(np.linalg.norm(steps[:, 0], axis=1).tolist())
                return super()._mean_symbols(steps, weights, order, chunk)

        monkeypatch.setattr(quasinorms, "StepEngine", Recording)
        grid = GridSpec(2, 32)
        maximal_quasinorm_set(gaussian(grid, 1 / 8), SpaceParams(s=0.5, p=2, q=2), MAXIMAL_VARIANTS,
                              default_quadrature(grid))
        lattice = np.log2(radii) * 16
        assert np.allclose(lattice, np.round(lattice), rtol=0, atol=1e-9)
        assert len(radii) == len(set(np.round(lattice).tolist())) == 111

    @pytest.mark.parametrize("member, want", [
        (0, {"S": "0x1.9cc5f1163b547p+1", "S_SUP": "0x1.116778c1e997dp+3",
             "V": "0x1.380ab3c92a1b1p+2", "V_SUP": "0x1.1baf3541a165fp+3",
             "D_SUP": "0x1.f1932dcd179f3p+4"}),
        (5, {"S": "0x1.6847be8f06527p+2", "S_SUP": "0x1.1c112b950c4aap+3",
             "V": "0x1.786fdcddc8989p+2", "V_SUP": "0x1.18a63515c1d15p+3",
             "D_SUP": "0x1.08c180ae82a9ap+5"}),
    ])
    def test_maximal_values_frozen(self, member, want):
        # values of the one-output-per-scale layer that formed each shell
        # symbol from its 256 nodes: S, S_SUP and D_SUP stay bit for bit,
        # V and V_SUP (shell symbols now sums of sphere symbols) within 2e-15;
        # member 0's S_SUP is 1 ulp lower since stable_sum reduces 1024
        # values by numpy's pairwise sum instead of math.fsum
        grid = GridSpec(2, 32)
        f = sample_family(default_corpus(grid)[member], grid)
        got = maximal_quasinorm_set(f, SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5),
                                    MAXIMAL_VARIANTS, default_quadrature(grid))
        for variant, value in want.items():
            if variant in ("V", "V_SUP"):
                assert got[variant].value == pytest.approx(float.fromhex(value), rel=2e-15)
            else:
                assert got[variant].value == float.fromhex(value), variant

    @pytest.mark.parametrize("n,variants,bound_mb", [(32, MAXIMAL_VARIANTS, 4.5),
                                                     (64, ("S", "V"), 2.7)],
                             ids=["32-all", "64-S,V"])
    def test_maximal_set_traced_peak(self, n, variants, bound_mb):
        # the benchmark's maximal calls hold one scan stack of tables at a
        # time; whole-ladder weight patches (12 MB at n=32) would not fit
        grid = GridSpec(2, n)
        f = SampledField(grid, np.random.default_rng(n).standard_normal(grid.shape))
        params, quad = SpaceParams(s=0.5, p=2, q=2), default_quadrature(grid)
        assert traced_peak(lambda: maximal_quasinorm_set(f, params, variants, quad)) <= (
            bound_mb * 2**20)

    def test_streamed_maximal_set_traced_peak(self):
        # each mean field and step length goes to its family's scan as it is
        # formed: the five-variant call holds no ladder of 256 mean fields
        # (8 MiB at n=64, where the call traced 9.1 MiB with them) and peaks
        # at 4.4 MiB
        grid = GridSpec(2, 64)
        f = sample_family(default_corpus(grid)[0], grid)
        params, quad = SpaceParams(s=0.5, p=2, q=2, L=2, r=1.5), default_quadrature(grid)
        assert traced_peak(lambda: maximal_quasinorm_set(f, params, MAXIMAL_VARIANTS, quad)) <= (
            5 * 2**20)

    def test_variants_match_full_grid_means(self, monkeypatch):
        # the low-rank mean symbols against one full-grid symbol per node, on
        # the 2-D n=32 corpus; D_SUP shares only the engine
        params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
        grid = GridSpec(2, 32)
        quad = default_quadrature(grid, sphere_nodes=8, tau_nodes_per_octave=2, tau_octaves=2)
        for spec in default_corpus(grid):
            f = sample_family(spec, grid)
            got = maximal_quasinorm_set(f, params, MAXIMAL_VARIANTS, quad)
            with monkeypatch.context() as patch:
                patch.setattr(quasinorms, "StepEngine", FullGridMeans)
                want = maximal_quasinorm_set(f, params, MAXIMAL_VARIANTS, quad)
            for variant in MAXIMAL_VARIANTS:
                assert got[variant].value == pytest.approx(want[variant].value, rel=1e-12)
                assert got[variant].flag == want[variant].flag


class TestEnergyPath:
    """Per-step L^2 norms from the power spectrum against the magnitude path."""

    GRIDS = [GridSpec(1, 256), GridSpec(1, 8192), GridSpec(2, 32), GridSpec(2, 128),
             GridSpec(3, 16)]
    SCALES = [("F", 2.0), ("B", 1.0), ("B", 2.0), ("B", math.inf)]

    @pytest.mark.parametrize("scale,q", SCALES, ids=["F2", "B1", "B2", "Binf"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["noise", "gaussian", "modulated"])
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.dim}d-{g.n}")
    def test_matches_magnitude_path(self, monkeypatch, grid, kind, order, scale, q):
        # a light quadrature keeps the magnitude path cheap; the refined
        # ladder reaches a sixteenth of the spacing
        f = field_of_kind(grid, kind)
        params = SpaceParams(s=0.5 + 0.4 * order, p=2, q=q, L=order, scale=scale)
        quad = default_quadrature(grid, radial_nodes_per_octave=2, sphere_nodes=6)
        theta, theta_w = quasinorms.sphere_quadrature(grid.dim, quad.sphere_nodes)
        args = ([f], params, quad, quad.radial_nodes_per_octave, theta, theta_w, StepEngine([f]))
        [energy] = quasinorms._step_quasinorm(*args)
        monkeypatch.setattr(quasinorms, "_norms_suffice", lambda params: False)
        [magnitude] = quasinorms._step_quasinorm(*args)
        assert energy.value == pytest.approx(magnitude.value, rel=1e-12)
        assert energy.truncation_report["refinement_growth"] == pytest.approx(
            magnitude.truncation_report["refinement_growth"], rel=1e-12)
        assert [k for k, _ in energy.per_scale] == [k for k, _ in magnitude.per_scale]
        for (_, a), (_, b) in zip(energy.per_scale, magnitude.per_scale):
            assert a == pytest.approx(b, rel=1e-12)
        assert energy.flag == magnitude.flag

    @pytest.mark.parametrize("kind", ["noise", "modulated"])
    def test_divergence_values_match_magnitude_path(self, monkeypatch, grid1d, kind):
        f = field_of_kind(grid1d, kind)
        params = SpaceParams(s=1.5, p=2, q=2, L=2)
        quads = [default_quadrature(grid1d, h_min=grid1d.spacing / 2**i, allow_subgrid=True)
                 for i in range(3)]
        theta, theta_w = quasinorms.sphere_quadrature(1)
        values = quasinorms.difference_values(f, params, quads)
        monkeypatch.setattr(quasinorms, "_norms_suffice", lambda params: False)
        [magnitude] = quasinorms._step_sweep([f], params, quads, 4, theta, theta_w,
                                             StepEngine([f]))
        assert values == pytest.approx([v for v, _ in magnitude], rel=1e-12)

    @pytest.mark.parametrize("p,q,scale", [(2, 1, "F"), (1, 2, "B"), (2, math.inf, "F")])
    @pytest.mark.parametrize("grid", [GridSpec(1, 256), GridSpec(2, 128)],
                             ids=["complex", "real"])
    def test_other_aggregates_keep_magnitudes(self, recorded_engines, fft_calls, grid, p, q,
                                              scale):
        # one inverse transform per chunk of a length's directions: 2 in 1-D
        # at n=256, 1 of 4 in 2-D at n=128; no real-input transform
        quad = default_quadrature(grid, radial_nodes_per_octave=1, sphere_nodes=4)
        quasinorm(gaussian(grid), "diff", SpaceParams(s=0.5, p=p, q=q, scale=scale), quad)
        [engine] = recorded_engines
        assert engine.steps > 0
        assert fft_calls == {"ifftn": engine.steps // (2 if grid.dim == 1 else 1)}

    def test_magnitude_sweep_forms_symbols_per_chunk(self, monkeypatch):
        # p = 1 at 2-D n=32: 29 lengths of 32 directions, in chunks of 8
        # steps, make 116 symbol broadcasts for 928 steps
        calls = []

        class Recording(StepEngine):
            def _step_symbols(self, steps, order):
                calls.append(len(steps))
                return super()._step_symbols(steps, order)

        monkeypatch.setattr(quasinorms, "StepEngine", Recording)
        quasinorm(gaussian(GridSpec(2, 32), 1 / 8), "diff", SpaceParams(s=0.5, p=1, q=1))
        assert (len(calls), sum(calls)) == (116, 928)
        assert set(calls) == {8}

    def test_gagliardo_is_first_order_diff(self, recorded_engines, grid2d):
        # one engine per call, on the norms path and on the magnitude path
        f = gaussian(grid2d)
        for params in (SpaceParams(s=0.5, p=2, q=2), SpaceParams(s=0.5, p=1, q=2, scale="B")):
            res = quasinorm(f, "gagliardo", params)
            [engine] = recorded_engines
            assert engine.steps > 0
            assert res == quasinorm(f, "diff", params)
            recorded_engines.clear()


class TestAntipodalFold:
    """At p = 2 one direction of each antipodal pair serves both."""

    @pytest.mark.parametrize("dim, count, kept", [(1, 2, 1), (2, 32, 16), (2, 33, 33),
                                                  (3, 64, 64)])
    def test_fold_pairs_only_antipodes(self, dim, count, kept):
        nodes, weights = quasinorms.sphere_quadrature(dim, count)
        folded, folded_weights = quasinorms._fold_antipodes(nodes, weights)
        assert len(folded) == kept
        assert folded_weights.sum() == pytest.approx(weights.sum(), rel=1e-15)
        for z, w in zip(folded, folded_weights):
            antipodal = np.abs(nodes + z).max(axis=1) <= 1e-14
            assert w == weights[0] * (1 + antipodal.sum())
            assert any(np.array_equal(z, node) for node in nodes)

    @pytest.mark.parametrize("sphere_nodes, folded_steps", [(None, 29 * 16), (33, 29 * 33)],
                             ids=["32-nodes", "33-nodes"])
    @pytest.mark.parametrize("scale,q", TestEnergyPath.SCALES, ids=["F2", "B1", "B2", "Binf"])
    def test_fold_matches_every_direction(self, monkeypatch, recorded_engines, scale, q,
                                          sphere_nodes, folded_steps):
        # 29 lengths on the refined ladder at 2-D n=32; 33 uniform nodes
        # hold no antipodal pair
        grid = GridSpec(2, 32)
        f = random_complex_field(grid, seed=55)
        params = SpaceParams(s=0.7, p=2, q=q, L=2, scale=scale)
        quad = default_quadrature(grid, sphere_nodes=sphere_nodes)
        folded = quasinorm(f, "diff", params, quad)
        monkeypatch.setattr(quasinorms, "_ANTIPODE_TOL", -1.0)  # no pairs
        every = quasinorm(f, "diff", params, quad)
        assert [e.steps for e in recorded_engines] == [folded_steps, 29 * (sphere_nodes or 32)]
        assert folded.value == pytest.approx(every.value, rel=1e-13)
        assert folded.truncation_report == pytest.approx(every.truncation_report, rel=1e-13)
        assert [k for k, _ in folded.per_scale] == [k for k, _ in every.per_scale]
        for (_, a), (_, b) in zip(folded.per_scale, every.per_scale):
            assert a == pytest.approx(b, rel=1e-13)
        assert folded.flag == every.flag

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, math.inf])
    def test_row_of_norms_matches_one_at_a_time(self, q):
        # the row form sums in another order than one one-norm row per norm
        rng = np.random.default_rng(58)
        params = SpaceParams(s=0.5, p=2, q=q, scale="B")
        row = quasinorms._ScaleAggregator(GridSpec(1, 64), params)
        loop = quasinorms._ScaleAggregator(GridSpec(1, 64), params)
        for k in (1, 1, 2, 3):
            norms, weights = rng.random(33) * 10.0, rng.random(33)
            row.add_norms(k, norms, weights)
            for norm, weight in zip(norms, weights):
                loop.add_norms(k, np.array([norm]), np.array([weight]))
        (value, masses), (want, want_masses) = row.finish(), loop.finish()
        assert value == pytest.approx(want, rel=1e-14)
        assert masses == pytest.approx(want_masses, rel=1e-14)

    def test_3d_steps_every_direction(self, recorded_engines):
        # 25 lengths on the refined ladder at 3-D n=16, 64 Fibonacci nodes
        grid = GridSpec(3, 16)
        quasinorm(random_complex_field(grid, seed=56), "diff", SpaceParams(s=0.5, p=2, q=2))
        assert [e.steps for e in recorded_engines] == [25 * 64]


class TestOverflow:
    """A finite field whose aggregate overflows raises NonFiniteSample."""

    @pytest.mark.parametrize("cid,q", [("lp", 2), ("diff", 2), ("diff", 1), ("gagliardo", 2),
                                       ("axis", 2), ("max:V", 2)])
    def test_huge_samples_raise(self, cid, q):
        grid = GridSpec(2, 32)
        data = 1e160 * np.random.default_rng(54).standard_normal(grid.shape)
        if cid == "lp":
            # white noise has energy outside the bands, which decompose
            # rejects at any scale; a band field reaches the aggregate
            band = TestFunctionSpec(family="random_band", band_index=2, seed=4)
            data = 1e160 * sample_family(band, grid).data.real
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteSample):
                quasinorm(SampledField(grid, data), cid, SpaceParams(s=0.5, p=2, q=q))

    def test_row_of_norms_overflow_raises(self):
        # every step's L^2 norm is finite, its fourth power is not
        grid = GridSpec(2, 32)
        data = 1e100 * np.random.default_rng(57).standard_normal(grid.shape)
        with pytest.raises(NonFiniteSample, match="overflows"):
            quasinorm(SampledField(grid, data), "diff", SpaceParams(s=0.5, p=2, q=4, scale="B"))

    def test_f_scale_mass_overflow_raises(self):
        # each band's L^p norm is finite, its q-th power, the band's mass,
        # is not: this used to raise a raw OverflowError from a float power
        grid = GridSpec(1, 256, box=1e10)
        band = TestFunctionSpec(family="random_band", band_index=resolvable_band_range(grid)[0] + 2)
        data = 1e140 * sample_family(band, grid).data
        with pytest.raises(NonFiniteSample, match="overflows"):
            quasinorm(SampledField(grid, data), "lp", SpaceParams(s=0.5, p=0.5, q=2))

    def test_inhomogeneous_lowpass_overflow_raises(self, grid1d):
        # the bands stay finite; only the lowpass part's L^2 norm overflows
        data = 1e160 + 1e-3 * np.cos(2 * np.pi * 40 * grid1d.axis_coordinates())
        params = SpaceParams(s=0.5, p=2, q=2, homogeneous=False)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteSample):
                quasinorm(SampledField(grid1d, data), "lp", params)


class TestGagliardoOracle:
    def double_sum(self, field, s, p, q, cap=None):
        """Literal pairwise double sum over the grid, minimal-image metric."""
        grid = field.grid
        x = grid.axis_coordinates()
        vals = field.data
        dx = grid.spacing
        diffs = np.abs(vals[None, :] - vals[:, None])
        sep = np.abs(x[None, :] - x[:, None])
        sep = np.minimum(sep, grid.box - sep)
        mask = sep > 0
        if cap is not None:
            mask &= sep <= cap
        integrand = np.where(
            mask, diffs**q / np.where(sep > 0, sep, 1.0) ** (grid.dim + s * q), 0.0
        )
        inner = integrand.sum(axis=1) * dx
        return float((np.sum(inner ** (p / q)) * dx) ** (1 / p))

    def test_matches_double_sum(self, grid1d_big):
        f = gaussian(grid1d_big, 1 / 64)
        s, p, q = 0.5, 2.0, 2.0
        oracle = self.double_sum(f, s, p, q)
        assert oracle == pytest.approx(2.459307, abs=1e-4)  # frozen
        res = quasinorm(f, "gagliardo", SpaceParams(s=s, p=p, q=q), default_quadrature(grid1d_big))
        assert res.value == pytest.approx(2.410823, abs=1e-4)  # frozen
        assert res.value == pytest.approx(oracle, rel=0.02)

    def test_matches_range_capped_double_sum(self, grid1d_big):
        # capping the oracle at the quadrature window h <= B/4 removes the
        # truncation mismatch and tightens the comparison
        f = gaussian(grid1d_big, 1 / 64)
        s, p, q = 0.5, 2.0, 2.0
        capped = self.double_sum(f, s, p, q, cap=grid1d_big.box / 4)
        res = quasinorm(f, "gagliardo", SpaceParams(s=s, p=p, q=q), default_quadrature(grid1d_big))
        assert res.value == pytest.approx(capped, rel=0.012)

    def test_requires_finite_exponents(self, grid1d):
        f = gaussian(grid1d)
        quad = default_quadrature(grid1d)
        with pytest.raises(InvalidExponent):
            quasinorm(f, "gagliardo", SpaceParams(s=0.5, p=math.inf, q=2, homogeneous=False), quad)
        with pytest.raises(InvalidExponent):
            quasinorm(f, "gagliardo", SpaceParams(s=0.5, p=2, q=math.inf), quad)


class TestAxisQuasinorm:
    def test_full_polar_to_single_axis_ratio(self, grid1d):
        # in one dimension the polar form doubles the axis form's mass
        # (one step each way), so for p = q the values differ by 2^(1/q)
        f = gaussian(grid1d)
        quad = default_quadrature(grid1d)
        params = SpaceParams(s=0.5, p=2, q=2)
        full = quasinorm(f, "diff", params, quad).value
        one = quasinorm(f, "axis:1", params, quad).value
        assert full / one == pytest.approx(2.0**0.5, rel=1e-10)

    def test_axis_sum_matches_parts(self, grid2d):
        f = random_complex_field(grid2d, seed=12)
        quad = default_quadrature(grid2d)
        params = SpaceParams(s=0.5, p=2, q=2)
        both = quasinorm(f, "axis", params, quad).value
        parts = [
            quasinorm(f, f"axis:{a}", params, quad).value for a in (1, 2)
        ]
        assert both == pytest.approx(sum(parts), rel=1e-12)

    def test_axis_bounds_checked(self, grid1d):
        f = gaussian(grid1d)
        quad = default_quadrature(grid1d)
        params = SpaceParams(s=0.5, p=2, q=2)
        with pytest.raises(InvalidAxis):
            quasinorm(f, "axis:0", params, quad)
        with pytest.raises(InvalidAxis):
            quasinorm(f, "axis:2", params, quad)

    def test_one_engine_serves_every_axis(self, recorded_engines, grid2d):
        # both axes' 33 steps go through one forward transform of the field
        quasinorm(gaussian(grid2d), "axis", SpaceParams(s=0.5, p=1, q=2))
        [engine] = recorded_engines
        assert (engine.forward_ffts, engine.steps) == (1, 2 * 33)

    def test_divergence_flag_carries_over(self, grid1d):
        f = gaussian(grid1d)
        res = quasinorm(f, "axis", SpaceParams(s=1.5, p=2, q=2, L=1))
        assert res.flag == "DIVERGENT"

    def test_per_scale_reconstructs_value(self, grid2d):
        f = gaussian(grid2d)
        quad = default_quadrature(grid2d)
        res = quasinorm(f, "axis", SpaceParams(s=0.5, p=2, q=2), quad)
        assert reconstructed_value(res) == pytest.approx(res.value, rel=1e-10)


class TestSymmetry3D:
    """lp and axis at 3-D n=32, where no oracle runs and the Fibonacci
    sphere nodes of the other characterizations have no symmetry: a
    band-limited field keeps both values under a lattice translation, the
    reflection x -> -x mod n of axis 0 and a cyclic axis permutation.  When
    written, lp was bit-equal under all three and axis one ulp off under
    each; the check allows rounding."""

    def test_lp_and_axis_invariant(self):
        grid = GridSpec(3, 32)
        rho = grid.frequency_radii()
        spectrum = np.fft.fftn(np.random.default_rng(332).standard_normal(grid.shape))
        # |k| < 12 keeps every Nyquist plane empty; the mean is no band's
        spectrum[(rho == 0) | (rho >= 12)] = 0.0
        data = np.fft.ifftn(spectrum).real
        moved = [data, np.roll(data, (1, 2, 3), axis=(0, 1, 2)),
                 np.roll(np.flip(data, 0), 1, axis=0), np.transpose(data, (1, 2, 0))]
        fields = [SampledField(grid, u) for u in moved]
        for cid in ("lp", "axis"):
            base, *others = quasinorm(fields, cid, SpaceParams(s=0.5, p=2, q=2))
            for result in others:
                assert result.value == pytest.approx(base.value, rel=1e-12, abs=0), cid


@pytest.fixture
def grid2d_small() -> GridSpec:
    return GridSpec(dim=2, n=32, box=1.0)


@pytest.fixture
def light_quad_params():
    params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)

    def make(grid):
        return default_quadrature(
            grid, sphere_nodes=8, tau_nodes_per_octave=4, tau_octaves=3
        )

    return params, make


class TestMaximalQuasinorms:
    def test_needs_two_dimensions(self, grid1d):
        f = gaussian(grid1d)
        params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
        with pytest.raises(DimensionTooLow):
            quasinorm(f, "max:S", params, default_quadrature(grid1d))

    def test_unknown_variant(self, grid2d_small):
        f = gaussian(grid2d_small, 1 / 8)
        params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
        with pytest.raises(ConfigParseError):
            quasinorm(f, "max:Q", params, default_quadrature(grid2d_small))

    def test_band_range_empty_on_tiny_grid(self):
        grid = GridSpec(2, 8, 1.0)
        f = random_complex_field(grid, seed=1)
        params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
        with pytest.raises(BandRangeEmpty):
            quasinorm(f, "max:S", params, default_quadrature(grid))

    def test_plain_below_sup_variants(self, grid2d_small, light_quad_params):
        params, make = light_quad_params
        f = sample_family(
            TestFunctionSpec(family="random_band", band_index=3, seed=21),
            grid2d_small,
        )
        res = maximal_quasinorm_set(
            f, params, ("S", "S_SUP", "V", "V_SUP"), make(grid2d_small)
        )
        assert res["S"].value <= res["S_SUP"].value * (1 + 1e-12)
        assert res["V"].value <= res["V_SUP"].value * (1 + 1e-12)

    def test_joint_set_matches_single_runs(self, grid2d_small, light_quad_params):
        params, make = light_quad_params
        f = gaussian(grid2d_small, 1 / 8)
        quad = make(grid2d_small)
        joint = maximal_quasinorm_set(f, params, ("S", "D_SUP"), quad)
        assert (
            quasinorm(f, "max:S", params, quad).value == joint["S"].value
        )
        assert (
            quasinorm(f, "max:D_SUP", params, quad).value
            == joint["D_SUP"].value
        )

    def test_dispatcher_route(self, grid2d_small, light_quad_params):
        params, make = light_quad_params
        f = gaussian(grid2d_small, 1 / 8)
        quad = make(grid2d_small)
        via_dispatch = quasinorm(f, "max:V", params, quad).value
        direct = maximal_quasinorm_set(f, params, ("V",), quad)["V"].value
        assert via_dispatch == direct

    def test_positive_homogeneity(self, grid2d_small, light_quad_params):
        params, make = light_quad_params
        f = random_complex_field(grid2d_small, seed=22)
        quad = make(grid2d_small)
        base = quasinorm(f, "max:S", params, quad).value
        scaled = quasinorm(
            SampledField(grid2d_small, 2.5 * f.data), "max:S", params, quad
        ).value
        assert scaled == pytest.approx(2.5 * base, rel=1e-10)

    def test_translation_invariance_grid_aligned(self, grid2d_small, light_quad_params):
        params, make = light_quad_params
        f = gaussian(grid2d_small, 1 / 8)
        quad = make(grid2d_small)
        base = quasinorm(f, "max:V", params, quad).value
        shift = (5 * grid2d_small.spacing, 11 * grid2d_small.spacing)
        moved = quasinorm(translate(f, shift), "max:V", params, quad).value
        assert moved == pytest.approx(base, rel=1e-12)

    def test_dilation_covariance(self, grid2d_small, light_quad_params):
        params, make = light_quad_params
        f = sample_family(
            TestFunctionSpec(family="random_band", band_index=3, seed=23),
            grid2d_small,
        )
        base = quasinorm(f, "max:S", params, make(grid2d_small)).value
        moved = rescaled_box(f, 1)
        dil = quasinorm(moved, "max:S", params, make(moved.grid)).value
        expect = 2.0 ** (params.s - grid2d_small.dim / params.p)
        # spec tolerance 7%; box halving leaves the discrete problem
        # self-similar so the measured ratio is tight
        assert dil / base == pytest.approx(expect, rel=1e-6)

    def test_per_scale_reconstructs_value(self, grid2d_small, light_quad_params):
        params, make = light_quad_params
        f = gaussian(grid2d_small, 1 / 8)
        res = quasinorm(f, "max:D_SUP", params, make(grid2d_small))
        assert reconstructed_value(res) == pytest.approx(res.value, rel=1e-10)


class TestBandedPeetreComparison:
    def test_peetre_enlarged_bands_never_shrink_value(self, grid2d_small):
        # replacing each band by its Peetre maximal field at scale 2^(k+1)
        # can only increase the pointwise aggregate since P f >= |f|
        f = resolvable_random(grid2d_small, seed=31)
        system = build_band_system(grid2d_small)
        decomp = decompose(f, system)
        s, p, q, r = 0.5, 2.0, 2.0, 2.0
        plain = np.zeros(grid2d_small.shape)
        boosted = np.zeros(grid2d_small.shape)
        for k, part in decomp.bands:
            w = 2.0 ** (k * s)
            plain += (w * np.abs(part.data)) ** q
            boost = peetre_max(part, 2.0 ** (k + 1), r).data.real
            boosted += (w * boost) ** q
        v_plain = float((np.sum(plain ** (p / q)) * grid2d_small.cell_volume) ** (1 / p))
        v_boost = float((np.sum(boosted ** (p / q)) * grid2d_small.cell_volume) ** (1 / p))
        assert v_boost >= v_plain * (1 - 1e-12)
        assert v_boost < 1e3 * v_plain  # stays comparable, not just larger


class TestDispatcher:
    def test_unknown_characterization(self, grid1d):
        f = gaussian(grid1d)
        with pytest.raises(ConfigParseError):
            quasinorm(f, "wavelet", SpaceParams(s=0.5, p=2, q=2))

    def test_characterization_ids_cover_dispatcher(self):
        assert "lp" in CHARACTERIZATION_IDS
        assert "diff" in CHARACTERIZATION_IDS
        for variant in MAXIMAL_VARIANTS:
            assert f"max:{variant}" in CHARACTERIZATION_IDS

    def test_translate_form_needs_first_order(self, grid1d):
        f = gaussian(grid1d)
        with pytest.raises(InvalidExponent):
            quasinorm(f, "gagliardo", SpaceParams(s=0.5, p=2, q=2, L=2))

    def test_result_echoes_params(self, grid1d):
        f = gaussian(grid1d)
        params = SpaceParams(s=0.5, p=2, q=2)
        res = quasinorm(f, "diff", params)
        assert res.params_echo == params

    def test_scales_sorted_in_per_scale(self, grid1d):
        f = gaussian(grid1d)
        res = quasinorm(f, "diff", SpaceParams(s=0.5, p=2, q=2))
        ks = [k for k, _ in res.per_scale]
        assert ks == sorted(ks)


def projected_corpus(grid: GridSpec) -> list[SampledField]:
    """The default corpus as the equivalence experiment evaluates it."""
    from lplab.verify import _shell_projection

    return [_shell_projection(sample_family(spec, grid)) for spec in default_corpus(grid)]


def assert_rows_match(stacked, fields, evaluate, rel: float) -> None:
    """Each row of a stacked evaluation against the same call on its field
    alone."""
    assert_results_match(stacked, [evaluate(field) for field in fields], rel)


def assert_results_match(got, want, rel: float) -> None:
    """Two lists of results: values equal (rel = 0) or within rel, shares
    likewise, flags equal."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.flag == b.flag
        assert [k for k, _ in a.per_scale] == [k for k, _ in b.per_scale]
        pairs = [(a.value, b.value)] + [
            (x, y) for (_, x), (_, y) in zip(a.per_scale, b.per_scale)]
        for x, y in pairs:
            if rel == 0.0:
                assert x == y
            else:
                assert x == pytest.approx(y, rel=rel)


class TestStackedQuasinorms:
    """A sequence of fields on one grid against one call per field."""

    @pytest.mark.parametrize("dilated", [False, True], ids=["grid", "dilated"])
    @pytest.mark.parametrize("cid, rel", [("lp", 0.0), ("diff", 1e-13)])
    def test_t2i_corpus(self, cid, rel, dilated):
        # the 1-D n=512 corpus of a T2i experiment; the stacked step norms
        # come from one matrix product per chunk, so diff agrees to 1e-13
        grid = GridSpec(1, 512)
        fields = projected_corpus(grid)
        quad = None
        if dilated:
            fields = [rescaled_box(f, 1) for f in fields]
            quad = default_quadrature(fields[0].grid)
        params = SpaceParams(s=0.5, p=2, q=2, L=1)
        assert_rows_match(quasinorm(fields, cid, params, quad), fields,
                          lambda f: quasinorm(f, cid, params, quad), rel)

    @pytest.mark.parametrize("work_bytes", [None, 8 * 5 * 1024], ids=["one-stack", "stacks-of-5"])
    @pytest.mark.parametrize("cid", ["lp", "max:V"])
    def test_t4_corpus_bit_identical(self, monkeypatch, cid, work_bytes):
        # the 2-D n=32 corpus of a T4 experiment, as one stack and as stacks
        # of 5, 5 and 2 fields
        if work_bytes is not None:
            monkeypatch.setattr("lplab.fields.WORK_BYTES", work_bytes)
        grid = GridSpec(2, 32)
        fields = projected_corpus(grid)
        params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
        assert_rows_match(quasinorm(fields, cid, params), fields,
                          lambda f: quasinorm(f, cid, params), 0.0)

    def test_five_variants_3d_across_stacks(self, monkeypatch):
        # at 3-D n=16 a stack of three fields spans two field stacks of two
        # and one-field scans; every variant stays bit for bit
        monkeypatch.setattr("lplab.fields.WORK_BYTES", 8 * 2 * 16**3)
        grid = GridSpec(3, 16)
        fields = [random_complex_field(grid, seed) for seed in range(3)]
        params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
        quad = default_quadrature(grid, sphere_nodes=8, tau_nodes_per_octave=2, tau_octaves=1)
        stacked = maximal_quasinorm_set(fields, params, MAXIMAL_VARIANTS, quad)
        for field, got in zip(fields, stacked):
            want = maximal_quasinorm_set(field, params, MAXIMAL_VARIANTS, quad)
            for variant in MAXIMAL_VARIANTS:
                assert got[variant].value == want[variant].value, variant
                assert got[variant].flag == want[variant].flag
        assert len(stacked) == len(fields)

    @pytest.mark.parametrize("p", [2, 1])
    @pytest.mark.parametrize("cid", ["lp", "diff", "gagliardo", "axis"])
    def test_one_item_budget(self, monkeypatch, cid, p):
        # a one-byte budget sizes every chunk and stack to one item: one
        # field per stack and one step per norm chunk; 2-D n=32 is the
        # smallest grid with the three bands lp needs
        fields = projected_corpus(GridSpec(2, 32))[:3]
        params = SpaceParams(s=0.5, p=p, q=2)
        want = quasinorm(fields, cid, params)
        monkeypatch.setattr("lplab.fields.WORK_BYTES", 1)
        assert_results_match(quasinorm(fields, cid, params), want, 1e-12)

    def test_one_item_budget_maximal(self, monkeypatch):
        # one mean node per chunk, one step per maximum chunk, one field per
        # scan and one block pair per product, for all five variants
        grid = GridSpec(2, 16)
        fields = [field_of_kind(grid, kind) for kind in ("noise", "gaussian", "modulated")]
        params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
        quad = default_quadrature(grid)
        want = maximal_quasinorm_set(fields, params, MAXIMAL_VARIANTS, quad)
        monkeypatch.setattr("lplab.fields.WORK_BYTES", 1)
        got = maximal_quasinorm_set(fields, params, MAXIMAL_VARIANTS, quad)
        for variant in MAXIMAL_VARIANTS:
            assert_results_match([row[variant] for row in got],
                                 [row[variant] for row in want], 1e-12)

    @pytest.mark.parametrize("cid, params, rel", [
        ("diff", SpaceParams(s=0.5, p=1, q=1), 0.0),
        ("diff", SpaceParams(s=0.5, p=2, q=math.inf, scale="B"), 1e-13),
        ("gagliardo", SpaceParams(s=0.5, p=1, q=2), 0.0),
        ("axis", SpaceParams(s=0.5, p=2, q=2, L=2), 1e-13),
        ("axis:2", SpaceParams(s=0.5, p=1, q=2), 0.0),
        ("max:S_SUP", SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5), 0.0),
    ], ids=["diff-p1", "diff-B", "gagliardo", "axis", "axis:2", "max:S_SUP"])
    def test_other_paths(self, cid, params, rel):
        # the magnitude path (p = 1) is bit for bit; step norms agree to
        # 1e-13
        grid = GridSpec(2, 32)
        fields = [field_of_kind(grid, kind) for kind in ("noise", "gaussian", "modulated")]
        quad = default_quadrature(grid, radial_nodes_per_octave=2, sphere_nodes=6,
                                  tau_nodes_per_octave=4, tau_octaves=2)
        assert_rows_match(quasinorm(fields, cid, params, quad), fields,
                          lambda f: quasinorm(f, cid, params, quad), rel)

    @pytest.mark.parametrize("cid", ["lp", "diff", "max:V"])
    def test_one_field_stack_is_the_field(self, cid):
        grid = GridSpec(2, 32)
        f = projected_corpus(grid)[4]
        params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
        [got] = quasinorm([f], cid, params)
        assert got == quasinorm(f, cid, params)

    def test_empty_and_mixed_stacks(self, grid1d):
        params = SpaceParams(s=0.5, p=2, q=2)
        assert quasinorm([], "lp", params) == []
        assert maximal_quasinorm_set([], params, ("V",), default_quadrature(grid1d)) == []
        with pytest.raises(GridMismatch):
            quasinorm([gaussian(grid1d), gaussian(GridSpec(1, 128))], "diff", params)

    @pytest.mark.parametrize("cid,q", [("lp", 2), ("diff", 2), ("diff", 1), ("gagliardo", 2),
                                       ("axis", 2), ("max:V", 2)])
    def test_failing_member_raises_as_alone(self, cid, q):
        # the overflowing fields of TestOverflow inside a stack of finite
        # ones: the same typed error and message as the member alone
        grid = GridSpec(2, 32)
        fine = projected_corpus(grid)[0]
        if cid == "lp":
            band = TestFunctionSpec(family="random_band", band_index=2, seed=4)
            huge = SampledField(grid, 1e160 * sample_family(band, grid).data.real)
        else:
            noise = np.random.default_rng(54).standard_normal(grid.shape)
            huge = SampledField(grid, 1e160 * noise)
        params = SpaceParams(s=0.5, p=2, q=q)
        with np.errstate(over="ignore", invalid="ignore"):
            quasinorm(fine, cid, params)
            with pytest.raises(NonFiniteSample) as alone:
                quasinorm(huge, cid, params)
            with pytest.raises(NonFiniteSample) as stacked:
                quasinorm([fine, huge, fine], cid, params)
        assert str(stacked.value) == str(alone.value)
