"""Difference operator tests: weights, both evaluation paths, annihilation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lplab.differences import StepEngine, difference_coefficients, iterated_difference
from lplab.errors import InvalidExponent, MisalignedStep, ShapeMismatch
from lplab.fields import GridSpec, SampledField, translate
from lplab.maximal import annulus_mean_max, annulus_nodes, unit_sphere_nodes

from conftest import field_of_kind, full_grid_symbol, random_complex_field


class TestCoefficients:
    def test_known_weights(self):
        assert difference_coefficients(1).tolist() == [1]
        assert difference_coefficients(2).tolist() == [2, -1]
        assert difference_coefficients(3).tolist() == [3, -3, 1]

    @given(order=st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_weights_sum_to_one(self, order):
        assert int(difference_coefficients(order).sum()) == 1

    def test_rejects_zero_order(self):
        with pytest.raises(InvalidExponent):
            difference_coefficients(0)

    def test_weight_identity_against_rolls(self, grid1d):
        # (-1)^(L+1) diff(f,h,L)(x) must equal sum_j d_j f(x+jh) - f(x)
        f = random_complex_field(grid1d, seed=31)
        order = 3
        m = 5
        lhs = (-1) ** (order + 1) * iterated_difference(
            f, (m * grid1d.spacing,), order, method="shift"
        ).data
        d = difference_coefficients(order)
        rhs = -f.data.copy()
        for j in range(1, order + 1):
            rhs = rhs + d[j - 1] * np.roll(f.data, -j * m)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(f.data))


class TestPaths:
    def test_shift_matches_spectral_on_lattice(self, grid1d):
        f = random_complex_field(grid1d, seed=32)
        h = (7 * grid1d.spacing,)
        for order in (1, 2, 3):
            a = iterated_difference(f, h, order, method="shift")
            b = iterated_difference(f, h, order, method="spectral")
            assert np.max(np.abs(a.data - b.data)) <= 1e-10 * np.max(np.abs(f.data))

    def test_shift_matches_spectral_2d(self, grid2d):
        f = random_complex_field(grid2d, seed=33)
        h = (3 * grid2d.spacing, -2 * grid2d.spacing)
        a = iterated_difference(f, h, 2, method="shift")
        b = iterated_difference(f, h, 2, method="spectral")
        assert np.max(np.abs(a.data - b.data)) <= 1e-10 * np.max(np.abs(f.data))

    def test_spectral_matches_translate_composition(self, grid1d):
        # independent oracle: L-fold composition of exact interpolation shifts
        f = random_complex_field(grid1d, seed=34)
        h, order = 0.013772, 2
        direct = iterated_difference(f, (h,), order, method="spectral")
        work = f
        for _ in range(order):
            work = SampledField(grid1d, translate(work, (h,)).data - work.data)
        assert np.max(np.abs(direct.data - work.data)) <= 1e-10 * np.max(np.abs(f.data))

    def test_misaligned_step_rejected(self, grid1d):
        f = random_complex_field(grid1d)
        with pytest.raises(MisalignedStep):
            iterated_difference(f, (1.5 * grid1d.spacing,), 1, method="shift")


class TestAnalyticActions:
    def test_pure_mode_magnitude(self):
        # |exp(2 pi i (x + 1/2)) - exp(2 pi i x)| = |exp(i pi) - 1| = 2
        grid = GridSpec(dim=1, n=256)
        x = grid.axis_coordinates()
        f = SampledField(grid, np.exp(2j * np.pi * x))
        df = iterated_difference(f, (0.5,), 1, method="shift")
        assert np.max(np.abs(np.abs(df.data) - 2.0)) <= 1e-12

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_annihilates_low_degree_polynomials(self, order):
        # checked away from the wrap-around rows the circular shifts corrupt
        grid = GridSpec(dim=1, n=512)
        x = grid.axis_coordinates()
        m = 3
        for deg in range(order):
            f = SampledField(grid, (x - 0.3) ** deg)
            df = iterated_difference(f, (m * grid.spacing,), order, method="shift")
            interior = df.data[: grid.n - order * m]
            scale = float(np.max(np.abs(f.data)))
            assert np.max(np.abs(interior)) <= 1e-12 * scale

    def test_degree_L_survives(self):
        grid = GridSpec(dim=1, n=512)
        x = grid.axis_coordinates()
        f = SampledField(grid, x**2)
        df = iterated_difference(f, (4 * grid.spacing,), 2, method="shift")
        interior = df.data[: grid.n - 8]
        # second difference of x^2 is exactly 2 h^2
        want = 2.0 * (4 * grid.spacing) ** 2
        assert np.max(np.abs(interior - want)) <= 1e-12

    @given(order=st.integers(min_value=1, max_value=3), m=st.integers(min_value=1, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_reflection_identity(self, order, m):
        # diff with step -h equals (-1)^L times the +h difference shifted by Lh
        grid = GridSpec(dim=1, n=128)
        f = random_complex_field(grid, seed=36)
        h = m * grid.spacing
        neg = iterated_difference(f, (-h,), order, method="shift").data
        pos = iterated_difference(f, (h,), order, method="shift").data
        shifted = np.roll(pos, order * m)
        assert np.max(np.abs(neg - (-1.0) ** order * shifted)) <= 1e-11 * np.max(np.abs(f.data))

    def test_annihilates_constants_spectral(self, grid2d):
        f = SampledField(grid2d, np.full(grid2d.shape, 3.7))
        df = iterated_difference(f, (0.01, 0.02), 1)
        assert np.max(np.abs(df.data)) <= 1e-12


def full_grid_difference(field, step, order):
    return np.fft.ifftn(np.fft.fftn(field.data) * full_grid_symbol(field.grid, step, order))


class TestStepEngine:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_full_grid_symbol(self, grid1d, grid2d, order):
        # separable 1-D phase factors against the full-grid exponential,
        # for steps on and off the lattice and below the grid spacing
        cases = [
            (random_complex_field(grid1d, seed=40), [(0.013772,), (-0.3 * grid1d.spacing,),
                                                     (0.01 * grid1d.spacing,), (0.25,)]),
            (random_complex_field(grid2d, seed=41), [(0.1, 0.03), (0.0, 0.25),
                                                     (0.3 * grid2d.spacing, -0.7 * grid2d.spacing),
                                                     (-0.05 * grid2d.spacing, 0.0)]),
        ]
        for f, steps in cases:
            for step in steps:
                want = full_grid_difference(f, step, order)
                got = iterated_difference(f, step, order).data
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_engine_steps_match_one_shot_differences(self, grid2d):
        f = random_complex_field(grid2d, seed=42)
        engine = StepEngine(f)
        for step, order in (((0.02, -0.01), 1), ((0.0, 0.05), 2), ((0.07, 0.07), 3)):
            one_shot = iterated_difference(f, step, order).data
            assert np.array_equal(engine.difference(step, order).data, one_shot)
            assert np.array_equal(engine.magnitude(step, order), np.abs(one_shot))
        assert (engine.forward_ffts, engine.steps) == (1, 6)

    def test_norms_match_magnitudes(self, grid1d, grid2d):
        # complex fields, in 1-D, 2-D and 3-D
        for f in (random_complex_field(grid1d, seed=46), random_complex_field(grid2d, seed=47),
                  random_complex_field(GridSpec(3, 16), seed=48)):
            assert_norms_match_magnitudes(StepEngine(f), TestRealInputEngine.steps(f.grid))

    @pytest.mark.parametrize("grid", [GridSpec(2, 32), GridSpec(2, 128), GridSpec(1, 256),
                                      GridSpec(3, 8)],
                             ids=["complex-2d", "real-2d", "complex-1d", "complex-3d"])
    def test_max_magnitude_matches_step_loop(self, grid):
        # the D_SUP direction maximum against one magnitude per step; 11
        # directions are not a multiple of a chunk, and the first has zero
        # components
        f = field_of_kind(grid, "noise")
        engine = StepEngine(f)
        directions = unit_sphere_nodes(grid.dim, 11) if grid.dim > 1 else np.array([[1.0], [-1.0]])
        for length, order in ((grid.spacing / 3, 1), (0.07, 2), (0.25, 3)):
            steps = length * directions
            want = np.zeros(grid.shape)
            for step in steps:
                np.maximum(want, engine.magnitude(tuple(step), order), out=want)
            assert np.array_equal(engine.max_magnitude(steps, order), want)

    @pytest.mark.parametrize("grid", [GridSpec(1, 64), GridSpec(2, 32), GridSpec(2, 64),
                                      GridSpec(3, 16)], ids=lambda g: f"{g.dim}d-n{g.n}")
    def test_stacked_means_match_single_means(self, grid):
        # means of 7 and 32 nodes share node chunks, 100 nodes span several;
        # each stacked symbol is the single mean's, bit for bit, and counts
        # its steps once
        engine = StepEngine(random_complex_field(grid, seed=49))
        rng = np.random.default_rng(grid.dim * grid.n)
        for nodes in (7, 32, 100):
            steps = rng.standard_normal((5, nodes, grid.dim)) * np.array([[[1e-4]], [[0.01]], [[0.05]],
                                                                        [[0.3]], [[2.0]]])
            weights = rng.random((5, nodes))
            for order in (1, 2, 3):
                before = engine.steps
                stacked = list(engine.mean_symbols(steps, weights, order))
                assert engine.steps - before == 5 * nodes
                for i in range(5):
                    assert np.array_equal(stacked[i], engine.mean_symbol(steps[i], weights[i], order))

    def test_zero_step_annihilates(self, grid2d):
        engine = StepEngine(random_complex_field(grid2d, seed=43))
        assert not np.any(engine.magnitude((0.0, 0.0), 2))

    def test_rejects_bad_step_and_order(self, grid2d):
        engine = StepEngine(random_complex_field(grid2d, seed=44))
        with pytest.raises(ShapeMismatch):
            engine.magnitude((0.1,), 1)
        with pytest.raises(InvalidExponent):
            engine.magnitude((0.1, 0.0), 0)


def assert_norms_match_magnitudes(engine, steps):
    """engine.norms against the L^2 norms of engine.magnitude, L = 1..3."""
    for order in (1, 2, 3):
        norms = engine.norms(steps, order)
        for step, norm in zip(steps, norms):
            mag = engine.magnitude(step, order)
            assert norm == pytest.approx(np.sqrt(np.sum(mag**2) * engine.grid.cell_volume),
                                         rel=1e-13)


def rounding_floor(field):
    """1e-14 of the field's peak: against a long-double DFT, the full-grid
    oracle itself is off by up to 1.2e-15 of the peak at 1-D n=8192, which
    exceeds 1e-13 of a third-order sub-spacing Gaussian difference."""
    return 1e-14 * np.max(np.abs(field.data))


class TestRealInputEngine:
    # real fields of 8192 samples or more, against the full-grid oracles
    GRIDS = {1: GridSpec(1, 8192), 2: GridSpec(2, 128), 3: GridSpec(3, 32)}

    @staticmethod
    def steps(grid):
        """Lattice, off-lattice and sub-spacing steps, and an axis step."""
        dx = grid.spacing
        lattice = [(3 - a) * dx for a in range(grid.dim)]
        off = [(0.013772 + 0.1 * a) * (-1) ** a for a in range(grid.dim)]
        sub = [0.3 * dx, -0.05 * dx, 0.7 * dx][: grid.dim]
        axis = [0.0] * (grid.dim - 1) + [0.25]
        return [tuple(lattice), tuple(off), tuple(sub), tuple(axis)]

    @pytest.mark.parametrize("kind", ["noise", "gaussian"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_steps_match_full_grid_symbol(self, dim, order, kind):
        f = field_of_kind(self.GRIDS[dim], kind)
        engine = StepEngine(f)
        for step in self.steps(f.grid):
            want = full_grid_difference(f, step, order)
            tol = 1e-13 * np.max(np.abs(want)) + rounding_floor(f)
            assert np.max(np.abs(engine.difference(step, order).data - want)) <= tol
            assert np.max(np.abs(engine.magnitude(step, order) - np.abs(want))) <= tol

    @pytest.mark.parametrize("kind", ["noise", "gaussian"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_norms_match_magnitudes(self, dim, kind):
        engine = StepEngine(field_of_kind(self.GRIDS[dim], kind))
        assert_norms_match_magnitudes(engine, self.steps(engine.grid))

    @pytest.mark.parametrize("kind", ["noise", "gaussian"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_means_match_full_grid_symbol(self, dim, order, kind):
        # the sphere and annulus means of the maximal fields, at scales
        # whose nodes fall on, off and below the lattice
        f = field_of_kind(self.GRIDS[dim], kind)
        engine = StepEngine(f)
        spectrum = np.fft.fftn(f.data)
        sphere = unit_sphere_nodes(dim, 8)
        means = [(sphere, np.full(len(sphere), 1.0 / len(sphere))),
                 annulus_nodes(dim, 16, 3)]  # 48 nodes: more than one chunk
        for points, weights in means:
            for t in (f.grid.spacing, 0.6 * f.grid.spacing, 0.11):
                symbol = sum(w * full_grid_symbol(f.grid, tuple(t * z), order)
                             for z, w in zip(points, weights))
                want = np.fft.ifftn(spectrum * symbol)
                got = engine.mean_magnitude(t * points, weights, order)
                tol = 1e-13 * np.max(np.abs(want)) + rounding_floor(f)
                assert np.max(np.abs(got - np.abs(want))) <= tol

    def test_modulus_of_huge_samples_is_finite(self):
        # Re^2 + Im^2 overflows at 1e155 samples; the modulus itself does not
        grid = self.GRIDS[2]
        data = 1e155 * np.random.default_rng(61).standard_normal(grid.shape)
        real = StepEngine(SampledField(grid, data))
        full = StepEngine(SampledField(grid, data + 1e-300j))
        got = real.magnitude((0.01, 0.02), 1)
        want = full.magnitude((0.01, 0.02), 1)
        assert np.isfinite(got).all()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


LONG_PI = np.arccos(np.longdouble(-1.0))
QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])  # exp(2 pi i j / 4), exactly


def long_double_mean_symbol(k, steps, weights, order, box):
    """sum_m w_m (exp(i theta_m) - 1)^L, theta_m = 2 pi k.h_m / B, in long double."""
    theta = 2 * LONG_PI * (np.asarray(steps, np.longdouble) * np.asarray(k, np.longdouble)).sum(axis=1)
    terms = (np.exp(1j * (theta / np.longdouble(box))) - 1) ** order
    return np.sum(np.asarray(weights, np.longdouble) * terms)


class TestMeanSymbolAccuracy:
    """Sphere and annulus means of one Fourier mode against long double.

    The mode k with entries 0 or n/4 has samples exp(2 pi i k.x / B) in
    {1, i, -1, -i}, or cosines in {1, 0, -1}, which the forward transforms
    map to an exact delta.  So the mean field is exactly |S(k)| for the
    complex mode and |Re(exp(2 pi i k.x / B) S(k))| for the cosine, S the
    mean symbol (the cosine's other delta, at -k, carries conj S(k)).  (At
    k = 1 the forward transform's roundoff, about 1e-16 of X(1) at every
    other frequency, enters times |S(k')| / |S(1)|, up to (n/2)^(L+1), and
    would hide the symbol's own error.)  Expanding
    (phi - 1)^L in powers of phi misses 1e-13 of |S| from spacing / 32 down,
    and forming phi - 1 from the full phase misses it at spacing / 128.
    """

    GRIDS = [GridSpec(2, 32), GridSpec(3, 16), GridSpec(2, 128), GridSpec(3, 32)]

    @pytest.mark.parametrize("direction", ["first", "last", "diagonal"])
    @pytest.mark.parametrize("mean", ["sphere", "annulus", "shell"])
    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.dim}d-n{g.n}")
    def test_single_mode(self, grid, mean, direction):
        # "shell" is the annulus mean as annulus_mean_max forms it, a radial
        # sum of 16-node sphere-mean symbols; with r = 1e-9 every weight
        # but the zero offset's underflows to 0, so its sup is the mean field
        axes = {"first": [0], "last": [grid.dim - 1], "diagonal": range(grid.dim)}[direction]
        k = np.zeros(grid.dim)
        k[list(axes)] = grid.n // 4
        turns = sum(np.indices(grid.shape)[a] for a in axes) % 4
        real = grid.num_points >= 8192  # the cosine on the larger grids
        data = QUARTER_TURNS[turns].real if real else QUARTER_TURNS[turns]
        engine_field = SampledField(grid, data)
        engine = StepEngine(engine_field)
        if mean == "sphere":
            points = unit_sphere_nodes(grid.dim, 16)
            weights = np.full(len(points), 1.0 / len(points))
        else:
            points, weights = annulus_nodes(grid.dim, 16)
        for order in (1, 2, 3):
            for t in (0.25, grid.spacing, grid.spacing / 32, grid.spacing / 128):
                symbol = long_double_mean_symbol(k, t * points, weights, order, grid.box)
                want = np.abs((QUARTER_TURNS[turns] * symbol).real if real else symbol)
                if mean == "shell":
                    got = annulus_mean_max(engine_field, [t], 1e-9, order, 16, engine=engine)[0]
                else:
                    got = engine.mean_magnitude(t * points, weights, order)
                assert np.max(np.abs(got - want)) <= 1e-13 * abs(symbol), (order, t)
