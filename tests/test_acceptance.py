"""Acceptance suite: one test per shipped guarantee at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` — the verbose listing gives
one pass/fail line per criterion, and each test prints the measured
figure behind its verdict (visible with -s or on failure).
"""

import math

import numpy as np

from lplab.bands import band_project, build_band_system, decompose, reconstruct
from lplab.cli import main as cli_main
from lplab.differences import iterated_difference
from lplab.fields import (
    GridSpec,
    SampledField,
    TestFunctionSpec,
    resolvable_band_range,
    sample_family,
)
from lplab.maximal import hardy_littlewood_max, peetre_max
from lplab.quasinorms import (
    SpaceParams,
    default_quadrature,
    maximal_quasinorm_set,
)
from lplab.verify import (
    band_limited_profile,
    default_corpus,
    directional_window,
    divergence_probe,
    equivalence_experiment,
    kernel_decay_probe,
    ppn_probe,
    scaling_experiment,
    slice_support_check,
)

from conftest import difference_coefficients

GRID_1D = GridSpec(1, 256, 1.0)
GRID_1D_BIG = GridSpec(1, 512, 1.0)
GRID_2D = GridSpec(2, 32, 1.0)
GRID_2D_BIG = GridSpec(2, 64, 1.0)

LIGHT_QUAD_2D = dict(sphere_nodes=8, tau_nodes_per_octave=4, tau_octaves=3)
EQUIV_QUAD_2D = dict(sphere_nodes=16, tau_nodes_per_octave=4, tau_octaves=3)

SIX_FUNCTIONS = (
    "gauss_narrow", "gauss_mid", "modulated_lo",
    "bump_wide", "band_mid", "lacunary",
)


def _note(num: int, name: str, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {detail}")


def _corpus_subset(grid: GridSpec, labels) -> list[SampledField]:
    by_label = {spec.function_id(): spec for spec in default_corpus(grid)}
    return [sample_family(by_label[label], grid) for label in labels]


def _band_limit(field: SampledField, ball: bool = False) -> SampledField:
    """Keep only content where the multiplier ladder sums exactly to one."""
    grid = field.grid
    j_lo, j_hi = resolvable_band_range(grid)
    rho = grid.frequency_radii()
    if ball:
        keep = rho <= 2.0 ** j_hi
    else:
        keep = (rho >= 2.0 ** j_lo) & (rho <= 2.0 ** j_hi)
    coeffs = np.where(keep, np.fft.fftn(field.data), 0.0)
    return SampledField(grid, np.fft.ifftn(coeffs))


def test_criterion_01_partition_of_unity():
    worst_band = 0.0
    worst_full = 0.0
    for grid in (GridSpec(1, 1024, 1.0), GridSpec(2, 128, 1.0)):
        system = build_band_system(grid)
        radii = grid.frequency_radii()
        total = sum(system.band_multiplier(j) for j in system.band_indices)
        covered = (radii >= 2.0 ** system.j_min) & (radii <= 2.0 ** system.j_max)
        worst_band = max(worst_band, float(np.max(np.abs(total[covered] - 1.0))))
        full = total + system.lowpass_multiplier()
        inside = radii <= 2.0 ** system.j_max
        worst_full = max(worst_full, float(np.max(np.abs(full[inside] - 1.0))))
    _note(1, "partition of unity",
          f"annulus dev {worst_band:.3e}, with lowpass {worst_full:.3e}")
    assert worst_band <= 1e-12
    assert worst_full <= 1e-12


def test_criterion_02_reconstruction():
    worst = 0.0
    for grid in (GRID_1D, GRID_2D_BIG):
        system = build_band_system(grid)
        for spec in default_corpus(grid):
            raw = sample_family(spec, grid)
            for homogeneous in (True, False):
                f = _band_limit(raw, ball=not homogeneous)
                back = reconstruct(decompose(f, system, homogeneous=homogeneous))
                sup = float(np.max(np.abs(f.data)))
                err = float(np.max(np.abs(back.data - f.data))) / sup
                worst = max(worst, err)
    _note(2, "reconstruction", f"worst relative sup error {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_03_difference_calculus():
    x = GRID_1D.axis_coordinates()
    worst_poly = 0.0
    for order, poly in ((1, np.ones_like(x)),
                        (2, 1.0 + 2.0 * x),
                        (3, 1.0 + 2.0 * x - 0.75 * x * x)):
        field = SampledField(GRID_1D, poly.astype(np.complex128))
        lattice = 3
        diff = iterated_difference(
            field, (lattice * GRID_1D.spacing,), order, "shift"
        ).data.real
        interior = np.arange(GRID_1D.n) + order * lattice <= GRID_1D.n - 1
        worst_poly = max(
            worst_poly,
            float(np.max(np.abs(diff[interior]))) / float(np.max(np.abs(poly))),
        )

    band = sample_family(
        TestFunctionSpec(family="random_band", band_index=4, seed=11), GRID_1D
    )
    worst_agree = 0.0
    for order in (1, 2, 3):
        a = iterated_difference(band, (2 * GRID_1D.spacing,), order, "shift").data
        b = iterated_difference(band, (2 * GRID_1D.spacing,), order, "spectral").data
        worst_agree = max(
            worst_agree,
            float(np.max(np.abs(a - b))) / float(np.max(np.abs(b))),
        )

    sums_exact = all(
        int(difference_coefficients(order).sum()) == 1 for order in range(1, 9)
    )
    worst_identity = 0.0
    for order in (1, 2, 3):
        weights = difference_coefficients(order)
        h = 2 * GRID_1D.spacing
        lhs = (-1.0) ** (order + 1) * iterated_difference(
            band, (h,), order, "shift"
        ).data
        rhs = -band.data.copy()
        for j, d in enumerate(weights, start=1):
            rhs = rhs + float(d) * np.roll(band.data, -2 * j)
        worst_identity = max(
            worst_identity,
            float(np.max(np.abs(lhs - rhs))) / float(np.max(np.abs(band.data))),
        )

    _note(3, "difference calculus",
          f"poly annihilation {worst_poly:.3e}, shift/spectral {worst_agree:.3e}, "
          f"weight sums exact {sums_exact}, rearrangement {worst_identity:.3e}")
    assert worst_poly <= 1e-12
    assert worst_agree <= 1e-10
    assert sums_exact
    assert worst_identity <= 1e-12


def test_criterion_04_multiplier_identity():
    grid = GridSpec(1, 64, 1.0)
    x = grid.axis_coordinates()
    rng = np.random.default_rng(2026)

    def refined(data: np.ndarray, h: float, order: int, factor: int) -> np.ndarray:
        nf = data.size * factor
        fine = np.fft.irfft(np.fft.rfft(data), n=nf) * factor
        xf = np.arange(nf) / nf
        out = np.zeros(data.size)
        for j in range(order + 1):
            w = (-1) ** (order - j) * math.comb(order, j)
            out = out + w * np.interp((x + j * h) % 1.0, xf, fine, period=1.0)
        return out

    worst_fine = 0.0
    worst_coarse = 0.0
    for trial in range(50):
        spectrum = np.zeros(64, dtype=np.complex128)
        live = rng.normal(size=17) + 1j * rng.normal(size=17)
        spectrum[:9] = live[:9]
        spectrum[-8:] = live[9:]
        data = np.fft.ifft(spectrum).real
        order = 1 + trial % 3
        h = (trial % 3 + rng.uniform(0.2, 0.8)) * grid.spacing
        exact = iterated_difference(
            SampledField(grid, data), (h,), order, "spectral"
        ).data.real
        scale = float(np.max(np.abs(exact)))
        worst_coarse = max(
            worst_coarse,
            float(np.max(np.abs(refined(data, h, order, 256) - exact))) / scale,
        )
        worst_fine = max(
            worst_fine,
            float(np.max(np.abs(refined(data, h, order, 1024) - exact))) / scale,
        )
    _note(4, "multiplier identity",
          f"refined error {worst_fine:.3e} (coarser level {worst_coarse:.3e})")
    assert worst_fine <= 1e-6
    assert worst_fine < worst_coarse  # the refinement is actually converging


def test_criterion_05_homogeneity():
    worst = 0.0
    runs = 0
    for characterization, scale in (
        ("lp", "F"), ("lp", "B"), ("diff", "F"), ("diff", "B"),
        ("axis", "F"), ("axis", "B"), ("gagliardo", "F"),
    ):
        params = SpaceParams(s=0.5, p=2, q=2, L=1, scale=scale)
        for field in _corpus_subset(GRID_1D, SIX_FUNCTIONS):
            rep = scaling_experiment(field, characterization, params, (-1, 0, 1))
            assert rep.tolerance == (0.03 if characterization == "lp" else 0.07)
            assert rep.passed, (characterization, scale, rep.max_deviation)
            worst = max(worst, rep.max_deviation)
            runs += 1
    quad = default_quadrature(GRID_2D, **LIGHT_QUAD_2D)
    params = SpaceParams(s=0.5, p=2, q=2, L=1, r=1.5)
    for characterization in ("max:S", "max:V", "max:D_SUP"):
        for field in _corpus_subset(GRID_2D, SIX_FUNCTIONS):
            rep = scaling_experiment(field, characterization, params, (-1, 0, 1), quad)
            assert rep.tolerance == 0.07
            assert rep.passed, (characterization, rep.max_deviation)
            worst = max(worst, rep.max_deviation)
            runs += 1
    _note(5, "homogeneity",
          f"{runs} dilation runs, worst exponent deviation {worst:.3e}")
    assert worst <= 0.07


def test_criterion_06_equivalence_windows():
    summaries = []
    line_params = SpaceParams(s=0.5, p=2, q=2, L=1)
    line_params_b = SpaceParams(s=0.5, p=2, q=2, L=1, scale="B")
    for pair, params, theorem in (
        (("lp", "diff"), line_params, "T2i"),
        (("lp", "axis"), line_params, "T6i"),
        (("lp", "diff"), line_params_b, "T8i"),
    ):
        rep = equivalence_experiment(
            default_corpus(GRID_1D_BIG), pair, params, GRID_1D_BIG, theorem
        )
        assert rep.verdict == "PASS", (theorem, rep.verdict, rep.spread)
        assert len(rep.per_function) == 12
        summaries.append(f"{theorem} spread {rep.spread:.3f}")

    quad = default_quadrature(GRID_2D_BIG, **EQUIV_QUAD_2D)
    plane_params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
    for pair, theorem in ((("lp", "max:V"), "T4"), (("lp", "max:S"), "T5")):
        rep = equivalence_experiment(
            default_corpus(GRID_2D_BIG), pair, plane_params, GRID_2D_BIG,
            theorem, quad,
        )
        assert rep.verdict == "PASS", (theorem, rep.verdict, rep.spread)
        assert rep.spread <= 50.0
        assert rep.dilation_drift <= 0.05
        summaries.append(f"{theorem} spread {rep.spread:.3f}")

    control = equivalence_experiment(
        default_corpus(GRID_2D_BIG)[:3], ("lp", "max:V"),
        SpaceParams(s=0.5, p=2, q=2, L=2, r=1.5), GRID_2D_BIG, "T4", quad,
    )
    assert control.verdict == "NO-VERDICT"
    assert not control.hypothesis.satisfied
    summaries.append("T4 control at s=0.5 NO-VERDICT")
    _note(6, "equivalence windows", "; ".join(summaries))


def test_criterion_07_divergence_growth():
    field = sample_family(
        TestFunctionSpec(family="gaussian", width=1.0 / 16.0), GRID_1D
    )
    params = SpaceParams(s=2.0, p=2, q=2, L=1)
    rep = divergence_probe(field, params, refinement_levels=4)
    _note(7, "divergence growth",
          f"classification {rep.classification}, growth factors "
          + ", ".join(f"{g:.4f}" for g in rep.growth_factors))
    assert rep.classification == "DIVERGENT"
    assert len(rep.growth_factors) == 4
    assert all(1.4 <= g <= 2.8 for g in rep.growth_factors)


def test_criterion_08_band_limited_derivative_ratios():
    grid = GRID_1D_BIG
    u = band_limited_profile(grid, 8.0)
    t_list = (8.0, 16.0, 32.0)
    worst = 0.0
    for alpha in (0, 1, 2):
        for p, q in ((2.0, 2.0), (1.0, 2.0), (2.0, math.inf)):
            rep = ppn_probe(u, alpha, p, q, t_list)
            assert rep.passed, (alpha, p, q, rep.max_over_min)
            worst = max(worst, rep.max_over_min)
            if alpha == 0 and p == q:
                assert max(abs(r - 1.0) for r in rep.ratios) <= 1e-12
    _note(8, "band-limited derivative ratios",
          f"9 exponent combinations, worst max/min {worst:.6f}")
    assert worst <= 1.5


def test_criterion_09_kernel_decay():
    grid = GridSpec(2, 512, 64.0)
    details = []
    for target, order in ((4, 1), (8, 2)):
        slopes = []
        amplitudes = []
        for k in range(8):
            angle = math.pi * k / 8.0
            theta = (math.cos(angle), math.sin(angle))
            rep = kernel_decay_probe(
                directional_window(theta, smoothness=target), order, target,
                (1.0, 1.5, 2.0), theta, grid,
            )
            assert rep.passed, (target, theta, rep.slopes)
            slopes.extend(rep.slopes)
            amplitudes.extend(rep.amplitudes)
        spread = max(amplitudes) / min(amplitudes)
        limit = -(target - 0.5)
        assert max(slopes) <= limit
        assert spread <= 2.0
        details.append(
            f"N={target}: slopes in [{min(slopes):.2f}, {max(slopes):.2f}] "
            f"(limit {limit}), amplitude spread {spread:.3f}"
        )
    _note(9, "kernel decay", "; ".join(details))


def test_criterion_10_slice_support():
    grid = GRID_2D_BIG
    system = build_band_system(grid)
    j = (system.j_min + system.j_max) // 2
    band = band_project(
        sample_family(
            TestFunctionSpec(family="random_band", band_index=j, seed=5), grid
        ),
        system, j,
    )
    clean = slice_support_check(band, system, j, axis=1)
    x = grid.axis_coordinates()
    rogue = band.data + 1e-2 * np.exp(2j * np.pi * (grid.n // 2) * x)[:, None]
    corrupt = slice_support_check(SampledField(grid, rogue), system, j, axis=1)
    _note(10, "slice support",
          f"clean violation {clean.max_violation:.3e}, "
          f"injected mode violation {corrupt.max_violation:.3e} detected")
    assert clean.passed
    assert clean.max_violation <= 1e-12
    assert not corrupt.passed
    assert corrupt.max_violation > 1e-6


def test_criterion_11_maximal_order_relations():
    quad = default_quadrature(GRID_2D, **LIGHT_QUAD_2D)
    params = SpaceParams(s=0.5, p=2, q=2, L=1, r=1.5)
    worst_s = 0.0
    worst_v = 0.0
    for spec in default_corpus(GRID_2D):
        field = sample_family(spec, GRID_2D)
        mag = np.abs(field.data)
        assert np.all(peetre_max(field, 8.0, 1.5).data.real >= mag)
        assert np.all(hardy_littlewood_max(field).data.real >= mag)
        res = maximal_quasinorm_set(field, params, ("S", "S_SUP", "V", "D_SUP"), quad)
        assert res["S"].value <= res["S_SUP"].value, spec.function_id()
        assert res["V"].value <= res["D_SUP"].value, spec.function_id()
        worst_s = max(worst_s, res["S"].value / res["S_SUP"].value)
        worst_v = max(worst_v, res["V"].value / res["D_SUP"].value)
    _note(11, "maximal order relations",
          f"12 corpus members; S/S_SUP <= {worst_s:.3f}, V/D_SUP <= {worst_v:.3f}")
    assert worst_s <= 1.0
    assert worst_v <= 1.0


def test_criterion_12_determinism(tmp_path):
    argv_sets = (
        ["verify", "equivalence", "--grid-dim", "1", "--grid-n", "256",
         "--pair", "lp,diff", "--theorem", "T2i", "--s", "0.5"],
        ["norm", "--grid-dim", "1", "--grid-n", "256",
         "--function", "band_mid", "--s", "0.5"],
        ["verify", "ppn", "--grid-dim", "1", "--grid-n", "512", "--alpha", "1"],
    )
    digests = []
    for run in ("first", "second"):
        out = tmp_path / run
        for argv in argv_sets:
            assert cli_main(argv + ["--out", str(out)]) == 0
        blobs = {
            path.name: path.read_bytes()
            for path in sorted(out.iterdir())
            if path.suffix in (".csv", ".json")
        }
        digests.append(blobs)
    assert digests[0].keys() == digests[1].keys()
    mismatched = [k for k in digests[0] if digests[0][k] != digests[1][k]]
    _note(12, "determinism",
          f"{len(digests[0])} artifacts byte-compared, {len(mismatched)} mismatches")
    assert not mismatched
