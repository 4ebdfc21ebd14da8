"""Tests for maximal fields against brute-force oracles and frozen values."""

import numpy as np
import pytest

from lplab.bands import band_project, build_band_system
from lplab.differences import StepEngine, iterated_difference
from lplab.errors import (
    DimensionTooLow,
    InvalidExponent,
    QuadratureTooCoarse,
    ShapeMismatch,
)
from lplab import maximal
from lplab.fields import GridSpec, SampledField, sample_family
from lplab.maximal import (
    Scale,
    annulus_mean_max,
    annulus_radii,
    hardy_littlewood_max,
    peetre_max,
    sphere_mean_max,
    unit_sphere_nodes,
    weighted_offset_sup,
)
from lplab import quasinorms
from lplab.quasinorms import (
    MAXIMAL_VARIANTS,
    SpaceParams,
    default_quadrature,
    maximal_quasinorm_set,
)
from lplab.verify import default_corpus, equivalence_experiment

from conftest import (
    annulus_nodes,
    mean_magnitude,
    random_complex_field,
    step_magnitude,
    traced_peak,
)


def brute_weighted_sup(mag, grid, scale, exponent):
    """Literal max over all offsets via rolls.

    The weights are one array power, as in the code under test: a scalar
    ** per offset can differ from it in the last bit (168 offsets of the
    3-D n=16, scale 3, exponent 1.5 grid), and the sup must be the max
    over the same float products.
    """
    out = np.zeros(grid.shape)
    weights = (1.0 + scale * grid.minimal_image_radii()) ** (-exponent)
    for z in np.ndindex(*grid.shape):
        shifted = np.roll(mag, shift=z, axis=tuple(range(grid.dim)))
        np.maximum(out, weights[z] * shifted, out=out)
    return out


def brute_hl(mag, grid):
    """Literal dyadic-ladder ball means."""
    radii = grid.minimal_image_radii()
    out = mag.copy()
    delta = grid.spacing
    while delta <= grid.box / 2 + 1e-12 * grid.box:
        ball = radii <= delta + 1e-12 * grid.box
        idx = np.argwhere(ball)
        means = np.zeros(grid.shape)
        for x in np.ndindex(*grid.shape):
            acc = 0.0
            for z in idx:
                acc += mag[tuple((np.array(x) - z) % grid.n)]
            means[x] = acc / len(idx)
        np.maximum(out, means, out=out)
        delta *= 2
    return out


@pytest.fixture
def block_pairs(monkeypatch):
    """A one-item list that sums the block pairs every scan evaluates."""
    counted = [0]
    add = maximal._BlockScan.add

    def counting(self, *args):
        pairs = add(self, *args)
        counted[0] += pairs
        return pairs

    monkeypatch.setattr(maximal._BlockScan, "add", counting)
    return counted


class TestWeightedSup:
    def test_matches_brute_force_1d(self):
        grid = GridSpec(1, 32, 1.0)
        rng = np.random.default_rng(7)
        mag = np.abs(rng.standard_normal(grid.shape))
        fast = weighted_offset_sup(mag, grid, 3.0, 1.5)
        assert np.array_equal(fast, brute_weighted_sup(mag, grid, 3.0, 1.5))

    def test_matches_brute_force_2d(self):
        grid = GridSpec(2, 8, 2.0)
        rng = np.random.default_rng(8)
        mag = np.abs(rng.standard_normal(grid.shape))
        fast = weighted_offset_sup(mag, grid, 1.0, 2.0)
        assert np.array_equal(fast, brute_weighted_sup(mag, grid, 1.0, 2.0))

    def test_early_exit_path_is_exact(self):
        # Steep weights end the block scan after the first few offsets;
        # the result must still agree with the literal sup.
        grid = GridSpec(2, 64, 1.0)
        rng = np.random.default_rng(9)
        mag = np.abs(rng.standard_normal(grid.shape)) + 0.5
        fast = weighted_offset_sup(mag, grid, 10.0, 40.0)
        assert np.array_equal(fast, brute_weighted_sup(mag, grid, 10.0, 40.0))

    @pytest.mark.parametrize(
        "dim, n, box, scale, exponent, density",
        [
            (3, 8, 1.0, 3.0, 1.5, 1.0),
            (3, 16, 1.0, 3.0, 1.5, 1.0),
            (1, 2, 1.0, 3.0, 1.5, 1.0),  # grids smaller than one block
            (2, 4, 1.0, 2.0, 1.0, 1.0),
            (2, 16, 1.0, 0.0, 2.0, 1.0),  # every weight is 1
            (2, 16, 1.0, 5.0, 0.0, 1.0),
            (2, 32, 3.0, 2.0, 1.0, 1.0),
            (3, 8, 2.5, 1.0, 3.0, 1.0),
            (2, 32, 1.0, 4.0, 2.0, 0.05),  # mostly zero: many equal bounds
        ],
    )
    def test_matches_array_oracle(self, dim, n, box, scale, exponent, density):
        grid = GridSpec(dim, n, box)
        rng = np.random.default_rng(dim * 1000 + n)
        mag = np.abs(rng.standard_normal(grid.shape)) * (rng.random(grid.shape) < density)
        fast = weighted_offset_sup(mag, grid, scale, exponent)
        assert np.array_equal(fast, brute_weighted_sup(mag, grid, scale, exponent))

    @pytest.mark.parametrize(
        "dim, n, stack",
        [
            (1, 256, 37),  # scans of 32 fields: one full, one of 5
            (2, 32, 11),  # scans of 8 fields
            (2, 64, 3),  # scans of 2 fields
            (3, 8, 19),  # scans of 16 fields
            (3, 16, 3),  # scans of 2 fields
        ],
    )
    def test_stack_matches_single_scans_and_oracle(self, dim, n, stack):
        # mixed scales, including 0 (every weight 1) and 1e9 (all but the
        # zero offset vanish), on fields of mixed sparsity
        grid = GridSpec(dim, n, 1.0)
        rng = np.random.default_rng(dim * 100 + stack)
        scales = np.resize([0.0, 1e9, 3.0, 0.5, 40.0, 1.0], stack)
        density = np.resize([1.0, 0.05, 1.0], stack).reshape((stack,) + (1,) * dim)
        mags = np.abs(rng.standard_normal((stack,) + grid.shape)) * (
            rng.random((stack,) + grid.shape) < density)
        out = weighted_offset_sup(mags, grid, scales, 1.5)
        assert out.shape == mags.shape
        for mag, scale, row in zip(mags, scales, out):
            assert np.array_equal(row, weighted_offset_sup(mag, grid, scale, 1.5))
            assert np.array_equal(row, brute_weighted_sup(mag, grid, scale, 1.5))

    def test_one_item_budget_is_exact(self, monkeypatch):
        # a one-byte budget scans one field at a time and evaluates one
        # block pair per product
        grid = GridSpec(2, 16, 1.0)
        mags = np.abs(np.random.default_rng(9).standard_normal((3,) + grid.shape))
        scales = np.array([0.0, 3.0, 40.0])
        want = weighted_offset_sup(mags, grid, scales, 1.5)
        monkeypatch.setattr("lplab.fields.WORK_BYTES", 1)
        assert np.array_equal(weighted_offset_sup(mags, grid, scales, 1.5), want)

    def test_stack_shapes_checked(self):
        grid = GridSpec(2, 8, 1.0)
        with pytest.raises(ShapeMismatch):
            weighted_offset_sup(np.zeros((3, 8, 8)), grid, [1.0, 2.0], 1.0)
        with pytest.raises(InvalidExponent):
            weighted_offset_sup(np.zeros((2, 8, 8)), grid, [1.0, -2.0], 1.0)
        assert weighted_offset_sup(np.zeros((0, 8, 8)), grid, [], 1.0).shape == (0, 8, 8)

    @pytest.mark.parametrize("dim, n, members, per_ladder", [
        pytest.param(2, 32, tuple(range(12)), 2, id="32-members0"),
        pytest.param(2, 64, (1, 4, 7, 10), 3, id="64-members1"),
        # rings of up to 12 offsets, in batches of 4
        pytest.param(3, 16, (7, 8, 9, 11), 1, id="3d-16-members2"),
    ])
    def test_corpus_scale_ladders_match_array_oracle(self, monkeypatch, dim, n, members,
                                                     per_ladder):
        # every sup of the S and V ladders on corpus members, as the
        # pipeline feeds the sphere and shell mean fields of a (here
        # one-field) stack into one scan per family
        grid = GridSpec(dim, n, 1.0)
        fed, maxima = [], {}
        feed, finish = maximal._BlockScan.feed, maximal._BlockScan.maxima

        def recording_feed(scan, u, scale, piece):
            fed.append((scan, u.copy(), scale, piece))
            feed(scan, u, scale, piece)

        def recording_maxima(scan):
            maxima[scan] = out = finish(scan)
            return out

        monkeypatch.setattr(maximal._BlockScan, "feed", recording_feed)
        monkeypatch.setattr(maximal._BlockScan, "maxima", recording_maxima)
        corpus = default_corpus(grid)
        for i in members:
            field = sample_family(corpus[i], grid)
            maximal_quasinorm_set(field, SpaceParams(s=0.5, p=2.0, q=2.0), ("S", "V"),
                                  default_quadrature(grid))
        assert len(fed) == len(members) * 2 * per_ladder
        for scan, u, scale, piece in fed:
            assert [p for other, _, _, p in fed if other is scan].count(piece) == 1  # S, V
            assert np.array_equal(maxima[scan][0, piece],
                                  brute_weighted_sup(u[0], grid, scale, scan.exponent))

    def test_pruned_scan_counts_block_pairs(self, block_pairs):
        # The field decays away from the origin, so the sup stays small
        # there and the scan cannot end early on the global minimum: only
        # the per-block bounds keep the count low (about 8 % of the NB^2
        # pairs; a scan without them evaluates over 99 %).  Stacked with
        # itself, the field meets the same pairs once per copy.
        grid = GridSpec(2, 64, 1.0)
        rng = np.random.default_rng(64)
        envelope = np.exp(-((grid.minimal_image_radii() / 0.2) ** 2))
        mag = np.abs(rng.standard_normal(grid.shape)) * envelope

        def sup_and_pairs(mags, scales):
            block_pairs[0] = 0
            return weighted_offset_sup(mags, grid, scales, 2.0), block_pairs[0]

        out, pairs = sup_and_pairs(mag[None], np.array([8.0]))
        again, pairs_again = sup_and_pairs(mag[None], np.array([8.0]))
        assert pairs == pairs_again
        assert np.array_equal(out, again)
        assert 0 < pairs < (64 // 4) ** 4 / 4
        twice, pairs_twice = sup_and_pairs(np.stack([mag, mag]), np.array([8.0, 8.0]))
        assert pairs_twice == 2 * pairs
        assert np.array_equal(twice, np.concatenate([out, out]))

    @pytest.mark.parametrize(
        "dim, n, sizes, work_bytes",
        [
            # scans of 8 fields: pieces span up to 3
            pytest.param(2, 32, (3, 11, 1, 9, 1), None, id="2-32-sizes0"),
            pytest.param(2, 64, (5, 1, 4), None, id="2-64-sizes1"),  # scans of 2 fields
            pytest.param(3, 8, (1, 20, 19, 1), None, id="3-8-sizes2"),  # scans of 16 fields
            # scans of 32 fields, one piece
            pytest.param(1, 256, (40,), None, id="1-256-sizes3"),
            # scans of 1 field, rings in batches of 2 offsets, chunks of 2 pairs
            pytest.param(2, 32, (3, 11, 1, 9, 1), 4096, id="2-32-sizes0-budget4096"),
            # scans of 4 fields, rings in batches of 2 offsets, chunks of 8
            # pairs: pairs of one piece's fields share rows within a chunk
            # and across chunks
            pytest.param(2, 16, (3, 6, 1, 2), 16384, id="2-16-sizes5-budget16384"),
        ],
    )
    def test_pieces_match_member_oracle(self, monkeypatch, dim, n, sizes, work_bytes):
        # each piece is the max of its members' sups, bit for bit, also when
        # its maxima carry over from one scan stack to the next; the pieces
        # are fed last first, as the mean walk feeds them, so a stack's
        # piece rows may descend
        if work_bytes is not None:
            monkeypatch.setattr("lplab.fields.WORK_BYTES", work_bytes)
        grid = GridSpec(dim, n, 1.0)
        rng = np.random.default_rng(dim * 10 + n)
        total = sum(sizes)
        scales = np.resize([0.5, 3.0, 40.0, 1.0, 0.0, 8.0], total)
        density = np.resize([1.0, 1.0, 0.05], total).reshape((total,) + (1,) * dim)
        mags = np.abs(rng.standard_normal((total,) + grid.shape)) * (
            rng.random((total,) + grid.shape) < density)
        labels = np.repeat(np.arange(len(sizes)), sizes)
        scan = maximal._BlockScan(grid, 1.5, len(sizes))
        for p in reversed(range(len(sizes))):
            for i in np.flatnonzero(labels == p):
                scan.feed(mags[i], scales[i], p)
        out = scan.maxima()
        assert out.shape == (len(sizes),) + grid.shape
        rows = weighted_offset_sup(mags, grid, scales, 1.5)
        for p, row in enumerate(out):
            members = np.flatnonzero(labels == p)
            assert np.array_equal(row, rows[members].max(axis=0))
            oracle = np.zeros(grid.shape)
            for i in members:
                np.maximum(oracle, brute_weighted_sup(mags[i], grid, scales[i], 1.5), out=oracle)
            assert np.array_equal(row, oracle)

    def test_stacked_scan_traced_peak(self):
        # one stacked call at 3-D n=16: scans of 2 fields, rings of up to 12
        # offsets in batches of 2.  The bound is the 0.96 MB a scan with one
        # step per offset traced, plus 15 %; ring by ring traces 0.88 MB, and
        # a ring held in one batch 2.4 MB
        grid = GridSpec(3, 16, 1.0)
        mags = np.abs(np.random.default_rng(316).standard_normal((6,) + grid.shape))
        scales = np.array([0.5, 3.0, 40.0, 1.0, 0.0, 8.0])
        weighted_offset_sup(mags, grid, scales, 1.5)  # lazily loaded modules
        assert traced_peak(lambda: weighted_offset_sup(mags, grid, scales, 1.5)) <= 1.1 * 2**20

    @pytest.mark.parametrize("labels", [[0, 1, 0], [1, 1, 1], [-1, 0, 0], [0, 2, 2], [0, 0]])
    def test_pieces_must_be_consecutive_runs(self, labels):
        # the mean walk holds a finished field until its piece is complete,
        # so a piece is a run of consecutive scales of one family
        grid = GridSpec(2, 8, 1.0)
        f = random_complex_field(grid, seed=27)
        with pytest.raises(ShapeMismatch):
            annulus_mean_max(f, [0.3, 0.2, 0.1], 1.0, 1, 8, pieces=(labels, []))
        with pytest.raises(ShapeMismatch):
            annulus_mean_max(f, [], 1.0, 1, 8, spheres=[0.3, 0.2, 0.1], pieces=([], labels))

    def test_five_variant_pieces_halve_block_pairs(self, monkeypatch, block_pairs):
        # the band pieces of the 2-D n=32 five-variant call change no value
        # and evaluate under half the block pairs of one output per scale;
        # the pieced count is pinned
        grid = GridSpec(2, 32)
        f = sample_family(default_corpus(grid)[0], grid)
        params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
        pieced = maximal_quasinorm_set(f, params, MAXIMAL_VARIANTS, default_quadrature(grid))
        pieced_pairs, block_pairs[0] = block_pairs[0], 0
        assert pieced_pairs == 50578
        # a group of its own for every scale: one output per scale
        band_pieces = quasinorms._band_pieces
        monkeypatch.setattr(quasinorms, "_band_pieces", lambda keys, group, bands: band_pieces(
            keys, lambda key: (group(key)[0], group(key)[1] | {("scale", key)}), bands))
        single = maximal_quasinorm_set(f, params, MAXIMAL_VARIANTS, default_quadrature(grid))
        assert 0 < 2 * pieced_pairs <= block_pairs[0]
        for variant in MAXIMAL_VARIANTS:
            assert pieced[variant].value == single[variant].value

    def test_corpus_stack_block_pairs_pinned(self, block_pairs):
        # the pruned scan's work on the lp,max:V experiment at 2-D n=32: the
        # default corpus as one stack, on both grids
        grid = GridSpec(2, 32)
        params = SpaceParams(s=1.5, p=2, q=2, L=2, r=1.5)
        equivalence_experiment(default_corpus(grid), ("lp", "max:V"), params, grid, "T4")
        assert block_pairs[0] == 35346

    def test_zero_field_gives_zero(self):
        grid = GridSpec(1, 64, 1.0)
        out = weighted_offset_sup(np.zeros(grid.shape), grid, 2.0, 1.0)
        assert np.array_equal(out, np.zeros(grid.shape))

    def test_zero_scale_gives_global_max(self):
        grid = GridSpec(1, 64, 1.0)
        rng = np.random.default_rng(10)
        mag = np.abs(rng.standard_normal(grid.shape))
        out = weighted_offset_sup(mag, grid, 0.0, 3.0)
        assert np.allclose(out, mag.max())

    def test_translation_equivariance(self):
        grid = GridSpec(1, 64, 1.0)
        rng = np.random.default_rng(11)
        mag = np.abs(rng.standard_normal(grid.shape))
        rolled = weighted_offset_sup(np.roll(mag, 5), grid, 4.0, 1.0)
        assert np.array_equal(rolled, np.roll(weighted_offset_sup(mag, grid, 4.0, 1.0), 5))

    def test_translation_equivariance_2d(self):
        # the shift is not a multiple of the block edge, so every point
        # lands at another position inside its block
        grid = GridSpec(2, 32, 1.0)
        rng = np.random.default_rng(12)
        mag = np.abs(rng.standard_normal(grid.shape))
        shift, axes = (5, 3), (0, 1)
        rolled = weighted_offset_sup(np.roll(mag, shift, axis=axes), grid, 4.0, 1.0)
        expected = np.roll(weighted_offset_sup(mag, grid, 4.0, 1.0), shift, axis=axes)
        assert np.array_equal(rolled, expected)

    def test_shape_mismatch_rejected(self):
        grid = GridSpec(1, 64, 1.0)
        with pytest.raises(ShapeMismatch):
            weighted_offset_sup(np.zeros(32), grid, 1.0, 1.0)

    def test_negative_exponent_rejected(self):
        grid = GridSpec(1, 64, 1.0)
        with pytest.raises(InvalidExponent):
            weighted_offset_sup(np.zeros(grid.shape), grid, 1.0, -1.0)


def reflect(u, axes):
    """u(-x) on the lattice, x -> -x mod n along each of axes."""
    return np.roll(np.flip(u, axes), (1,) * len(axes), axes)


# moves of 3-D fields, also with leading stack axes: a shift that is not a
# multiple of the block edge (4) moves every block boundary, and so does
# the reflection
MOVES_3D = {"shift": lambda u: np.roll(u, (1, 2, 3), axis=(-3, -2, -1)),
            "reflect": lambda u: reflect(u, (-3,))}


class TestSymmetry:
    """A lattice translation or reflection maps every weighted product of
    the supremum to the same float, so the pruned scan commutes with it
    bit for bit, on grids the array oracle cannot reach; the quasinorm
    values are invariant to rounding."""

    @staticmethod
    def fields_3d(grid):
        """White noise, where near pairs decide, and a noisy bump, whose far
        points take their sup from the bump across the farthest ring."""
        rng = np.random.default_rng(332)
        noise = np.abs(rng.standard_normal((2,) + grid.shape))
        envelope = np.exp(-(grid.minimal_image_radii((0.3, 0.6, 0.2)) / 0.1) ** 2)
        return np.stack([noise[0], noise[1] * (0.05 + envelope)])

    @pytest.mark.parametrize("move", MOVES_3D)
    def test_sup_commutes_3d(self, move):
        grid = GridSpec(3, 32, 1.0)
        mags, scales = self.fields_3d(grid), np.array([3.0, 0.5])
        moved = MOVES_3D[move]
        assert np.array_equal(weighted_offset_sup(moved(mags), grid, scales, 1.5),
                              moved(weighted_offset_sup(mags, grid, scales, 1.5)))

    @pytest.mark.parametrize("move", MOVES_3D)
    def test_streamed_pieces_commute_3d(self, monkeypatch, move):
        # scan stacks of 2 fields; the pieces are fed last first, as the
        # mean walk feeds them, so a stack's piece rows descend
        monkeypatch.setattr("lplab.fields.WORK_BYTES", 2**20)
        grid = GridSpec(3, 32, 1.0)
        noise, bump = self.fields_3d(grid)
        mags, scales = np.stack([noise, bump, np.roll(noise, 16, axis=0)]), [3.0, 0.5, 8.0]

        def pieces(fields):
            scan = maximal._BlockScan(grid, 1.5, 3)
            for i, piece in ((2, 2), (0, 1), (1, 0)):
                scan.feed(fields[i], scales[i], piece)
            return scan.maxima()

        moved = MOVES_3D[move]
        assert np.array_equal(pieces(moved(mags)), moved(pieces(mags)))

    def test_maximal_values_invariant_2d(self):
        # the 32 uniform sphere nodes are invariant under the 8 symmetries of
        # the square, so all five variants are, and under a translation.
        # The field is white noise without its Nyquist lines: an off-lattice
        # step takes the Nyquist frequency as -n/2 alone, which a reflection
        # of one axis does not keep, and moves D_SUP of the full noise by 4e-4
        grid = GridSpec(2, 64)
        spectrum = np.fft.fftn(np.random.default_rng(64).standard_normal(grid.shape))
        spectrum[grid.n // 2] = spectrum[:, grid.n // 2] = 0.0
        data = np.fft.ifftn(spectrum).real
        moved = [reflect(u, axes) for u in (data, data.T)
                 for axes in ((), (0,), (1,), (0, 1))] + [np.roll(data, (5, 3), axis=(0, 1))]
        results = maximal_quasinorm_set([SampledField(grid, np.ascontiguousarray(u)) for u in moved],
                                        SpaceParams(s=0.5, p=2, q=2, L=2, r=1.5),
                                        MAXIMAL_VARIANTS, default_quadrature(grid))
        for result in results[1:]:
            for variant in MAXIMAL_VARIANTS:
                assert result[variant].value == pytest.approx(results[0][variant].value,
                                                              rel=1e-12, abs=0)


class TestPeetre:
    def test_dominates_field_pointwise(self, grid1d):
        f = random_complex_field(grid1d, seed=3)
        p = peetre_max(f, 8.0, 2.0).data.real
        assert np.all(p >= np.abs(f.data))

    def test_bounded_by_global_max(self, grid1d):
        f = random_complex_field(grid1d, seed=4)
        p = peetre_max(f, 8.0, 2.0).data.real
        assert p.max() <= np.abs(f.data).max() * (1 + 1e-12)

    def test_huge_scale_collapses_to_magnitude(self, grid1d):
        f = random_complex_field(grid1d, seed=5)
        p = peetre_max(f, 1e9, 1.0).data.real
        mag = np.abs(f.data)
        assert np.allclose(p, mag, atol=mag.max() * 1e-5)

    def test_chain_inequality(self):
        # The weighted sup of u obeys g(x) <= (1 + t|y|)^(1/r) g(x - y)
        # for every offset y; frozen from the oracle run.
        grid = GridSpec(1, 64, 1.0)
        rng = np.random.default_rng(5)
        u = np.abs(rng.standard_normal(grid.shape))
        t, r = 4.0, 1.5
        p = weighted_offset_sup(u, grid, t, 1.0 / r)
        radii = grid.minimal_image_radii()
        worst = 0.0
        for z in np.ndindex(*grid.shape):
            w = (1.0 + t * radii[z]) ** (1.0 / r)
            worst = max(worst, float((p / (w * np.roll(p, z[0]))).max()))
        assert worst <= 1.0 + 1e-9

    def test_invalid_parameters_rejected(self, grid1d):
        f = random_complex_field(grid1d)
        with pytest.raises(InvalidExponent):
            peetre_max(f, 0.0, 1.0)
        with pytest.raises(InvalidExponent):
            peetre_max(f, 1.0, -2.0)


class TestHardyLittlewood:
    def test_matches_brute_force(self):
        grid = GridSpec(1, 32, 1.0)
        rng = np.random.default_rng(7)
        mag = np.abs(rng.standard_normal(grid.shape))
        fast = hardy_littlewood_max(SampledField(grid, mag.astype(complex))).data.real
        assert np.abs(fast - brute_hl(mag, grid)).max() <= 1e-12

    def test_half_indicator_plateau(self):
        # Indicator of [0, 1/2) on the unit circle: at x = 3/4 the only
        # ball meeting the support is the global one, mean exactly 1/2.
        grid = GridSpec(1, 256, 1.0)
        x = grid.axis_coordinates()
        ind = (x < 0.5).astype(complex)
        m = hardy_littlewood_max(SampledField(grid, ind)).data.real
        assert abs(m[192] - 0.5) <= 1e-10

    def test_dominates_field_pointwise(self, grid1d):
        f = random_complex_field(grid1d, seed=12)
        m = hardy_littlewood_max(f).data.real
        assert np.all(m >= np.abs(f.data))

    def test_constant_field_fixed(self, grid2d):
        f = SampledField(grid2d, np.full(grid2d.shape, 2.5, dtype=complex))
        m = hardy_littlewood_max(f).data.real
        assert np.allclose(m, 2.5, atol=1e-12)

    def test_translation_equivariance(self, grid1d):
        f = random_complex_field(grid1d, seed=13)
        rolled = SampledField(grid1d, np.roll(f.data, 17))
        m_rolled = hardy_littlewood_max(rolled).data.real
        m = hardy_littlewood_max(f).data.real
        assert np.allclose(m_rolled, np.roll(m, 17), atol=1e-12)


class TestDomination:
    def test_peetre_below_ball_mean_power_1d(self):
        # For a field with spectrum inside |xi| <= t the weighted sup is
        # controlled by the ball-mean maximal field of |u|^r; the constant
        # 2.0 is frozen from the oracle run (worst observed 1.80).
        grid = GridSpec(1, 256, 1.0)
        system = build_band_system(grid)
        worst = 0.0
        for seed, (r, j) in enumerate([(1.0, 3), (1.5, 4), (2.0, 5), (1.0, 6)]):
            rng = np.random.default_rng(100 + seed)
            raw = SampledField(grid, rng.standard_normal(grid.shape).astype(complex))
            u = band_project(raw, system, j)
            for t in (2.0**j, 2.0 ** (j + 1)):
                p = peetre_max(u, t, r).data.real
                hl = hardy_littlewood_max(
                    SampledField(grid, (np.abs(u.data) ** r).astype(complex))
                ).data.real
                worst = max(worst, float((p / hl ** (1.0 / r)).max()))
        assert worst <= 2.0

    def test_peetre_below_ball_mean_power_2d(self):
        # Same control in two dimensions; 2.3 frozen from the oracle run
        # (worst observed 2.14).
        grid = GridSpec(2, 32, 1.0)
        system = build_band_system(grid)
        worst = 0.0
        for seed, (r, j) in enumerate([(1.0, 2), (2.0, 3)]):
            rng = np.random.default_rng(200 + seed)
            raw = SampledField(grid, rng.standard_normal(grid.shape).astype(complex))
            u = band_project(raw, system, j)
            for t in (2.0**j, 2.0 ** (j + 1)):
                p = peetre_max(u, t, r).data.real
                hl = hardy_littlewood_max(
                    SampledField(grid, (np.abs(u.data) ** r).astype(complex))
                ).data.real
                worst = max(worst, float((p / hl ** (1.0 / r)).max()))
        assert worst <= 2.3


class TestNodes:
    def test_one_dimensional_sphere_is_two_points(self):
        nodes = unit_sphere_nodes(1, 8)
        assert np.array_equal(nodes, np.array([[1.0], [-1.0]]))

    def test_circle_nodes_unit_norm(self):
        nodes = unit_sphere_nodes(2, 64)
        assert nodes.shape == (64, 2)
        assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-14)
        assert np.allclose(nodes[0], [1.0, 0.0])

    def test_sphere_nodes_unit_norm(self):
        nodes = unit_sphere_nodes(3, 256)
        assert nodes.shape == (256, 3)
        assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-12)
        # spiral spreads evenly: centroid stays near the origin
        assert np.linalg.norm(nodes.mean(axis=0)) < 0.02

    def test_too_few_nodes_rejected(self):
        with pytest.raises(QuadratureTooCoarse):
            unit_sphere_nodes(2, 3)
        with pytest.raises(QuadratureTooCoarse):
            annulus_nodes(2, 3)

    def test_annulus_nodes_cover_shell(self):
        points, weights = annulus_nodes(2, 4)
        assert points.shape == (32, 2)
        assert abs(weights.sum() - 1.0) <= 1e-12
        radii = np.linalg.norm(points, axis=1)
        assert radii.min() >= 1.0 and radii.max() < 2.0
        assert np.allclose(np.unique(np.round(radii, 12)), np.round(annulus_radii(), 12))
        assert annulus_radii().size == 8

    def test_annulus_weights_favor_outer_shells(self):
        _, weights = annulus_nodes(2, 4)
        per_radius = weights.reshape(8, 4).sum(axis=1)
        assert np.all(np.diff(per_radius) > 0)


def point_sup(field, step, r, order):
    """Weighted sup of one fixed-step difference, weight (1 + |y|/|h|)^(-dim/r)."""
    grid = field.grid
    mag = step_magnitude(StepEngine(field), step, order)
    return weighted_offset_sup(mag, grid, 1.0 / np.linalg.norm(step), grid.dim / r)


class TestMeanDifferenceMax:
    def test_sphere_mean_needs_two_dimensions(self, grid1d):
        f = random_complex_field(grid1d)
        with pytest.raises(DimensionTooLow):
            sphere_mean_max(f, [0.1], 2.0, 1, 8)

    def test_constants_are_annihilated(self, grid2d):
        f = SampledField(grid2d, np.full(grid2d.shape, 3.0, dtype=complex))
        for out in (
            sphere_mean_max(f, [0.1], 2.0, 1, sphere_count=8),
            annulus_mean_max(f, [0.1], 2.0, 1, sphere_count=8)[0],
        ):
            assert np.abs(out).max() <= 1e-12
        assert point_sup(f, (0.1, 0.0), 2.0, 1).max() <= 1e-12

    def test_ladders_match_single_scales(self, grid2d):
        # one stacked scan per ladder against one scan per scale
        f = random_complex_field(grid2d, seed=24)
        ladder = [0.3, 0.07, 0.011, 0.05]
        engine = StepEngine(f)
        spheres = sphere_mean_max(f, ladder, 1.5, 2, 8, engine=engine)
        shells = annulus_mean_max(f, ladder, 1.5, 2, 8, engine=engine)[0]
        assert spheres.shape == shells.shape == (len(ladder),) + grid2d.shape
        for t, sphere, shell in zip(ladder, spheres, shells):
            assert np.array_equal(sphere, sphere_mean_max(f, [t], 1.5, 2, 8)[0])
            assert np.array_equal(shell, annulus_mean_max(f, [t], 1.5, 2, 8)[0][0])

    def test_scale_ladders_match_per_scale_means(self):
        # sphere rows are one engine mean per scale then one stacked sup, bit
        # for bit, also after the shell rows of a joint call; shell rows,
        # summed from the sphere-mean symbols shared on the 2^(1/16)
        # lattice, match the 256-node annulus mean of each scale (with
        # r = 1e-9 the sups collapse onto the mean fields)
        grid = GridSpec(2, 32)
        f = random_complex_field(grid, seed=25)
        ladder = [Scale(0.5).times_power(-i, 16) for i in range(1, 60, 3)]
        scales = np.array([float(t) for t in ladder])
        assert np.array_equal(scales, 0.5 * 2.0 ** (-np.arange(1, 60, 3) / 16))
        nodes, points = unit_sphere_nodes(2, 32), annulus_nodes(2, 32)
        engine = StepEngine(f)
        for order in (1, 2, 3):
            means = np.stack([mean_magnitude(engine, t * nodes, np.full(32, 1 / 32), order)
                              for t in scales])
            want = weighted_offset_sup(means, grid, 1 / scales, 2 / 1.5)
            assert np.array_equal(sphere_mean_max(f, ladder, 1.5, order, 32), want)
            shells = np.stack([mean_magnitude(engine, t * points[0], points[1], order)
                               for t in scales])
            got, none = annulus_mean_max(f, ladder, 1e-9, order, 32)
            assert none.shape == (0,) + grid.shape
            assert np.all(np.abs(got - shells).max(axis=(1, 2))
                          <= 1e-14 * shells.max(axis=(1, 2)))
            joint = annulus_mean_max(f, ladder, 1.5, order, 32, spheres=ladder)
            assert np.array_equal(joint[1], want)
            assert np.array_equal(joint[0], annulus_mean_max(f, ladder, 1.5, order, 32)[0])
        # each family's pieces are its own
        shell, sphere = annulus_mean_max(f, ladder[:2], 1.5, 1, 32, spheres=ladder[:1],
                                         pieces=([0, 0], [0]))
        assert shell.shape == sphere.shape == (1,) + grid.shape

    def test_shell_ladder_builds_each_radius_once(self):
        # shells 3 lattice steps apart on the 2^(1/16) lattice share most of
        # their 8 sphere radii t 2^((2j + 1) / 16); each distinct radius is
        # one 32-node symbol, built once
        grid = GridSpec(2, 32)
        f = random_complex_field(grid, seed=26)
        ladder = [Scale(0.5).times_power(-i, 16) for i in range(1, 60, 3)]
        radii = {i - (2 * j + 1) for i in range(1, 60, 3) for j in range(8)}
        engine = StepEngine(f)
        annulus_mean_max(f, ladder, 1.5, 1, 32, engine=engine)
        assert engine.steps == len(radii) * 32 < len(ladder) * 8 * 32
        # sphere means on the same ladder add only the radii no shell uses
        joint = StepEngine(f)
        annulus_mean_max(f, ladder, 1.5, 1, 32, spheres=ladder, engine=joint)
        assert joint.steps == len(radii | set(range(1, 60, 3))) * 32 < (len(radii) + len(ladder)) * 32

    def test_sphere_mean_symbol_matches_explicit_differences(self, grid2d):
        # Oracle for the accumulated-symbol path: average explicit
        # differences node by node and compare magnitudes at offset zero.
        f = random_complex_field(grid2d, seed=21)
        t, order = 0.07, 2
        nodes = unit_sphere_nodes(2, 8)
        acc = np.zeros(grid2d.shape, dtype=complex)
        for z in nodes:
            acc += iterated_difference(f, (t * z[0], t * z[1]), order).data
        base = np.abs(acc / len(nodes))
        s = sphere_mean_max(f, [t], 2.0, order, sphere_count=8)[0]
        assert np.all(s >= base - 1e-10)
        # with an enormous weight exponent the sup collapses onto offset zero
        tight = sphere_mean_max(f, [t], 1e-9, order, sphere_count=8)[0]
        assert np.allclose(tight, base, atol=base.max() * 1e-6 + 1e-15)

    def test_point_difference_dominates_plain_difference(self, grid1d):
        f = random_complex_field(grid1d, seed=22)
        step = (3 * grid1d.spacing,)
        d = point_sup(f, step, 2.0, 2)
        plain = np.abs(iterated_difference(f, step, 2).data)
        assert np.all(d >= plain - 1e-12)

    def test_annulus_mean_below_worst_point_difference(self, grid2d):
        # The volume mean over the shell never exceeds the largest
        # pointwise-difference maximal field over the same shell nodes.
        f = random_complex_field(grid2d, seed=23)
        t, r, order = 0.05, 2.0, 1
        points, _ = annulus_nodes(2, 4)
        v = annulus_mean_max(f, [t], r, order, sphere_count=4)[0][0]
        worst = np.zeros(grid2d.shape)
        for z in points:
            d = point_sup(f, (t * z[0], t * z[1]), r, order)
            np.maximum(worst, d, out=worst)
        assert np.all(v <= worst + 1e-12)

