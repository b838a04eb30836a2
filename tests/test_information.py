"""Entropy estimator, total variation, chi-square test and report-generator tests.

Analytic anchors: the uniform sphere density has entropy ln(4 pi); an atomic
distribution over k equal bins has plug-in entropy ln(k) + ln(cell area);
a polar-cap start must stay far from uniform under the x-axis rotations.
The chi-square p-values are checked against scipy, and every verdict's
false-positive rate (over 2000 fixed seeds, within 4 binomial sd of the
nominal 0.05) and power are measured on the product paths.  The counts
the erasure entropies and the noflow verdict read, added up from exact
cells, match the point path's histograms (``helpers.from_points``) count
for count; noflow's ``tv`` and mwcheck's verdict read integer counts.
"""

import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from ontolab import (
    BeltramettiBugajski,
    BranchingModel,
    ContractMismatchError,
    InvalidArgumentError,
    Telegraph,
    branching_no_erasure_check,
    erasure_report,
    noflow_test,
)
from ontolab import information, models
from ontolab.cli import cmd_mwcheck, main, parse_dirs
from ontolab.information import ALPHA, MIN_POOLED, _homogeneity_test, chi2_sf, chi_square_test
from ontolab.models import sign_pm1
from ontolab.qubit import heisenberg_direction, unit_vector
from ontolab.rng import CHUNK_RUNS, substream_seed, uniform_block
from ontolab.sphere import SphereHistogram, dot, histogram_entropy, sample_uniform_sphere

from helpers import from_points, invariance_tv, scanned_finest_grids, tv_distance

LN_4PI = math.log(4 * math.pi)
Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
# the goldens' noflow settings: z and (y + z)/sqrt(2)
GOLDEN_DIRS = parse_dirs("0,0,1;0,1,1")


def uniform_points(seed, n):
    return sample_uniform_sphere(uniform_block(seed, range(n), (0, 1)))


def entropy_of(points, nz, nphi):
    return histogram_entropy(from_points(points, nz, nphi).counts, nz * nphi)


def _stacked(*histograms) -> np.ndarray:
    """The r x K count table of r histograms over the same grid."""
    return np.stack([h.counts.ravel() for h in histograms])


class TestSphereHistogram:
    def test_counts_partition_total(self):
        h = from_points(uniform_points(1, 10_000), 4, 8)
        assert h.counts.sum() == 10_000
        assert h.counts.shape == (4, 8)

    def test_cell_area(self):
        # one occupied cell of 128 scores ln(cell area), and the cells left out of the counts are empty
        assert histogram_entropy(np.array([7]), 128) == math.log(4 * math.pi / 128)
        assert histogram_entropy(np.array([0, 7, 0]), 128) == histogram_entropy(np.array([7]), 128)

    def test_poles_and_equator_bins_distinct(self):
        pts = np.array([Z, -Z, X, -X])
        h = from_points(pts, 16, 16)
        assert (h.counts == 1).sum() == 4

    def test_invalid_bins(self):
        with pytest.raises(InvalidArgumentError):
            SphereHistogram(0, 8)

    def test_merge_binning_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError, match="binning mismatch"):
            SphereHistogram(8, 8).merge(SphereHistogram(8, 16))

    def test_comparison_is_a_bool(self):
        # field-wise == would compare the counts arrays and have no truth value
        h, same_shape = SphereHistogram(2, 2), SphereHistogram(2, 2)
        assert (h == h) is True
        assert (h == same_shape) is False
        assert (h != same_shape) is True
        assert h in [same_shape, h]
        assert h not in [same_shape]


class TestEntropyEstimate:
    def test_uniform_converges_to_ln_4pi(self):
        assert abs(entropy_of(uniform_points(2, 1_000_000), 32, 32) - LN_4PI) <= 0.01

    def test_single_bin_degenerate(self):
        pts = np.tile(Z, (500, 1))
        assert entropy_of(pts, 8, 8) == pytest.approx(math.log(4 * math.pi / 64), abs=1e-12)

    def test_two_antipodal_atoms(self):
        pts = np.vstack([np.tile(Z, (500, 1)), np.tile(-Z, (500, 1))])
        expected = math.log(2) + math.log(4 * math.pi / 64)
        assert entropy_of(pts, 8, 8) == pytest.approx(expected, abs=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidArgumentError, match="histogram is empty"):
            entropy_of(np.empty((0, 3)), 8, 8)

    def test_histogram_entropy_agrees_with_estimate(self):
        pts = uniform_points(25, 50_000)
        # a histogram folded from two halves scores what the whole sample scores
        h = from_points(pts[:20_000], 16, 16).merge(from_points(pts[20_000:], 16, 16))
        assert histogram_entropy(h.counts, 256) == pytest.approx(entropy_of(pts, 16, 16), abs=1e-12)

    def test_error_shrinks_with_sample_size(self):
        # plug-in bias scales like bins/(2n); check monotone |error| at 3 seeds
        for seed in (3, 4, 5):
            errors = [
                abs(entropy_of(uniform_points(seed, n), 16, 16) - LN_4PI)
                for n in (10_000, 100_000, 1_000_000)
            ]
            assert errors[0] > errors[1] > errors[2]


class TestTVDistance:
    """The reference tv of two count arrays (``helpers.tv_distance``) that the invariance tests read."""

    def test_self_distance_zero(self):
        h = from_points(uniform_points(6, 1000), 8, 8)
        assert tv_distance(h.counts, h.counts) == 0.0

    def test_disjoint_atoms_distance_one(self):
        hz = from_points(np.vstack([np.tile(Z, (50, 1)), np.tile(-Z, (50, 1))]), 16, 16)
        hx = from_points(np.vstack([np.tile(X, (50, 1)), np.tile(-X, (50, 1))]), 16, 16)
        assert tv_distance(hz.counts, hx.counts) == 1.0

    def test_independent_uniform_ensembles_close(self):
        h1 = from_points(uniform_points(7, 1_000_000), 16, 16)
        h2 = from_points(uniform_points(8, 1_000_000), 16, 16)
        assert tv_distance(h1.counts, h2.counts) <= 0.02

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_bounds(self, s1, s2):
        h1 = from_points(uniform_points(s1, 200), 4, 4)
        h2 = from_points(uniform_points(s2, 117), 4, 4)
        d = tv_distance(h1.counts, h2.counts)
        assert d == tv_distance(h2.counts, h1.counts)
        assert 0.0 <= d <= 1.0


class TestErasureReport:
    def test_bb_erases_without_bound(self):
        rep = erasure_report(BeltramettiBugajski(), Z, 200_000, ((8, 8), (16, 16), (32, 32)), seed=9)
        for (nz, nphi), before, after in zip(rep.resolutions, rep.entropy_before, rep.entropy_after):
            assert before == pytest.approx(LN_4PI, abs=0.02)
            assert after == pytest.approx(math.log(2) + math.log(4 * math.pi / (nz * nphi)), abs=0.02)
            assert after < before
        # the gap grows by ln 4 per doubling of both axes: the divergence signature
        gaps = rep.gaps
        assert gaps[1] - gaps[0] == pytest.approx(math.log(4), abs=0.05)
        assert gaps[2] - gaps[1] == pytest.approx(math.log(4), abs=0.05)

    def test_setting_choice_does_not_matter_for_bb(self):
        rep = erasure_report(BeltramettiBugajski(), X, 100_000, ((16, 16),), seed=10)
        assert rep.entropy_after[0] == pytest.approx(math.log(2) + math.log(4 * math.pi / 256), abs=0.02)

    def test_telegraph_erases_nothing(self):
        rep = erasure_report(Telegraph(1.0), Z, 200_000, ((8, 8), (16, 16)), seed=11)
        for gap in rep.gaps:
            assert abs(gap) <= 0.01

    def test_branching_model_rejected(self):
        with pytest.raises(ContractMismatchError):
            erasure_report(BranchingModel(), Z, 100, ((8, 8),), seed=0)

    @pytest.mark.parametrize("model", [BeltramettiBugajski(), Telegraph()], ids=["bb", "telegraph"])
    @pytest.mark.parametrize("grid", [(0, 8), (8, 0), (-3, 8)], ids=["0x8", "8x0", "-3x8"])
    def test_grid_below_one_cell_rejected(self, model, grid):
        with pytest.raises(InvalidArgumentError, match="nz and nphi must be >= 1"):
            erasure_report(model, Z, 1_000, ((8, 8), grid))

    def test_settings_are_unit_directions(self):
        # a time measures along its Heisenberg direction, which the caller passes
        rep = erasure_report(BeltramettiBugajski(), heisenberg_direction(0.0), 10_000, ((8, 8),), seed=12)
        assert rep.setting == (0.0, 0.0, 1.0)
        with pytest.raises(InvalidArgumentError, match="3 components"):
            erasure_report(BeltramettiBugajski(), 0.0, 10_000, ((8, 8),), seed=12)


# grid sides of few odd parts times a power of two, so that drawn grids often share their odd parts
FAMILY_SIDES = st.builds(lambda odd, k: odd << k, st.sampled_from([1, 3, 5, 9, 15]), st.integers(0, 7)) | st.integers(1, 40)


class TestGridFamilies:
    """erasure counts the finest grid of each power-of-two family and sums the others out of it, as if each were counted alone.

    The grids asked map to the grids whose cells a chunk counts
    (``information._finest_grids``); no grid is made up, and a duplicate
    or a reordering changes no row.
    """

    RUNS = 2 * CHUNK_RUNS + 1234
    CHUNKS = 3
    CASES = {
        "8x8,12x12": (((8, 8), (12, 12)), {(8, 8), (12, 12)}),
        "8x16,32x16": (((8, 16), (32, 16)), {(32, 16)}),
        "8x16,16x8": (((8, 16), (16, 8)), {(8, 16), (16, 8)}),
        "8x8,8x8": (((8, 8), (8, 8)), {(8, 8)}),
        "64x64,8x8": (((64, 64), (8, 8)), {(64, 64)}),
        "8x8,64x64": (((8, 8), (64, 64)), {(64, 64)}),
    }

    @pytest.fixture
    def received(self, monkeypatch):
        """What information reads, in call order: the grids of uniform_cell, and histogram_entropy's (counts, cells)."""
        recorded = {"counted": [], "entropy": []}

        def cell(u, nz, nphi, count=information.uniform_cell):
            recorded["counted"].append((nz, nphi))
            return count(u, nz, nphi)

        def entropy(counts, n_cells, read=information.histogram_entropy):
            recorded["entropy"].append((np.asarray(counts).tolist(), n_cells))
            return read(counts, n_cells)

        monkeypatch.setattr(information, "uniform_cell", cell)
        monkeypatch.setattr(information, "histogram_entropy", entropy)
        return recorded

    def _report(self, received, grids):
        for calls in received.values():
            calls.clear()
        rep = erasure_report(BeltramettiBugajski(), unit_vector((0.0, 0.6, 0.8)), self.RUNS, grids, seed=5)
        return rep, {key: list(calls) for key, calls in received.items()}

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("case", CASES)
    def test_each_row_is_its_grid_alone(self, monkeypatch, received, case, workers):
        monkeypatch.setenv("ONTOLAB_THREADS", workers)
        grids, finest = self.CASES[case]
        together, read = self._report(received, grids)
        assert sorted(read["counted"]) == sorted(list(finest) * self.CHUNKS)
        alone = [self._report(received, (grid,)) for grid in grids]
        assert read["entropy"] == [r["entropy"][0] for _, r in alone] + [r["entropy"][1] for _, r in alone]
        for k, (rep, _) in enumerate(alone):
            assert together.entropy_before[k].hex() == rep.entropy_before[0].hex()
            assert together.entropy_after[k].hex() == rep.entropy_after[0].hex()

    def test_families_are_powers_of_two_of_a_grid_asked(self):
        # a ratio of 3 is its own family, also where no uniform rounds apart (8 and 24)
        for grids in ([(6, 6), (18, 18)], [(8, 8), (24, 24)], [(8, 16), (16, 8)]):
            assert information._finest_grids(grids) == {grid: grid for grid in grids}
        grids = [(4, 1), (64, 64), (2, 16), (8, 8), (64, 64)]
        assert information._finest_grids(grids) == {grid: (64, 64) for grid in grids}
        assert information._finest_grids([(6, 6), (18, 18), (24, 24)]) == {(6, 6): (24, 24), (18, 18): (18, 18), (24, 24): (24, 24)}

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(FAMILY_SIDES, FAMILY_SIDES), max_size=40))
    def test_families_by_odd_parts_are_the_scanned_families(self, grids):
        assert information._finest_grids(grids) == scanned_finest_grids(grids)

    @pytest.mark.parametrize("bins,calls", [("8x8,16x16,32x32,64x64", 1), ("8x8,12x12", 2)])
    def test_cli_counts_each_family_once_per_chunk(self, received, bins, calls):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["erasure", "--model", "bb", "--bins", bins, "--runs", str(self.RUNS)]) == 0
        assert len(received["counted"]) == calls * self.CHUNKS


class TestNoFlow:
    def test_bb_incompatible_settings_flow_detected(self):
        rep = noflow_test(BeltramettiBugajski(), Z, X, 200_000, seed=13)
        assert rep.tv == 1.0
        # four atoms, one column each: X^2 = 2N when the atoms never share a cell
        assert (rep.chi2, rep.df, rep.p_value) == (400_000.0, 3, 0.0)
        assert rep.flow_detected

    def test_bb_identical_settings_no_flow(self):
        rep = noflow_test(BeltramettiBugajski(), Z, Z, 200_000, seed=14)
        assert rep.df == 1 and rep.p_value >= ALPHA
        assert not rep.flow_detected

    def test_telegraph_any_settings_no_flow(self):
        rep = noflow_test(Telegraph(0.7), Z, X, 200_000, seed=15)
        assert rep.df == 1 and rep.p_value >= ALPHA
        assert not rep.flow_detected

    def test_branching_model_rejected(self):
        with pytest.raises(ContractMismatchError):
            noflow_test(BranchingModel(), Z, X, 100, seed=0)

    @pytest.mark.parametrize("model", [BeltramettiBugajski(), Telegraph()], ids=["bb", "telegraph"])
    @pytest.mark.parametrize("grid", [(0, 8), (8, 0), (-3, 8)], ids=["0x8", "8x0", "-3x8"])
    def test_grid_below_one_cell_rejected(self, model, grid):
        with pytest.raises(InvalidArgumentError, match="nz and nphi must be >= 1"):
            noflow_test(model, Z, X, 1_000, *grid)

    def test_disjoint_atom_laws_are_exactly_one_apart(self):
        # four atoms in four cells: the two arms' laws are disjoint, whatever the rounding of 1/2 and the counts
        rep = noflow_test(BeltramettiBugajski(), *GOLDEN_DIRS, 200_000, seed=20231)
        assert rep.tv == 1.0

    @pytest.mark.parametrize("seed", [0, 7, 20231])
    def test_tv_is_a_count_over_twice_the_runs(self, seed):
        # sum |n1 - n2| / (2 runs), an integer over 2 runs with one rounding
        runs = 200_000
        rep = noflow_test(Telegraph(), *GOLDEN_DIRS, runs, seed=seed)
        assert 0.0 < rep.tv < 0.01
        assert rep.tv == round(rep.tv * 2 * runs) / (2 * runs)


def _point_path(model, direction, runs: int, seed: int, grids):
    """The prepared and post-measurement histograms the point path gave: each state embedded and binned."""
    u = uniform_block(seed, range(runs), (0, 1, 2))
    states = model.prepare_max_batch(u[:, :2])
    _, post = model.measure_batch(states, direction, u[:, 2])
    return [[from_points(model.embed_on_sphere(x), nz, nphi) for nz, nphi in grids] for x in (states, post)]


def _occupied(histogram) -> list:
    """The nonzero counts of a histogram, in ascending cell order."""
    return histogram.counts[histogram.counts > 0].tolist()


class TestExactCells:
    """The counts every erasure entropy and noflow verdict reads are the point path's, count for count, over several chunks.

    An entropy reads the nonzero counts in cell order and the grid's cell
    count; the noflow verdict reads the 2 x C table of the atoms' cells,
    which are the columns the point path's two histograms occupy.
    """

    RUNS = 2 * CHUNK_RUNS + 1234
    GRIDS = ((1, 8), (4, 1), (8, 8), (64, 64))
    MODELS = [BeltramettiBugajski(), Telegraph(0.7)]

    @pytest.fixture
    def received(self, monkeypatch):
        """What information's entropy and homogeneity test read, in call order: ([nonzero counts], cells) and tables."""
        recorded = []

        def entropy(counts, n_cells, read=information.histogram_entropy):
            recorded.append((np.asarray(counts)[np.asarray(counts) > 0].tolist(), n_cells))
            return read(counts, n_cells)

        def homogeneity(table, read=information._homogeneity_test):
            recorded.append(np.asarray(table).tolist())
            return read(table)

        monkeypatch.setattr(information, "histogram_entropy", entropy)
        monkeypatch.setattr(information, "_homogeneity_test", homogeneity)
        return recorded

    @pytest.mark.parametrize("seed", [0, 7, 20231])
    @pytest.mark.parametrize("model", MODELS, ids=["bb", "telegraph"])
    def test_erasure(self, received, model, seed):
        d = unit_vector((0.0, 0.6, 0.8))
        erasure_report(model, d, self.RUNS, self.GRIDS, seed=seed)
        before, after = _point_path(model, d, self.RUNS, seed, self.GRIDS)
        assert received == [(_occupied(h), h.nz * h.nphi) for h in before + after]

    @pytest.mark.parametrize("seed", [0, 7, 20231])
    @pytest.mark.parametrize("model", MODELS, ids=["bb", "telegraph"])
    def test_noflow(self, received, model, seed):
        for grid in self.GRIDS:
            received.clear()
            noflow_test(model, Z, X, self.RUNS, *grid, seed=seed)
            arms = [_point_path(model, d, self.RUNS, substream_seed(seed, k), (grid,)) for k, d in ((1, Z), (2, X))]
            full = _stacked(*(post for _, [post] in arms))
            assert received == [full[:, full.any(axis=0)].tolist()]


class TestMemoryIsFlatInRuns:
    """Chunk results are added as they arrive: the peak at 16 chunks is within one chunk's histogram of that at 4.

    The peak itself stays within three histograms of the grid for erasure
    (24 MiB at 1024x1024), whose collapse-model preparation fills one
    grid-sized count vector per chunk, added into the total and dropped.
    noflow counts only atoms, in a table of at most four cells, so its peak
    is under one histogram (about 4 MiB).
    """

    GRID = (1024, 1024)
    ONE_HISTOGRAM = GRID[0] * GRID[1] * np.dtype(np.int64).itemsize

    @pytest.mark.parametrize(
        "call,histograms",
        [
            (lambda runs, grid: erasure_report(BeltramettiBugajski(), Z, runs, (grid,)), 3),
            (lambda runs, grid: erasure_report(BeltramettiBugajski(), Z, runs, ((grid[0] // 2, grid[1] // 2), grid)), 3),
            (lambda runs, grid: noflow_test(BeltramettiBugajski(), Z, X, runs, *grid), 1),
        ],
        ids=["erasure", "erasure-family", "noflow"],
    )
    def test_traced_peak(self, monkeypatch, call, histograms):
        monkeypatch.setenv("ONTOLAB_THREADS", "1")
        peaks = []
        for chunks in (4, 16):
            tracemalloc.start()
            try:
                call(chunks * CHUNK_RUNS, self.GRID)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= self.ONE_HISTOGRAM
        assert max(peaks) <= histograms * self.ONE_HISTOGRAM


def _collapse_in_place(x0: dict, a) -> None:
    """Write +-a into x0's coordinate arrays, the sign of a.x0 run by run, as a single-world measurement would."""
    signs = sign_pm1(dot(x0, a))
    for axis, coordinate in x0.items():
        np.multiply(signs, a[axis], out=coordinate)


class CollapsingModel(BranchingModel):
    """A faulty branching model: the first device collapses x0 onto +-a in place."""

    def alice_batch(self, a, x0, x1, near):
        outcomes = super().alice_batch(a, x0, x1, near)
        _collapse_in_place(x0, a)
        return outcomes


class InPlaceCollapsingModel(BranchingModel):
    """The same fault written into the sampled x0 arrays after the whole measurement."""

    def branch_outcomes(self, a, b, references, x0, x1, u_select, near):
        outcomes = super().branch_outcomes(a, b, references, x0, x1, u_select, near)
        _collapse_in_place(x0, a)
        return outcomes


class SwappingModel(BranchingModel):
    """A faulty branching model that replaces x0's z array with its signs, leaving the array it was handed as it was."""

    def branch_outcomes(self, a, b, references, x0, x1, u_select, near):
        outcomes = super().branch_outcomes(a, b, references, x0, x1, u_select, near)
        x0[2] = sign_pm1(x0[2]).astype(float)
        return outcomes


class SecondDeviceWritingModel(BranchingModel):
    """A faulty branching model whose second device writes its record into x1's coordinate arrays."""

    def bob_batch(self, b, x0, x1, references, near):
        outcomes = super().bob_batch(b, x0, x1, references, near)
        for axis, coordinate in x1.items():
            coordinate += 1e-3 * b[axis]
        return outcomes


class SignedZeroWritingModel(BranchingModel):
    """A faulty branching model that rewrites x0's x coordinate from +0.0 to -0.0: same value, other bits."""

    def sample_ontic_batch(self, u, axes, trig_dtype=np.float64):
        x0, x1 = super().sample_ontic_batch(u, axes, trig_dtype)
        x0[0][:] = 0.0
        return x0, x1

    def branch_outcomes(self, a, b, references, x0, x1, u_select, near):
        x0[0][:] = -0.0
        return super().branch_outcomes(a, b, references, x0, x1, u_select, near)


class FloatPassWritingModel(BranchingModel):
    """A faulty branching model that writes into x1's z array in the float64 pass of ``models.settle`` alone."""

    def sample_ontic_batch(self, u, axes, trig_dtype=np.float64):
        x0, x1 = super().sample_ontic_batch(u, axes, trig_dtype)
        self.float64_pass = trig_dtype == np.float64
        return x0, x1

    def branch_outcomes(self, a, b, references, x0, x1, u_select, near):
        outcomes = super().branch_outcomes(a, b, references, x0, x1, u_select, near)
        if self.float64_pass:
            x1[2][0] = -x1[2][0]
        return outcomes


class TestBranchingNoErasure:
    def test_standard_model_passes(self):
        rep = branching_no_erasure_check(Z, np.array([0.0, 1.0, 0.0]), 100_000, seed=17)
        assert rep.immutable
        assert rep.runs == 100_000

    def test_equal_directions_subcase(self):
        rep = branching_no_erasure_check(Z, Z, 50_000, seed=18)
        assert rep.immutable

    def test_collapse_fault_detected(self):
        rep = branching_no_erasure_check(Z, X, 50_000, seed=19, model=CollapsingModel())
        assert not rep.immutable

    def test_in_place_mutation_detected(self):
        # the check's reference is a copy stored before the measurement;
        # comparing the model's arrays with themselves would miss this fault
        rep = branching_no_erasure_check(Z, X, 50_000, seed=19, model=InPlaceCollapsingModel())
        assert not rep.immutable

    def test_swapped_array_detected(self):
        # the comparison reads the mapping the devices were handed, not only the arrays it held at first
        rep = branching_no_erasure_check(Z, X, 50_000, seed=19, model=SwappingModel())
        assert not rep.immutable

    def test_second_device_write_detected(self):
        rep = branching_no_erasure_check(Z, X, 50_000, seed=19, model=SecondDeviceWritingModel())
        assert not rep.immutable

    def test_write_keeping_the_value_detected(self):
        # -0.0 == 0.0, so only a bit-for-bit comparison sees this write
        rep = branching_no_erasure_check(Z, X, 1_000, seed=19, model=SignedZeroWritingModel())
        assert not rep.immutable

    def test_write_in_the_float64_pass_detected(self, monkeypatch):
        # one chunk, so one thread calls the model; every row whose least |dot| is under 0.01 is recomputed in float64
        monkeypatch.setattr(models, "FLOAT32_MARGIN", 0.01)
        model = FloatPassWritingModel()
        rep = branching_no_erasure_check(Z, X, 1_000, seed=19, model=model)
        assert model.float64_pass and not rep.immutable

    def test_joint_is_the_counts_over_the_runs(self):
        rep = branching_no_erasure_check(Z, X, 3_000, seed=20)
        assert rep.counts.dtype == np.int64 and rep.counts.shape == (2, 2, 2)
        assert (rep.counts.sum(axis=(1, 2)) == 3_000).all()
        assert np.array_equal(rep.joint, rep.counts / 3_000)

    def test_immutable_is_a_bool(self):
        # a numpy bool_ would print differently in the mwcheck CSV
        for model in (BranchingModel(), CollapsingModel()):
            assert type(branching_no_erasure_check(Z, X, 1_000, seed=20, model=model).immutable) is bool

    def test_report_compares_by_identity(self):
        # the report holds an array, so field-wise == would be ambiguous
        rep = branching_no_erasure_check(Z, X, 100, seed=20)
        assert rep == rep and rep != branching_no_erasure_check(Z, X, 100, seed=20)


class TestInvariance:
    def test_uniform_stays_uniform_under_rotations(self):
        _, p_value = invariance_tv(200_000, 10, seed=20)
        assert p_value >= ALPHA

    def test_zero_rotations_baseline(self):
        # two independent uniform draws at 1e6 samples, 16x16 bins
        tv, _ = invariance_tv(1_000_000, 0, seed=21)
        assert tv <= 0.02

    def test_cap_negative_control(self):
        tv, p_value = invariance_tv(200_000, 10, seed=22, cap=True)
        assert tv > 0.1
        assert p_value < ALPHA


class TestChiSquareTest:
    def test_goodness_of_fit_matches_scipy(self):
        observed, expected = np.array([48.0, 30.0, 22.0]), np.array([50.0, 25.0, 25.0])
        chi2, df, p_value = chi_square_test(observed, expected)
        ref = stats.chisquare(observed, expected)
        assert df == 2
        assert chi2 == pytest.approx(ref.statistic, rel=1e-12)
        assert p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_homogeneity_matches_scipy(self):
        table = _stacked(from_points(uniform_points(30, 5_000), 4, 4), from_points(uniform_points(31, 5_000), 4, 4))
        chi2, df, p_value = _homogeneity_test(table)
        ref = stats.chi2_contingency(table, correction=False)
        assert df == ref.dof == 15
        assert chi2 == pytest.approx(ref.statistic, rel=1e-12)
        assert p_value == pytest.approx(ref.pvalue, rel=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([(1, 1), (1, 7), (4, 4), (16, 16), (3, 100)]),
        st.sampled_from([1.0, 0.3, 0.05, 0.0]),
        st.sampled_from([2, 6, 12, 1000]),
        st.integers(0, 2**32),
    )
    @example((4, 4), 0.05, 2, 1)  # every column rare
    @example((16, 16), 0.05, 6, 2)  # a rare pool joined with the smallest column
    @example((16, 16), 1.0, 1000, 3)  # no column rare, no column empty
    @example((1, 7), 0.0, 12, 4)  # one cell per histogram
    def test_homogeneity_over_occupied_columns_matches_the_full_table(self, grid, density, scale, seed):
        # noflow tests only the atoms' cells; the all-zero columns left out must change no bit of (chi2, df, p)
        picker = np.random.default_rng(seed)
        table = np.zeros((2, grid[0] * grid[1]), dtype=np.int64)
        for row in table:
            cells = picker.random(len(row)) < density
            cells[picker.integers(len(row))] = True  # neither row is empty
            row[cells] = picker.integers(1, scale, cells.sum(), endpoint=True)
        for rows in (table, table[::-1]):
            full = rows.astype(float)
            expected = chi_square_test(full, np.outer(full.sum(axis=1), full.sum(axis=0)) / full.sum())
            assert repr(_homogeneity_test(rows[:, rows.any(axis=0)])) == repr(expected)
            assert repr(_homogeneity_test(rows)) == repr(expected)

    def test_rare_cells_merge_into_one(self):
        # the last three cells each expect fewer than MIN_POOLED counts, so they test as one
        merged = chi_square_test([40, 40, 7, 1, 6], [40, 40, 5, 3, 4])
        assert merged == chi_square_test([40, 40, 14], [40, 40, 12])
        assert merged[1] == 2

    def test_small_merged_cell_joins_the_smallest(self):
        # 2 + 2 expected is still below MIN_POOLED: the merged cell takes in the 35
        merged = chi_square_test([30, 50, 3, 1], [35, 45, 2, 2])
        assert merged == chi_square_test([34, 50], [39, 45])
        assert merged[1] == 1
        # alone, three counts where 0.25 are expected would read p ~ 3e-7 < ALPHA
        assert chi_square_test([24, 2, 1, 23], [24.875, 0.125, 0.125, 24.875])[2] >= ALPHA

    def test_nothing_left_to_test(self):
        # every cell is rare: one merged cell, df = 0
        assert chi_square_test([3, 0, 0, 0], [0.25, 0.25, 0.25, 0.25])[1:] == (0, 1.0)
        assert chi_square_test([[2, 1], [1, 2]], [[1.5, 1.5], [1.5, 1.5]])[1:] == (0, 1.0)

    def test_count_where_none_expected(self):
        chi2, df, p_value = chi_square_test([60, 39, 1], [60, 40, 0])
        assert (chi2, df, p_value) == (math.inf, 2, 0.0)

    def test_empty_merged_cell_dropped(self):
        # zero expected and zero observed: the exact zeros of parallel directions
        assert chi_square_test([500, 0, 0, 500], [500, 0, 0, 500]) == (0.0, 1, 1.0)

    def test_alpha_is_the_two_sided_5_sigma_tail(self):
        assert ALPHA == pytest.approx(2 * stats.norm.sf(5.0), rel=1e-12)
        assert MIN_POOLED == 10


class TestChi2SurvivalFunction:
    @settings(max_examples=120, deadline=None)
    @given(st.floats(0.0, 20.0).map(lambda e: int(2.0**e)), st.floats(0.0, 1.0))
    @example(1, 0.0)
    @example(2**20, 1.0)
    @example(2**20 - 1, 1.0)
    @example(2**20, 0.02)
    def test_matches_scipy(self, df, fraction):
        x = fraction * (df + 50.0 * math.sqrt(df))
        ref = stats.chi2.sf(x, df)
        if ref > 1e-300:
            assert chi2_sf(x, df) == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_edges(self):
        assert chi2_sf(7.5, 0) == 1.0
        assert chi2_sf(0.0, 1) == 1.0 and chi2_sf(0.0, 2**20) == 1.0
        assert chi2_sf(math.inf, 3) == 0.0


# share of p < 0.05 over 2000 seeds: within 4 binomial sd of 0.05, about [0.030, 0.070]
CALIBRATION_SEEDS = range(2000)
_FPR_HALF_WIDTH = 4.0 * math.sqrt(0.05 * 0.95 / len(CALIBRATION_SEEDS))
ORACLE_DIRS = ((0.0, 0.0, 1.0), (0.0, math.sqrt(0.5), math.sqrt(0.5)))
# a.b = 0.99: two cells expect 0.125 counts each at 50 runs
NEAR_PARALLEL_DIRS = ((0.0, 0.0, 1.0), (0.0, math.sqrt(1.0 - 0.99**2), 0.99))


def _uniform_pair_p_value(runs: int, seed: int) -> float:
    return _homogeneity_test(_stacked(*(from_points(uniform_points(2 * seed + k, runs), 16, 16) for k in (0, 1))))[2]


CALIBRATION_CASES = {
    "noflow-telegraph-z-x-2000": lambda s: noflow_test(Telegraph(1.0), Z, X, 2000, seed=s).p_value,
    "noflow-bb-z-z-2000": lambda s: noflow_test(BeltramettiBugajski(), Z, Z, 2000, seed=s).p_value,
    "uniform-16x16-600": lambda s: _uniform_pair_p_value(600, s),
    "uniform-16x16-3000": lambda s: _uniform_pair_p_value(3000, s),
    "mwcheck-50": lambda s: cmd_mwcheck({"runs": 50, "seed": s, "dirs": ORACLE_DIRS}).results["variant_b_p_value"],
    "mwcheck-200": lambda s: cmd_mwcheck({"runs": 200, "seed": s, "dirs": ORACLE_DIRS}).results["variant_b_p_value"],
    "mwcheck-50-near-parallel": lambda s: cmd_mwcheck(
        {"runs": 50, "seed": s, "dirs": NEAR_PARALLEL_DIRS}
    ).results["variant_b_p_value"],
}


class TestVerdictCalibration:
    """False-positive rate of each verdict where its null hypothesis holds."""

    @pytest.mark.parametrize("case", CALIBRATION_CASES)
    def test_false_positive_rate(self, case):
        p_values = np.array([CALIBRATION_CASES[case](s) for s in CALIBRATION_SEEDS])
        assert abs((p_values < 0.05).mean() - 0.05) <= _FPR_HALF_WIDTH
        assert (p_values >= ALPHA).all()


class PartialCollapse(Telegraph):
    """A test-local fault: with probability EPSILON a readout along d collapses the value onto sign(d_z * value).

    Along z that is the value itself, so the z arm is the plain telegraph;
    along x it is +1 (sign(0) := +1), so that arm's post-measurement poles
    tilt from 1/2 each to (1 + EPSILON)/2 and (1 - EPSILON)/2.  Post states
    stay atoms of their outcomes, as ``atoms`` requires.
    """

    EPSILON = 0.1

    def measured_states(self, u, direction):
        # slot 0 prepares the value, slot 2 decides whether the readout collapses
        block = u.draw((0, 2))
        states = self.prepare_max_batch(block)
        return states, self.measure_batch(states, direction, block[:, 1])[0]

    def measure_batch(self, states, direction, u):
        collapsed = np.asarray(u) < self.EPSILON
        post = np.where(collapsed, sign_pm1(direction[2] * states), states).astype(np.int8)
        return post, post


class TestVerdictPower:
    def test_partial_collapse_flow_detected(self):
        # measured: 200/200 at epsilon 0.1 and 2e4 runs (195/200 at 1e4; at 0.05, 97/200 at 2e4, 196/200 at 4e4)
        detected = [noflow_test(PartialCollapse(), Z, X, 20_000, seed=s).flow_detected for s in range(200)]
        assert np.mean(detected) >= 0.99
