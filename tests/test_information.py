"""Entropy estimator, total variation, and report-generator tests.

Analytic anchors: the uniform sphere density has entropy ln(4 pi); an atomic
distribution over k equal bins has plug-in entropy ln(k) + ln(cell area);
a polar-cap start must stay far from uniform under the x-axis rotations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ontolab import (
    BeltramettiBugajski,
    BranchingModel,
    ContractMismatchError,
    InvalidArgumentError,
    SphereHistogram,
    Telegraph,
    branching_no_erasure_check,
    entropy_estimate,
    erasure_report,
    invariance_test,
    noflow_test,
    tv_distance,
)
from ontolab.rng import uniform_block
from ontolab.sphere import (
    histogram_entropy,
    multinomial_noise_threshold,
    sample_uniform_sphere,
)

LN_4PI = math.log(4 * math.pi)
Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def uniform_points(seed, n):
    return sample_uniform_sphere(uniform_block(seed, range(n), (0, 1)))


class TestSphereHistogram:
    def test_counts_partition_total(self):
        h = SphereHistogram.from_points(uniform_points(1, 10_000), 4, 8)
        assert h.total == 10_000
        assert h.counts.shape == (4, 8)

    def test_cell_area(self):
        h = SphereHistogram(8, 16)
        assert h.cell_area == pytest.approx(4 * math.pi / 128)

    def test_poles_and_equator_bins_distinct(self):
        pts = np.array([Z, -Z, X, -X])
        h = SphereHistogram.from_points(pts, 16, 16)
        assert (h.counts == 1).sum() == 4

    def test_invalid_bins(self):
        with pytest.raises(InvalidArgumentError):
            SphereHistogram(0, 8)


class TestEntropyEstimate:
    def test_uniform_converges_to_ln_4pi(self):
        assert abs(entropy_estimate(uniform_points(2, 1_000_000), 32, 32) - LN_4PI) <= 0.01

    def test_single_bin_degenerate(self):
        pts = np.tile(Z, (500, 1))
        assert entropy_estimate(pts, 8, 8) == pytest.approx(math.log(4 * math.pi / 64), abs=1e-12)

    def test_two_antipodal_atoms(self):
        pts = np.vstack([np.tile(Z, (500, 1)), np.tile(-Z, (500, 1))])
        expected = math.log(2) + math.log(4 * math.pi / 64)
        assert entropy_estimate(pts, 8, 8) == pytest.approx(expected, abs=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidArgumentError):
            entropy_estimate(np.empty((0, 3)), 8, 8)

    def test_error_shrinks_with_sample_size(self):
        # plug-in bias scales like bins/(2n); check monotone |error| at 3 seeds
        for seed in (3, 4, 5):
            errors = [
                abs(entropy_estimate(uniform_points(seed, n), 16, 16) - LN_4PI)
                for n in (10_000, 100_000, 1_000_000)
            ]
            assert errors[0] > errors[1] > errors[2]


class TestTVDistance:
    def test_self_distance_zero(self):
        h = SphereHistogram.from_points(uniform_points(6, 1000), 8, 8)
        assert tv_distance(h, h) == 0.0

    def test_disjoint_atoms_distance_one(self):
        hz = SphereHistogram.from_points(np.vstack([np.tile(Z, (50, 1)), np.tile(-Z, (50, 1))]), 16, 16)
        hx = SphereHistogram.from_points(np.vstack([np.tile(X, (50, 1)), np.tile(-X, (50, 1))]), 16, 16)
        assert tv_distance(hz, hx) == 1.0

    def test_independent_uniform_ensembles_close(self):
        h1 = SphereHistogram.from_points(uniform_points(7, 1_000_000), 16, 16)
        h2 = SphereHistogram.from_points(uniform_points(8, 1_000_000), 16, 16)
        assert tv_distance(h1, h2) <= 0.02

    def test_binning_mismatch_rejected(self):
        h1 = SphereHistogram(8, 8)
        h2 = SphereHistogram(8, 16)
        with pytest.raises(InvalidArgumentError):
            tv_distance(h1, h2)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_bounds(self, s1, s2):
        h1 = SphereHistogram.from_points(uniform_points(s1, 200), 4, 4)
        h2 = SphereHistogram.from_points(uniform_points(s2, 200), 4, 4)
        d = tv_distance(h1, h2)
        assert d == tv_distance(h2, h1)
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

    def test_time_settings_accepted(self):
        rep = erasure_report(BeltramettiBugajski(), 0.0, 10_000, ((8, 8),), seed=12)
        assert rep.setting == (0.0, 0.0, 1.0)


class TestNoFlow:
    def test_bb_incompatible_settings_flow_detected(self):
        rep = noflow_test(BeltramettiBugajski(), Z, X, 200_000, seed=13)
        assert rep.tv >= 0.95
        assert rep.ci_low > rep.noise_threshold
        assert rep.flow_detected

    def test_bb_identical_settings_no_flow(self):
        rep = noflow_test(BeltramettiBugajski(), Z, Z, 200_000, seed=14)
        assert rep.tv <= rep.noise_threshold
        assert not rep.flow_detected

    def test_telegraph_any_settings_no_flow(self):
        rep = noflow_test(Telegraph(0.7), Z, X, 200_000, seed=15)
        assert rep.tv <= rep.noise_threshold
        assert not rep.flow_detected

    def test_bootstrap_interval_brackets_estimate(self):
        rep = noflow_test(BeltramettiBugajski(), Z, X, 50_000, seed=16)
        assert rep.ci_low <= rep.tv <= rep.ci_high

    def test_branching_model_rejected(self):
        with pytest.raises(ContractMismatchError):
            noflow_test(BranchingModel(), Z, X, 100, seed=0)


class TestBranchingNoErasure:
    def test_standard_model_passes(self):
        rep = branching_no_erasure_check(Z, np.array([0.0, 1.0, 0.0]), 100_000, seed=17)
        assert rep.passed and bool(rep)
        assert rep.immutable
        assert rep.tv_x0 <= rep.noise_threshold and rep.tv_x1 <= rep.noise_threshold

    def test_equal_directions_subcase(self):
        rep = branching_no_erasure_check(Z, Z, 50_000, seed=18)
        assert rep.passed

    def test_collapse_fault_detected(self):
        rep = branching_no_erasure_check(
            Z, X, 50_000, seed=19, model=BranchingModel(collapse_fault=True)
        )
        assert not rep.immutable
        assert not rep.passed


class TestInvariance:
    def test_uniform_stays_uniform_under_rotations(self):
        rep = invariance_test(200_000, 10, seed=20)
        assert rep.tv <= rep.noise_threshold

    def test_zero_rotations_baseline(self):
        # two independent uniform draws at 1e6 samples, 16x16 bins
        rep = invariance_test(1_000_000, 0, seed=21)
        assert rep.tv <= 0.02

    def test_cap_negative_control(self):
        rep = invariance_test(200_000, 10, seed=22, start="cap")
        assert rep.tv > 0.1

    def test_invalid_start_rejected(self):
        with pytest.raises(InvalidArgumentError):
            invariance_test(100, 1, start="ring")


class TestNoiseThreshold:
    def test_scales_inverse_sqrt(self):
        h1 = SphereHistogram.from_points(uniform_points(23, 10_000), 8, 8)
        h2 = SphereHistogram.from_points(uniform_points(24, 10_000), 8, 8)
        big1 = SphereHistogram.from_points(uniform_points(23, 1_000_000), 8, 8)
        big2 = SphereHistogram.from_points(uniform_points(24, 1_000_000), 8, 8)
        ratio = multinomial_noise_threshold(h1, h2) / multinomial_noise_threshold(big1, big2)
        assert ratio == pytest.approx(10.0, rel=0.05)

    def test_histogram_entropy_agrees_with_estimate(self):
        pts = uniform_points(25, 50_000)
        h = SphereHistogram.from_points(pts, 16, 16)
        assert histogram_entropy(h) == pytest.approx(entropy_estimate(pts, 16, 16), abs=1e-12)
