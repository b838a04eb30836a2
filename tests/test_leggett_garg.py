"""Scenario, inequality, scan, and Monte Carlo estimator tests.

The classical bound is established by exhaustive enumeration of the 16
deterministic outcome assignments; Monte Carlo estimates are compared
against exact quantum correlators or the analytic telegraph autocorrelation.
"""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from ontolab import (
    CLASSICAL_BOUND,
    TSIRELSON_BOUND,
    BeltramettiBugajski,
    BranchingModel,
    CorrelationMatrix,
    InvalidArgumentError,
    LGScenario,
    NumericalFailureError,
    Telegraph,
    empirical_correlations,
    lg_stderr,
    lg_value,
    max_violation_over_34,
    quantum_correlations,
)
from ontolab import leggett_garg
from ontolab.leggett_garg import MAX_TIME, PAIRS

SQ2 = math.sqrt(2.0)


def enumerate_deterministic_max():
    # oracle: every macrorealist joint distribution is a mixture of these
    best = -np.inf
    for a in itertools.product((1, -1), repeat=4):
        c = CorrelationMatrix(*(float(a[k - 1] * a[l - 1]) for k, l in PAIRS))
        best = max(best, lg_value(c))
    return best


class TestLGScenario:
    def test_from_times_interleaves_roles(self):
        s = LGScenario.from_times(0.0, 1.0, 2.0, 3.0)
        assert (s.t1, s.t2, s.t3, s.t4) == (0.0, 2.0, 1.0, 3.0)
        assert s.pair_times() == ((0.0, 1.0), (2.0, 1.0), (2.0, 3.0), (0.0, 3.0))

    def test_from_times_rejects_second_before_first(self):
        with pytest.raises(InvalidArgumentError):
            LGScenario.from_times(0.0, 1.0, 0.5, 3.0)

    def test_all_equal_times_allowed(self):
        c = quantum_correlations(LGScenario.from_times(0.7, 0.7, 0.7, 0.7))
        assert c.values() == (1.0, 1.0, 1.0, 1.0)
        assert lg_value(c) == pytest.approx(2.0, abs=1e-12)

    def test_evenly_spaced_matches_from_times(self):
        assert LGScenario.evenly_spaced(0.25, 0.5) == LGScenario.from_times(0.25, 0.75, 1.25, 1.75)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            LGScenario(0.0, float("inf"), 1.0, 2.0)

    @pytest.mark.parametrize(
        "times", [(0.0, 1e308, 1e308, 1e308), (-8e307, 0.0, 8e307, 8e307)], ids=["time", "gap"]
    )
    def test_overflowing_rotation_angle_rejected(self, times):
        # the dynamics rotates by 2*t and 2*(t_k - t_l); here one of them is infinite
        with pytest.raises(InvalidArgumentError, match="MAX_TIME = 8.98846567e[+]307"):
            LGScenario.from_times(*times)

    @pytest.mark.parametrize(
        "model", [BeltramettiBugajski(), BranchingModel(), Telegraph(1.3)], ids=["bb", "mw", "telegraph"]
    )
    def test_schedule_at_the_limit_runs(self, model):
        # every angle stays finite, so no kernel overflows (RuntimeWarnings are errors here)
        scenario = LGScenario.from_times(0.0, MAX_TIME / 2, MAX_TIME / 2, MAX_TIME)
        assert all(math.isfinite(c) for c in quantum_correlations(scenario).values())
        corr = empirical_correlations(model, scenario, 2_000, seed=1)
        assert sum(corr.counts) == 2_000 and all(abs(c) <= 1 for c in corr.values())


class TestLGValue:
    def test_perfect_correlations_hit_classical_bound(self):
        assert lg_value(CorrelationMatrix(1, 1, 1, 1)) == 2.0

    def test_quantum_pi_8_spacing_hits_tsirelson(self):
        s = LGScenario.from_times(0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8)
        c = quantum_correlations(s)
        assert_allclose(c.values(), (SQ2 / 2, SQ2 / 2, SQ2 / 2, -SQ2 / 2), atol=1e-12)
        assert lg_value(c) == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_algebraic_maximum_is_four(self):
        assert lg_value(CorrelationMatrix(1, 1, 1, -1)) == 4.0

    def test_correlator_bound_enforced(self):
        with pytest.raises(InvalidArgumentError):
            CorrelationMatrix(1.5, 0, 0, 0)

    def test_empirical_correlator_slack_via_stderr(self):
        CorrelationMatrix(1.02, 0, 0, 0, stderr=(0.01, 0.01, 0.01, 0.01))


class TestQuantumCorrelations:
    def test_pi_4_spacing_all_zero(self):
        s = LGScenario.from_times(0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4)
        # oracle: evaluate cos 2(dt) per pair directly
        expected = tuple(np.cos(2 * (tk - tl)) for tk, tl in s.pair_times())
        assert_allclose(quantum_correlations(s).values(), expected, atol=1e-12)
        assert_allclose(expected, (0, 0, 0, 0), atol=1e-12)

    def test_classical_bound_exhaustive(self):
        assert enumerate_deterministic_max() == 2.0

    def test_quantum_bound_on_random_scenario_grid(self):
        rng = np.random.default_rng(77)
        times = rng.uniform(0, 2 * np.pi, (10_000, 4))
        for t in times:
            value = lg_value(quantum_correlations(LGScenario(*t)))
            assert value <= TSIRELSON_BOUND + 1e-9


class TestMaxViolation:
    def test_quarter_pi_gap_reaches_tsirelson(self):
        value, t3, t4 = max_violation_over_34(0.0, np.pi / 4)
        assert value == pytest.approx(TSIRELSON_BOUND, abs=1e-9)
        scenario = LGScenario(0.0, np.pi / 4, t3, t4)
        assert lg_value(quantum_correlations(scenario)) == pytest.approx(value, abs=1e-8)

    @pytest.mark.parametrize("delta", [0.0, np.pi / 2, np.pi, -np.pi / 2])
    def test_commuting_settings_no_violation(self, delta):
        value, _, _ = max_violation_over_34(0.3, 0.3 + delta)
        assert value == pytest.approx(2.0, abs=1e-8)

    def test_closed_form_on_random_pairs(self):
        rng = np.random.default_rng(78)
        for _ in range(100):
            t1 = rng.uniform(0, 2 * np.pi)
            t2 = t1 + rng.uniform(0, np.pi)
            value, t3, t4 = max_violation_over_34(t1, t2)
            closed = 2 * (abs(math.cos(t2 - t1)) + abs(math.sin(t2 - t1)))
            assert abs(value - closed) <= 1e-12
            assert lg_value(quantum_correlations(LGScenario(t1, t2, t3, t4))) == value
            assert min(t1, t2) <= t3 < min(t1, t2) + math.pi
            assert min(t1, t2) <= t4 < min(t1, t2) + math.pi

    def test_no_later_times_beat_the_argmax(self):
        # oracle: a dense grid over one period of t3 and t4, independent of the 721-point check
        rng = np.random.default_rng(79)
        grid = np.linspace(0.0, np.pi, 1001)
        for _ in range(10):
            t1, t2 = rng.uniform(-3.0, 3.0, 2)
            value, _, _ = max_violation_over_34(t1, t2)
            t3, t4 = np.meshgrid(t1 + grid, t1 + grid)
            best = (np.cos(2 * (t3 - t1)) + np.cos(2 * (t3 - t2)) + np.cos(2 * (t4 - t2)) - np.cos(2 * (t4 - t1))).max()
            assert best <= value + 1e-12
            assert best >= value - 1e-4

    def test_wrong_argmax_raises(self, monkeypatch):
        right = leggett_garg._argmax_34
        monkeypatch.setattr(leggett_garg, "_argmax_34", lambda t1, t2: (right(t1, t2)[0] + 0.01, right(t1, t2)[1]))
        with pytest.raises(NumericalFailureError, match="closed form"):
            max_violation_over_34(0.0, math.pi / 8)

    def test_grid_catches_a_wrong_argmax_the_closed_form_agrees_with(self, monkeypatch):
        # both the argmax and the closed form are wrong in the same way, so only the grid can tell
        right = leggett_garg._argmax_34

        def shifted(t1, t2):
            t3, t4 = right(t1, t2)
            return t3, t4 + 0.01

        monkeypatch.setattr(leggett_garg, "_argmax_34", shifted)
        monkeypatch.setattr(
            leggett_garg,
            "max_violation_closed_form",
            lambda t1, t2: lg_value(quantum_correlations(LGScenario(t1, t2, *shifted(t1, t2)))),
        )
        with pytest.raises(NumericalFailureError, match="grid"):
            max_violation_over_34(0.0, math.pi / 8)

    # at the limit 2**8 and well beyond it
    @pytest.mark.parametrize(
        "t1,t2",
        [(2.0**8, 2.0**8 + 0.3), (-(2.0**8), 0.0), (0.0, 1e3), (2.0**19, 2.0**19 + 0.3), (-(2.0**19), 0.0), (0.0, 1e7)],
    )
    def test_times_beyond_the_limit_rejected(self, t1, t2):
        with pytest.raises(InvalidArgumentError, match=r"2\*\*8"):
            max_violation_over_34(t1, t2)

    def test_pairs_just_below_the_limit(self):
        # the gaps t_k - t_l are longest, and so rounded most, when t1 and t2
        # sit at opposite ends of the range; the check's 1e-12 must still hold
        rng = np.random.default_rng(80)
        below = np.nextafter(2.0**8, 0.0)
        for _ in range(200):
            t1 = rng.uniform(2.0**8 - 4.0, below)
            t2 = rng.choice([min(t1 + rng.uniform(-4.0, 4.0), below), -rng.uniform(2.0**8 - 4.0, below)])
            sign = rng.choice([-1.0, 1.0])
            value, _, _ = max_violation_over_34(sign * t1, sign * t2)
            closed = 2 * (abs(math.cos(t2 - t1)) + abs(math.sin(t2 - t1)))
            assert abs(value - closed) <= 1e-12
        max_violation_over_34(-below, below)


class TestEmpiricalCorrelations:
    SCENARIO = LGScenario.from_times(0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8)

    def test_bb_reproduces_quantum_value(self):
        c = empirical_correlations(BeltramettiBugajski(), self.SCENARIO, 200_000, seed=42)
        assert abs(lg_value(c) - TSIRELSON_BOUND) <= 5 * lg_stderr(c)
        exact = quantum_correlations(self.SCENARIO)
        for est, se, ex in zip(c.values(), c.stderr, exact.values()):
            assert abs(est - ex) <= 5 * se

    def test_branching_reproduces_quantum_value(self):
        c = empirical_correlations(BranchingModel(), self.SCENARIO, 200_000, seed=43)
        assert abs(lg_value(c) - TSIRELSON_BOUND) <= 5 * lg_stderr(c)

    def test_telegraph_respects_classical_bound(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            start = rng.uniform(0, 1.0)
            step = rng.uniform(0.05, 1.0)
            gamma = rng.uniform(0.1, 2.0)
            s = LGScenario.from_times(*(start + k * step for k in range(4)))
            c = empirical_correlations(Telegraph(gamma), s, 100_000, seed=45)
            assert lg_value(c) <= CLASSICAL_BOUND + 5 * lg_stderr(c)

    def test_telegraph_matches_analytic_autocorrelation(self):
        # oracle: stationary two-state autocorrelation exp(-2 gamma dt) per pair
        gamma = 0.8
        s = LGScenario.from_times(0.0, 0.3, 0.7, 1.1)
        c = empirical_correlations(Telegraph(gamma), s, 400_000, seed=46)
        for (tk, tl), est, se in zip(s.pair_times(), c.values(), c.stderr):
            assert abs(est - math.exp(-2 * gamma * abs(tk - tl))) <= 5 * se

    def test_counts_and_stderr_structure(self):
        c = empirical_correlations(BeltramettiBugajski(), self.SCENARIO, 40_000, seed=47)
        assert sum(c.counts) == 40_000
        for est, se, n in zip(c.values(), c.stderr, c.counts):
            assert n > 0
            assert se == pytest.approx(math.sqrt((1 - est**2) / n), rel=1e-12)

    def test_deterministic_given_seed(self):
        a = empirical_correlations(BeltramettiBugajski(), self.SCENARIO, 30_000, seed=42)
        b = empirical_correlations(BeltramettiBugajski(), self.SCENARIO, 30_000, seed=42)
        assert a == b

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setenv("ONTOLAB_THREADS", "1")
        a = empirical_correlations(BranchingModel(), self.SCENARIO, 150_000, seed=48)
        monkeypatch.setenv("ONTOLAB_THREADS", "4")
        b = empirical_correlations(BranchingModel(), self.SCENARIO, 150_000, seed=48)
        assert a == b

    def test_runs_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            empirical_correlations(BeltramettiBugajski(), self.SCENARIO, 0, seed=1)


class TestStderrCalibration:
    """Across seeds, (C - exact) / stderr per pair, and lg_value's against lg_stderr, are standard normal.

    Each pair's run count is fixed by the split, so its estimate is binomial
    and the reported stderr holds without conditioning on the counts.  Over
    N seeds, the mean of each z must lie within 5 / sqrt(N) of 0, and its
    sample variance s^2 within the band where (N - 1) s^2, chi-square with
    N - 1 degrees of freedom, leaves a normal 5-sigma tail on either side.
    """

    SCENARIO = LGScenario.from_times(0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8)
    RUNS = 4_000

    def _z_scores(self, model, exact: CorrelationMatrix, seeds) -> np.ndarray:
        """One row per seed: the four pairs' z, then lg_value's."""
        rows = []
        for seed in seeds:
            c = empirical_correlations(model, self.SCENARIO, self.RUNS, seed)
            pairs = [(est - ex) / se for est, ex, se in zip(c.values(), exact.values(), c.stderr)]
            rows.append([*pairs, (lg_value(c) - lg_value(exact)) / lg_stderr(c)])
        return np.array(rows)

    @staticmethod
    def _assert_standard_normal(z: np.ndarray) -> None:
        n = len(z)
        tail = stats.norm.sf(5.0)
        low, high = stats.chi2.ppf([tail, 1.0 - tail], n - 1) / (n - 1)
        mean, var = z.mean(axis=0), z.var(axis=0, ddof=1)
        assert np.all(np.abs(mean) <= 5.0 / math.sqrt(n)), mean
        assert np.all((low <= var) & (var <= high)), (var, low, high)

    def test_telegraph(self):
        gamma = 1.0
        exact = CorrelationMatrix(*(math.exp(-2.0 * gamma * abs(tl - tk)) for tk, tl in self.SCENARIO.pair_times()))
        self._assert_standard_normal(self._z_scores(Telegraph(gamma), exact, range(400)))

    def test_bb(self):
        exact = quantum_correlations(self.SCENARIO)
        self._assert_standard_normal(self._z_scores(BeltramettiBugajski(), exact, range(1000, 1150)))
