"""Acceptance suite: every criterion at its stated scale and tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion, including the measured runtime against its budget.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from ontolab import (
    CLASSICAL_BOUND,
    MAXIMALLY_MIXED,
    TSIRELSON_BOUND,
    BeltramettiBugajski,
    BranchingModel,
    CorrelationMatrix,
    LGScenario,
    Telegraph,
    branching_no_erasure_check,
    empirical_correlations,
    erasure_report,
    invariance_test,
    joint_expectation,
    lg_stderr,
    lg_value,
    max_violation_over_34,
    noflow_test,
    quantum_correlations,
    sequential_joint,
    single_world_joint_statistics,
)
from ontolab.cli import main
from ontolab.leggett_garg import PAIRS
from ontolab.rng import uniform_block

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])

LN_4PI = math.log(4 * math.pi)


class _Criterion:
    """Times a criterion, prints its verdict line, and enforces the budget."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {verdict} ({elapsed:.2f}s < {self.budget_s:.0f}s): {self.label}")
        if exc_type is None:
            assert elapsed < self.budget_s, f"criterion {self.number} exceeded {self.budget_s}s"
        return False


def random_units(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_c01_tsirelson_reproduction(tmp_path):
    with _Criterion(1, "quantum lg at 0,pi/8,pi/4,3pi/8 reports 2*sqrt(2) within 1e-9", 1.0):
        out = tmp_path / "lg.json"
        code = main(
            ["lg", "--model", "quantum", "--times", "0,pi/8,pi/4,3pi/8",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        reported = json.loads(out.read_text())["results"]["lg_value"]
        assert abs(reported - TSIRELSON_BOUND) <= 1e-9


def test_c02_correlation_law():
    with _Criterion(2, "exact correlators equal cos 2(dt) within 1e-12, 1000 random pairs", 1.0):
        rng = np.random.default_rng(2026)
        for tk, tl in rng.uniform(0, 2 * np.pi, (1000, 2)):
            expected = math.cos(2 * (tk - tl))
            e_seq = joint_expectation(sequential_joint(MAXIMALLY_MIXED, [tk, tl]))
            assert abs(e_seq - expected) <= 1e-12
        scenario = LGScenario(0.31, 1.07, 0.84, 2.9)
        for (tk, tl), c in zip(scenario.pair_times(), quantum_correlations(scenario).values()):
            assert abs(c - math.cos(2 * (tk - tl))) <= 1e-12


def test_c03_scan_matches_closed_form():
    with _Criterion(3, "scan matches 2(|cos d|+|sin d|) within 1e-8; equals 2 at d in {0, pi/2}", 10.0):
        rng = np.random.default_rng(3)
        for _ in range(100):
            t1 = rng.uniform(0, 2 * np.pi)
            t2 = t1 + rng.uniform(0, np.pi)
            value, _, _ = max_violation_over_34(t1, t2)
            closed = 2 * (abs(math.cos(t2 - t1)) + abs(math.sin(t2 - t1)))
            assert abs(value - closed) <= 1e-8
        for delta in (0.0, np.pi / 2):
            value, _, _ = max_violation_over_34(0.4, 0.4 + delta)
            assert abs(value - 2.0) <= 1e-8


def test_c04_classical_bound():
    with _Criterion(4, "deterministic max is 2; telegraph never beats 2 + 5 stderr (20 scenarios, 1e6 runs)", 30.0):
        best = max(
            lg_value(CorrelationMatrix(*(float(a[k - 1] * a[l - 1]) for k, l in PAIRS)))
            for a in itertools.product((1, -1), repeat=4)
        )
        assert best == 2.0
        rng = np.random.default_rng(4)
        for i in range(20):
            start = rng.uniform(0, 2.0)
            step = rng.uniform(0.02, 1.2)
            gamma = rng.uniform(0.05, 3.0)
            scenario = LGScenario.from_times(*(start + k * step for k in range(4)))
            corr = empirical_correlations(Telegraph(gamma), scenario, 1_000_000, seed=400 + i)
            assert lg_value(corr) <= CLASSICAL_BOUND + 5 * lg_stderr(corr)


def test_c05_bb_born_equivalence():
    with _Criterion(5, "BB joints match the exact oracle within 5 stderr (50 pairs, 1e5 runs)", 30.0):
        rng = np.random.default_rng(5)
        runs = 100_000
        for i in range(50):
            a, b = random_units(rng, 2)
            probs = single_world_joint_statistics(BeltramettiBugajski(), a, b, runs, seed=500 + i)
            exact = sequential_joint(MAXIMALLY_MIXED, [a, b])
            tol = 5 * np.sqrt(exact * (1 - exact) / runs) + 1e-12
            assert (np.abs(probs - exact) <= tol).all()


def test_c06_erasure_demonstration():
    with _Criterion(6, "BB erasure: before 2.531+-0.02, after ln2+ln(area)+-0.02, gap +ln4 per refinement", 60.0):
        rep = erasure_report(
            BeltramettiBugajski(), Z, 1_000_000, ((8, 8), (16, 16), (32, 32)), seed=6
        )
        for (nz, nphi), before, after in zip(rep.resolutions, rep.entropy_before, rep.entropy_after):
            assert abs(before - 2.531) <= 0.02
            assert abs(after - (math.log(2) + math.log(4 * math.pi / (nz * nphi)))) <= 0.02
        gaps = rep.gaps
        assert abs((gaps[1] - gaps[0]) - math.log(4)) <= 0.05
        assert abs((gaps[2] - gaps[1]) - math.log(4)) <= 0.05


def test_c07_noflow_dichotomy():
    with _Criterion(7, "BB z-x flow detected (TV >= 0.95, CI above threshold); z-z and telegraph below", 60.0):
        flow = noflow_test(BeltramettiBugajski(), Z, X, 1_000_000, seed=7)
        assert flow.tv >= 0.95
        assert flow.ci_low > flow.noise_threshold
        assert flow.flow_detected
        null = noflow_test(BeltramettiBugajski(), Z, Z, 1_000_000, seed=8)
        assert null.tv <= null.noise_threshold and not null.flow_detected
        tg = noflow_test(Telegraph(1.3), Z, X, 1_000_000, seed=9)
        assert tg.tv <= tg.noise_threshold and not tg.flow_detected


def test_c08_branching_equivalence():
    with _Criterion(8, "branching joints match oracle (50 pairs); a=b exact; system immutable; printed variant fails", 60.0):
        rng = np.random.default_rng(8)
        runs = 100_000
        a_variant_failures = 0
        a_variant_worst = 0.0
        for i in range(50):
            a, b = random_units(rng, 2)
            exact = sequential_joint(MAXIMALLY_MIXED, [a, b])
            tol = 5 * np.sqrt(exact * (1 - exact) / runs) + 1e-12
            probs = BranchingModel().joint_statistics(a, b, runs, seed=800 + i)
            assert (np.abs(probs - exact) <= tol).all()
            dev_a = np.abs(
                BranchingModel(setting_variant="a").joint_statistics(a, b, runs, seed=800 + i)
                - exact
            )
            if (dev_a > tol).any():
                a_variant_failures += 1
                a_variant_worst = max(a_variant_worst, float(dev_a.max()))
        assert a_variant_failures >= 1
        print(
            f"    printed-bookkeeping variant failed oracle equivalence on "
            f"{a_variant_failures}/50 pairs (largest cell deviation {a_variant_worst:.4f})"
        )
        # equal settings: every run perfectly correlated
        a = random_units(rng, 1)[0]
        res = BranchingModel().run_experiment_batch(a, a, uniform_block(88, range(runs), (0, 1, 2, 3, 4)))
        assert np.array_equal(res.alpha, res.beta)
        # system pair bit-identical before and after in every run
        rep = branching_no_erasure_check(Z, random_units(rng, 1)[0], runs, seed=89)
        assert rep.immutable and rep.passed


def test_c09_branching_lg_closure():
    with _Criterion(9, "branching model at pi/8 spacing gives lg 2.828 +- 0.01 (1e6 runs)", 30.0):
        scenario = LGScenario.from_times(0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8)
        corr = empirical_correlations(BranchingModel(), scenario, 1_000_000, seed=9)
        assert abs(lg_value(corr) - 2.828) <= 0.01


def test_c10_unitary_invariance():
    with _Criterion(10, "uniform ensemble invariant under 10 random evolutions; cap control exceeds 0.1", 30.0):
        rep = invariance_test(1_000_000, 10, seed=10)
        assert rep.tv <= rep.noise_threshold
        control = invariance_test(1_000_000, 10, seed=10, start="cap")
        assert control.tv > 0.1


def test_c11_determinism(tmp_path, monkeypatch):
    with _Criterion(11, "same command and seed gives byte-identical files at 1 and 4 workers", 60.0):
        commands = {
            "lg.json": ["lg", "--model", "mw", "--times", "0,pi/8,pi/4,3pi/8",
                        "--runs", "200000", "--seed", "11", "--format", "json"],
            "erasure.csv": ["erasure", "--model", "bb", "--runs", "200000",
                            "--seed", "12", "--bins", "8x8,16x16"],
            "noflow.json": ["noflow", "--model", "telegraph", "--dirs", "0,0,1;1,0,0",
                            "--runs", "200000", "--seed", "13", "--format", "json"],
            "mwcheck.csv": ["mwcheck", "--dirs", "0,0,1;0,1,0", "--runs", "200000",
                            "--seed", "14"],
        }
        for filename, args in commands.items():
            out = tmp_path / filename
            full = args + ["--out", str(out)]
            monkeypatch.setenv("ONTOLAB_THREADS", "1")
            assert main(full) == 0
            single_worker = out.read_bytes()
            monkeypatch.setenv("ONTOLAB_THREADS", "4")
            assert main(full) == 0
            assert out.read_bytes() == single_worker, f"{filename} differs across worker counts"
