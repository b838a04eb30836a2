"""Contract and statistics tests for the three ontological models.

The quantum oracle (sequential_joint, and measure / evolve from the test
helpers) supplies the expected distributions; uniformity claims use
chi-square on the equal-area grid.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chisquare

from ontolab import (
    MAXIMALLY_MIXED,
    BeltramettiBugajski,
    BranchingModel,
    InvalidArgumentError,
    Telegraph,
    bloch_to_density,
    branching_no_erasure_check,
    density_to_bloch,
    joint_expectation,
    make_model,
    sequential_joint,
)
from ontolab.models import OntologicalModel, sign_pm1
from ontolab.rng import uniform_block

from helpers import bb_joint_statistics, evolve, from_points, measure

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def random_unit(rng, n=1):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def coordinates(points) -> dict:
    """The coordinates of (n, 3) points (or one 3-vector) by axis, as the branching model's devices read them."""
    return dict(enumerate(np.asarray(points, dtype=float).reshape(-1, 3).T))


def stacked(x: dict) -> np.ndarray:
    """The (n, 3) points of coordinates by axis."""
    return np.column_stack([x[axis] for axis in range(3)])


def uniformity_pvalue(points, nz=8, nphi=16):
    counts = from_points(points, nz, nphi).counts.ravel()
    return chisquare(counts).pvalue


class TestSign:
    def test_zero_maps_to_plus_one(self):
        assert_allclose(sign_pm1(np.array([-2.0, 0.0, 3.0])), [-1, 1, 1])


class TestBeltramettiBugajski:
    def test_prepare_uniform_mean_and_chisquare(self):
        bb = BeltramettiBugajski()
        states = bb.prepare_max_batch(uniform_block(1, range(1_000_000), (0, 1)))
        assert np.linalg.norm(states.mean(axis=0)) <= 0.005
        assert uniformity_pvalue(states) > 0.001

    def test_prepare_reproducible_under_seed(self):
        bb = BeltramettiBugajski()
        first = bb.prepare_max_batch(uniform_block(123, range(100), (0, 1)))
        second = bb.prepare_max_batch(uniform_block(123, range(100), (0, 1)))
        assert np.array_equal(first, second)
        assert np.abs(np.linalg.norm(first, axis=1) - 1.0).max() <= 1e-12

    def test_measure_eigenstate_certain(self):
        bb = BeltramettiBugajski()
        n = 1000
        outcomes, post = bb.measure_batch(np.tile(Z, (n, 1)), Z, uniform_block(0, range(n), (0,))[:, 0])
        assert (outcomes == 1).all()
        assert_allclose(post, np.tile(Z, (n, 1)))

    def test_measure_equator_half_half_and_collapse_support(self):
        bb = BeltramettiBugajski()
        n = 40_000
        states = np.tile(X, (n, 1))
        outcomes, post = bb.measure_batch(states, Z, uniform_block(2, range(n), (0,))[:, 0])
        assert abs(outcomes.astype(float).mean()) <= 5 / math.sqrt(n)
        # post-measurement support is exactly {+z, -z}
        assert np.array_equal(post, outcomes[:, None] * Z[None, :])

    def test_measure_uniform_ensemble_unbiased(self):
        bb = BeltramettiBugajski()
        runs = 100_000
        u = uniform_block(3, range(runs), (0, 1, 2))
        states = bb.prepare_max_batch(u[:, :2])
        direction = random_unit(np.random.default_rng(5))[0]
        outcomes, _ = bb.measure_batch(states, direction, u[:, 2])
        assert abs(outcomes.astype(float).mean()) <= 5 / math.sqrt(runs)

    def test_evolve_matches_quantum_oracle_on_pure_state(self):
        bb = BeltramettiBugajski()
        assert_allclose(bb.evolve_batch(Z[None, :], 0.0)[0], Z, atol=1e-12)
        assert_allclose(bb.evolve_batch(Z[None, :], np.pi / 4)[0], [0, -1, 0], atol=1e-12)
        rng = np.random.default_rng(6)
        for lam in random_unit(rng, 20):
            dt = rng.uniform(-3, 3)
            expected = density_to_bloch(evolve(bloch_to_density(lam), dt))
            evolved = bb.evolve_batch(lam[None, :], dt)[0]
            assert_allclose(evolved, expected, atol=1e-12)
            assert abs(np.linalg.norm(evolved) - 1.0) <= 1e-12

    def test_evolve_preserves_uniformity(self):
        bb = BeltramettiBugajski()
        states = bb.prepare_max_batch(uniform_block(7, range(400_000), (0, 1)))
        evolved = bb.evolve_batch(states, 1.2345)
        assert uniformity_pvalue(evolved) > 0.001

    def test_born_equivalence_against_oracle(self):
        rng = np.random.default_rng(8)
        runs = 50_000
        for seed in range(10):
            a, b = random_unit(rng), random_unit(rng)
            probs = bb_joint_statistics(a[0], b[0], runs, seed=seed)
            exact = sequential_joint(MAXIMALLY_MIXED, [a[0], b[0]])
            stderr = np.sqrt(exact * (1 - exact) / runs)
            assert (np.abs(probs - exact) <= 5 * stderr + 1e-12).all()

    def test_single_run_matches_oracle_probability(self):
        bb = BeltramettiBugajski()
        rng = np.random.default_rng(9)
        lam = random_unit(rng)[0]
        direction = random_unit(rng)[0]
        p_plus, _ = measure(bloch_to_density(lam), direction, 1)
        u = uniform_block(9, range(4000), (0,))[:, 0]
        outcomes, _ = bb.measure_batch(np.tile(lam, (4000, 1)), direction, u)
        freq = np.mean(outcomes == 1)
        assert abs(freq - p_plus) <= 5 * math.sqrt(p_plus * (1 - p_plus) / 4000)


class TestTelegraph:
    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Telegraph(gamma=-0.1)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_non_finite_rate_rejected(self, gamma):
        with pytest.raises(InvalidArgumentError, match="finite and >= 0"):
            Telegraph(gamma=gamma)

    def test_negative_interval_evolves_by_its_length(self):
        # the stationary symmetric chain is reversible, so a backward interval flips like a forward one
        tg = Telegraph(1.0)
        u = uniform_block(9, range(1000), (0, 1))
        s = tg.prepare_max_batch(u)
        assert np.array_equal(tg.evolve_batch(s, -0.5, u[:, 1]), tg.evolve_batch(s, 0.5, u[:, 1]))

    def test_frozen_state_at_zero_rate(self):
        tg = Telegraph(gamma=0.0)
        runs = 10_000
        u = uniform_block(10, range(runs), (0, 1))
        s = tg.prepare_max_batch(u)
        s2 = tg.evolve_batch(s, 5.0, u[:, 1])
        assert np.array_equal(s, s2)

    def test_autocorrelation_matches_markov_kernel(self):
        gamma, dt, runs = 1.0, 0.5, 1_000_000
        tg = Telegraph(gamma)
        u = uniform_block(11, range(runs), (0, 1))
        s = tg.prepare_max_batch(u)
        s2 = tg.evolve_batch(s, dt, u[:, 1])
        corr = (s.astype(float) * s2).mean()
        expected = math.exp(-2 * gamma * dt)
        assert abs(corr - expected) <= 0.005

    def test_measure_is_noninvasive(self):
        tg = Telegraph(1.0)
        s = np.array([1, -1, 1], dtype=np.int8)
        outcomes, post = tg.measure_batch(s)
        assert np.array_equal(outcomes, s)
        assert post is s

    def test_preparation_unbiased(self):
        tg = Telegraph(1.0)
        s = tg.prepare_max_batch(uniform_block(12, range(100_000), (0,)))
        assert abs(s.astype(float).mean()) <= 5 / math.sqrt(100_000)

    def test_pole_embedding(self):
        tg = Telegraph(1.0)
        pts = tg.embed_on_sphere(np.array([1, -1], dtype=np.int8))
        assert_allclose(pts, [[0, 0, 1], [0, 0, -1]])


class TestBranchingModel:
    def test_sample_ontic_independent_and_uniform(self):
        mw = BranchingModel()
        u = uniform_block(20, range(1_000_000), (0, 1, 2, 3))
        x0, x1 = map(stacked, mw.sample_ontic_batch(u, (0, 1, 2)))
        dot = (x0 * x1).sum(axis=1)
        assert abs(dot.mean()) <= 0.005
        assert uniformity_pvalue(x0) > 0.001
        assert uniformity_pvalue(x1) > 0.001

    def test_sample_ontic_reproducible(self):
        mw = BranchingModel()
        a, b = (mw.sample_ontic_batch(uniform_block(3, range(100), (0, 1, 2, 3)), (0, 1, 2)) for _ in range(2))
        assert all(np.array_equal(stacked(x), stacked(y)) for x, y in zip(a, b))

    def test_first_party_sign_cases(self):
        mw = BranchingModel()
        x0 = random_unit(np.random.default_rng(4))[0]
        _, x1 = mw.sample_ontic_batch(uniform_block(4, range(1), (0, 1, 2, 3)), (0, 1, 2))
        s, n = mw.alice_batch(x0, coordinates(x0), x1, np.zeros(1, bool))
        assert s[0] == 1
        # opposite-hemisphere second vector flips the device bit
        _, n = mw.alice_batch(x0, coordinates(x0), coordinates(-x0), np.zeros(1, bool))
        assert n[0] == -1

    def test_first_party_outcome_unbiased(self):
        mw = BranchingModel()
        u = uniform_block(21, range(100_000), (0, 1, 2, 3))
        x0, x1 = mw.sample_ontic_batch(u, (0, 1, 2))
        s, _ = mw.alice_batch(Z, x0, x1, np.zeros(len(u), bool))
        assert abs(s.astype(float).mean()) <= 5 / math.sqrt(100_000)

    def test_second_party_sum_direction_certain(self):
        mw = BranchingModel()
        x0, x1 = mw.sample_ontic_batch(uniform_block(5, range(1), (0, 1, 2, 3)), (0, 1, 2))
        x_plus = (stacked(x0) + stacked(x1))[0]
        b = x_plus / np.linalg.norm(x_plus)
        s, _ = mw.bob_batch(b, x0, x1, (b,), np.zeros(1, bool))
        assert s[0] == 1

    def test_second_party_tie_rule(self):
        # b orthogonal to x0 - x1: the difference factor is sign(0) = +1
        mw = BranchingModel()
        b = (Z + X) / math.sqrt(2)
        s, (n,) = mw.bob_batch(b, coordinates(Z), coordinates(X), (b,), np.zeros(1, bool))
        assert s[0] == 1 and n[0] == 1

    def test_pairing_rule_cases(self):
        mw = BranchingModel()
        one = np.array([1], dtype=np.int8)
        u_keep = np.array([0.2])  # selects the +1 branch
        # aligned devices: branches pair straight
        alpha, beta = mw.pair_and_select_batch(one, one, one, one, u_keep)
        assert (int(alpha[0]), int(beta[0])) == (1, 1)
        # both bits negative: branches pair crossed
        alpha, beta = mw.pair_and_select_batch(one, -one, one, -one, u_keep)
        assert (int(alpha[0]), int(beta[0])) == (1, -1)
        # selecting the other branch flips both outcomes coherently
        alpha, beta = mw.pair_and_select_batch(one, one, one, one, np.array([0.9]))
        assert (int(alpha[0]), int(beta[0])) == (-1, -1)

    def test_equal_directions_perfectly_correlated(self):
        mw = BranchingModel()
        rng = np.random.default_rng(7)
        for seed in range(5):
            a = random_unit(rng)[0]
            u = uniform_block(seed, range(50_000), (0, 1, 2, 3, 4))
            alpha, beta = mw.run_experiment_batch(a, a, u)
            assert np.array_equal(alpha, beta)

    def test_opposite_directions_perfectly_anticorrelated(self):
        mw = BranchingModel()
        a = random_unit(np.random.default_rng(8))[0]
        u = uniform_block(30, range(50_000), (0, 1, 2, 3, 4))
        alpha, beta = mw.run_experiment_batch(a, -a, u)
        assert np.array_equal(alpha, -beta)

    def test_system_vectors_immutable(self):
        mw = BranchingModel()
        u = uniform_block(31, range(10_000), (0, 1, 2, 3, 4))
        x0, x1 = mw.sample_ontic_batch(u[:, 0:4], (0, 1, 2))
        stored = stacked(x0), stacked(x1)
        mw.branch_outcomes(Z, X, (X, Z), x0, x1, u[:, 4], np.zeros(len(u), bool))
        assert np.array_equal(stacked(x0), stored[0])
        assert np.array_equal(stacked(x1), stored[1])

    def test_joint_statistics_match_oracle(self):
        rng = np.random.default_rng(9)
        runs = 50_000
        for seed in range(10):
            a, b = random_unit(rng)[0], random_unit(rng)[0]
            probs, _ = branching_no_erasure_check(a, b, runs, seed=seed).joint
            exact = sequential_joint(MAXIMALLY_MIXED, [a, b])
            stderr = np.sqrt(exact * (1 - exact) / runs)
            assert (np.abs(probs - exact) <= 5 * stderr + 1e-12).all()
            marg = probs.sum(axis=0)
            assert np.abs(marg - 0.5).max() <= 5 * math.sqrt(0.25 / runs)

    def test_printed_bookkeeping_variant_fails_oracle(self):
        a = Z
        b = np.array([0.0, math.sin(np.pi / 4), math.cos(np.pi / 4)])
        runs = 200_000
        # bookkeeping along b, then along the first party's direction a
        probs_b, probs = branching_no_erasure_check(a, b, runs, seed=10).joint
        exact = sequential_joint(MAXIMALLY_MIXED, [a, b])
        stderr = np.sqrt(exact * (1 - exact) / runs)
        deviation = np.abs(probs - exact)
        assert (deviation > 5 * stderr).any()
        # the working variant passes on the same pair and seed
        assert (np.abs(probs_b - exact) <= 5 * stderr).all()

    @pytest.mark.parametrize("model", [BranchingModel()], ids=["mw"])
    def test_references_counted_from_one_draw(self, model):
        a = Z
        b = np.array([0.0, math.sin(np.pi / 4), math.cos(np.pi / 4)])
        runs = 70_000
        both = branching_no_erasure_check(a, b, runs, seed=13, model=model).joint
        assert both.shape == (2, 2, 2)
        # the bookkeeping along b, then along a: each table is the one that reference gets counted alone
        u = uniform_block(13, range(runs), model.JOINT_SLOTS)
        for joint, reference in zip(both, (b, a)):
            ((alpha, beta),) = model.settled_branch_outcomes(a, b, (reference,), u)
            alone = np.bincount(2 * (alpha < 0) + (beta < 0), minlength=4).reshape(2, 2) / runs
            assert np.array_equal(joint, alone)
        assert not np.array_equal(both[0], both[1])

    def test_expectation_reproduces_dot_product(self):
        rng = np.random.default_rng(11)
        a, b = random_unit(rng)[0], random_unit(rng)[0]
        probs, _ = branching_no_erasure_check(a, b, 400_000, seed=12).joint
        assert abs(joint_expectation(probs) - float(a @ b)) <= 0.008


class TestCausalityStructure:
    """Preparation cannot depend on later settings: same seed, different
    planned measurements, identical pre-measurement ensembles."""

    @pytest.mark.parametrize("model_name", ["bb", "telegraph"])
    def test_pre_measurement_ensemble_setting_independent(self, model_name):
        model = make_model(model_name)
        u = uniform_block(50, range(50_000), (0, 1, 2))
        states_for_z = model.prepare_max_batch(u[:, 0 : model.PREP_SLOTS])
        states_for_x = model.prepare_max_batch(u[:, 0 : model.PREP_SLOTS])
        assert np.array_equal(states_for_z, states_for_x)
        # and with independent seeds the distributions agree within noise
        other = model.prepare_max_batch(uniform_block(51, range(50_000), (0, 1, 2))[:, 0 : model.PREP_SLOTS])
        h1 = from_points(model.embed_on_sphere(states_for_z), 8, 8)
        h2 = from_points(model.embed_on_sphere(other), 8, 8)
        from ontolab.information import ALPHA, _homogeneity_test

        assert _homogeneity_test(np.stack([h1.counts.ravel(), h2.counts.ravel()]))[2] >= ALPHA


def test_single_world_contract_is_its_kernels_and_atoms():
    assert OntologicalModel.__abstractmethods__ == {"lg_products", "measured_states", "atoms", "embed_on_sphere"}


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_model("bb"), BeltramettiBugajski)
        assert isinstance(make_model("telegraph", gamma=0.5), Telegraph)
        assert isinstance(make_model("mw"), BranchingModel)

    def test_unknown_name(self):
        with pytest.raises(InvalidArgumentError):
            make_model("bohm")

    def test_quantum_names_only_built_models(self):
        with pytest.raises(InvalidArgumentError, match=r"one of bb, mw, telegraph \(quantum is exact and needs no model\)$"):
            make_model("quantum")
