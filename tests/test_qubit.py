"""Quantum-oracle unit tests.

Closed-form operations are cross-checked against independent routes:
scipy.linalg.expm for the unitary and explicit projector algebra for
measurement statistics.  The density-matrix conversions and the
Schroedinger-picture operations (unitary, evolve, measure) are the test
helpers' reference implementations, checked here before other tests lean on
them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from ontolab import MAXIMALLY_MIXED, InvalidArgumentError, heisenberg_direction, joint_expectation, sequential_joint
from ontolab.qubit import ATOL, IDENTITY, SIGMA_Z

from helpers import (
    HAMILTONIAN,
    PAULIS,
    InvalidDensityError,
    UndefinedConditionalStateError,
    bloch_to_density,
    check_density,
    density_to_bloch,
    evolve,
    joint_marginals,
    measure,
    unitary,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def random_unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestBlochConversion:
    def test_zero_vector_is_maximally_mixed(self):
        assert_allclose(bloch_to_density([0, 0, 0]), MAXIMALLY_MIXED, atol=ATOL)

    def test_z_eigenstate(self):
        assert_allclose(bloch_to_density(Z), np.diag([1.0, 0.0]), atol=ATOL)

    def test_x_eigenstate_all_entries_half(self):
        # (I + sigma_x) / 2 = [[1/2, 1/2], [1/2, 1/2]]
        assert_allclose(bloch_to_density(X), np.full((2, 2), 0.5), atol=ATOL)

    def test_overlong_vector_rejected(self):
        with pytest.raises(InvalidDensityError):
            bloch_to_density([0, 0, 1.001])

    def test_density_to_bloch_trivia(self):
        assert_allclose(density_to_bloch(MAXIMALLY_MIXED), [0, 0, 0], atol=ATOL)
        assert_allclose(density_to_bloch(np.diag([1.0, 0.0])), Z, atol=ATOL)

    def test_round_trip_on_random_unit_vectors(self):
        rng = np.random.default_rng(1)
        for u in random_unit_vectors(rng, 100):
            assert_allclose(density_to_bloch(bloch_to_density(u)), u, atol=1e-12)

    @given(st.lists(st.floats(-1, 1), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property_inside_ball(self, comps):
        v = np.asarray(comps)
        norm = np.linalg.norm(v)
        if norm > 1:
            v = v / (norm * (1 + 1e-9))
        assert_allclose(density_to_bloch(bloch_to_density(v)), v, atol=1e-12)


class TestUnitary:
    def test_zero_interval_is_identity(self):
        assert_allclose(unitary(0.0), IDENTITY, atol=ATOL)

    def test_quarter_period_is_minus_i_h(self):
        assert_allclose(unitary(np.pi / 2), -1j * HAMILTONIAN, atol=ATOL)

    def test_matches_matrix_exponential(self):
        # independent oracle for the closed form
        rng = np.random.default_rng(2)
        for dt in rng.uniform(-10, 10, 25):
            assert_allclose(unitary(dt), expm(-1j * HAMILTONIAN * dt), atol=1e-12)

    def test_unitarity_on_1000_random_intervals(self):
        rng = np.random.default_rng(3)
        for dt in rng.uniform(-20, 20, 1000):
            u = unitary(dt)
            assert np.abs(u @ u.conj().T - IDENTITY).max() <= 1e-12

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_group_property(self, a, b):
        assert np.abs(unitary(a) @ unitary(b) - unitary(a + b)).max() <= 1e-12

    def test_nonfinite_interval_rejected(self):
        with pytest.raises(InvalidArgumentError):
            unitary(float("nan"))


class TestEvolve:
    def test_maximally_mixed_invariant(self):
        for dt in (0.1, 1.7, -3.0):
            assert_allclose(evolve(MAXIMALLY_MIXED, dt), MAXIMALLY_MIXED, atol=ATOL)

    def test_z_to_minus_y_at_quarter_turn(self):
        rho = evolve(bloch_to_density(Z), np.pi / 4)
        assert_allclose(density_to_bloch(rho), [0, -1, 0], atol=1e-12)

    def test_matches_expm_conjugation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.uniform(-1, 1, 3) * 0.5
            dt = rng.uniform(-5, 5)
            rho = bloch_to_density(v)
            u = expm(-1j * HAMILTONIAN * dt)
            assert_allclose(evolve(rho, dt), u @ rho @ u.conj().T, atol=1e-12)

    def test_full_period_pi(self):
        rng = np.random.default_rng(5)
        for u in random_unit_vectors(rng, 10):
            rho = bloch_to_density(u)
            assert_allclose(evolve(rho, np.pi), rho, atol=1e-12)

    def test_spectrum_preserved(self):
        rho = bloch_to_density([0.3, -0.2, 0.4])
        before = np.linalg.eigvalsh(rho)
        after = np.linalg.eigvalsh(evolve(rho, 1.234))
        assert_allclose(before, after, atol=1e-12)


class TestHeisenbergDirection:
    def test_time_zero_is_z(self):
        assert_allclose(heisenberg_direction(0.0), Z, atol=ATOL)

    def test_quarter_turn_is_y(self):
        assert_allclose(heisenberg_direction(np.pi / 4), [0, 1, 0], atol=ATOL)

    def test_dot_product_law(self):
        rng = np.random.default_rng(6)
        for t1, t2 in rng.uniform(0, 2 * np.pi, (200, 2)):
            d = heisenberg_direction(t1) @ heisenberg_direction(t2)
            assert abs(d - np.cos(2 * (t2 - t1))) <= 1e-12

    def test_matches_heisenberg_conjugation(self):
        # direction components read off U(t)^dag sigma_z U(t) expanded in Paulis
        rng = np.random.default_rng(7)
        for t in rng.uniform(0, 2 * np.pi, 20):
            u = expm(-1j * HAMILTONIAN * t)
            obs = u.conj().T @ SIGMA_Z @ u
            comps = [np.trace(obs @ s).real / 2 for s in PAULIS]
            assert_allclose(heisenberg_direction(t), comps, atol=1e-12)


class TestMeasure:
    def test_maximally_mixed_half_half(self):
        rng = np.random.default_rng(8)
        for n in random_unit_vectors(rng, 10):
            for outcome in (1, -1):
                p, _ = measure(MAXIMALLY_MIXED, n, outcome)
                assert abs(p - 0.5) <= 1e-12

    def test_eigenstate_certain(self):
        rho = bloch_to_density(Z)
        p, post = measure(rho, Z, 1)
        assert abs(p - 1.0) <= 1e-12
        assert_allclose(post, rho, atol=ATOL)

    def test_orthogonal_direction_half_half(self):
        rho = bloch_to_density(Z)
        for outcome in (1, -1):
            p, post = measure(rho, X, outcome)
            assert abs(p - 0.5) <= 1e-12
            assert_allclose(density_to_bloch(post), outcome * X, atol=ATOL)

    def test_impossible_outcome_raises(self):
        with pytest.raises(UndefinedConditionalStateError):
            measure(bloch_to_density(Z), Z, -1)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(InvalidArgumentError):
            measure(MAXIMALLY_MIXED, [0, 0, 0.5], 1)


class TestSequentialJoint:
    def test_pi_8_gap_correlation(self):
        probs = sequential_joint(*(heisenberg_direction(t) for t in (0.3, 0.3 + np.pi / 8)))
        assert abs(joint_expectation(probs) - np.sqrt(2) / 2) <= 1e-12

    def test_identical_settings_perfect_correlation(self):
        probs = sequential_joint(heisenberg_direction(1.1), heisenberg_direction(1.1))
        assert abs(joint_expectation(probs) - 1.0) <= 1e-12

    def test_pi_4_gap_uncorrelated(self):
        probs = sequential_joint(*(heisenberg_direction(t) for t in (0.2, 0.2 + np.pi / 4)))
        assert abs(joint_expectation(probs)) <= 1e-12

    def test_normalization_and_correlation_law_random_times(self):
        rng = np.random.default_rng(10)
        for tk, tl in rng.uniform(0, 2 * np.pi, (200, 2)):
            probs = sequential_joint(heisenberg_direction(tk), heisenberg_direction(tl))
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert abs(joint_expectation(probs) - np.cos(2 * (tk - tl))) <= 1e-12

    def test_second_marginal_unbiased_regardless_of_first_setting(self):
        rng = np.random.default_rng(11)
        for tk, tl in rng.uniform(0, 2 * np.pi, (100, 2)):
            probs = sequential_joint(heisenberg_direction(tk), heisenberg_direction(tl))
            _, second = joint_marginals(probs)
            assert_allclose(second, [0.5, 0.5], atol=1e-12)

    def test_accepts_direction_settings(self):
        probs = sequential_joint(Z, X)
        assert abs(joint_expectation(probs)) <= 1e-12

    def test_general_state_matches_projector_algebra(self):
        # independent oracle: explicit projector products on the maximally mixed state, at general settings
        rho = IDENTITY / 2
        na, nb = heisenberg_direction(0.5), heisenberg_direction(1.9)
        probs = sequential_joint(na, nb)
        for i, a in enumerate((1, -1)):
            pa = (IDENTITY + a * (na[0] * np.array([[0, 1], [1, 0]]) + na[1] * np.array([[0, -1j], [1j, 0]]) + na[2] * np.diag([1, -1]))) / 2
            for j, b in enumerate((1, -1)):
                pb = (IDENTITY + b * (nb[0] * np.array([[0, 1], [1, 0]]) + nb[1] * np.array([[0, -1j], [1j, 0]]) + nb[2] * np.diag([1, -1]))) / 2
                expected = np.trace(pb @ pa @ rho @ pa).real
                assert abs(probs[i, j] - expected) <= 1e-12


class TestValidation:
    def test_check_density_rejects_non_hermitian(self):
        with pytest.raises(InvalidDensityError):
            check_density(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))

    def test_check_density_rejects_bad_trace(self):
        with pytest.raises(InvalidDensityError):
            check_density(np.diag([0.7, 0.7]).astype(complex))

    def test_check_density_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidDensityError):
            check_density(np.diag([1.5, -0.5]).astype(complex))

    def test_sequential_joint_rejects_non_unit_setting(self):
        with pytest.raises(InvalidArgumentError):
            sequential_joint(Z, [0, 0.5, 0])
