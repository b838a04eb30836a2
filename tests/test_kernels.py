"""Bit identity of the branch-free int8 kernels against the formulas they replaced.

Each kernel of ``models`` and ``sphere`` that builds +-1 outcomes from a
comparison viewed as int8, or fills its output in place, must give the same
dtype and the same bits as the ``np.where`` / ``column_stack`` reference of
the same name in ``helpers``, ties included: u == p(+1), u == 0.5 and
x == +-0.0 (sign(0) := +1 for both zeros).
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ontolab import BeltramettiBugajski, BranchingModel, Telegraph, branching_no_erasure_check
from ontolab.models import sign_pm1
from ontolab.rng import Uniforms
from ontolab.sphere import bin_index, sample_uniform_sphere

from helpers import (
    stacked_sample_uniform_sphere,
    where_alice,
    where_bb_measure,
    where_bob,
    where_bin_index,
    where_joint_cells,
    where_pair_and_select,
    where_sign_pm1,
    where_telegraph_evolve,
    where_telegraph_prepare,
)

SIZES = st.integers(0, 40)
ZEROS = st.sampled_from([0.0, -0.0])
COMPONENTS = st.floats(-1.0, 1.0) | ZEROS | st.sampled_from([0.5, -0.5, 1.0, -1.0])
UNIFORMS = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from([0.0, 0.5, 0.25, 0.75])


def same_bits(new: np.ndarray, ref: np.ndarray) -> bool:
    return new.dtype == ref.dtype and new.shape == ref.shape and new.tobytes() == ref.tobytes()


@st.composite
def pm1(draw, n):
    return draw(arrays(np.int8, n, elements=st.sampled_from([-1, 1])))


@st.composite
def tied(draw, n, ties):
    """n uniforms, each either free or equal to the matching entry of `ties`, or to 0.5."""
    free = draw(arrays(np.float64, n, elements=UNIFORMS))
    kind = draw(arrays(np.int8, n, elements=st.sampled_from([0, 1, 2])))
    return np.where(kind == 1, ties, np.where(kind == 2, 0.5, free))


class TestSign:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, SIZES, elements=st.floats(allow_nan=True) | ZEROS))
    def test_matches_where(self, x):
        assert same_bits(sign_pm1(x), where_sign_pm1(x))

    def test_both_zeros_are_plus_one(self):
        assert sign_pm1(np.array([0.0, -0.0, -1e-300])).tolist() == [1, 1, -1]


class TestBeltramettiBugajski:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), SIZES)
    def test_measure_matches_where(self, data, n):
        states = data.draw(arrays(np.float64, (n, 3), elements=COMPONENTS))
        direction = data.draw(arrays(np.float64, 3, elements=COMPONENTS))
        u = data.draw(tied(n, 0.5 * (1.0 + states @ direction)))
        outcomes, post = BeltramettiBugajski().measure_batch(states, direction, u)
        ref_outcomes, ref_post = where_bb_measure(states, direction, u)
        assert same_bits(outcomes, ref_outcomes)
        assert same_bits(post, ref_post)

    def test_tie_at_born_probability_gives_minus_one(self):
        states = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        outcomes, _ = BeltramettiBugajski().measure_batch(states, np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.75]))
        assert outcomes.tolist() == [-1, -1]


class TestTelegraph:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), SIZES)
    def test_prepare_matches_where(self, data, n):
        u = data.draw(tied(n, 0.5))[:, None]
        assert same_bits(Telegraph().prepare_max_batch(u), where_telegraph_prepare(u))

    @settings(max_examples=200, deadline=None)
    @given(st.data(), SIZES, st.floats(0.0, 5.0), st.floats(0.0, 3.0) | ZEROS)
    def test_evolve_matches_where(self, data, n, gamma, dt):
        states = data.draw(pm1(n))
        u = data.draw(tied(n, 0.5 * (1.0 - np.exp(-2.0 * gamma * dt))))
        ref = where_telegraph_evolve(states, gamma, dt, u)
        assert same_bits(Telegraph(gamma).evolve_batch(states, dt, u), ref)
        # a backward interval flips like the forward one of the same length
        assert same_bits(Telegraph(gamma).evolve_batch(states, -dt, u), ref)


class TestBranching:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), SIZES)
    def test_alice_matches_where(self, data, n):
        a = data.draw(arrays(np.float64, 3, elements=COMPONENTS))
        x0 = data.draw(arrays(np.float64, (n, 3), elements=COMPONENTS))
        x1 = data.draw(arrays(np.float64, (n, 3), elements=COMPONENTS))
        for new, ref in zip(BranchingModel().alice_batch(a, x0, x1), where_alice(a, x0, x1)):
            assert same_bits(new, ref)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), SIZES, st.integers(1, 3))
    def test_bob_matches_two_temporaries(self, data, n, n_refs):
        b = data.draw(arrays(np.float64, 3, elements=COMPONENTS))
        refs = [data.draw(arrays(np.float64, 3, elements=COMPONENTS)) for _ in range(n_refs)]
        x0 = data.draw(arrays(np.float64, (n, 3), elements=COMPONENTS))
        x1 = data.draw(arrays(np.float64, (n, 3), elements=COMPONENTS))
        stored = x0.copy(), x1.copy()
        s_b, n_bs = BranchingModel().bob_batch(b, x0, x1, refs)
        ref_s_b, ref_n_bs = where_bob(b, x0, x1, refs)
        assert same_bits(s_b, ref_s_b)
        assert len(n_bs) == n_refs and all(same_bits(new, ref) for new, ref in zip(n_bs, ref_n_bs))
        # the scratch array is its own, never one of the inputs
        assert same_bits(x0, stored[0]) and same_bits(x1, stored[1])

    @settings(max_examples=200, deadline=None)
    @given(st.data(), SIZES)
    def test_pair_and_select_matches_where(self, data, n):
        s_a, n_a, s_b, n_b = (data.draw(pm1(n)) for _ in range(4))
        u = data.draw(tied(n, 0.5))
        new = BranchingModel().pair_and_select_batch(s_a, n_a, s_b, n_b, u)
        for got, ref in zip(new, where_pair_and_select(s_a, n_a, s_b, n_b, u)):
            assert same_bits(got, ref)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2**32))
    def test_joint_statistics_cells_match_floor_division(self, runs, seed):
        mw = BranchingModel()
        a, b = np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.0, 0.8])
        refs = (b, a)
        u = Uniforms(seed, range(runs), mw.JOINT_SLOTS)
        x0, x1 = mw.sample_ontic_batch(u.columns(range(4)))
        expected = np.stack([
            np.bincount(where_joint_cells(o1, o2), minlength=4)
            for o1, o2 in mw.branch_outcomes(a, b, refs, x0, x1, u.get(4))
        ]).reshape(-1, 2, 2) / runs
        assert np.array_equal(branching_no_erasure_check(a, b, runs, seed, references=refs).joint, expected)


class TestSphere:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(SIZES, st.just(2)), elements=UNIFORMS))
    def test_sample_matches_column_stack(self, u):
        points = sample_uniform_sphere(u)
        assert points.flags.c_contiguous
        assert same_bits(points, stacked_sample_uniform_sphere(u))

    @settings(max_examples=200, deadline=None)
    @given(st.data(), SIZES, st.integers(1, 64), st.integers(1, 64))
    def test_bin_index_matches_where(self, data, n, nz, nphi):
        points = sample_uniform_sphere(data.draw(arrays(np.float64, (n, 2), elements=UNIFORMS)))
        # rows with y = -0.0: arctan2 gives phi = -0.0 for x > 0 and -pi for x < 0
        points[::2, 1] = -0.0
        assert same_bits(bin_index(points, nz, nphi), where_bin_index(points, nz, nphi))

    def test_negative_zero_azimuth_lands_in_the_first_sector(self):
        points = np.array([[1.0, -0.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.signbit(np.arctan2(points[0, 1], points[0, 0]))
        assert bin_index(points, 4, 8).tolist() == where_bin_index(points, 4, 8).tolist() == [16, 16]
