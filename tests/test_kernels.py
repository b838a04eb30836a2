"""Bit identity of the branch-free int8 kernels against the formulas they replaced.

Each kernel of ``models`` and ``sphere`` that builds +-1 outcomes from a
comparison viewed as int8, or fills its output in place, must give the same
dtype and the same bits as the ``np.where`` / ``column_stack`` reference of
the same name in ``helpers``, ties included: u == p(+1), u == 0.5 and
x == +-0.0 (sign(0) := +1 for both zeros).

Kernels read only the coordinates their directions read
(``sphere.axes_read``) and must give the full sample's outcomes, bit for
bit: the directions' components are +0.0 or -0.0 in any subset, and the
times include multiples of pi/2.  ``sphere.dot`` agrees with the gemv it
replaced to within rounding.

The single-world kernels that compute only what their outcomes read (bb's
and the telegraph's ``lg_products``, bb's ``measured_states``) must give the
bits of the sequential reference they short-cut, prepare -> evolve -> measure
-> evolve -> measure and prepare -> measure (``helpers.composed_*``), at
planted ties of every Born and flip probability they compare against.

Outcomes decided from float32 trigonometry (``models.settle``) must keep
the float64 path's bits: the float32 coordinates stay within an eighth of
``sphere.FLOAT32_MARGIN`` of the float64 ones, rows planted within the
margin of a Born probability or of a sign flip are recomputed in float64
and match the exact sample, and the float64 sine, cosine and dot give each
gathered row the bits it has in the whole chunk.  So the float64 outcomes
of one row, or of any subset of rows, computed alone are those rows of the
whole batch.

The exact cells of the ``information`` histograms are checked against
``sphere.bin_index`` on the points they stand for: ``uniform_cell`` against
the binned uniform sample, away from sector edges, with its own rule pinned
at the edges; and the cells of the atoms, in which ``_atom_table`` counts
the outcomes, against the binned ``measure_batch`` post states, signed
zeros included.
"""

import copy
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ontolab import BeltramettiBugajski, BranchingModel, Telegraph, branching_no_erasure_check, models, rng
from ontolab.information import _atom_table, _outcome_counts
from ontolab.models import sign_pm1
from ontolab.qubit import heisenberg_direction, unit_vector
from ontolab.rng import Uniforms, uniform_block
from ontolab.sphere import (
    FLOAT32_MARGIN,
    axes_read,
    bin_index,
    dot,
    sample_uniform_sphere,
    uniform_cell,
    uniform_coordinates,
)

from helpers import (
    composed_lg_products,
    composed_measured_outcomes,
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
NONZERO = st.floats(2.0**-1074, 1.0) | st.floats(-1.0, -(2.0**-1074)) | st.sampled_from([0.5, -0.5, 1.0, -1.0])
UNIFORMS = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from([0.0, 0.5, 0.25, 0.75])
# counter-mode uniforms: k * 2**-53 for an integer k, as rng.uniform_block makes them
GRID_UNIFORMS = st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53)
CELL_GRIDS = st.sampled_from([(7, 13), (3, 1000), (1024, 1024)]) | st.integers(1, 2048).flatmap(
    lambda k: st.sampled_from([(1, k), (k, 1)])
)
# +-x, +-y, +-z as the command line parses them: zero components are +0.0
AXES = {
    f"{sign}{letter}": unit_vector([float(f"{sign}1") if k == j else 0.0 for k in range(3)])
    for j, letter in enumerate("xyz")
    for sign in ("", "-")
}


# times whose Heisenberg direction (0, sin 2t, cos 2t) has a zero component (t = +-0.0), or nearly
QUARTER_TURNS = [k * math.pi / 2 for k in (-3, -2, -1, 1, 2, 3, 4)]
TIMES = st.sampled_from([0.0, -0.0, *QUARTER_TURNS]) | st.floats(-10.0, 10.0)
# four-time pairs: ties, multiples of pi/4 (gaps with cos 2(t2 - t1) near 0 or +-1) and negative times
LG_TIMES = TIMES | st.sampled_from([k * math.pi / 4 for k in range(-5, 6)])
TIME_PAIRS = st.tuples(LG_TIMES, LG_TIMES) | LG_TIMES.map(lambda t: (t, t))
GAMMAS = st.sampled_from([0.0, 0.3, 1.0, 7.0])


@st.composite
def sparse_direction(draw):
    """A 3-vector with a nonzero component on some axis, as every direction that passed qubit.unit_vector has.

    Each other component is exactly +0.0 or -0.0, or free, in any subset.
    """
    d = np.array([draw(ZEROS) if draw(st.booleans()) else draw(COMPONENTS) for _ in range(3)])
    d[draw(st.integers(0, 2))] = draw(NONZERO)
    return d


@st.composite
def axis_direction(draw):
    """One nonzero component, +-1 or free, on any axis; +0.0 or -0.0 in each other slot."""
    k = draw(st.integers(0, 2))
    component = draw(st.sampled_from([1.0, -1.0]) | NONZERO)
    return np.array([component if j == k else draw(ZEROS) for j in range(3)])


def same_bits(new: np.ndarray, ref: np.ndarray) -> bool:
    return new.dtype == ref.dtype and new.shape == ref.shape and new.tobytes() == ref.tobytes()


def coordinates(points: np.ndarray) -> dict:
    """The columns of (n, 3) points by axis, as the branching model's devices read them."""
    return dict(enumerate(points.T))


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
        direction = data.draw(sparse_direction())
        u = data.draw(tied(n, 0.5 * (1.0 + dot(states.T, direction))))
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


def _near_zero(*dots: np.ndarray) -> np.ndarray:
    """The rows where some |dot| is at most ``FLOAT32_MARGIN``."""
    return np.any([np.abs(dot) <= FLOAT32_MARGIN for dot in dots], axis=0)


class TestBranching:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), SIZES)
    def test_alice_matches_where(self, data, n):
        a = data.draw(sparse_direction())
        x0 = data.draw(arrays(np.float64, (n, 3), elements=COMPONENTS))
        x1 = data.draw(arrays(np.float64, (n, 3), elements=COMPONENTS))
        x0, x1 = coordinates(x0), coordinates(x1)
        near = np.zeros(n, bool)
        for new, ref in zip(BranchingModel().alice_batch(a, x0, x1, near), where_alice(a, x0, x1)):
            assert same_bits(new, ref)
        # near a threshold: some dot whose sign is taken is within the margin of 0
        assert np.array_equal(near, _near_zero(dot(x0, a), dot(x1, a)))

    @settings(max_examples=200, deadline=None)
    @given(st.data(), SIZES, st.integers(1, 3), st.booleans())
    def test_bob_matches_two_temporaries(self, data, n, n_refs, b_is_a_reference):
        b = data.draw(sparse_direction())
        refs = [data.draw(sparse_direction()) for _ in range(n_refs)]
        if b_is_a_reference:
            # b itself, and b with the sign of each zero component flipped: both reuse b's dot product
            refs[data.draw(st.integers(0, n_refs - 1))] = b
            refs.append(np.where(b == 0.0, -b, b))
        x0 = data.draw(arrays(np.float64, (n, 3), elements=COMPONENTS))
        x1 = data.draw(arrays(np.float64, (n, 3), elements=COMPONENTS))
        stored = x0.copy(), x1.copy()
        near = np.zeros(n, bool)
        s_b, n_bs = BranchingModel().bob_batch(b, coordinates(x0), coordinates(x1), refs, near)
        ref_s_b, ref_n_bs = where_bob(b, coordinates(x0), coordinates(x1), refs)
        assert same_bits(s_b, ref_s_b)
        assert len(n_bs) == len(refs) and all(same_bits(new, ref) for new, ref in zip(n_bs, ref_n_bs))
        # the scratch arrays are its own, never the inputs
        assert same_bits(x0, stored[0]) and same_bits(x1, stored[1])
        plus, minus = coordinates(x0 + x1), coordinates(x0 - x1)
        dots = dot(plus, b), *(dot(plus, r) for r in refs), *(dot(minus, r) for r in refs)
        assert np.array_equal(near, _near_zero(*dots))

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
        a, b = np.array([0.0, 0.6, 0.8]), np.array([0.6, 0.0, 0.8])
        u = Uniforms(seed, range(runs), mw.JOINT_SLOTS)
        x0, x1 = mw.sample_ontic_batch(u.columns(range(4)), (0, 1, 2))
        # the bookkeeping along b, then along a
        expected = np.stack([
            np.bincount(where_joint_cells(o1, o2), minlength=4)
            for o1, o2 in mw.branch_outcomes(a, b, (b, a), x0, x1, u.get(4), np.zeros(runs, bool))
        ]).reshape(-1, 2, 2) / runs
        assert np.array_equal(branching_no_erasure_check(a, b, runs, seed).joint, expected)


class TestSphere:
    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(SIZES, st.just(2)), elements=UNIFORMS))
    def test_sample_matches_column_stack(self, u):
        points = sample_uniform_sphere(u)
        stacked = stacked_sample_uniform_sphere(u)
        assert points.flags.c_contiguous
        assert same_bits(points, stacked)
        # the coordinates on their own, in fresh arrays, for every set of axes a kernel reads
        for axes in ((0,), (1,), (2,), (1, 2), (0, 2), (0, 1, 2)):
            columns = uniform_coordinates(u, axes)
            assert tuple(columns) == axes
            for axis, column in columns.items():
                assert same_bits(column, np.ascontiguousarray(stacked[:, axis]))

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


class FullSampleMW(BranchingModel):
    """The branching model computing every coordinate of (x0, x1) in float64, whatever its kernels read."""

    def sample_ontic_batch(self, u, axes, trig_dtype=np.float64):
        return super().sample_ontic_batch(u, (0, 1, 2))


def _tied_uniforms(seed: int, runs: int, slots) -> Uniforms:
    """Counter-mode uniforms with ties planted: 0.5 (z = 0, Born or branch ties) and phi at the axes."""
    u = Uniforms(seed, range(runs), slots)
    for k, slot in enumerate(slots):
        u.get(slot)[k % 3 :: 3] = np.resize([0.0, 0.25, 0.5, 0.75], len(u.get(slot)[k % 3 :: 3]))
    return u


class TestReadCoordinates:
    @settings(max_examples=300, deadline=None)
    @given(
        arrays(np.float64, st.tuples(SIZES, st.just(2)), elements=UNIFORMS),
        st.lists(sparse_direction(), min_size=1, max_size=3),
    )
    def test_axes_read_give_the_full_dot(self, u, directions):
        axes = axes_read(*directions)
        # x and y where some component along them is nonzero (+0.0 and -0.0 read nothing), and z always
        read = np.array(directions).any(axis=0)
        assert axes == (*np.flatnonzero(read[:2]).tolist(), 2)
        reduced, full = uniform_coordinates(u, axes), uniform_coordinates(u, (0, 1, 2))
        for d in directions:
            assert same_bits(dot(reduced, d), dot(full, d))
            assert same_bits(dot(full, d), dot(sample_uniform_sphere(u).T, d))

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, 3, elements=NONZERO))
    def test_direction_with_no_zero_component_computes_every_coordinate(self, d):
        assert axes_read(d) == (0, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), SIZES, sparse_direction())
    def test_bb_measure_outcomes_match_full_sample(self, data, n, d):
        u = data.draw(arrays(np.float64, (n, 2), elements=UNIFORMS))
        bb = BeltramettiBugajski()
        full = bb.prepare_max_batch(u)
        # ties at the full sample's Born probability, where a changed bit would flip an outcome
        u_measure = data.draw(tied(n, 0.5 * (1.0 + dot(full.T, d))))
        reduced = uniform_coordinates(u, axes_read(d))
        born = 2 * (u_measure < 0.5 * (1.0 + dot(reduced, d))).view(np.int8) - 1
        assert same_bits(bb.measure_batch(full, d, u_measure)[0], born)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), SIZES, st.lists(sparse_direction(), min_size=3, max_size=5))
    def test_mw_branch_outcomes_match_full_sample(self, data, n, directions):
        a, b, *refs = directions
        u = data.draw(arrays(np.float64, (n, 5), elements=UNIFORMS))
        mw = BranchingModel()
        reduced = mw.sample_ontic_batch(u[:, :4], axes_read(*directions))
        full = mw.sample_ontic_batch(u[:, :4], (0, 1, 2))
        got = mw.branch_outcomes(a, b, refs, *reduced, u[:, 4], np.zeros(n, bool))
        want = mw.branch_outcomes(a, b, refs, *full, u[:, 4], np.zeros(n, bool))
        assert len(got) == len(refs)
        for (alpha, beta), (ref_alpha, ref_beta) in zip(got, want):
            assert same_bits(alpha, ref_alpha) and same_bits(beta, ref_beta)

    @settings(max_examples=100, deadline=None)
    @given(TIMES, TIMES, st.integers(0, 2**32))
    def test_lg_products_match_full_sample(self, t1, t2, seed):
        u = _tied_uniforms(seed, 240, tuple(range(6)))
        assert same_bits(BranchingModel().lg_products(u, (t1, t2)), FullSampleMW().lg_products(u, (t1, t2)))


class TestLeanKernels:
    """Kernels that compute only what their outcomes read, against the sequential reference on the same uniforms."""

    @settings(max_examples=200, deadline=None)
    @given(TIME_PAIRS, st.integers(0, 2**32))
    @example((0.0, 0.0), 1)
    @example((-math.pi / 4, math.pi / 4), 2)
    @example((-0.0, 3 * math.pi / 4), 3)
    @example((math.pi / 2, -0.0), 4)
    def test_bb_lg_products_match_composition(self, pair, seed):
        bb = BeltramettiBugajski()
        u = _tied_uniforms(seed, 240, tuple(range(6)))
        t_first, t_second = min(pair), max(pair)
        # ties at both Born probabilities: the evolved z row, and cos 2(t2 - t1) for either first outcome
        evolved = bb.evolve_batch(bb.prepare_max_batch(u.columns((0, 1))), t_first)
        u.get(3)[::4] = 0.5 * (1.0 + evolved[::4, 2])
        c = np.cos(2.0 * (t_second - t_first))
        u.get(5)[1::4], u.get(5)[2::4] = 0.5 * (1.0 + c), 0.5 * (1.0 - c)
        assert same_bits(bb.lg_products(u, pair), composed_lg_products(bb, u, pair))

    @settings(max_examples=200, deadline=None)
    @given(TIME_PAIRS, GAMMAS, st.integers(0, 2**32))
    @example((0.0, 0.0), 0.0, 1)
    @example((-1.5, -1.5), 7.0, 2)
    @example((-math.pi / 4, math.pi / 8), 0.3, 3)
    def test_telegraph_lg_products_match_composition(self, pair, gamma, seed):
        model = Telegraph(gamma)
        u = _tied_uniforms(seed, 240, tuple(range(6)))
        t_first, t_second = min(pair), max(pair)
        # ties at both flip probabilities
        for slot, dt in ((2, t_first), (4, t_second - t_first)):
            u.get(slot)[1::4] = 0.5 * (1.0 - np.exp(-2.0 * gamma * abs(dt)))
        assert same_bits(model.lg_products(u, pair), composed_lg_products(model, u, pair))

    @settings(max_examples=200, deadline=None)
    @given(axis_direction() | sparse_direction(), st.integers(0, 2**32))
    @example(np.array([-0.0, 0.0, -1.0]), 1)
    @example(np.array([-1.0, -0.0, -0.0]), 2)
    @example(np.array([0.0, -1.0, 0.0]), 3)
    def test_bb_measured_states_match_composition(self, d, seed):
        bb = BeltramettiBugajski()
        u = _tied_uniforms(seed, 240, (0, 1, 2))
        # ties at the Born probability of every fourth run
        full = bb.prepare_max_batch(u.columns((0, 1)))
        u.get(2)[::4] = 0.5 * (1.0 + dot(full[::4].T, d))
        prepared, outcomes = bb.measured_states(u, d)
        # the collapse model's prepared states are its preparation uniforms, binned by uniform_cell
        for nz, nphi in ((8, 8), (5, 7)):
            assert same_bits(uniform_cell(prepared, nz, nphi), uniform_cell(u.columns((0, 1)), nz, nphi))
        assert same_bits(outcomes, composed_measured_outcomes(bb, u, d))


@pytest.fixture
def trig_calls(monkeypatch):
    """(trig dtype, rows) of every coordinate computation the model kernels make, in call order."""
    calls = []

    def recording(u, *args, trig_dtype=np.float64, compute=models.uniform_coordinates):
        calls.append((np.dtype(trig_dtype), len(u)))
        return compute(u, *args, trig_dtype=trig_dtype)

    monkeypatch.setattr(models, "uniform_coordinates", recording)
    return calls


def _float64_rows(calls, n: int) -> list[int]:
    """The row counts of the float64 passes of ``models.settle`` among `calls` on n runs: those on fewer rows."""
    return [rows for dtype, rows in calls if dtype == np.float64 and 0 < rows < n]


# offsets in units of 2**-24 from a Born probability: ties, and a few float32 roundings either side
BORN_OFFSETS = np.array([0, 1, -1, 2, -2, 3, -3]) * 2.0**-24
PLANTED_RUNS = 4096


def _plant_born(u: np.ndarray, probabilities: np.ndarray) -> None:
    """Put every fourth uniform of u within a few 2**-24 of its run's Born probability."""
    u[::4] = probabilities[::4] + np.resize(BORN_OFFSETS, len(u[::4]))


def _plant_dot(u: np.ndarray, d: np.ndarray, targets: np.ndarray) -> None:
    """Move the points of uniforms u, shape (n, 2), near z = 0 and turn them until d . x is targets, to about 1e-15.

    With x = (r cos phi, r sin phi, z), d . x = r A cos(phi - psi) + d_z z,
    where A and psi are the length and azimuth of d's (x, y) part; |d_z z|
    stays below A / 10, so any target below A / 2 in size is reached.
    """
    amplitude, psi = np.hypot(d[0], d[1]), np.arctan2(d[1], d[0])
    u[:, 0] = 0.5 + 0.1 * amplitude * (u[:, 0] - 0.5)
    z = 2.0 * u[:, 0] - 1.0
    phi = psi + np.arccos((targets - d[2] * z) / (np.sqrt(1.0 - z * z) * amplitude))
    u[:, 1] = np.floor(np.mod(phi / (2.0 * np.pi), 1.0) * 2.0**53) * 2.0**-53


def _planted_mw_uniforms(seed: int, a, b) -> np.ndarray:
    """(n, 5) uniforms whose every other run puts a dot at +-1e-7.

    The dots are, quarter by quarter, a . x0, a . x1, b . (x0 + x1) and b . (x0 - x1).
    """
    u = uniform_block(seed, range(PLANTED_RUNS), BranchingModel.JOINT_SLOTS)
    quarter = PLANTED_RUNS // 4
    signs = np.resize([1e-7, -1e-7], quarter // 2)
    moderate = 0.2 * np.hypot(b[0], b[1]) * (2.0 * u[: quarter // 2, 4] - 1.0)
    blocks = [u[k * quarter : (k + 1) * quarter : 2] for k in range(4)]
    _plant_dot(blocks[0][:, 0:2], a, signs)
    _plant_dot(blocks[1][:, 2:4], a, signs)
    # x0 at a moderate b . x0, then x1 where b . (x0 + x1), or b . (x0 - x1), is +-1e-7
    _plant_dot(blocks[2][:, 0:2], b, moderate)
    _plant_dot(blocks[2][:, 2:4], b, signs - moderate)
    _plant_dot(blocks[3][:, 0:2], b, moderate)
    _plant_dot(blocks[3][:, 2:4], b, moderate - signs)
    return u


MW_PAIRS = [
    (heisenberg_direction(math.pi / 8), heisenberg_direction(3 * math.pi / 8)),
    (np.array([1.0, 2.0, 2.0]) / 3.0, np.array([-2.0, 1.0, 2.0]) / 3.0),
]
BB_DIRECTIONS = [AXES["x"], AXES["-y"], unit_vector((0.6, 0.0, 0.8)), unit_vector((0.48, -0.6, 0.64))]


class TestFloat32Trig:
    """Outcomes decided from float32 trigonometry, with the rows near a threshold recomputed in float64."""

    def test_float32_coordinates_within_an_eighth_of_the_margin(self):
        u = uniform_block(11, range(1 << 20), (0, 1))
        # phi at 0, pi/2, pi, 3 pi/2 and just below 2 pi, at the equator, the poles and in between
        u1 = np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53])
        u0 = np.array([0.0, 2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53])
        u = np.vstack([u, np.column_stack([np.repeat(u0, len(u1)), np.tile(u1, len(u0))])])
        rough = uniform_coordinates(u, (0, 1, 2), trig_dtype=np.float32)
        exact = uniform_coordinates(u, (0, 1, 2))
        assert same_bits(rough[2], exact[2])
        for axis in (0, 1):
            assert np.abs(rough[axis] - exact[axis]).max() <= FLOAT32_MARGIN / 8

    @pytest.mark.parametrize("pair", [(math.pi / 8, 3 * math.pi / 8), (0.3, 1.1), (-1.0, 0.5), (0.7, 0.9)])
    def test_bb_lg_products_planted_at_the_born_probability(self, trig_calls, monkeypatch, pair):
        bb = BeltramettiBugajski()
        u = Uniforms(5, range(PLANTED_RUNS), tuple(range(6)))
        evolved = bb.evolve_batch(bb.prepare_max_batch(u.columns((0, 1))), min(pair))
        _plant_born(u.get(3), 0.5 * (1.0 + evolved[:, 2]))
        exact = composed_lg_products(bb, u, pair)
        trig_calls.clear()
        assert same_bits(bb.lg_products(u, pair), exact)
        assert _float64_rows(trig_calls, PLANTED_RUNS)
        # the planted rows are ones float32 gets wrong: with no margin, some outcome flips
        monkeypatch.setattr(models, "FLOAT32_MARGIN", 0.0)
        assert not same_bits(bb.lg_products(u, pair), exact)

    @pytest.mark.parametrize("d", BB_DIRECTIONS, ids=["x", "-y", "xz", "xyz"])
    def test_bb_measured_states_planted_at_the_born_probability(self, trig_calls, monkeypatch, d):
        bb = BeltramettiBugajski()
        u = Uniforms(6, range(PLANTED_RUNS), (0, 1, 2))
        _plant_born(u.get(2), 0.5 * (1.0 + dot(bb.prepare_max_batch(u.columns((0, 1))).T, d)))
        exact = composed_measured_outcomes(bb, u, d)
        trig_calls.clear()
        assert same_bits(bb.measured_states(u, d)[1], exact)
        assert _float64_rows(trig_calls, PLANTED_RUNS)
        monkeypatch.setattr(models, "FLOAT32_MARGIN", 0.0)
        assert not same_bits(bb.measured_states(u, d)[1], exact)

    @pytest.mark.parametrize("a, b", MW_PAIRS, ids=["heisenberg", "general"])
    def test_mw_dots_planted_near_zero(self, trig_calls, monkeypatch, a, b):
        mw, exact_mw = BranchingModel(), FullSampleMW()
        u = _planted_mw_uniforms(7, a, b)
        x0, x1 = exact_mw.sample_ontic_batch(u[:, :4], (0, 1, 2))
        plus, minus = ({k: op(x0[k], x1[k]) for k in x0} for op in (np.add, np.subtract))
        # each planted dot is within the margin, nonzero, and on the side it was planted on
        quarter = PLANTED_RUNS // 4
        planted = np.concatenate([dot(x0, a)[:quarter:2], dot(x1, a)[quarter : 2 * quarter : 2],
                                  dot(plus, b)[2 * quarter : 3 * quarter : 2], dot(minus, b)[3 * quarter :: 2]])
        assert (np.abs(np.abs(planted) - 1e-7) < 1e-12).all()
        exact = exact_mw.run_experiment_batch(a, b, u)
        trig_calls.clear()
        for got, want in zip(mw.run_experiment_batch(a, b, u), exact, strict=True):
            assert same_bits(got, want)
        assert _float64_rows(trig_calls, PLANTED_RUNS)
        # the no-erasure pass, on the same uniforms, with the bookkeeping along both b and a
        monkeypatch.setattr(rng, "uniform_block", lambda seed, runs, slots: u[runs.start : runs.stop])
        joints = [branching_no_erasure_check(a, b, PLANTED_RUNS, model=m) for m in (mw, exact_mw)]
        assert joints[0].immutable and np.array_equal(joints[0].joint, joints[1].joint)
        monkeypatch.setattr(models, "FLOAT32_MARGIN", 0.0)
        assert not all(same_bits(g, w) for g, w in zip(mw.run_experiment_batch(a, b, u), exact))

    @pytest.mark.parametrize("margin", [0.01, math.inf])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_outcomes_do_not_depend_on_the_margin(self, monkeypatch, margin, seed):
        # a wider margin recomputes more rows in float64; at inf it recomputes every row
        def outcomes():
            u = Uniforms(seed, range(3000), tuple(range(6)))
            return [
                BeltramettiBugajski().lg_products(u, (0.3, 1.1)),
                BeltramettiBugajski().measured_states(u, BB_DIRECTIONS[3])[1],
                BeltramettiBugajski().measured_states(u, AXES["x"])[1],
                *BranchingModel().run_experiment_batch(*MW_PAIRS[1], u.columns(range(5))),
                branching_no_erasure_check(*MW_PAIRS[0], 3000, seed).joint,
            ]

        default = outcomes()
        monkeypatch.setattr(models, "FLOAT32_MARGIN", margin)
        assert all(same_bits(got, want) for got, want in zip(outcomes(), default, strict=True))


class TestExactRowsAnywhere:
    """The float64 path gives a row the same bits whether it is computed in the whole chunk or gathered."""

    GATHERED = (2, 3, 5, 17, 100, 4099)

    def test_sine_and_cosine(self):
        phi = 2.0 * np.pi * uniform_block(12, range(rng.CHUNK_RUNS), (0,))[:, 0]
        picker = np.random.default_rng(0)
        for trig in (np.sin, np.cos):
            whole = trig(phi)
            for m in (1, *self.GATHERED):
                rows = np.sort(picker.choice(len(phi), m, replace=False))
                assert same_bits(trig(phi[rows]), whole[rows])

    @pytest.mark.parametrize("d", [*BB_DIRECTIONS, *(d for pair in MW_PAIRS for d in pair)])
    def test_gemv(self, d):
        # the elementwise dot that replaced the (n, 3) @ d gemv: the same dot product to within rounding,
        # and, unlike the gemv, the same bits for every gathered row, a lone row included
        u = uniform_block(13, range(rng.CHUNK_RUNS), (0, 1))
        whole = dot(uniform_coordinates(u, axes_read(d)), d)
        assert np.abs(whole - sample_uniform_sphere(u) @ d).max() <= 2.0**-51
        picker = np.random.default_rng(1)
        for m in (1, *self.GATHERED):
            rows = np.sort(picker.choice(len(u), m, replace=False))
            assert same_bits(dot(uniform_coordinates(u[rows], axes_read(d)), d), whole[rows])


def _rows_of(u: Uniforms, rows) -> Uniforms:
    """The uniforms of `rows` of u alone, as a kernel is handed them."""
    subset = copy.copy(u)
    subset.block = u.block[rows]
    return subset


class TestRowsAlone:
    """Float64 outcomes computed for one row, or for a random subset of rows, are those rows of the whole batch.

    ``models.settle`` recomputes the rows near a threshold on their own, so
    a row's float64 outcome must not depend on the rows computed with it.
    With ``FLOAT32_MARGIN`` at inf every row takes the float64 pass.  The
    collapse model's uniforms are tied with the whole batch's Born
    probabilities on every row, where a dot that rounded up alone would
    flip the outcome.
    """

    @pytest.fixture(autouse=True)
    def float64_everywhere(self, monkeypatch):
        monkeypatch.setattr(models, "FLOAT32_MARGIN", math.inf)

    @staticmethod
    def assert_rows_alone_match(outcomes, seed: int) -> None:
        """outcomes(rows), a list of arrays, for lone rows and random subsets against the whole batch's."""
        whole = outcomes(slice(None))
        picker = np.random.default_rng(seed)
        subsets = [[row] for row in picker.choice(PLANTED_RUNS, 25, replace=False)]
        subsets += [np.sort(picker.choice(PLANTED_RUNS, m, replace=False)) for m in (2, 17, 1000)]
        for rows in subsets:
            for got, want in zip(outcomes(rows), whole, strict=True):
                assert same_bits(got, want[rows])

    @pytest.mark.parametrize("d", BB_DIRECTIONS, ids=["x", "-y", "xz", "xyz"])
    def test_bb_measured_states(self, d):
        bb = BeltramettiBugajski()
        u = Uniforms(9, range(PLANTED_RUNS), (0, 1, 2))
        u.get(2)[:] = 0.5 * (1.0 + dot(bb.prepare_max_batch(u.columns((0, 1))).T, d))
        self.assert_rows_alone_match(lambda rows: [bb.measured_states(_rows_of(u, rows), d)[1]], seed=1)

    @pytest.mark.parametrize("pair", [(math.pi / 8, 3 * math.pi / 8), (0.3, 1.1)])
    def test_bb_lg_products(self, pair):
        bb = BeltramettiBugajski()
        u = Uniforms(10, range(PLANTED_RUNS), tuple(range(6)))
        evolved = bb.evolve_batch(bb.prepare_max_batch(u.columns((0, 1))), min(pair))
        u.get(3)[:] = 0.5 * (1.0 + evolved[:, 2])
        self.assert_rows_alone_match(lambda rows: [bb.lg_products(_rows_of(u, rows), pair)], seed=2)

    @pytest.mark.parametrize("a, b", MW_PAIRS, ids=["heisenberg", "general"])
    def test_mw_branch_outcomes(self, a, b):
        mw = BranchingModel()
        u = _planted_mw_uniforms(11, a, b)

        def outcomes(rows):
            return [o for pair in mw.settled_branch_outcomes(a, b, (b, a), u[rows]) for o in pair]

        self.assert_rows_alone_match(outcomes, seed=3)


class TestUniformCell:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(SIZES, st.just(2)), elements=GRID_UNIFORMS), CELL_GRIDS)
    @example(np.array([[1.0 - 2.0**-53, 0.3], [2.0**-53, 1.0 - 2.0**-53]]), (1000, 1000))
    @example(np.array([[1.0 - 2.0**-53, 0.3]]), (1000, 1))
    def test_matches_bin_index_away_from_sector_edges(self, u, grid):
        nz, nphi = grid
        cells = uniform_cell(u, nz, nphi)
        binned = bin_index(sample_uniform_sphere(u), nz, nphi)
        assert cells.dtype == np.int64 and ((0 <= cells) & (cells < nz * nphi)).all()
        # the slab is exact on every row, 1 - 2**-53 at nz = 1000 included
        assert np.array_equal(cells // nphi, binned // nphi)
        # the sector wherever the rounded point cannot straddle an edge: not
        # within 1e-9 of a sector width of one, and not at the pole u0 == 0
        product = u[:, 1] * nphi
        away = (np.abs(product - np.round(product)) > 1e-9) & (u[:, 0] > 0.0)
        assert np.array_equal(cells[away], binned[away])

    @pytest.mark.parametrize("nphi", [1, 2, 3, 7, 8, 13, 64, 100, 1000, 1024])
    def test_sector_edges_follow_the_rounded_product(self, nphi):
        # u1 = k/nphi and its neighbours one ulp away; bin_index's arctan2
        # round trip put 607 of these 6,741 inputs in a neighbouring sector
        edges = np.arange(nphi + 1) / nphi
        u1 = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0)])
        u1 = u1[(u1 >= 0.0) & (u1 < 1.0)]
        sectors = uniform_cell(np.column_stack([np.full_like(u1, 0.3), u1]), 1, nphi)
        exact = np.array([math.floor(Fraction(x) * nphi) for x in u1.tolist()])
        product = u1 * nphi
        # the exact azimuth's sector, or the one above where the product rounds up onto its edge
        rounded_up = (product == np.floor(product)) & (exact < product)
        assert np.array_equal(sectors, np.where(rounded_up, exact + 1, exact))
        assert ((0 <= sectors) & (sectors < nphi)).all()


def _measured_post(model, direction, runs=2000, seed=3):
    """measure_batch's outcomes and post states on the model's maximally mixed preparation."""
    u = uniform_block(seed, range(runs), (0, 1, 2))
    states = model.prepare_max_batch(u[:, : model.PREP_SLOTS])
    return model.measure_batch(states, direction, u[:, 2])


def _atom_cells(model, direction, grids) -> list[np.ndarray]:
    """Per grid, the flat cells of the +1 atom and the -1 atom, whose ascending union ``_atom_table`` counts in."""
    points = model.embed_on_sphere(model.atoms(direction))
    return [bin_index(points, nz, nphi) for nz, nphi in grids]


class TestAtomCells:
    GRIDS = ((8, 8), (1, 8), (4, 1), (7, 13), (64, 64))

    @pytest.mark.parametrize("model", [BeltramettiBugajski(), Telegraph()], ids=["bb", "telegraph"])
    @pytest.mark.parametrize("axis", sorted(AXES))
    def test_atoms_bin_as_the_post_states(self, model, axis):
        d = AXES[axis]
        outcomes, post = _measured_post(model, d)
        assert {-1, 1} <= set(outcomes.tolist())
        atoms = model.atoms(d)
        # each post state is its outcome's atom, bit for bit (-0.0 included)
        assert same_bits(atoms[(1 - outcomes) // 2], post)
        points = model.embed_on_sphere(post)
        for cells, (nz, nphi) in zip(_atom_cells(model, d, self.GRIDS), self.GRIDS):
            binned = bin_index(points, nz, nphi)
            assert np.array_equal(cells[(1 - outcomes) // 2], binned)
            # the table's columns are those cells in ascending order, holding the binned post states' counts
            occupied, counts = np.unique(binned, return_counts=True)
            assert np.array_equal(occupied, np.unique(cells))
            assert _atom_table(model, (d,), [_outcome_counts(outcomes)], nz, nphi).tolist() == [counts.tolist()]

    def test_negative_zeros_of_the_collapse_atoms(self):
        bb = BeltramettiBugajski()
        minus_z = bb.atoms(AXES["z"])[1]
        assert minus_z.tolist() == [0.0, 0.0, -1.0] and np.signbit(minus_z).all()
        # -z as (-0.0, -0.0, -1) lies in sector nphi/2, the telegraph's -z pole in sector 0
        assert [c.tolist() for c in _atom_cells(bb, AXES["z"], [(8, 8)])] == [[56, 4]]
        assert [c.tolist() for c in _atom_cells(Telegraph(), AXES["z"], [(8, 8)])] == [[56, 0]]

    def test_pinned_cells(self):
        bb = BeltramettiBugajski()
        grids = ((8, 8), (1, 8), (4, 1))
        expected = {
            "x": [[32, 36], [0, 4], [2, 2]],
            "-x": [[36, 32], [4, 0], [2, 2]],
            "y": [[34, 38], [2, 6], [2, 2]],
            "-y": [[38, 34], [6, 2], [2, 2]],
            "z": [[56, 4], [0, 4], [3, 0]],
            "-z": [[0, 60], [0, 4], [0, 3]],
        }
        for axis, cells in expected.items():
            assert [c.tolist() for c in _atom_cells(bb, AXES[axis], grids)] == cells, axis
        # the telegraph's poles share cell 0 on a 1xK grid; +-x share a cell on a Kx1 grid
        assert [c.tolist() for c in _atom_cells(Telegraph(), AXES["x"], grids)] == [[56, 0], [0, 0], [3, 0]]
