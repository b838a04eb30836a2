"""Counter-mode stream: uniform_block against the scalar formula, the slot view,
declared slots, and the chunk engine's shared thread pool."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontolab import BeltramettiBugajski, BranchingModel, Telegraph
from ontolab.errors import InvalidArgumentError
from ontolab.rng import (
    CHUNK_RUNS,
    GAMMA_RUN,
    GAMMA_SLOT,
    Uniforms,
    _mix64_int,
    map_chunks,
    resolve_workers,
    uniform_block,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def reference_value(seed: int, run: int, slot: int) -> float:
    """value(seed, run, slot) on plain Python ints, straight from the module formula."""
    stream = _mix64_int(seed + (run + 1) * GAMMA_RUN)
    return (_mix64_int(stream + (slot + 1) * GAMMA_SLOT) >> 11) * 2.0**-53


seeds = st.integers(min_value=-(2**70), max_value=2**70)
run_lists = st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=30)
slot_sets = st.lists(st.integers(min_value=0, max_value=63), unique=True, max_size=8).map(tuple)


class TestUniformBlock:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, runs=run_lists, slots=slot_sets)
    def test_matches_scalar_formula(self, seed, runs, slots):
        u = uniform_block(seed, np.array(runs, dtype=np.uint64), slots)
        assert u.shape == (len(runs), len(slots))
        assert u.dtype == np.float64
        for i, run in enumerate(runs):
            for j, slot in enumerate(slots):
                assert u[i, j] == reference_value(seed, run, slot)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=seeds,
        lo=st.integers(min_value=0, max_value=2**40),
        n=st.integers(min_value=0, max_value=300),
        step=st.integers(min_value=1, max_value=7),
        slots=slot_sets,
    )
    def test_range_matches_index_array(self, seed, lo, n, step, slots):
        runs = range(lo, lo + n * step, step)
        from_range = uniform_block(seed, runs, slots)
        from_array = uniform_block(seed, np.array(runs, dtype=np.int64), slots)
        assert np.array_equal(from_range, from_array)
        if len(runs) and slots:
            assert from_range[-1, 0] == reference_value(seed, runs[-1], slots[0])

    def test_subset_of_runs_and_slots_is_a_sub_block(self):
        full = uniform_block(5, range(1000, 1200), tuple(range(7)))
        rows = np.array([150, 3, 3, 77, 0])
        sub = uniform_block(5, 1000 + rows, (6, 1, 4))
        assert np.array_equal(sub, full[rows][:, [6, 1, 4]])

    def test_empty_inputs(self):
        assert uniform_block(1, np.array([], dtype=np.int64), (0, 1)).shape == (0, 2)
        assert uniform_block(1, range(0), (3,)).shape == (0, 1)
        assert uniform_block(1, range(4), ()).shape == (4, 0)

    def test_values_in_unit_interval(self):
        u = uniform_block(-1, range(100_000), (0, 5))
        assert u.min() >= 0.0 and u.max() < 1.0


class TestUniforms:
    def test_slots_read_the_block(self):
        u = Uniforms(5, range(100, 300), (2, 4, 5, 6))
        assert np.array_equal(u.block, uniform_block(5, range(100, 300), (2, 4, 5, 6)))
        assert np.array_equal(u.get(5), u.block[:, 2])
        assert np.array_equal(u.get(6), u.block[:, 3])
        assert u.get(3) is None

    def test_columns_are_views_of_adjacent_slots(self):
        u = Uniforms(5, range(1000), (1, 2, 3, 4, 5))
        cols = u.columns(range(2, 5))
        assert np.shares_memory(cols, u.block)
        assert np.array_equal(cols, u.block[:, 1:4])
        assert all(np.shares_memory(u.get(s), u.block) for s in u.slots)

    def test_columns_reject_slots_not_drawn_side_by_side(self):
        u = Uniforms(5, range(10), (1, 2, 4, 6))
        with pytest.raises(KeyError):
            u.columns((0, 1))
        with pytest.raises(KeyError):
            u.columns((2, 3))
        with pytest.raises(KeyError):
            u.columns((4, 5))


def _branching_pass(model, u):
    # the kernels of information.branching_no_erasure_check, in its order
    x0, x1 = model.sample_ontic_batch(u[:, 0:4])
    return sum(model.branch_outcomes(Z, X, (X, Z), x0, x1, u[:, 4]), ())


# (label, model, declared slots, the path's full layout, kernel)
PATHS = [
    ("bb-lg", BeltramettiBugajski(), "LG_SLOTS", range(7),
     lambda m, u: m.lg_products(u, (0.3, 1.1))),
    ("telegraph-lg", Telegraph(gamma=1.3), "LG_SLOTS", range(7),
     lambda m, u: m.lg_products(u, (0.3, 1.1))),
    ("mw-lg", BranchingModel(), "LG_SLOTS", range(7),
     lambda m, u: m.lg_products(u, (0.3, 1.1))),
    ("bb-sample", BeltramettiBugajski(), "SAMPLE_SLOTS", range(3),
     lambda m, u: m.measured_states(u, X)),
    ("telegraph-sample", Telegraph(), "SAMPLE_SLOTS", range(3),
     lambda m, u: m.measured_states(u, X)),
    ("mw-joint", BranchingModel(), "JOINT_SLOTS", range(5),
     lambda m, u: _branching_pass(m, u.columns(m.JOINT_SLOTS))),
]
PATH_IDS = [p[0] for p in PATHS]


def _outputs(result):
    return result if isinstance(result, tuple) else (result,)


class TestDeclaredSlots:
    """Each kernel reads exactly the slots its model declares for the path."""

    @pytest.mark.parametrize("fill", ["nan", "random"])
    @pytest.mark.parametrize("label,model,attr,layout,kernel", PATHS, ids=PATH_IDS)
    def test_undeclared_slots_do_not_change_output(self, label, model, attr, layout, kernel, fill):
        declared = getattr(model, attr)
        assert set(declared) <= set(layout)
        runs = range(2_000)
        expected = kernel(model, Uniforms(9, runs, declared))
        full = Uniforms(9, runs, tuple(layout))
        noise = Uniforms(10, runs, tuple(layout))
        for slot in layout:
            if slot not in declared:
                full.get(slot)[:] = np.nan if fill == "nan" else noise.get(slot)
        for got, want in zip(_outputs(kernel(model, full)), _outputs(expected)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("label,model,attr,layout,kernel", PATHS, ids=PATH_IDS)
    def test_missing_declared_slot_fails_loudly(self, label, model, attr, layout, kernel):
        declared = getattr(model, attr)
        for slot in declared:
            u = Uniforms(9, range(100), tuple(s for s in declared if s != slot))
            with pytest.raises((KeyError, InvalidArgumentError)):
                kernel(model, u)


class TestMapChunks:
    @pytest.fixture
    def two_workers(self, monkeypatch):
        monkeypatch.setenv("ONTOLAB_THREADS", "2")
        if resolve_workers() < 2:
            pytest.skip("needs 2 CPUs")

    def test_calls_share_one_pool(self, two_workers):
        threads = set()

        def chunk(lo, n):
            threads.add(threading.current_thread())
            return lo, n

        runs = 3 * CHUNK_RUNS + 5
        spans = [(lo, min(CHUNK_RUNS, runs - lo)) for lo in range(0, runs, CHUNK_RUNS)]
        active = []
        for _ in range(5):
            assert map_chunks(chunk, runs) == spans
            active.append(threading.active_count())
        assert len(threads) <= 2 and threading.main_thread() not in threads
        assert max(active[1:]) <= active[0]

    def test_a_failed_call_cancels_its_queued_chunks(self, two_workers):
        ran = []

        def chunk(lo, n):
            if lo == 0:
                raise ZeroDivisionError
            ran.append(lo)
            time.sleep(0.05)

        with pytest.raises(ZeroDivisionError):
            map_chunks(chunk, 50 * CHUNK_RUNS)
        time.sleep(0.2)
        assert len(ran) < 10
        assert map_chunks(lambda lo, n: n, 2 * CHUNK_RUNS) == [CHUNK_RUNS, CHUNK_RUNS]
