"""Counter-mode stream: uniform_block against the scalar formula, the draws
of a chunk's Uniforms, the slots each kernel draws and reads, and the chunk
engine: its shared thread pool, its sum that adds each chunk's counts once
and its bound on chunks in flight."""

import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontolab import BeltramettiBugajski, BranchingModel, Telegraph, models, rng
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
from ontolab.sphere import FLOAT32_MARGIN

from helpers import Planted

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
# no zero component: the collapse model dots with all three coordinates, along X and Z with one
GENERAL = np.array([0.48, 0.6, 0.64])


def reference_value(seed: int, run: int, slot: int) -> float:
    """value(seed, run, slot) on plain Python ints, straight from the module formula."""
    stream = _mix64_int(seed + (run + 1) * GAMMA_RUN)
    return (_mix64_int(stream + (slot + 1) * GAMMA_SLOT) >> 11) * 2.0**-53


seeds = st.integers(min_value=-(2**70), max_value=2**70)
# ranges of run indices anywhere below 2**64, strided or not
run_ranges = st.builds(
    lambda lo, n, step: range(lo, lo + n * step, step),
    st.integers(min_value=0, max_value=2**64 - 2**10),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=7),
)
slot_sets = st.lists(st.integers(min_value=0, max_value=63), unique=True, max_size=8).map(tuple)


class TestUniformBlock:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, runs=run_ranges, slots=slot_sets)
    def test_matches_scalar_formula(self, seed, runs, slots):
        u = uniform_block(seed, runs, slots)
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
    def test_strided_range_is_strided_rows(self, seed, lo, n, step, slots):
        runs = range(lo, lo + n * step, step)
        strided = uniform_block(seed, runs, slots)
        assert np.array_equal(strided, uniform_block(seed, range(lo, lo + n * step), slots)[::step])
        if len(runs) and slots:
            assert strided[-1, 0] == reference_value(seed, runs[-1], slots[0])

    def test_sub_range_and_slot_subset_is_a_sub_block(self):
        full = uniform_block(5, range(1000, 1200), tuple(range(7)))
        sub = uniform_block(5, range(1050, 1130), (6, 1, 4))
        assert np.array_equal(sub, full[50:130][:, [6, 1, 4]])

    def test_empty_inputs(self):
        assert uniform_block(1, range(7, 7), (0, 1)).shape == (0, 2)
        assert uniform_block(1, range(0), (3,)).shape == (0, 1)
        assert uniform_block(1, range(4), ()).shape == (4, 0)

    def test_values_in_unit_interval(self):
        u = uniform_block(-1, range(100_000), (0, 5))
        assert u.min() >= 0.0 and u.max() < 1.0


class TestUniforms:
    def test_slots_read_the_block(self):
        # column j of a draw is slot slots[j] of the handle's runs, in any order of slots
        u = Uniforms(5, range(100, 300))
        block = uniform_block(5, range(100, 300), (2, 4, 5, 6))
        assert np.array_equal(u.draw((2, 4, 5, 6)), block)
        assert np.array_equal(u.draw((6, 2)), block[:, [3, 0]])


def _branching_pass(model, u):
    # the kernel of information.branching_no_erasure_check
    return sum(model.settled_branch_outcomes(Z, X, (X, Z), u), ())


# (label, model, the slots its kernel draws, the path's full layout, kernel)
PATHS = [
    ("bb-lg", BeltramettiBugajski(), (0, 1, 3, 5), range(6),
     lambda m, u: m.lg_products(u, (0.3, 1.1))),
    # a first time of 0 reads no y, so the azimuth slot 1 is not drawn (C13 and C14 of the pi/8 schedule)
    ("bb-lg-first-at-zero", BeltramettiBugajski(), (0, 3, 5), range(6),
     lambda m, u: m.lg_products(u, (0.0, 1.1))),
    ("telegraph-lg", Telegraph(gamma=1.3), (4,), range(6),
     lambda m, u: m.lg_products(u, (0.3, 1.1))),
    ("mw-lg", BranchingModel(), (0, 1, 2, 3, 4), range(6),
     lambda m, u: m.lg_products(u, (0.3, 1.1))),
    ("bb-sample", BeltramettiBugajski(), (0, 1, 2), range(3),
     lambda m, u: m.measured_states(u, X)),
    ("bb-sample-z", BeltramettiBugajski(), (0, 1, 2), range(3),
     lambda m, u: m.measured_states(u, Z)),
    ("bb-sample-general", BeltramettiBugajski(), (0, 1, 2), range(3),
     lambda m, u: m.measured_states(u, GENERAL)),
    ("telegraph-sample", Telegraph(), (0,), range(3),
     lambda m, u: m.measured_states(u, X)),
    ("mw-joint", BranchingModel(), (0, 1, 2, 3, 4), range(5), _branching_pass),
]
PATH_IDS = [p[0] for p in PATHS]
RUNS = range(1000, 3000)
# drawn but not read: mw's four-time product alpha * beta does not depend on
# which merged branch slot 4 selects, since the selection flips both outcomes
UNREAD = {"mw-lg": (4,)}


def _outputs(result):
    return result if isinstance(result, tuple) else (result,)


class TestDeclaredSlots:
    """Each kernel draws the slots listed for its path in PATHS, in one call, and reads every one of them.

    A kernel is handed the chunk's ``Uniforms`` and draws what it reads at
    its top; a ``Planted`` block in its place shows which slots it reads.
    """

    @pytest.fixture
    def draws(self, monkeypatch):
        """(seed, runs, slots) of every uniform_block call, in call order."""
        calls = []

        def recording(seed, runs, slots, block=rng.uniform_block):
            calls.append((seed, runs, tuple(slots)))
            return block(seed, runs, slots)

        monkeypatch.setattr(rng, "uniform_block", recording)
        return calls

    @pytest.mark.parametrize("margin", [FLOAT32_MARGIN, math.inf], ids=["float32", "float64-everywhere"])
    @pytest.mark.parametrize("label,model,slots,layout,kernel", PATHS, ids=PATH_IDS)
    def test_one_draw_per_kernel_call(self, label, model, slots, layout, kernel, margin, draws, monkeypatch):
        # at an infinite margin settle recomputes every row in float64, and that pass draws nothing
        monkeypatch.setattr(models, "FLOAT32_MARGIN", margin)
        kernel(model, Uniforms(9, RUNS))
        assert draws == [(9, RUNS, slots)]

    @pytest.mark.parametrize("fill", ["nan", "random"])
    @pytest.mark.parametrize("label,model,slots,layout,kernel", PATHS, ids=PATH_IDS)
    def test_undeclared_slots_do_not_change_output(self, label, model, slots, layout, kernel, fill):
        assert set(slots) <= set(layout)
        expected = kernel(model, Uniforms(9, RUNS))
        full = uniform_block(9, RUNS, tuple(layout))
        noise = uniform_block(10, RUNS, tuple(layout))
        for slot in layout:
            if slot not in slots:
                full[:, slot] = np.nan if fill == "nan" else noise[:, slot]
        for got, want in zip(_outputs(kernel(model, Planted(full))), _outputs(expected), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("label,model,slots,layout,kernel", PATHS, ids=PATH_IDS)
    def test_missing_declared_slot_fails_loudly(self, label, model, slots, layout, kernel):
        # a NaN in any drawn slot shows in the output: the kernel reads every slot it draws but those in UNREAD
        expected = _outputs(kernel(model, Uniforms(9, RUNS)))
        for slot in slots:
            full = uniform_block(9, RUNS, tuple(layout))
            full[:, slot] = np.nan
            got = _outputs(kernel(model, Planted(full)))
            unchanged = all(np.array_equal(g, w) for g, w in zip(got, expected, strict=True))
            assert unchanged == (slot in UNREAD.get(label, ())), slot


class TestMapChunks:
    @pytest.fixture
    def two_workers(self, monkeypatch):
        monkeypatch.setenv("ONTOLAB_THREADS", "2")
        if resolve_workers() < 2:
            pytest.skip("needs 2 CPUs")

    @pytest.fixture(params=[1, 2])
    def workers(self, request, monkeypatch):
        monkeypatch.setenv("ONTOLAB_THREADS", str(request.param))
        if resolve_workers() < request.param:
            pytest.skip(f"needs {request.param} CPUs")
        return request.param

    def test_calls_share_one_pool(self, two_workers):
        threads = set()

        def chunk(lo, n):
            threads.add(threading.current_thread())
            return np.array([n])

        runs = 3 * CHUNK_RUNS + 5
        active = []
        for _ in range(5):
            assert map_chunks(chunk, runs).tolist() == [runs]
            active.append(threading.active_count())
        assert len(threads) <= 2 and threading.main_thread() not in threads
        assert max(active[1:]) <= active[0]

    def test_adds_each_chunk_exactly_once(self, workers):
        # chunk k counts one in cell k; a chunk that sleeps less may finish before an earlier one
        runs = 9 * CHUNK_RUNS + 1

        def chunk(lo, n):
            time.sleep(0.002 * (2 - lo // CHUNK_RUNS % 3))
            one_hot = np.zeros(10, dtype=np.int64)
            one_hot[lo // CHUNK_RUNS] = 1
            return one_hot

        total = map_chunks(chunk, runs)
        assert total.dtype == np.int64 and total.tolist() == [1] * 10

    def test_started_and_unfolded_chunks_stay_within_twice_the_workers(self, workers):
        lock = threading.Lock()
        state = {"started": 0, "added": 0, "most": 0}

        class Count:
            """One chunk's result; adding another counts it."""

            def __init__(self):
                self.chunks = 1

            def __iadd__(self, other):
                with lock:
                    self.chunks += other.chunks
                    state["added"] = self.chunks  # the number of chunk results taken in so far
                return self

        def chunk(lo, n):
            with lock:
                state["started"] += 1
                state["most"] = max(state["most"], state["started"] - state["added"])
            time.sleep(0.002)
            return Count()

        assert map_chunks(chunk, 40 * CHUNK_RUNS).chunks == 40
        assert state["most"] <= 2 * workers

    @pytest.mark.parametrize("runs", [0, -1])
    def test_no_runs_is_an_invalid_argument(self, runs):
        with pytest.raises(InvalidArgumentError, match="runs must be >= 1"):
            map_chunks(lambda lo, n: np.array([n]), runs)

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
        assert map_chunks(lambda lo, n: np.array([n]), 2 * CHUNK_RUNS + 1).tolist() == [2 * CHUNK_RUNS + 1]
