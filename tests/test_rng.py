"""Counter-mode stream: uniform_block against the scalar formula, and declared slots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontolab import BeltramettiBugajski, BranchingModel, Telegraph
from ontolab.errors import InvalidArgumentError
from ontolab.information import _measured_states
from ontolab.leggett_garg import _branching_products, _single_world_products
from ontolab.models import _two_measurements
from ontolab.rng import GAMMA_RUN, GAMMA_SLOT, _mix64_int, uniform_block, uniforms_by_slot

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


# (label, model, declared slots, the path's full layout, kernel)
PATHS = [
    ("bb-lg", BeltramettiBugajski(), "LG_SLOTS", range(7),
     lambda m, u: _single_world_products(m, u, (0.3, 1.1))),
    ("telegraph-lg", Telegraph(gamma=1.3), "LG_SLOTS", range(7),
     lambda m, u: _single_world_products(m, u, (0.3, 1.1))),
    ("mw-lg", BranchingModel(), "LG_SLOTS", range(7),
     lambda m, u: _branching_products(m, u, (0.3, 1.1))),
    ("bb-sample", BeltramettiBugajski(), "SAMPLE_SLOTS", range(3),
     lambda m, u: _measured_states(m, u, X)),
    ("telegraph-sample", Telegraph(), "SAMPLE_SLOTS", range(3),
     lambda m, u: _measured_states(m, u, X)),
    ("bb-joint", BeltramettiBugajski(), "JOINT_SLOTS", range(4),
     lambda m, u: _two_measurements(m, u, Z, X)),
    ("telegraph-joint", Telegraph(), "JOINT_SLOTS", range(4),
     lambda m, u: _two_measurements(m, u, Z, X)),
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
        expected = kernel(model, uniforms_by_slot(9, runs, declared))
        full = uniforms_by_slot(9, runs, tuple(layout))
        noise = uniforms_by_slot(10, runs, tuple(layout))
        for slot in layout:
            if slot not in declared:
                full[slot] = np.full(len(runs), np.nan) if fill == "nan" else noise[slot]
        for got, want in zip(_outputs(kernel(model, full)), _outputs(expected)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("label,model,attr,layout,kernel", PATHS, ids=PATH_IDS)
    def test_missing_declared_slot_fails_loudly(self, label, model, attr, layout, kernel):
        declared = getattr(model, attr)
        for slot in declared:
            u = uniforms_by_slot(9, range(100), tuple(s for s in declared if s != slot))
            with pytest.raises((KeyError, InvalidArgumentError)):
                kernel(model, u)

    def test_branching_joint_slots_feed_the_whole_run(self):
        mw = BranchingModel()
        assert mw.JOINT_SLOTS == (0, 1, 2, 3, 4)
        for slot in mw.JOINT_SLOTS:
            u = uniform_block(9, range(100), tuple(s for s in mw.JOINT_SLOTS if s != slot))
            with pytest.raises(IndexError):
                mw.run_experiment_batch(Z, X, u)
