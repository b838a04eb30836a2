"""Tests for the benchmark harness: workloads, oracle gate, span arithmetic.

Run from the repository root with `python -m pytest perfbench -q`.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import oracle
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(run.SRC))

from ontolab import cli  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seed_deterministic(name):
    build = workloads.WORKLOADS[name]
    assert build(11) == build(11)
    assert build(11) != build(12)


def test_sweep_inputs_avoid_degenerate_cases():
    invocations = workloads.sweep_small(3)
    assert len(invocations) == 7 * workloads.SWEEP_SCHEDULES
    for inv in invocations:
        command, opts = oracle.options(inv.argv)
        if "dirs" in opts:
            a, b = ([float(x) for x in d.split(",")] for d in opts["dirs"].split(";"))
            assert abs(sum(x * y for x, y in zip(a, b))) <= workloads.MAX_ABS_COSINE + 1e-12
        if command == "lg":
            u = [float(t) for t in opts["times"].split(",")]
            assert u == sorted(u)


def call(argv) -> tuple[int, str]:
    outcome = run.invoke(cli, argv, 1)
    return outcome.code, outcome.text


SMALL = "--runs=20000"
PI8 = "--times=0,0.39269908169872414,0.7853981633974483,1.1780972450961724"


@pytest.mark.parametrize(
    "argv",
    [
        ("lg", "--model=bb", PI8, SMALL, "--seed=3"),
        ("lg", "--model=telegraph", PI8, SMALL, "--seed=3", "--format=json"),
        ("lg", "--model=quantum", PI8, "--format=json"),
        ("scan", "--times=0.1,0.9", "--format=json"),
        ("erasure", "--model=bb", "--bins=8x8,16x16", "--runs=200000", "--seed=3", "--format=json"),
        ("noflow", "--model=bb", "--dirs=0,0,1;1,0,0", SMALL, "--seed=3"),
        ("noflow", "--model=telegraph", "--dirs=0,0,1;1,0,0", SMALL, "--seed=3", "--format=json"),
        ("mwcheck", "--dirs=0,0,1;1,0,0", SMALL, "--seed=3"),
    ],
)
def test_oracle_accepts_real_results(argv):
    code, text = call(argv)
    assert oracle.check(argv, code, text) == []


def _plant(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


def test_oracle_rejects_planted_wrong_results():
    argv = ("lg", "--model=bb", PI8, SMALL, "--seed=3", "--format=json")
    code, text = call(argv)
    results = json.loads(text)
    results["results"]["lg_value"] += 1.0
    assert oracle.check(argv, code, json.dumps(results))
    assert oracle.check(argv, 3, text) == ["exit code 3"]
    assert oracle.check(argv, code, text[: len(text) // 2])

    argv = ("lg", "--model=bb", PI8, SMALL, "--seed=3")
    code, text = call(argv)
    line = next(line for line in text.splitlines() if line.startswith("C14,"))
    assert oracle.check(argv, code, _plant(text, line, "C14,0.7,0.005,5000"))

    argv = ("noflow", "--model=telegraph", "--dirs=0,0,1;1,0,0", SMALL, "--seed=3")
    code, text = call(argv)
    assert oracle.check(argv, code, _plant(text, "flow_detected,false", "flow_detected,true"))

    argv = ("mwcheck", "--dirs=0,0,1;1,0,0", SMALL, "--seed=3")
    code, text = call(argv)
    assert oracle.check(argv, code, _plant(text, "no_erasure,true", "no_erasure,false"))

    argv = ("erasure", "--model=bb", "--bins=16x16", "--runs=200000", "--seed=3", "--format=json")
    code, text = call(argv)
    results = json.loads(text)
    results["results"]["rows"][0]["entropy_before"] = math.log(4 * math.pi)
    assert oracle.check(argv, code, json.dumps(results))


def test_chi2_band_brackets_the_mean():
    for dof in (1, 63, 4095):
        lo, hi = oracle.chi2_band(dof)
        assert 0.0 <= lo < dof < hi
    assert oracle.chi2_band(1)[1] > 25.0  # the exact 5-sigma quantile of chi-square(1)


def test_determinism_gate_counts_differing_outputs():
    argv = ("lg", "--model=quantum", PI8, "--format=json")
    code, text = call(argv)
    tally = run.Tally()
    tally.verify(argv, {"1": run.Outcome(code, text, 0.0), "2": run.Outcome(code, text, 0.0)})
    assert (tally.attempted, tally.failed) == (1, 0)
    tally.verify(argv, {"1": run.Outcome(code, text, 0.0), "2": run.Outcome(code, text + " ", 0.0)})
    assert (tally.attempted, tally.failed) == (2, 1)


def test_self_time_is_span_minus_covered_children():
    tree = [
        spans.Span(0, None, "root", 0.0, 10.0),
        spans.Span(1, 0, "a", 1.0, 4.0),
        spans.Span(2, 1, "leaf", 2.0, 3.0),
        spans.Span(3, 0, "b", 3.0, 6.0),  # overlaps a: another thread
        spans.Span(4, 0, "late", 9.0, 12.0),  # clipped to root
        spans.Span(5, None, "b", 20.0, 21.0),
    ]
    assert spans.self_times(tree) == pytest.approx(
        {"root": 10.0 - 5.0 - 1.0, "a": 2.0, "leaf": 1.0, "b": 4.0, "late": 3.0}
    )


class _Owner:
    def double(self, x):
        return 2 * x


def test_tracer_records_nesting_and_restores_originals():
    tracer = spans.Tracer()
    original = _Owner.double
    tracer.install(_Owner, "double", tracer.wrap("owner.double", original, lambda r: {"doubled": r}))

    def dispatch(callback, items):
        threads = [threading.Thread(target=callback, args=(i,)) for i in items]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    traced_dispatch = tracer.wrap_dispatch("dispatch", dispatch)
    traced_dispatch(_Owner().double, [1, 2])
    tracer.uninstall()

    assert _Owner.double is original
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer,) = by_name["dispatch"]
    chunks = by_name[f"{__name__}.chunk"]
    assert len(chunks) == 2 and all(c.parent == outer.id for c in chunks)
    doubles = by_name["owner.double"]
    assert sorted(d.parent for d in doubles) == sorted(c.id for c in chunks)
    assert tracer.counts["doubled"] == 6


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_every_layer_metric_is_exercised(monkeypatch):
    monkeypatch.setattr(workloads, "BIG_RUNS", 20000)
    monkeypatch.setattr(workloads, "SWEEP_SCHEDULES", 1)
    seen = set()
    for build in workloads.WORKLOADS.values():
        tally = run.Tally()
        metrics, _ = run.per_layer(cli, build(5), 2, 0.0, tally)
        assert tally.failed == 0
        seen |= {name for name, value in metrics.items() if value}
    assert seen == set(run.PER_LAYER)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload=lg-models", "--seed=1", "--seconds=1", "--trace=0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
