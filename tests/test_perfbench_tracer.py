"""The benchmark's tracer still finds every function and method it wraps.

``perfbench/run.py`` wraps ontolab functions and methods by name in every
``--trace 1`` run; a renamed or deleted one is an AttributeError there.  This
imports the harness as it is, installs its tracer on a fresh ``spans.Tracer``,
and checks that uninstalling puts every original back.  Traced erasure and
noflow calls must reach the wrapped binning and embedding functions, bin
only the two atoms per grid, build no ``SphereHistogram``, and print the
untraced bytes.
"""

import json
import sys
from pathlib import Path

import pytest

import ontolab
from ontolab import cli, information, models, rng, sphere

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WRAPPED_CLASSES = (models.BeltramettiBugajski, models.Telegraph, models.BranchingModel, sphere.SphereHistogram)


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import spans

    return run, spans


def _namespaces():
    modules = [m for name, m in sys.modules.items() if name == "ontolab" or name.startswith("ontolab.")]
    return [vars(m) for m in modules] + [vars(cls) for cls in WRAPPED_CLASSES]


def _snapshot():
    return [dict(ns) for ns in _namespaces()]


def test_install_wraps_and_uninstall_restores(harness, capsys):
    run, spans = harness
    before = _snapshot()
    check = information.branching_no_erasure_check
    sample = models.BranchingModel.sample_ontic_batch
    tracer = spans.Tracer()
    try:
        run.install_tracer(tracer)
        assert information.branching_no_erasure_check is not check
        assert cli.branching_no_erasure_check is information.branching_no_erasure_check
        assert models.BranchingModel.sample_ontic_batch is not sample
        # one traced mwcheck reaches the wrapped check and the branching kernels
        assert cli.main(["mwcheck", "--dirs", "0,0,1;1,0,0", "--runs", "3000", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["no_erasure"] is True
    finally:
        tracer.uninstall()
    assert tracer.counts["information.branching_no_erasure_check.runs"] == 3000
    names = {s.name for s in tracer.spans}
    assert {"information.chunk", "models.mw.sample_ontic_batch", "cli.main"} <= names
    after = _snapshot()
    assert [ns.keys() for ns in after] == [ns.keys() for ns in before]
    for old, new in zip(before, after):
        assert all(new[key] is value for key, value in old.items())
    assert ontolab.branching_no_erasure_check is check
    assert models.BranchingModel.sample_ontic_batch is sample


def test_erasure_and_noflow_bin_only_the_atoms(harness, capsys):
    run, spans = harness
    runs = 2 * rng.CHUNK_RUNS + 1  # three chunks per call
    argvs = [
        ["erasure", "--model", "bb", "--bins", "8x8,1x8", "--runs", str(runs), "--format", "json"],
        ["noflow", "--model", "telegraph", "--dirs", "0,0,1;1,0,0", "--runs", str(runs), "--format", "json"],
    ]
    untraced = []
    for argv in argvs:
        assert cli.main(argv) == 0
        untraced.append(capsys.readouterr().out)
    tracer = spans.Tracer()
    traced = []
    try:
        run.install_tracer(tracer)
        for argv in argvs:
            assert cli.main(argv) == 0
            traced.append(capsys.readouterr().out)
    finally:
        tracer.uninstall()
    assert traced == untraced
    names = {s.name for s in tracer.spans}
    assert {"sphere.bin_index", "models.bb.embed_on_sphere", "models.telegraph.embed_on_sphere"} <= names
    # each chunk counts into an int64 vector that the engine adds up
    assert not any(name.startswith("sphere.SphereHistogram.") for name in names)
    # erasure: 2 grids, noflow: 2 arms of 1 grid, each added up over 3 chunks; the
    # atoms are binned once per grid and arm, not once per chunk, let alone per run
    grids, chunks = 2 + 2, 3
    assert tracer.counts["sphere.bin_index.points"] == 2 * grids <= 2 * grids * chunks
