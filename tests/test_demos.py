"""Every demo script runs to completion; a demo with a golden printout prints exactly it.

A golden printout is `tests/golden/demo_<script stem>.txt`, the demo's stdout
with ONTOLAB_THREADS=2.  A change that alters a demo's printout on purpose
regenerates the printouts of the demos it changes (all of them when none is
named) with

    PYTHONPATH=src python tests/test_demos.py [STEM ...]

and says why in its change notes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN_DIR = ROOT / "tests" / "golden"


def _run(script: Path) -> subprocess.CompletedProcess:
    """The demo's run with ONTOLAB_THREADS=2, a RuntimeWarning raised as an error."""
    env = dict(os.environ, ONTOLAB_THREADS="2")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _golden_path(script: Path) -> Path:
    return GOLDEN_DIR / f"demo_{script.stem}.txt"


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_zero(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    golden = _golden_path(script)
    if golden.exists():
        assert proc.stdout == golden.read_text()


if __name__ == "__main__":
    by_stem = {p.stem: p for p in DEMOS}
    stems = sys.argv[1:] or list(by_stem)
    unknown = sorted(set(stems) - set(by_stem))
    if unknown:
        sys.exit(f"unknown demos {unknown}; expected some of {sorted(by_stem)}")
    for stem in stems:
        proc = _run(by_stem[stem])
        if proc.returncode != 0:
            sys.exit(f"demo {stem} exited {proc.returncode}:\n{proc.stderr}")
        _golden_path(by_stem[stem]).write_text(proc.stdout)
