"""Every demo script runs to completion; a demo with a golden printout prints exactly it.

A golden printout is `tests/golden/demo_<script stem>.txt`, the demo's stdout
with ONTOLAB_THREADS=2.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN_DIR = ROOT / "tests" / "golden"


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_zero(script):
    env = dict(os.environ, ONTOLAB_THREADS="2")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    golden = GOLDEN_DIR / f"demo_{script.stem}.txt"
    if golden.exists():
        assert proc.stdout == golden.read_text()
