"""Golden outputs: every command's JSON bytes are pinned for three seeds,
and its CSV bytes for one.

Each case runs with 1 worker and with 2 workers and must reproduce the
recorded file byte for byte.  The run count spans several 2**16-run chunks,
so chunking, chunk-order reduction and the per-run random stream are all
covered.  A change that alters a result on purpose regenerates the files of
the commands it changes (all of them when none is named) with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

and says why in its change notes.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ontolab.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
SEEDS = (0, 7, 20231)
CSV_SEED = 7
RUNS = "200000"
LG_TIMES = "0,pi/8,pi/4,3pi/8"
DIRS = "0,0,1;0,1,1"

COMMANDS = {
    "lg_quantum": ["lg", "--model", "quantum", "--times", LG_TIMES],
    "lg_bb": ["lg", "--model", "bb", "--times", LG_TIMES, "--runs", RUNS],
    "lg_mw": ["lg", "--model", "mw", "--times", LG_TIMES, "--runs", RUNS],
    "lg_telegraph": ["lg", "--model", "telegraph", "--times", LG_TIMES, "--runs", RUNS],
    "scan": ["scan", "--times", "0,pi/8"],
    "erasure_bb": ["erasure", "--model", "bb", "--runs", RUNS],
    "erasure_telegraph": ["erasure", "--model", "telegraph", "--runs", RUNS],
    "noflow_bb": ["noflow", "--model", "bb", "--dirs", DIRS, "--runs", RUNS],
    "noflow_telegraph": ["noflow", "--model", "telegraph", "--dirs", DIRS, "--runs", RUNS],
    "mwcheck": ["mwcheck", "--dirs", DIRS, "--runs", RUNS],
}


def _cases(names) -> list[tuple[str, int, str]]:
    """(command, seed, format) of every golden file of the named commands."""
    return [(n, s, "json") for n in names for s in SEEDS] + [(n, CSV_SEED, "csv") for n in names]


CASES = _cases(COMMANDS)


def _argv(name: str, seed: int, fmt: str) -> list[str]:
    return [*COMMANDS[name], "--seed", str(seed), "--format", fmt]


def _golden_path(name: str, seed: int, fmt: str) -> Path:
    return GOLDEN_DIR / f"{name}_s{seed}.{fmt}"


def _run(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name,seed,fmt", CASES, ids=[f"{n}-s{s}" + ("-csv" if f == "csv" else "") for n, s, f in CASES])
def test_output_matches_golden(name, seed, fmt, workers, monkeypatch):
    monkeypatch.setenv("ONTOLAB_THREADS", str(workers))
    code, out = _run(_argv(name, seed, fmt))
    assert code == 0
    assert out == _golden_path(name, seed, fmt).read_bytes()


if __name__ == "__main__":
    import os

    names = sys.argv[1:] or list(COMMANDS)
    unknown = sorted(set(names) - set(COMMANDS))
    if unknown:
        sys.exit(f"unknown commands {unknown}; expected some of {sorted(COMMANDS)}")
    os.environ["ONTOLAB_THREADS"] = "1"
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, seed, fmt in _cases(names):
        code, out = _run(_argv(name, seed, fmt))
        if code != 0:
            sys.exit(f"{name} seed {seed} ({fmt}) exited {code}")
        _golden_path(name, seed, fmt).write_bytes(out)
