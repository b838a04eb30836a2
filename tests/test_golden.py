"""Golden outputs: every command's JSON bytes are pinned for three seeds,
and its CSV bytes for one.  The benchmark's 10^6-run command lines are
pinned too, as JSON at one seed.

Each case runs with 1 worker and with 2 workers and must reproduce the
recorded file byte for byte.  The run count spans several 2**16-run chunks
(16 at 10^6 runs), so chunking, chunk-order reduction and the per-run
random stream are all covered.  A change that alters a result on purpose
regenerates the files of the commands it changes (all of them when none is
named) with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

and says why in its change notes.

Two checks ride on the same command lines at 5000 runs: each output's config
holds exactly the keys its command and model read (CONFIG_KEYS), and `--out
FILE` writes the bytes that stdout gets.
"""

import io
import json
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
# General directions, whose parsed bits and oracle joint a BLAS call would make depend on the OpenBLAS kernel. The
# noflow arms share their atoms' cells, so their tv and p-value read bb's draws and its x/y settle path
GENERAL_DIRS = "--dirs=0.3,-0.4,0.2;0.1,0.9,-0.2"
SAME_GENERAL_DIRS = "--dirs=0.3,-0.4,0.2;0.3,-0.4,0.2"

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
    "mwcheck_general": ["mwcheck", GENERAL_DIRS, "--runs", RUNS],
    "noflow_bb_general": ["noflow", "--model", "bb", SAME_GENERAL_DIRS, "--runs", RUNS],
}

# The command lines of the benchmark's lg-models and info-diagnostics
# workloads (perfbench/workloads.py), written out, at 10^6 runs and one seed.
BENCH_SEED = 1
BIG_RUNS = "--runs=1000000"
PI8_TIMES = "--times=0.0,0.39269908169872414,0.7853981633974483,1.1780972450961724"
BENCH_COMMANDS = {
    "lg_bb_1e6": ["lg", "--model=bb", PI8_TIMES, BIG_RUNS],
    "lg_mw_1e6": ["lg", "--model=mw", PI8_TIMES, BIG_RUNS],
    "lg_telegraph_1e6": ["lg", "--model=telegraph", PI8_TIMES, BIG_RUNS],
    "mwcheck_1e6": ["mwcheck", "--dirs=0.0,0.0,1.0;0.0,0.7071067811865476,0.7071067811865476", BIG_RUNS],
    "erasure_bb_1e6": ["erasure", "--model=bb", "--bins=8x8,16x16,32x32,64x64", BIG_RUNS],
    "noflow_bb_1e6": ["noflow", "--model=bb", "--dirs=0.0,0.0,1.0;1.0,0.0,0.0", BIG_RUNS],
    "noflow_telegraph_1e6": ["noflow", "--model=telegraph", "--dirs=0.0,0.0,1.0;1.0,0.0,0.0", BIG_RUNS],
}


def _cases(names) -> list[tuple[str, int, str]]:
    """(command, seed, format) of every golden file of the named commands."""
    small = [n for n in names if n in COMMANDS]
    return (
        [(n, s, "json") for n in small for s in SEEDS]
        + [(n, CSV_SEED, "csv") for n in small]
        + [(n, BENCH_SEED, "json") for n in names if n in BENCH_COMMANDS]
    )


CASES = _cases([*COMMANDS, *BENCH_COMMANDS])


def _argv(name: str, seed: int, fmt: str) -> list[str]:
    return [*(COMMANDS | BENCH_COMMANDS)[name], "--seed", str(seed), "--format", fmt]


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


# The recorded config: the command, the seed and exactly the flags that the
# command and its model read, in this order.
CONFIG_KEYS = {
    "lg_quantum": ["command", "model", "seed", "times"],
    "lg_bb": ["command", "model", "runs", "seed", "times"],
    "lg_mw": ["command", "model", "runs", "seed", "times"],
    "lg_telegraph": ["command", "model", "runs", "seed", "gamma", "times"],
    "scan": ["command", "seed", "times"],
    "erasure_bb": ["command", "model", "runs", "seed", "bins", "dirs"],
    "erasure_telegraph": ["command", "model", "runs", "seed", "gamma", "bins", "dirs"],
    "noflow_bb": ["command", "model", "runs", "seed", "bins", "dirs"],
    "noflow_telegraph": ["command", "model", "runs", "seed", "gamma", "bins", "dirs"],
    "mwcheck": ["command", "runs", "seed", "dirs"],
    "mwcheck_general": ["command", "runs", "seed", "dirs"],
    "noflow_bb_general": ["command", "model", "runs", "seed", "bins", "dirs"],
}


def _quick(name: str, fmt: str) -> list[str]:
    """The golden command line at 5000 runs."""
    return [("5000" if a == RUNS else a) for a in _argv(name, CSV_SEED, fmt)]


@pytest.mark.parametrize("name", COMMANDS)
def test_config_records_what_runs(name):
    code, out = _run(_quick(name, "json"))
    assert code == 0
    config = json.loads(out)["config"]
    assert list(config) == CONFIG_KEYS[name]
    if name.startswith("erasure"):
        assert config["dirs"] == [[0, 0, 1]]
    code, out = _run(_quick(name, "csv"))
    assert code == 0
    comments = [line for line in out.decode().splitlines() if line.startswith("# ")]
    assert [line[2:].partition("=")[0] for line in comments] == CONFIG_KEYS[name]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", COMMANDS)
def test_out_file_holds_the_stdout_bytes(name, fmt, tmp_path):
    code, stdout = _run(_quick(name, fmt))
    out = tmp_path / f"{name}.{fmt}"
    assert code == 0
    assert main([*_quick(name, fmt), "--out", str(out)]) == 0
    assert out.read_bytes() == stdout


if __name__ == "__main__":
    import os

    known = [*COMMANDS, *BENCH_COMMANDS]
    names = sys.argv[1:] or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        sys.exit(f"unknown commands {unknown}; expected some of {sorted(known)}")
    os.environ["ONTOLAB_THREADS"] = "1"
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, seed, fmt in _cases(names):
        code, out = _run(_argv(name, seed, fmt))
        if code != 0:
            sys.exit(f"{name} seed {seed} ({fmt}) exited {code}")
        _golden_path(name, seed, fmt).write_bytes(out)
