"""Seeded workloads: lists of `ontolab` command lines.

Every input comes from the benchmark seed: the same seed gives the same
command lines, byte for byte.  Flags are written as `--flag=value` so that
negative direction components are never mistaken for options.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

BIG_RUNS = 10**6
SMALL_RUNS = 2 * 10**4
SWEEP_SCHEDULES = 20
PI8_SCHEDULE = tuple(k * math.pi / 8 for k in range(4))
MWCHECK_DIRS = ((0.0, 0.0, 1.0), (0.0, math.sqrt(0.5), math.sqrt(0.5)))
NOFLOW_DIRS = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
ERASURE_BINS = "8x8,16x16,32x32,64x64"

# Sweep schedules keep every correlator away from +-1 so that no pair sees a
# single outcome (stderr 0), and sweep directions are 60 to 120 degrees
# apart so that flow is certain for bb and no exact joint cell is near 0.
MAX_ABS_CORRELATOR = 0.95
MAX_ABS_COSINE = 0.5


@dataclass(frozen=True)
class Invocation:
    """One command line and the Monte Carlo runs it asks for (0 if exact)."""

    argv: tuple[str, ...]
    runs: int


def _floats(xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


def _dirs(pair) -> str:
    return ";".join(_floats(d) for d in pair)


def _seed(rnd: random.Random) -> str:
    return f"--seed={rnd.randrange(2**31)}"


def _mc(command: str, rnd: random.Random, runs: int, *flags: str) -> Invocation:
    return Invocation((command, *flags, f"--runs={runs}", _seed(rnd)), runs)


def lg_models(seed: int) -> list[Invocation]:
    """`lg` through bb, mw and telegraph on the pi/8 schedule, plus `mwcheck`."""
    rnd = random.Random(seed)
    times = f"--times={_floats(PI8_SCHEDULE)}"
    out = [
        _mc("lg", rnd, BIG_RUNS, f"--model={model}", times, "--format=json")
        for model in ("bb", "mw", "telegraph")
    ]
    out.append(_mc("mwcheck", rnd, BIG_RUNS, f"--dirs={_dirs(MWCHECK_DIRS)}", "--format=json"))
    return out


def info_diagnostics(seed: int) -> list[Invocation]:
    """`erasure` for bb at four resolutions, and `noflow` for bb and telegraph."""
    rnd = random.Random(seed)
    out = [_mc("erasure", rnd, BIG_RUNS, "--model=bb", f"--bins={ERASURE_BINS}", "--format=json")]
    out += [
        _mc("noflow", rnd, BIG_RUNS, f"--model={model}", f"--dirs={_dirs(NOFLOW_DIRS)}", "--format=json")
        for model in ("bb", "telegraph")
    ]
    return out


def _schedule(rnd: random.Random) -> tuple[float, ...]:
    while True:
        u = sorted(rnd.uniform(0.0, math.pi) for _ in range(4))
        gaps = (u[1] - u[0], u[1] - u[2], u[3] - u[2], u[3] - u[0])
        if all(
            abs(math.cos(2.0 * d)) <= MAX_ABS_CORRELATOR and math.exp(-2.0 * abs(d)) <= MAX_ABS_CORRELATOR
            for d in gaps
        ):
            return tuple(u)


def _direction(rnd: random.Random) -> tuple[float, float, float]:
    while True:
        v = [rnd.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-6:
            return tuple(x / norm for x in v)


def _direction_pair(rnd: random.Random):
    a = _direction(rnd)
    while True:
        b = _direction(rnd)
        if abs(sum(x * y for x, y in zip(a, b))) <= MAX_ABS_COSINE:
            return a, b


def sweep_small(seed: int) -> list[Invocation]:
    """Seven short calls per seeded schedule: exact, scan, and small Monte Carlo runs."""
    rnd = random.Random(seed)
    out = []
    for _ in range(SWEEP_SCHEDULES):
        u = _schedule(rnd)
        times = f"--times={_floats(u)}"
        out.append(Invocation(("lg", "--model=quantum", times, "--format=json"), 0))
        out.append(Invocation(("scan", f"--times={_floats(u[:2])}", "--format=json"), 0))
        out += [_mc("lg", rnd, SMALL_RUNS, f"--model={m}", times) for m in ("bb", "mw", "telegraph")]
        out.append(_mc("noflow", rnd, SMALL_RUNS, "--model=bb", f"--dirs={_dirs(_direction_pair(rnd))}"))
        out.append(_mc("mwcheck", rnd, SMALL_RUNS, f"--dirs={_dirs(_direction_pair(rnd))}"))
    return out


WORKLOADS = {
    "lg-models": lg_models,
    "info-diagnostics": info_diagnostics,
    "sweep-small": sweep_small,
}
