"""Command-line harness: seeded, machine-readable runs of every analysis.

Commands
--------
lg       four-time inequality value, exact (model=quantum) or Monte Carlo
scan     largest inequality value over the second-measurement times, vs closed form
erasure  entropy before/after a discarded-outcome measurement, per grid resolution
noflow   setting dependence of the post-measurement ontic distribution
mwcheck  branching model vs the exact oracle, immutability, and the
         bookkeeping-variant diagnostic

Outputs are CSV (config in leading '#' comment lines, 9-significant-digit
floats) or JSON ({config, results, provenance}); identical configurations
and seeds produce byte-identical files for any worker count.  The exit code
is 0 on success, 2 for configuration errors, 3 for numerical failures.
ONTOLAB_THREADS overrides the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import NumericalFailureError
from .information import branching_no_erasure_check, erasure_report, noflow_test
from .leggett_garg import (
    CLASSICAL_BOUND,
    TSIRELSON_BOUND,
    LGScenario,
    PAIR_LABELS,
    empirical_correlations,
    lg_stderr,
    lg_value,
    max_violation_over_34,
    quantum_correlations,
)
from .models import MODEL_NAMES, BranchingModel, make_model
from .qubit import as_direction, joint_expectation, MAXIMALLY_MIXED, sequential_joint
from .rng import resolve_workers

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_PI_LITERAL = re.compile(
    r"^(?P<sign>[+-]?)(?P<num>\d+(?:\.\d+)?)?\s*pi(?:\s*/\s*(?P<den>\d+(?:\.\d+)?))?$"
)


def parse_time(text: str) -> float:
    """Radians, as a float or a pi-fraction literal like 'pi/8' or '3pi/8'."""
    s = text.strip().lower()
    m = _PI_LITERAL.match(s)
    if m:
        value = math.pi * float(m.group("num") or 1.0)
        if m.group("den"):
            den = float(m.group("den"))
            if den == 0:
                raise argparse.ArgumentTypeError(f"time {text!r} divides by zero")
            value /= den
        return -value if m.group("sign") == "-" else value
    try:
        return float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse time {text!r} (use radians or e.g. pi/8)")


def parse_times(text: str) -> tuple[float, ...]:
    return tuple(parse_time(tok) for tok in text.split(","))


def parse_dirs(text: str) -> tuple[np.ndarray, ...]:
    """Semicolon-separated Bloch directions 'ax,ay,az;bx,by,bz', normalized."""
    dirs = []
    for part in text.split(";"):
        comps = [float(tok) for tok in part.split(",")]
        if len(comps) != 3:
            raise argparse.ArgumentTypeError(f"direction {part!r} must have 3 components")
        v = np.asarray(comps, dtype=float)
        norm = np.linalg.norm(v)
        if norm == 0 or not np.isfinite(norm):
            raise argparse.ArgumentTypeError(f"direction {part!r} has no direction")
        dirs.append(v / norm)
    return tuple(dirs)


def parse_bins(text: str) -> tuple[tuple[int, int], ...]:
    """Comma-separated grid resolutions 'NZxNPHI[,NZxNPHI...]'."""
    out = []
    for part in text.split(","):
        m = re.match(r"^(\d+)x(\d+)$", part.strip().lower())
        if not m:
            raise argparse.ArgumentTypeError(f"bad bins {part!r}, expected like 32x32")
        nz, nphi = int(m.group(1)), int(m.group(2))
        if nz < 1 or nphi < 1:
            raise argparse.ArgumentTypeError("bins must be >= 1 in both axes")
        out.append((nz, nphi))
    return tuple(out)


@dataclass
class RunConfig:
    """Resolved experiment configuration, embedded verbatim in every output.

    The worker count is deliberately not part of it: results are
    worker-count independent, so parallelism is no part of an experiment's
    identity.
    """

    command: str
    model: str
    runs: int
    seed: int
    gamma: float
    bins: tuple[tuple[int, int], ...]
    times: tuple[float, ...] | None
    dirs: tuple[tuple[float, ...], ...] | None
    out: str | None
    format: str


def _fmt9(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        # an undefined value (NaN, e.g. a correlator with no runs) is an empty field
        return f"{x:.9g}" if math.isfinite(x) else ""
    return str(x)


def _jsonable(obj):
    """Full-precision JSON payload; numpy scalars become plain Python values.

    An undefined (non-finite) float becomes null, so the payload is strict JSON.
    """
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_output(config: RunConfig, columns: list[str], rows: list[dict], results: dict) -> None:
    if config.format == "json":
        payload = {
            "config": _jsonable(asdict(config)),
            "results": _jsonable(results),
            "provenance": {"package": "ontolab", "version": __version__, "seed": config.seed},
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        lines = []
        for key, value in asdict(config).items():
            lines.append(f"# {key}={value}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt9(row.get(c, "")) for c in columns))
        text = "\n".join(lines) + "\n"
    if config.out:
        with open(config.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_writable(path: str) -> None:
    """Reject an output file that cannot be written, before anything is computed."""
    target = path if os.path.exists(path) else (os.path.dirname(path) or ".")
    writable = not os.path.isdir(path) and os.access(target, os.W_OK)
    _require(writable, f"cannot write output file {path!r}")


def cmd_lg(config: RunConfig, workers: int) -> int:
    _require(config.times is not None and len(config.times) == 4, "lg needs --times T1,T2,T3,T4")
    scenario = LGScenario.from_times(*config.times)
    if config.model == "quantum":
        corr = quantum_correlations(scenario)
    else:
        model = make_model(config.model, gamma=config.gamma)
        corr = empirical_correlations(model, scenario, config.runs, config.seed, workers)
    value = lg_value(corr)
    rows = [
        {"quantity": label, "value": c, "stderr": se, "n": n}
        for label, c, se, n in zip(PAIR_LABELS, corr.values(), corr.stderr, corr.counts)
    ]
    rows.append({"quantity": "lg_value", "value": value, "stderr": lg_stderr(corr), "n": sum(corr.counts)})
    rows.append({"quantity": "classical_bound", "value": CLASSICAL_BOUND, "stderr": "", "n": ""})
    rows.append({"quantity": "tsirelson_bound", "value": TSIRELSON_BOUND, "stderr": "", "n": ""})
    results = {
        "correlators": {
            label: {"value": c, "stderr": se, "n": n}
            for label, c, se, n in zip(PAIR_LABELS, corr.values(), corr.stderr, corr.counts)
        },
        "lg_value": value,
        "lg_stderr": lg_stderr(corr),
        "classical_bound": CLASSICAL_BOUND,
        "tsirelson_bound": TSIRELSON_BOUND,
    }
    write_output(config, ["quantity", "value", "stderr", "n"], rows, results)
    return EXIT_OK


def cmd_scan(config: RunConfig, workers: int) -> int:
    _require(config.times is not None and len(config.times) == 2, "scan needs --times T1,T2")
    t1, t2 = config.times
    value, t3, t4 = max_violation_over_34(t1, t2)
    delta = t2 - t1
    closed = 2.0 * (abs(math.cos(delta)) + abs(math.sin(delta)))
    diff = abs(value - closed)
    results = {
        "t1": t1,
        "t2": t2,
        "value_scan": value,
        "t3": t3,
        "t4": t4,
        "value_closed_form": closed,
        "abs_difference": diff,
    }
    rows = [{"quantity": k, "value": v} for k, v in results.items()]
    write_output(config, ["quantity", "value"], rows, results)
    if diff > 1e-8:
        print(f"scan value differs from closed form by {diff}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_erasure(config: RunConfig, workers: int) -> int:
    _require(
        config.model in ("bb", "telegraph"),
        "erasure applies to single-world models (bb, telegraph); "
        "for the branching model use mwcheck, which verifies that nothing is erased",
    )
    setting = config.dirs[0] if config.dirs else (0.0, 0.0, 1.0)
    model = make_model(config.model, gamma=config.gamma)
    report = erasure_report(
        model, setting, config.runs, config.bins, seed=config.seed, workers=workers
    )
    rows = [
        {"nz": nz, "nphi": nphi, "entropy_before": b, "entropy_after": a, "gap": g}
        for (nz, nphi), b, a, g in zip(
            report.resolutions, report.entropy_before, report.entropy_after, report.gaps
        )
    ]
    results = {
        "setting": list(report.setting),
        "runs": report.runs,
        "rows": rows,
        "units": "nats",
    }
    write_output(config, ["nz", "nphi", "entropy_before", "entropy_after", "gap"], rows, results)
    return EXIT_OK


def cmd_noflow(config: RunConfig, workers: int) -> int:
    _require(
        config.model in ("bb", "telegraph"),
        "noflow applies to single-world models (bb, telegraph)",
    )
    _require(config.dirs is not None and len(config.dirs) == 2, "noflow needs --dirs a;b")
    nz, nphi = config.bins[0]
    model = make_model(config.model, gamma=config.gamma)
    report = noflow_test(
        model,
        config.dirs[0],
        config.dirs[1],
        config.runs,
        nz=nz,
        nphi=nphi,
        seed=config.seed,
        workers=workers,
    )
    results = {
        "setting1": list(report.setting1),
        "setting2": list(report.setting2),
        "runs": report.runs,
        "bins": list(report.bins),
        "tv": report.tv,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "noise_threshold": report.noise_threshold,
        "flow_detected": report.flow_detected,
    }
    rows = [{"quantity": k, "value": v} for k, v in results.items() if not isinstance(v, list)]
    write_output(config, ["quantity", "value"], rows, results)
    return EXIT_OK


def cmd_mwcheck(config: RunConfig, workers: int) -> int:
    _require(config.dirs is not None and len(config.dirs) == 2, "mwcheck needs --dirs a;b")
    a, b = (as_direction(d) for d in config.dirs)
    exact = sequential_joint(MAXIMALLY_MIXED, [a, b])
    n = config.runs

    def compare(variant: str):
        probs = BranchingModel(setting_variant=variant).joint_statistics(
            a, b, n, config.seed, workers
        )
        dev = np.abs(probs - exact)
        tol = 5.0 * np.sqrt(exact * (1.0 - exact) / n)
        return probs, float(dev.max()), bool((dev <= tol).all())

    probs_b, dev_b, ok_b = compare("b")
    probs_a, dev_a, ok_a = compare("a")
    immut = branching_no_erasure_check(a, b, min(n, 10**5), seed=config.seed, workers=workers)

    results = {
        "a": list(map(float, a)),
        "b": list(map(float, b)),
        "runs": n,
        "e_exact": joint_expectation(exact),
        "e_variant_b": joint_expectation(probs_b),
        "e_variant_a": joint_expectation(probs_a),
        "joint_exact": [[float(x) for x in row] for row in exact],
        "joint_variant_b": [[float(x) for x in row] for row in probs_b],
        "joint_variant_a": [[float(x) for x in row] for row in probs_a],
        "variant_b_max_abs_dev": dev_b,
        "variant_b_oracle_equivalent": ok_b,
        "variant_a_max_abs_dev": dev_a,
        "variant_a_oracle_equivalent": ok_a,
        "immutable": immut.immutable,
        "tv_x0": immut.tv_x0,
        "tv_x1": immut.tv_x1,
        "noise_threshold": immut.noise_threshold,
        "no_erasure": immut.passed,
    }
    rows = [
        {"quantity": k, "value": v}
        for k, v in results.items()
        if not isinstance(v, list)
    ]
    write_output(config, ["quantity", "value"], rows, results)
    if not ok_b:
        print(
            f"branching model deviates from the oracle by up to {dev_b} (runs={n})",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    return EXIT_OK


_COMMANDS = {
    "lg": cmd_lg,
    "scan": cmd_scan,
    "erasure": cmd_erasure,
    "noflow": cmd_noflow,
    "mwcheck": cmd_mwcheck,
}

_DEFAULT_BINS = {
    "lg": ((16, 16),),
    "scan": ((16, 16),),
    "noflow": ((16, 16),),
    "mwcheck": ((16, 16),),
    "erasure": ((8, 8), (16, 16), (32, 32)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontolab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "lg": "inequality value for a four-time schedule (--times T1,T2,T3,T4)",
        "scan": "max inequality value over the later times (--times T1,T2)",
        "erasure": "entropy before/after a discarded-outcome measurement",
        "noflow": "setting dependence of the post-measurement distribution (--dirs a;b)",
        "mwcheck": "branching model vs exact oracle and no-erasure verdict (--dirs a;b)",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", choices=MODEL_NAMES, default="quantum" if name in ("lg", "scan") else "bb")
        p.add_argument("--runs", type=int, default=1_000_000, help="Monte Carlo runs (default 1e6)")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--gamma", type=float, default=1.0, help="telegraph flip rate per radian")
        p.add_argument("--bins", type=parse_bins, default=None, metavar="NZxNPHI[,..]")
        p.add_argument("--times", type=parse_times, default=None, metavar="T1,T2[,..]",
                       help="times in radians; pi-fractions like pi/8 accepted")
        p.add_argument("--dirs", type=parse_dirs, default=None, metavar="AX,AY,AZ[;BX,BY,BZ]",
                       help="Bloch directions, ';'-separated, normalized")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        workers = resolve_workers(None)
        if args.runs < 1:
            raise ValueError("--runs must be >= 1")
        if args.gamma < 0:
            raise ValueError("--gamma must be >= 0")
        if args.out is not None:
            _require_writable(args.out)
        config = RunConfig(
            command=args.command,
            model=args.model,
            runs=args.runs,
            seed=args.seed,
            gamma=args.gamma,
            bins=args.bins if args.bins is not None else _DEFAULT_BINS[args.command],
            times=args.times,
            dirs=tuple(tuple(float(x) for x in d) for d in args.dirs) if args.dirs else None,
            out=args.out,
            format=args.format,
        )
        return _COMMANDS[args.command](config, workers)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
