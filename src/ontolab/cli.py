"""Command-line harness: seeded, machine-readable runs of every analysis.

Commands
--------
lg       four-time inequality value, exact (model=quantum) or Monte Carlo
scan     largest inequality value over the later times, at the closed-form argmax
erasure  entropy before/after a discarded-outcome measurement, per grid resolution
noflow   setting dependence of the post-measurement ontic distribution
mwcheck  branching model vs the exact oracle and the bookkeeping-variant
         diagnostic, with the no-erasure verdict on every run, from one pass

Outputs are CSV (config in leading '#' comment lines, 9-significant-digit
floats) or JSON ({config, results, provenance}).  The config records the
command, the seed and exactly the flags that the command and its model read,
defaults filled in; not --out or --format, so `--out FILE` gets the bytes
stdout would.  Output bytes do not depend on the worker count.  The exit
code is 0 on success, 2 for configuration errors and for output that cannot
be written, 3 for numerical failures;
mwcheck also exits 3, after writing its output, when variant b fails the
oracle test or no_erasure is false.
A model the command does not take, or a flag that the command or the chosen
model would ignore, is a configuration error, as are --runs above MAX_RUNS,
a scan time with |t| >= 2**8 (beyond it, rounding could move the value past
its 1e-12 check) and an lg time or paired gap beyond leggett_garg.MAX_TIME.
ONTOLAB_THREADS sets the worker count, at most the number of CPUs the
process may run on (default: that number); a value that is not an integer,
or is below 1, is a configuration error.
The first Monte Carlo call sets glibc's malloc policy for the process
(``rng.map_chunks``); importing the CLI and building its parser set none.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import NumericalFailureError
from .information import ALPHA, _finest_grids, branching_no_erasure_check, chi_square_test, erasure_report, noflow_test
from .leggett_garg import (
    CLASSICAL_BOUND,
    TSIRELSON_BOUND,
    LGScenario,
    PAIR_LABELS,
    empirical_correlations,
    lg_stderr,
    lg_value,
    max_violation_closed_form,
    max_violation_over_34,
    quantum_correlations,
)
from .models import MODEL_NAMES, make_model
from .qubit import joint_expectation, sequential_joint, unit_vector
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


def parse_dirs(text: str) -> tuple[tuple[float, float, float], ...]:
    """Semicolon-separated Bloch directions 'ax,ay,az;bx,by,bz', normalized."""
    dirs = []
    for part in text.split(";"):
        comps = [float(tok) for tok in part.split(",")]
        if len(comps) != 3:
            raise argparse.ArgumentTypeError(f"direction {part!r} must have 3 components")
        v = np.asarray(comps, dtype=float)
        if not np.isfinite(v).all() or not v.any():
            raise argparse.ArgumentTypeError(f"direction {part!r} has no direction")
        # scale by a power of two so the squares neither overflow nor underflow;
        # exact, so a direction whose norm was representable keeps its bits
        v = np.ldexp(v, -np.frexp(np.abs(v).max())[1])
        # the norm by elementwise multiply and add: BLAS's norm rounds differently per CPU kernel
        dirs.append(tuple(float(x) for x in v / np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])))
    return tuple(dirs)


#: most cells erasure counts for one --bins, the finest grid of each family
#: (information._finest_grids) together: 2**20 cells is 8 MiB per int64 vector
MAX_BIN_CELLS = 1 << 20

#: most Monte Carlo runs: about 150,000 chunks, with run indices far below the stream's 2**61
MAX_RUNS = 10**10


def parse_bins(text: str) -> tuple[tuple[int, int], ...]:
    """Comma-separated grid resolutions 'NZxNPHI[,NZxNPHI...]'; the grids erasure counts hold at most MAX_BIN_CELLS cells together.

    A family's distinct grids hold under 4 times the cells of its finest, so
    the grids asked stop the parse at 4 * MAX_BIN_CELLS, before they are grouped.
    """
    out, distinct, asked = [], set(), 0
    for part in text.split(","):
        m = re.match(r"^(\d+)x(\d+)$", part.strip().lower())
        if not m:
            raise argparse.ArgumentTypeError(f"bad bins {part!r}, expected like 32x32")
        nz, nphi = int(m.group(1)), int(m.group(2))
        if nz < 1 or nphi < 1:
            raise argparse.ArgumentTypeError("bins must be >= 1 in both axes")
        out.append((nz, nphi))
        if (nz, nphi) not in distinct:
            distinct.add((nz, nphi))
            asked += nz * nphi
            if asked >= 4 * MAX_BIN_CELLS:
                break
    if asked >= 4 * MAX_BIN_CELLS or sum(nz * nphi for nz, nphi in set(_finest_grids(distinct).values())) > MAX_BIN_CELLS:
        raise argparse.ArgumentTypeError(f"bins {text!r} count over {MAX_BIN_CELLS} cells in total")
    return tuple(out)


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


class Output(NamedTuple):
    """What a command reports: its results and their CSV table."""

    results: dict
    # the CSV rows, whose header is the first row's keys; None: one (quantity, value) row per scalar result
    rows: list[dict] | None = None
    # a numerical failure, reported (exit 3) after the output is written
    failure: str | None = None


def write_output(config: dict, output: Output, fmt: str, out: str | None) -> None:
    """Write the config and output as CSV or JSON to `out`, else stdout; same bytes either way."""
    if fmt == "json":
        payload = {
            "config": _jsonable(config),
            "results": _jsonable(output.results),
            "provenance": {"package": "ontolab", "version": __version__, "seed": config["seed"]},
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        rows = output.rows
        if rows is None:
            rows = [{"quantity": k, "value": v} for k, v in output.results.items() if not isinstance(v, list)]
        lines = [f"# {key}={value}" for key, value in config.items()]
        columns = list(rows[0])
        lines.append(",".join(columns))
        lines += [",".join(_fmt9(row.get(c, "")) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # a failed write raises here, not in the interpreter's flush at exit


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_writable(path: str) -> None:
    """Reject an output file that cannot be written, before anything is computed."""
    target = path if os.path.exists(path) else (os.path.dirname(path) or ".")
    writable = not os.path.isdir(path) and os.access(target, os.W_OK)
    _require(writable, f"cannot write output file {path!r}")


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the exit flush of what a failed write left buffered succeeds."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
        return  # no descriptor, so nothing for the interpreter to flush
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _make_model(config: dict):
    # only the telegraph model reads (and so records) gamma
    if "gamma" in config:
        return make_model(config["model"], gamma=config["gamma"])
    return make_model(config["model"])


def cmd_lg(config: dict) -> Output:
    _require(len(config["times"]) == 4, "lg needs --times T1,T2,T3,T4")
    scenario = LGScenario.from_times(*config["times"])
    if config["model"] == "quantum":
        corr = quantum_correlations(scenario)
    else:
        corr = empirical_correlations(_make_model(config), scenario, config["runs"], config["seed"])
    results = {
        "correlators": {
            label: {"value": c, "stderr": se, "n": n}
            for label, c, se, n in zip(PAIR_LABELS, corr.values(), corr.stderr, corr.counts)
        },
        "lg_value": lg_value(corr),
        "lg_stderr": lg_stderr(corr),
        "classical_bound": CLASSICAL_BOUND,
        "tsirelson_bound": TSIRELSON_BOUND,
    }
    rows = [{"quantity": label, **entry} for label, entry in results["correlators"].items()]
    rows.append({"quantity": "lg_value", "value": results["lg_value"], "stderr": results["lg_stderr"], "n": sum(corr.counts)})
    rows += [{"quantity": q, "value": results[q]} for q in ("classical_bound", "tsirelson_bound")]
    return Output(results, rows)


def cmd_scan(config: dict) -> Output:
    _require(len(config["times"]) == 2, "scan needs --times T1,T2")
    t1, t2 = config["times"]
    value, t3, t4 = max_violation_over_34(t1, t2)
    closed = max_violation_closed_form(t1, t2)
    results = {
        "t1": t1,
        "t2": t2,
        "value_scan": value,
        "t3": t3,
        "t4": t4,
        "value_closed_form": closed,
        "abs_difference": abs(value - closed),
    }
    return Output(results)


def cmd_erasure(config: dict) -> Output:
    _require(len(config["dirs"]) == 1, "erasure takes a single --dirs direction")
    model = _make_model(config)
    report = erasure_report(model, config["dirs"][0], config["runs"], config["bins"], seed=config["seed"])
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
    return Output(results, rows)


def cmd_noflow(config: dict) -> Output:
    _require(len(config["dirs"]) == 2, "noflow needs --dirs a;b")
    _require(len(config["bins"]) == 1, "noflow takes a single --bins grid")
    ((nz, nphi),) = config["bins"]
    report = noflow_test(
        _make_model(config),
        *config["dirs"],
        config["runs"],
        nz=nz,
        nphi=nphi,
        seed=config["seed"],
    )
    results = {
        "setting1": list(report.setting1),
        "setting2": list(report.setting2),
        "runs": report.runs,
        "bins": list(report.bins),
        "tv": report.tv,
        "chi2": report.chi2,
        "df": report.df,
        "p_value": report.p_value,
        "alpha": ALPHA,
        "flow_detected": report.flow_detected,
    }
    return Output(results)


def cmd_mwcheck(config: dict) -> Output:
    _require(len(config["dirs"]) == 2, "mwcheck needs --dirs a;b")
    a, b = (unit_vector(d) for d in config["dirs"])
    exact = sequential_joint(a, b)
    n = config["runs"]
    # variant b keeps the second device's bookkeeping along b, as the protocol
    # does, variant a along a; both count the same draw, whose every run the
    # no-erasure verdict checks
    check = branching_no_erasure_check(a, b, n, seed=config["seed"])
    probs_b, probs_a = check.joint
    # each variant's four counts, tested for goodness of fit against the oracle's
    p_b, p_a = (chi_square_test(counts.ravel(), n * exact.ravel())[2] for counts in check.counts)
    dev_b, dev_a = (float(np.abs(probs - exact).max()) for probs in (probs_b, probs_a))

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
        "variant_b_p_value": p_b,
        "variant_b_oracle_equivalent": p_b >= ALPHA,
        "variant_a_max_abs_dev": dev_a,
        "variant_a_p_value": p_a,
        "variant_a_oracle_equivalent": p_a >= ALPHA,
        "alpha": ALPHA,
        "no_erasure": check.immutable,
    }
    failures = []
    if p_b < ALPHA:
        failures.append(f"branching model fails the oracle test: p_value {p_b} < alpha (runs={n})")
    if not check.immutable:
        failures.append(f"branching model altered the system pair (x0, x1): no_erasure is false (runs={n})")
    return Output(results, failure="; ".join(failures) or None)


# How to parse each flag a command may read, and what it means.
_FLAG_SPECS = {
    "model": dict(type=str, choices=MODEL_NAMES, help="model"),
    "runs": dict(type=int, help="Monte Carlo runs"),
    "seed": dict(type=int, help="master seed"),
    "gamma": dict(type=float, help="telegraph flip rate per radian"),
    "bins": dict(type=parse_bins, metavar="NZxNPHI[,..]", help="sphere grid resolutions"),
    "times": dict(type=parse_times, metavar="T1,T2[,..]",
                  help="times in radians; pi-fractions like pi/8 accepted"),
    "dirs": dict(type=parse_dirs, metavar="AX,AY,AZ[;BX,BY,BZ]",
                 help="Bloch directions, ';'-separated, normalized"),
}

# Flags that only some models read; a command reads its other flags whatever
# its model, and a command without --model reads them all.
_MODELS_READING = {"runs": ("bb", "mw", "telegraph"), "gamma": ("telegraph",)}


class Command(NamedTuple):
    run: Callable[[dict], Output]
    help: str
    # every flag the command reads besides --out and --format, in the order the
    # config records them, with its default as command-line text (None: required)
    flags: dict[str, str | None]
    # the models a command with --model takes
    models: tuple[str, ...] = MODEL_NAMES


_COMMANDS = {
    "lg": Command(
        cmd_lg,
        "inequality value for a four-time schedule (--times T1,T2,T3,T4)",
        {"model": "quantum", "runs": "1000000", "seed": "0", "gamma": "1.0", "times": None},
    ),
    "scan": Command(
        cmd_scan,
        "max inequality value over the later times (--times T1,T2; |t| < 2**8 keeps rounding inside its 1e-12 check)",
        {"seed": "0", "times": None},
    ),
    "erasure": Command(
        cmd_erasure,
        "entropy before/after a discarded-outcome measurement",
        {"model": "bb", "runs": "1000000", "seed": "0", "gamma": "1.0",
         "bins": "8x8,16x16,32x32", "dirs": "0,0,1"},
        ("bb", "telegraph"),
    ),
    "noflow": Command(
        cmd_noflow,
        "setting dependence of the post-measurement distribution (--dirs a;b)",
        {"model": "bb", "runs": "1000000", "seed": "0", "gamma": "1.0", "bins": "16x16", "dirs": None},
        ("bb", "telegraph"),
    ),
    "mwcheck": Command(
        cmd_mwcheck,
        "branching model vs exact oracle and no-erasure verdict (--dirs a;b)",
        {"runs": "1000000", "seed": "0", "dirs": None},
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ontolab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        # an unset flag stays absent, so that one the chosen model would
        # ignore can be told apart from one left at its default
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for flag, default in command.flags.items():
            spec = _FLAG_SPECS[flag]
            note = "required" if default is None else f"default {default}"
            p.add_argument(f"--{flag}", **{**spec, "help": f"{spec['help']} ({note})"})
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _resolve_config(args) -> dict:
    """The recorded config: the command, then each flag that it and its model read, given or defaulted.

    A model the command does not take, and a given flag that the chosen model
    would ignore, are configuration errors.
    """
    given = vars(args)
    command = _COMMANDS[args.command]
    flags = command.flags
    model = given.get("model", flags.get("model"))
    _require(
        model is None or model in command.models,
        f"{args.command} does not take the {model} model; it takes {', '.join(command.models)}",
    )
    config = {"command": args.command}
    for flag, default in flags.items():
        if model is not None and model not in _MODELS_READING.get(flag, MODEL_NAMES):
            _require(flag not in given, f"--{flag} does not apply to the {model} model")
        elif flag in given:
            config[flag] = given[flag]
        else:
            _require(default is not None, f"{args.command} needs --{flag}")
            config[flag] = _FLAG_SPECS[flag]["type"](default)
    _require(1 <= config.get("runs", 1) <= MAX_RUNS, f"--runs must be from 1 to MAX_RUNS = {MAX_RUNS}")
    gamma = config.get("gamma", 0.0)
    _require(math.isfinite(gamma) and gamma >= 0, "--gamma must be finite and >= 0")
    # the stream reads the seed mod 2**64, so a seed outside would repeat another's results
    _require(0 <= config.get("seed", 0) < 2**64, "--seed must be from 0 to 2**64 - 1")
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolve_workers()  # a bad ONTOLAB_THREADS exits 2 before any work
        config = _resolve_config(args)
        if args.out is not None:
            _require_writable(args.out)
        output = _COMMANDS[args.command].run(config)
        try:
            write_output(config, output, args.format, args.out)
        except OSError as exc:
            if not args.out:
                _discard_stdout()
            raise ValueError(f"cannot write output to {args.out or 'stdout'}: {exc.strerror or exc}") from None
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if output.failure:
        print(output.failure, file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
