"""ontolab benchmark: seeded CLI workloads, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload lg-models --seed 1 --seconds 30 --trace 0

The workload's command lines (see workloads.py) go through
`ontolab.cli.main(argv)` in this process, each once with ONTOLAB_THREADS=1 and
once with ONTOLAB_THREADS=nproc, in a closed loop: one call at a time.  Every
call is checked against the closed-form oracle (oracle.py), and its 1-worker
and nproc-worker outputs must be byte-identical; a call that fails either
check, or exits nonzero, counts in `failed`.

--trace 0 times whole passes over the workload with nothing wrapped and
reports the end-to-end metrics, each the median over the passes that fit in
--seconds, the first of which only warms up; `setup_s` is the median over
fresh interpreters of the time until `ontolab.cli` is imported and its parser
built.  --trace 1 repeats rounds of an untraced 1-worker pass, a traced
1-worker pass and a traced nproc-worker pass, and reports the per-layer
metrics as medians over the rounds.  On a shared 2-CPU host the speed of a
pass drifts by 10-20% over seconds to minutes; medians over whole passes
damp that, and the end-to-end bounds allow for it.

The last line of standard output is the result object; the line before it
records the host, the pass and sample counts and the failure share.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import oracle
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
SETUP_CODE = "import time, ontolab.cli; ontolab.cli.build_parser(); print(time.monotonic())"
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "runs_per_s.w1": "runs/s",
    "runs_per_s.wN": "runs/s",
    "calls_per_s.w1": "calls/s",
    "peak_rss_mb": "MiB",
}

SINGLE_WORLD_METHODS = ("prepare_max_batch", "evolve_batch", "measure_batch", "embed_on_sphere")
BRANCHING_METHODS = ("run_experiment_batch", "sample_ontic_batch")
CHUNK_LAYERS = ("leggett_garg", "models", "information")

PER_LAYER = {
    "rng.uniform_block.self_s": "s",
    "rng.uniform_block.calls": "count",
    "rng.values_per_run": "doubles/run",
    "rng.map_chunks.chunks": "count",
    "rng.map_chunks.dispatch_s": "s",
    "rng.map_chunks.busy_frac.wN": "fraction",
    **{f"models.{m}.{f}.self_s": "s" for m in ("bb", "telegraph") for f in SINGLE_WORLD_METHODS},
    **{f"models.mw.{f}.self_s": "s" for f in BRANCHING_METHODS},
    "models.chunk_self_s": "s",
    "leggett_garg.chunk_self_s": "s",
    "leggett_garg.max_violation_over_34.self_s": "s",
    "leggett_garg.quantum_correlations.self_s": "s",
    "sphere.sample_uniform_sphere.self_s": "s",
    "sphere.bin_index.self_s": "s",
    "sphere.bin_index.points": "count",
    "sphere.SphereHistogram.add.self_s": "s",
    "sphere.SphereHistogram.merge.calls": "count",
    "information.chunk_self_s": "s",
    "information.noflow_test.self_s": "s",
    "information.branching_no_erasure_check.runs": "count",
    "qubit.sequential_joint.self_s": "s",
    "cli.main.self_s": "s",
    "cli.write_output.self_s": "s",
    "cli.write_output.bytes": "bytes",
    "tracing.overhead_frac": "fraction",
}

# counters read off a traced function's result
COUNTERS = {
    "rng.uniform_block": lambda u: {"rng.doubles": u.size, "rng.runs": u.shape[0]},
    "sphere.bin_index": lambda idx: {"sphere.bin_index.points": idx.size},
    "information.branching_no_erasure_check": lambda report: {
        "information.branching_no_erasure_check.runs": report.runs
    },
}


@dataclass(frozen=True)
class Outcome:
    code: int
    text: str
    wall: float


def invoke(cli, argv, workers: int) -> Outcome:
    """One in-process CLI call with `workers` threads; stdout is its output."""
    os.environ["ONTOLAB_THREADS"] = str(workers)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            # an uncaught exception is what the real CLI reports as exit 1
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    if code != 0:
        print(f"{' '.join(argv)} [{workers} workers]: {err.getvalue().strip()}", file=sys.stderr)
    return Outcome(code, out.getvalue(), wall)


def run_pass(cli, invocations, worker_counts) -> list[dict[int, Outcome]]:
    gc.collect()
    return [{w: invoke(cli, inv.argv, w) for w in worker_counts} for inv in invocations]


class Tally:
    """Attempted and failed invocations; reasons go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def verify(self, argv, outcomes: dict[str, Outcome]) -> None:
        """One invocation: the oracle on the first outcome, byte identity across all."""
        (first_label, first), *rest = outcomes.items()
        errors = oracle.check(argv, first.code, first.text)
        errors += [
            f"{label} output differs from {first_label}"
            for label, o in rest
            if (o.code, o.text) != (first.code, first.text)
        ]
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}: {'; '.join(errors)}", file=sys.stderr)

    def verify_pass(self, invocations, outcomes) -> None:
        for inv, by_workers in zip(invocations, outcomes):
            self.verify(inv.argv, {f"{w} workers": o for w, o in by_workers.items()})


def setup_seconds() -> float:
    """Fresh interpreter until `ontolab.cli` is imported and its parser built."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=SETUP_TIMEOUT_S,
    )
    return float(done.stdout) - start


def timed_passes(seconds: float, one_pass) -> list:
    """Results of repeated one_pass() calls that fit in `seconds`.

    The first call warms caches and its result is dropped.  Another call
    starts only while one of average length still fits, and at least one
    result is kept.
    """
    start = time.perf_counter()
    one_pass()
    results = []
    while True:
        results.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (len(results) + 1) > seconds:
            return results


def end_to_end(cli, invocations, nproc: int, seconds: float, tally: Tally):
    setup = [setup_seconds() for _ in range(SETUP_REPEATS + 1)][1:]

    def one_pass():
        outcomes = run_pass(cli, invocations, (1, nproc))
        tally.verify_pass(invocations, outcomes)
        return outcomes

    passes = timed_passes(seconds, one_pass)
    runs = sum(inv.runs for inv in invocations)
    w1 = [sum(o[1].wall for o in p) for p in passes]
    wn = [sum(o[nproc].wall for o in p) for p in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "runs_per_s.w1": statistics.median(runs / t for t in w1),
        "runs_per_s.wN": statistics.median(runs / t for t in wn),
        "calls_per_s.w1": statistics.median(len(invocations) / t for t in w1),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"timed_passes": len(passes), "setup_samples": len(setup)}


def install_tracer(tracer: spans.Tracer) -> None:
    """Wrap each traced function of ontolab; span names are '<module>.<name>'."""
    from ontolab import cli, information, leggett_garg, models, qubit, rng, sphere

    modules = [m for name, m in sys.modules.items() if name == "ontolab" or name.startswith("ontolab.")]
    tracer.install(rng, "map_chunks", tracer.wrap_dispatch("rng.map_chunks", rng.map_chunks), modules)
    functions = [
        (rng, "uniform_block"),
        (leggett_garg, "max_violation_over_34"),
        (leggett_garg, "quantum_correlations"),
        (sphere, "sample_uniform_sphere"),
        (sphere, "bin_index"),
        (information, "noflow_test"),
        (information, "branching_no_erasure_check"),
        (qubit, "sequential_joint"),
        (cli, "main"),
        (cli, "write_output"),
    ]
    for module, attr in functions:
        name = f"{module.__name__.removeprefix('ontolab.')}.{attr}"
        tracer.install(module, attr, tracer.wrap(name, getattr(module, attr), COUNTERS.get(name)), modules)
    methods = [(sphere.SphereHistogram, "sphere.SphereHistogram", ("add", "merge"))]
    methods += [(cls, f"models.{cls.name}", SINGLE_WORLD_METHODS) for cls in (models.BeltramettiBugajski, models.Telegraph)]
    methods.append((models.BranchingModel, f"models.{models.BranchingModel.name}", BRANCHING_METHODS))
    for cls, prefix, attrs in methods:
        for attr in attrs:
            tracer.install(cls, attr, tracer.wrap(f"{prefix}.{attr}", getattr(cls, attr)))


def traced_pass(cli, invocations, workers: int):
    tracer = spans.Tracer()
    install_tracer(tracer)
    try:
        return run_pass(cli, invocations, (workers,)), tracer
    finally:
        tracer.uninstall()


def busy_fraction(span_list, workers: int) -> float:
    """Callback time / (map_chunks wall x threads it could use)."""
    kids = spans.children(span_list)
    busy = capacity = 0.0
    for s in span_list:
        if s.name == "rng.map_chunks":
            chunks = kids[s.id]
            busy += sum(c.duration for c in chunks)
            capacity += s.duration * max(1, min(workers, len(chunks)))
    return busy / capacity if capacity else 0.0


def layer_metrics(plain, traced1, tracer1, tracer_n, nproc: int) -> dict[str, float]:
    """Every self time, call count and counter of one traced round."""
    self_s = spans.self_times(tracer1.spans)
    calls = Counter(s.name for s in tracer1.spans)
    counts = tracer1.counts
    m = {f"{name}.self_s": t for name, t in self_s.items()}
    m.update({f"{name}.calls": n for name, n in calls.items()})
    m.update(counts)
    m.update({f"{layer}.chunk_self_s": self_s.get(f"{layer}.chunk", 0.0) for layer in CHUNK_LAYERS})
    m["rng.values_per_run"] = counts["rng.doubles"] / counts["rng.runs"] if counts["rng.runs"] else 0.0
    m["rng.map_chunks.chunks"] = sum(n for name, n in calls.items() if name.endswith(".chunk"))
    m["rng.map_chunks.dispatch_s"] = self_s.get("rng.map_chunks", 0.0)
    m["rng.map_chunks.busy_frac.wN"] = busy_fraction(tracer_n.spans, nproc)
    # all that a call prints comes from write_output
    m["cli.write_output.bytes"] = sum(len(o[1].text.encode()) for o in traced1)
    untraced = sum(o[1].wall for o in plain)
    m["tracing.overhead_frac"] = sum(o[1].wall for o in traced1) / untraced - 1.0
    return m


def per_layer(cli, invocations, nproc: int, seconds: float, tally: Tally):
    def one_round():
        plain = run_pass(cli, invocations, (1,))
        traced1, tracer1 = traced_pass(cli, invocations, 1)
        traced_n, tracer_n = traced_pass(cli, invocations, nproc)
        for inv, a, b, c in zip(invocations, plain, traced1, traced_n):
            tally.verify(
                inv.argv,
                {"1 worker": a[1], "1 worker traced": b[1], f"{nproc} workers traced": c[nproc]},
            )
        return layer_metrics(plain, traced1, tracer1, tracer_n, nproc)

    rounds = timed_passes(seconds, one_round)
    names = sorted(set().union(*rounds))
    every = {name: statistics.median(r.get(name, 0.0) for r in rounds) for name in names}
    metrics = {name: every.get(name, 0.0) for name in PER_LAYER}
    return metrics, {"timed_passes": len(rounds), "layers": every}


def host(nproc: int) -> dict:
    import numpy

    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            done = subprocess.run(["getconf", key], capture_output=True, text=True, timeout=10)
            caches[key] = int(done.stdout) if done.returncode == 0 else None
        except (OSError, ValueError, subprocess.TimeoutExpired):
            caches[key] = None
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cache_bytes": caches,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ontolab" / "cli.py").is_file():
        print(f"perfbench: no ontolab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ontolab import cli

    if Path(cli.__file__).resolve().parent != SRC / "ontolab":
        print(f"perfbench: imported ontolab from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    invocations = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally()
    if args.trace:
        values, detail = per_layer(cli, invocations, nproc, args.seconds, tally)
        units = PER_LAYER
    else:
        values, detail = end_to_end(cli, invocations, nproc, args.seconds, tally)
        units = END_TO_END
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host(nproc),
        "invocations_per_pass": len(invocations),
        "worker_counts": sorted({1, nproc}),
        "monte_carlo_runs_per_pass": sum(inv.runs for inv in invocations),
        **detail,
        "fail_frac": tally.failed / tally.attempted,
    }
    print(json.dumps(info))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
