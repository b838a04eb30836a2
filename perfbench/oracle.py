"""Oracle gate: checks one command's exit code and output against closed forms.

The expected values are computed here, independently of ontolab:

* `lg` through a model: each correlator within 5 stderr of cos 2(t_k - t_l)
  (bb, mw) or exp(-2 gamma |t_k - t_l|) (telegraph), and the inequality value
  within 5 stderr of the same combination of them (2*sqrt(2) on the pi/8
  schedule); `lg --model quantum` matches them to 1e-12.
* `scan`: the scanned value matches 2 (|cos d| + |sin d|) to 1e-8.
* `erasure`: with N runs and K cells, G = 2N (H_ref - H) of a plug-in entropy H
  follows chi-square(K - 1) when the cell probabilities are uniform, which is
  where the plug-in bias (K - 1) / (2N) comes from.  Before the measurement
  H_ref = ln 4pi over all K cells; after it (bb only) the ensemble sits on two
  equally likely atoms, H_ref = ln 2 + ln(cell area) with K = 2.  G must lie
  in the +-5 sigma band of its chi-square law (Wilson-Hilferty quantiles).
* `noflow`: flow for bb, none for telegraph.
* `mwcheck`: exit 0 with `variant_b_oracle_equivalent` and `no_erasure` true.
"""

from __future__ import annotations

import json
import math

Z = 5.0
LABELS = ("C13", "C23", "C24", "C14")
EXACT_TOL = 1e-12
SCAN_TOL = 1e-8


def options(argv) -> tuple[str, dict[str, str]]:
    """Command and `--flag=value` options of a workload command line."""
    opts = {}
    for arg in argv[1:]:
        key, _, value = arg.partition("=")
        opts[key.removeprefix("--")] = value
    return argv[0], opts


def _scalar(text: str):
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def parse(opts: dict[str, str], text: str) -> dict:
    """Results as a flat mapping; correlator stderrs under '<name>.stderr'."""
    if opts.get("format", "csv") == "json":
        results = json.loads(text)["results"]
        flat = dict(results)
        for label, c in results.get("correlators", {}).items():
            flat[label], flat[f"{label}.stderr"] = c["value"], c["stderr"]
        if "lg_stderr" in results:
            flat["lg_value.stderr"] = results["lg_stderr"]
        return flat
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    flat = {}
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        name = cells.pop(header[0])
        flat[name] = _scalar(cells["value"])
        if cells.get("stderr"):
            flat[f"{name}.stderr"] = float(cells["stderr"])
    return flat


def _lg(opts, r) -> list[str]:
    u = [float(t) for t in opts["times"].split(",")]
    pairs = ((u[0], u[1]), (u[2], u[1]), (u[2], u[3]), (u[0], u[3]))
    model = opts.get("model", "quantum")
    if model == "telegraph":
        gamma = float(opts.get("gamma", 1.0))
        exact = [math.exp(-2.0 * gamma * abs(a - b)) for a, b in pairs]
    else:
        exact = [math.cos(2.0 * (a - b)) for a, b in pairs]
    expected = dict(zip(LABELS, exact))
    expected["lg_value"] = exact[0] + exact[1] + exact[2] - exact[3]
    errors = []
    for name, value in expected.items():
        tol = EXACT_TOL if model == "quantum" else Z * r[f"{name}.stderr"]
        if not abs(r[name] - value) <= tol:
            errors.append(f"{name}={r[name]!r}, expected {value!r} within {tol!r}")
    return errors


def _scan(opts, r) -> list[str]:
    t1, t2 = (float(t) for t in opts["times"].split(","))
    closed = 2.0 * (abs(math.cos(t2 - t1)) + abs(math.sin(t2 - t1)))
    if not abs(r["value_scan"] - closed) <= SCAN_TOL:
        return [f"value_scan={r['value_scan']!r}, closed form {closed!r}"]
    return []


def chi2_band(dof: int, z: float = Z) -> tuple[float, float]:
    """Wilson-Hilferty quantiles of chi-square(dof) at -z and +z sigma."""
    c = 2.0 / (9.0 * dof)
    return (
        dof * max(0.0, 1.0 - c - z * math.sqrt(c)) ** 3,
        dof * (1.0 - c + z * math.sqrt(c)) ** 3,
    )


def _entropy_gate(label: str, h: float, h_ref: float, runs: int, cells: int) -> list[str]:
    g = 2.0 * runs * (h_ref - h)
    lo, hi = chi2_band(cells - 1)
    # the slack absorbs rounding in H, which 2N magnifies
    if not lo - 1e-6 <= g <= hi:
        return [f"{label}: G={g!r} outside chi-square({cells - 1}) band [{lo!r}, {hi!r}]"]
    return []


def _erasure(opts, r) -> list[str]:
    runs = int(opts["runs"])
    errors = []
    for row in r["rows"]:
        cells = row["nz"] * row["nphi"]
        tag = f"{row['nz']}x{row['nphi']}"
        errors += _entropy_gate(f"{tag} before", row["entropy_before"], math.log(4.0 * math.pi), runs, cells)
        if opts.get("model") == "bb":
            h_after = math.log(2.0) + math.log(4.0 * math.pi / cells)
            errors += _entropy_gate(f"{tag} after", row["entropy_after"], h_after, runs, 2)
    return errors


def _noflow(opts, r) -> list[str]:
    expected = opts.get("model") == "bb"
    if r["flow_detected"] is not expected:
        return [f"flow_detected={r['flow_detected']!r}, expected {expected!r}"]
    return []


def _mwcheck(opts, r) -> list[str]:
    return [f"{key} is not true" for key in ("variant_b_oracle_equivalent", "no_erasure") if r[key] is not True]


_CHECKS = {"lg": _lg, "scan": _scan, "erasure": _erasure, "noflow": _noflow, "mwcheck": _mwcheck}


def check(argv, code: int, text: str) -> list[str]:
    """Reasons the command's result is wrong; empty when it passes."""
    if code != 0:
        return [f"exit code {code}"]
    command, opts = options(argv)
    try:
        return _CHECKS[command](opts, parse(opts, text))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
