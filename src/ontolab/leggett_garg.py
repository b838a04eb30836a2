"""Four-time temporal (Leggett-Garg) scenario in CHSH form.

One observable is measured at two of four times.  The first measurement is
taken at t1 or t2, the second at t3 or t4, and the four measured pairs are
(1,3), (2,3), (2,4), (1,4).  The inequality

    C13 + C23 + C24 - C14 <= 2

holds whenever outcome statistics do not depend on which measurements were
executed; the quantum correlator cos 2(t_k - t_l) pushes the left-hand side
up to 2*sqrt(2).

A chronological schedule (u1 <= u2 <= u3 <= u4) enters through
``LGScenario.from_times``, which interleaves the roles: the first and third
times are the two alternatives for the earlier measurement, the second and
fourth for the later one.  That interleaving is what makes a pi/8-spaced
schedule reach the maximum (every summed pair then sits at spacing pi/8
while the subtracted pair sits at 3*pi/8).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import InvalidArgumentError, NumericalFailureError

CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

#: largest |t| and |t_k - t_l| of a schedule: the dynamics rotates by twice
#: each, and twice anything larger overflows to infinity
MAX_TIME = sys.float_info.max / 2

#: (first-measurement index, second-measurement index) of the four correlators
PAIRS = ((1, 3), (2, 3), (2, 4), (1, 4))
PAIR_LABELS = tuple(f"C{k}{l}" for k, l in PAIRS)


@dataclass(frozen=True)
class LGScenario:
    """Measurement times in radians: first at t1 or t2, second at t3 or t4.

    No ordering is imposed on the role fields; every run measures its pair
    chronologically (earlier time first) and the correlator does not depend
    on the order.
    """

    t1: float
    t2: float
    t3: float
    t4: float

    def __post_init__(self):
        times = [float(getattr(self, name)) for name in ("t1", "t2", "t3", "t4")]
        for k, t in enumerate(times, 1):
            if not math.isfinite(t):
                raise InvalidArgumentError(f"t{k} must be finite")
        gaps = [times[l - 1] - times[k - 1] for k, l in PAIRS]
        if not all(math.isfinite(2.0 * x) for x in times + gaps):
            raise InvalidArgumentError(
                f"times and the gaps between paired times need magnitude <= MAX_TIME = {MAX_TIME:.9g}, "
                "so that the rotation angles 2*t and 2*(t_k - t_l) are finite"
            )

    @classmethod
    def from_times(cls, u1: float, u2: float, u3: float, u4: float) -> "LGScenario":
        """Build from a chronological schedule, interleaving the roles.

        Requires the later-measurement alternatives (u3, u4) to be no earlier
        than the earlier-measurement ones (u1, u2).
        """
        if min(u3, u4) < max(u1, u2):
            raise InvalidArgumentError(
                "chronological schedule needs u3, u4 >= u1, u2 (second measurement after first)"
            )
        return cls(t1=u1, t2=u3, t3=u2, t4=u4)

    @classmethod
    def evenly_spaced(cls, start: float, step: float) -> "LGScenario":
        """Chronological schedule start, start+step, start+2*step, start+3*step."""
        return cls.from_times(*(start + k * step for k in range(4)))

    def pair_times(self) -> tuple[tuple[float, float], ...]:
        """(t_first, t_second) per correlator, ordered like PAIRS."""
        t = {1: self.t1, 2: self.t2, 3: self.t3, 4: self.t4}
        return tuple((t[k], t[l]) for k, l in PAIRS)


@dataclass(frozen=True)
class CorrelationMatrix:
    """The four pair correlators, with standard errors and sample counts.

    stderr and counts are ordered like PAIRS; exact (analytic) correlators
    carry stderr 0 and counts 0.  A Monte Carlo correlator that no run
    sampled is undefined: NaN, with stderr NaN and count 0.
    """

    c13: float
    c23: float
    c24: float
    c14: float
    stderr: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    counts: tuple[int, int, int, int] = (0, 0, 0, 0)

    def __post_init__(self):
        for c, se in zip(self.values(), self.stderr):
            if abs(c) > 1.0 + 3.0 * se + 1e-12:
                raise InvalidArgumentError(f"correlator {c} outside [-1, 1] beyond 3 stderr")

    def values(self) -> tuple[float, float, float, float]:
        return (self.c13, self.c23, self.c24, self.c14)


def lg_value(corr: CorrelationMatrix) -> float:
    """The CHSH-form combination C13 + C23 + C24 - C14."""
    return corr.c13 + corr.c23 + corr.c24 - corr.c14


def lg_stderr(corr: CorrelationMatrix) -> float:
    """Standard error of lg_value from the per-correlator errors."""
    return float(np.sqrt(np.sum(np.square(corr.stderr))))


def quantum_correlations(scenario: LGScenario) -> CorrelationMatrix:
    """Exact quantum correlators cos 2(t_k - t_l) for the maximally mixed preparation."""
    c = tuple(math.cos(2.0 * (tk - tl)) for tk, tl in scenario.pair_times())
    return CorrelationMatrix(*c)


def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    # plain golden-section (no parabolic steps): safe on flat objectives,
    # which occur at t2 - t1 = m*pi/2 where one axis of the scan degenerates
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    # the bracket cannot shrink below its float spacing, which passes 1e-10 at 2**19
    tol = max(tol, math.ulp(max(abs(lo), abs(hi))))
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _scan_axis_max(f, lo: float, period: float, grid_points: int = 721) -> tuple[float, float]:
    xs = lo + np.arange(grid_points) * (period / grid_points)
    values = f(xs)
    best = int(np.argmax(values))
    step = period / grid_points
    return _golden_section_max(lambda x: float(f(np.asarray(x))), xs[best] - step, xs[best] + step)


def max_violation_over_34(t1: float, t2: float) -> tuple[float, float, float]:
    """Largest LG value over the second-measurement times, with its argmax.

    For fixed first-measurement times the scan separates: the summed pair of
    correlators depends only on t3 and the difference pair only on t4.  Each
    axis is maximized by a 721-point grid over one period (pi) and refined by
    golden section to 1e-10.  The value always equals
    2 (|cos(t2 - t1)| + |sin(t2 - t1)|), which exceeds 2 except at
    t2 = t1 + m*pi/2; a disagreement beyond 1e-9 signals a broken optimizer
    and raises NumericalFailureError.  Times need |t| < 2**19; others raise
    InvalidArgumentError.
    """
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise InvalidArgumentError("t1 and t2 must be finite")
    if max(abs(t1), abs(t2)) >= 2.0**19:
        # from there on the float spacing (2**-33) exceeds the 1e-10 tolerance
        raise InvalidArgumentError("scan times need |t| < 2**19, where floats resolve the 1e-10 tolerance")

    def g(t3):
        return np.cos(2.0 * (t3 - t1)) + np.cos(2.0 * (t3 - t2))

    def h(t4):
        return np.cos(2.0 * (t4 - t2)) - np.cos(2.0 * (t4 - t1))

    base = min(t1, t2)
    t3, g_max = _scan_axis_max(g, base, math.pi)
    t4, h_max = _scan_axis_max(h, base, math.pi)
    value = g_max + h_max

    delta = t2 - t1
    closed_form = 2.0 * (abs(math.cos(delta)) + abs(math.sin(delta)))
    if abs(value - closed_form) > 1e-9:
        raise NumericalFailureError(
            f"scan value {value!r} disagrees with closed form {closed_form!r} "
            f"at t2 - t1 = {delta!r}"
        )
    return value, t3, t4


# Monte Carlo estimation through an ontological model.  Slot 0 picks the
# pair; the model's lg_products reads the rest of its LG_SLOTS (layouts in
# models.py, beside each declaration).
_PICK_SLOT = 0


def empirical_correlations(
    model,
    scenario: LGScenario,
    runs: int,
    seed: int,
) -> CorrelationMatrix:
    """Monte Carlo correlators through an ontological model.

    Each run picks one of the four pairs uniformly, prepares the maximally
    mixed state at the ontological level, and measures twice through the
    model's ``lg_products`` in chronological order.  Accumulation is
    integer-exact, so the result depends only on (scenario, runs, seed),
    never on the worker count.  Standard errors are binomial:
    sqrt((1 - C^2) / n).  A pair that no run picked has no estimate: its
    correlator and stderr are NaN, and so are lg_value and lg_stderr.
    """
    if runs < 1:
        raise InvalidArgumentError("runs must be >= 1")
    slots = model.LG_SLOTS
    pair_times = scenario.pair_times()

    def run_chunk(lo: int, n: int) -> np.ndarray:
        """Per pair, the sum of its products (row 0) and its run count (row 1)."""
        u0 = _rng.uniform_block(seed, range(lo, lo + n), (_PICK_SLOT,))[:, 0]
        pick = np.minimum((u0 * 4).astype(np.int64), 3)
        totals = np.zeros((2, 4), dtype=np.int64)
        totals[1] = np.bincount(pick, minlength=4)
        for p in np.flatnonzero(totals[1]):
            # each pair draws its own slots for its own runs, so no row is gathered
            u = _rng.Uniforms(seed, lo + np.flatnonzero(pick == p), slots)
            totals[0, p] = model.lg_products(u, pair_times[p]).sum(dtype=np.int64)
        return totals

    sums, counts = sum(_rng.map_chunks(run_chunk, runs))

    c = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    stderr = np.where(
        counts > 0,
        np.sqrt(np.maximum(0.0, 1.0 - c * c) / np.maximum(counts, 1)),
        np.nan,
    )
    return CorrelationMatrix(
        *(float(x) for x in c),
        stderr=tuple(float(x) for x in stderr),
        counts=tuple(int(x) for x in counts),
    )
