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

``max_violation_over_34`` maximizes over the second-measurement times at the
closed-form argmax, checked to 1e-12, which needs |t| < 2**8 (see there).
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
    carry stderr 0 and counts 0.  A Monte Carlo pair is empty only when the
    estimate has fewer than 4 runs (see ``empirical_correlations``); its
    correlator is then undefined: NaN, with stderr NaN and count 0.
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


def max_violation_closed_form(t1: float, t2: float) -> float:
    """The scan's maximum 2 (|cos d| + |sin d|), d = t2 - t1: above 2 except at d = m*pi/2."""
    delta = t2 - t1
    return 2.0 * (abs(math.cos(delta)) + abs(math.sin(delta)))


def _argmax_34(t1: float, t2: float) -> tuple[float, float]:
    # a function of its own only so that a test can substitute a wrong one
    delta, mid, base = t2 - t1, 0.5 * (t1 + t2), min(t1, t2)
    t3 = mid + (0.5 * math.pi if math.cos(delta) < 0.0 else 0.0)
    t4 = mid + math.copysign(0.25 * math.pi, math.sin(delta))
    return base + (t3 - base) % math.pi, base + (t4 - base) % math.pi


def max_violation_over_34(t1: float, t2: float) -> tuple[float, float, float]:
    """Largest LG value over the second-measurement times, with its argmax.

    With d = t2 - t1, C13 + C23 = 2 cos d cos(2 t3 - t1 - t2) peaks at
    2 t3 = t1 + t2 (+pi if cos d < 0) and C24 - C14 = 2 sin d sin(2 t4 - t1 - t2)
    at 2 t4 = t1 + t2 + sign(sin d) pi/2, both folded into [min(t1, t2), +pi).
    The exact LG value there must match ``max_violation_closed_form`` to 1e-12,
    and no point of a 721-point grid over that period may beat either axis by
    1e-12, else NumericalFailureError.  Times need |t| < 2**8, where rounding
    the gaps t_k - t_l moves the value by at most 5.4e-13 (the bound grows
    with |t|); others raise InvalidArgumentError.
    """
    if not (math.isfinite(t1) and math.isfinite(t2)):
        raise InvalidArgumentError("t1 and t2 must be finite")
    if max(abs(t1), abs(t2)) >= 2.0**8:
        raise InvalidArgumentError("scan times need |t| < 2**8, where rounding keeps the value within 1e-12")
    t3, t4 = _argmax_34(t1, t2)
    corr = quantum_correlations(LGScenario(t1, t2, t3, t4))
    value = lg_value(corr)
    closed = max_violation_closed_form(t1, t2)
    if abs(value - closed) > 1e-12:
        raise NumericalFailureError(
            f"scan value {value!r} at (t3, t4) = ({t3!r}, {t4!r}) disagrees with closed form {closed!r}"
        )
    xs = min(t1, t2) + np.arange(721) * (math.pi / 721)
    c1, c2 = np.cos(2.0 * (xs - t1)), np.cos(2.0 * (xs - t2))
    if (c1 + c2).max() > corr.c13 + corr.c23 + 1e-12 or (c2 - c1).max() > corr.c24 - corr.c14 + 1e-12:
        raise NumericalFailureError(f"a grid point beats the scan's argmax (t3, t4) = ({t3!r}, {t4!r})")
    return value, t3, t4


def empirical_correlations(
    model,
    scenario: LGScenario,
    runs: int,
    seed: int,
) -> CorrelationMatrix:
    """Monte Carlo correlators through an ontological model.

    Each ``rng.map_chunks`` chunk of n runs from run lo gives pair p of PAIRS
    the fixed quarter lo + n*p//4 to lo + n*(p+1)//4.  Each run prepares the
    maximally mixed state at the ontological level and measures twice
    through the model's ``lg_products``, in chronological order, on the
    slots that kernel draws.  Accumulation is integer-exact, so the result
    depends only on (scenario, runs, seed), never on the worker count.  Each
    pair's count is fixed, so its estimate is binomial with standard error
    sqrt((1 - C^2) / n).  Under 4 runs some pairs are empty: C13 at 3 runs,
    C13 and C24 at 2, all but C14 at 1.  An empty pair's correlator and
    stderr are NaN, and so are lg_value and lg_stderr.
    """
    pair_times = scenario.pair_times()

    def run_chunk(lo: int, n: int) -> np.ndarray:
        """Per pair, the sum of its products (row 0) and its run count (row 1)."""
        totals = np.zeros((2, 4), dtype=np.int64)
        for p, pair in enumerate(pair_times):
            quarter = range(lo + n * p // 4, lo + n * (p + 1) // 4)
            products = model.lg_products(_rng.Uniforms(seed, quarter), pair)
            # a sum of +-1 values: the runs less twice the -1s
            totals[0, p] = len(quarter) - 2 * np.count_nonzero(products < 0)
            totals[1, p] = len(quarter)
        return totals

    sums, counts = _rng.map_chunks(run_chunk, runs)

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
