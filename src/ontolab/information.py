"""Information-flow diagnostics for the ontological models.

Three questions, each answered with sampled ontic-state histograms on the
equal-area sphere grid:

* does a measurement with the outcome discarded *decrease* the entropy of
  the ontic distribution (information erasure)?  For the state-collapse
  model it does, and without bound: the post-measurement distribution is
  two atoms, so the plug-in entropy falls by ln 4 for every doubling of the
  grid resolution in each axis.  The telegraph control shows no drop.
* does the post-measurement distribution *depend on which* measurement was
  executed (information flow)?  Total-variation distance between the two
  conditioned histograms, with a bootstrap confidence interval, against a
  multinomial noise threshold.
* does the branching model really leave the system untouched?  Bit-exact
  immutability of (x0, x1) plus setting-independence of their histograms.

Entropies are differential, in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import ContractMismatchError, InvalidArgumentError
from .models import BeltramettiBugajski, BranchingModel, OntologicalModel
from .qubit import as_direction
from .sphere import (
    SphereHistogram,
    histogram_entropy,
    multinomial_noise_threshold,
    sample_uniform_sphere,
    tv_distance,
)

_BOOTSTRAP_RESAMPLES = 1000


def _require_single_world(model) -> OntologicalModel:
    if isinstance(model, BranchingModel):
        raise ContractMismatchError(
            "the branching model leaves the system state untouched by construction; "
            "use the dedicated no-erasure check instead"
        )
    if not isinstance(model, OntologicalModel):
        raise ContractMismatchError(f"{model!r} does not implement the sequential model contract")
    return model


# Per-run uniform slots of single-world sampling: 0-1 preparation,
# 2 measurement.  A model draws only the slots in its SAMPLE_SLOTS.
def _measured_states(model: OntologicalModel, u: dict[int, np.ndarray], direction: np.ndarray):
    """Prepared ontic states and their images after a measurement with the outcome discarded."""
    states = model.prepare_max_batch(_rng.slot_columns(u, range(model.PREP_SLOTS)))
    _, post = model.measure_batch(states, direction, u.get(2))
    return states, post


def _accumulate_post_measurement(
    model: OntologicalModel,
    direction: np.ndarray,
    runs: int,
    seed: int,
    resolutions: tuple[tuple[int, int], ...],
    workers: int | None,
) -> tuple[list[SphereHistogram], list[SphereHistogram]]:
    """Histograms of the ontic ensemble before and after a non-selective measurement."""

    def run_chunk(lo: int, n: int):
        u = _rng.uniforms_by_slot(seed, range(lo, lo + n), model.SAMPLE_SLOTS)
        states, post = _measured_states(model, u, direction)
        before = model.embed_on_sphere(states)
        after = model.embed_on_sphere(post)
        pairs = []
        for nz, nphi in resolutions:
            pairs.append(
                (
                    SphereHistogram.from_points(before, nz, nphi),
                    SphereHistogram.from_points(after, nz, nphi),
                )
            )
        return pairs

    partials = _rng.map_chunks(run_chunk, runs, workers)
    merged = partials[0]
    for chunk_pairs in partials[1:]:
        for (b, a), (cb, ca) in zip(merged, chunk_pairs):
            b.merge(cb)
            a.merge(ca)
    return [b for b, _ in merged], [a for _, a in merged]


@dataclass(frozen=True)
class ErasureReport:
    """Ontic-distribution entropy before/after a measurement whose outcome is discarded."""

    model: str
    setting: tuple[float, float, float]
    runs: int
    resolutions: tuple[tuple[int, int], ...]
    entropy_before: tuple[float, ...]
    entropy_after: tuple[float, ...]

    @property
    def gaps(self) -> tuple[float, ...]:
        """Erased information per resolution, entropy_before - entropy_after."""
        return tuple(b - a for b, a in zip(self.entropy_before, self.entropy_after))


def erasure_report(
    model,
    setting,
    runs: int,
    resolutions=((8, 8), (16, 16), (32, 32)),
    seed: int = 0,
    workers: int | None = None,
) -> ErasureReport:
    """Measure the entropy drop caused by one non-selective measurement.

    Samples the maximal-ignorance preparation, records the plug-in entropy,
    applies the measurement with the outcome discarded, and records it again,
    at every requested grid resolution.
    """
    model = _require_single_world(model)
    if runs < 1:
        raise InvalidArgumentError("runs must be >= 1")
    resolutions = tuple((int(nz), int(nphi)) for nz, nphi in resolutions)
    direction = as_direction(setting)
    before, after = _accumulate_post_measurement(model, direction, runs, seed, resolutions, workers)
    return ErasureReport(
        model=model.name,
        setting=tuple(direction),
        runs=runs,
        resolutions=resolutions,
        entropy_before=tuple(histogram_entropy(h) for h in before),
        entropy_after=tuple(histogram_entropy(h) for h in after),
    )


@dataclass(frozen=True)
class NoFlowReport:
    """Setting dependence of the post-measurement ontic distribution."""

    model: str
    setting1: tuple[float, float, float]
    setting2: tuple[float, float, float]
    runs: int
    bins: tuple[int, int]
    tv: float
    ci_low: float
    ci_high: float
    noise_threshold: float

    @property
    def flow_detected(self) -> bool:
        """True when the bootstrap interval lies entirely above the noise threshold."""
        return self.ci_low > self.noise_threshold


def _bootstrap_tv_ci(
    h1: SphereHistogram, h2: SphereHistogram, seed: int
) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    n1, n2 = h1.total, h2.total
    p1, p2 = h1.probabilities().ravel(), h2.probabilities().ravel()
    r1 = rng.multinomial(n1, p1, size=_BOOTSTRAP_RESAMPLES) / n1
    r2 = rng.multinomial(n2, p2, size=_BOOTSTRAP_RESAMPLES) / n2
    tvs = 0.5 * np.abs(r1 - r2).sum(axis=1)
    lo, hi = np.percentile(tvs, [2.5, 97.5])
    return float(lo), float(hi)


def noflow_test(
    model,
    setting1,
    setting2,
    runs: int,
    nz: int = 16,
    nphi: int = 16,
    seed: int = 0,
    workers: int | None = None,
) -> NoFlowReport:
    """Compare post-measurement ontic distributions across two settings.

    Each arm prepares, measures its own setting (outcome discarded), and
    histograms the outgoing states; the arms use independent substreams so
    the identical-settings case shows honest multinomial noise.
    """
    model = _require_single_world(model)
    if runs < 1:
        raise InvalidArgumentError("runs must be >= 1")
    d1, d2 = as_direction(setting1), as_direction(setting2)
    res = ((int(nz), int(nphi)),)
    _, (h1,) = _accumulate_post_measurement(
        model, d1, runs, _rng.substream_seed(seed, 1), res, workers
    )
    _, (h2,) = _accumulate_post_measurement(
        model, d2, runs, _rng.substream_seed(seed, 2), res, workers
    )
    ci_low, ci_high = _bootstrap_tv_ci(h1, h2, _rng.substream_seed(seed, 3))
    return NoFlowReport(
        model=model.name,
        setting1=tuple(d1),
        setting2=tuple(d2),
        runs=runs,
        bins=(int(nz), int(nphi)),
        tv=tv_distance(h1, h2),
        ci_low=ci_low,
        ci_high=ci_high,
        noise_threshold=multinomial_noise_threshold(h1, h2),
    )


@dataclass(frozen=True)
class BranchingNoErasureReport:
    """Verdict on the branching model's claim to leave the system untouched."""

    immutable: bool
    tv_x0: float
    tv_x1: float
    noise_threshold: float
    runs: int

    @property
    def passed(self) -> bool:
        return self.immutable and self.tv_x0 <= self.noise_threshold and self.tv_x1 <= self.noise_threshold

    def __bool__(self) -> bool:
        return self.passed


def branching_no_erasure_check(
    a,
    b,
    runs: int,
    seed: int = 0,
    model: BranchingModel | None = None,
    nz: int = 16,
    nphi: int = 16,
    workers: int | None = None,
) -> BranchingNoErasureReport:
    """Check that branching measurements neither modify nor imprint on (x0, x1).

    Two conditions: the system vectors after a full run are bit-identical to
    the sampled ones in every run, and the histograms of the post-run system
    vectors are independent of the measured directions (compared against a
    reference arm measuring z and x, at the multinomial noise threshold).
    A model with an injected collapse fault fails the first condition.
    """
    if runs < 1:
        raise InvalidArgumentError("runs must be >= 1")
    model = model if model is not None else BranchingModel()
    a, b = as_direction(a), as_direction(b)
    ref_a = np.array([0.0, 0.0, 1.0])
    ref_b = np.array([1.0, 0.0, 0.0])

    def run_arm(directions, arm_seed):
        da, db = directions
        immutable_flags = []
        h0 = SphereHistogram(nz, nphi)
        h1 = SphereHistogram(nz, nphi)

        def run_chunk(lo: int, n: int):
            u = _rng.uniform_block(arm_seed, range(lo, lo + n), model.JOINT_SLOTS)
            x0_pre, x1_pre = model.sample_ontic_batch(u[:, 0:4])
            res = model.run_experiment_batch(da, db, u)
            ok = np.array_equal(res.x0_post, x0_pre) and np.array_equal(res.x1_post, x1_pre)
            return ok, SphereHistogram.from_points(res.x0_post, nz, nphi), SphereHistogram.from_points(
                res.x1_post, nz, nphi
            )

        for ok, c0, c1 in _rng.map_chunks(run_chunk, runs, workers):
            immutable_flags.append(ok)
            h0.merge(c0)
            h1.merge(c1)
        return all(immutable_flags), h0, h1

    ok_main, h0_main, h1_main = run_arm((a, b), _rng.substream_seed(seed, 1))
    ok_ref, h0_ref, h1_ref = run_arm((ref_a, ref_b), _rng.substream_seed(seed, 2))
    threshold = max(
        multinomial_noise_threshold(h0_main, h0_ref),
        multinomial_noise_threshold(h1_main, h1_ref),
    )
    return BranchingNoErasureReport(
        immutable=ok_main and ok_ref,
        tv_x0=tv_distance(h0_main, h0_ref),
        tv_x1=tv_distance(h1_main, h1_ref),
        noise_threshold=threshold,
        runs=runs,
    )


@dataclass(frozen=True)
class InvarianceReport:
    """Distance of an evolved ensemble from a fresh uniform one."""

    start: str
    rotations: int
    runs: int
    bins: tuple[int, int]
    tv: float
    noise_threshold: float


def invariance_test(
    runs: int,
    rotations: int,
    nz: int = 16,
    nphi: int = 16,
    seed: int = 0,
    start: str = "uniform",
    workers: int | None = None,
) -> InvarianceReport:
    """Check that the uniform ontic distribution is invariant under the dynamics.

    Applies `rotations` random-duration evolution steps to a sampled ensemble
    and compares it with an independent fresh uniform sample.  start="cap"
    begins from a polar cap (z >= 0.5) instead, a negative control that must
    stay far from uniform no matter how it is rotated about the x axis
    (the cap keeps a fixed fraction of its mass in any z-slab family only if
    untouched; rotation cannot make it uniform).
    """
    if runs < 1:
        raise InvalidArgumentError("runs must be >= 1")
    if rotations < 0:
        raise InvalidArgumentError("rotations must be >= 0")
    if start not in ("uniform", "cap"):
        raise InvalidArgumentError(f"start must be 'uniform' or 'cap', got {start!r}")
    bb = BeltramettiBugajski()
    prep_slots = tuple(range(bb.PREP_SLOTS))
    durations = np.random.default_rng(_rng.substream_seed(seed, 7)).uniform(0.0, np.pi, rotations)

    def evolved_chunk(lo: int, n: int) -> SphereHistogram:
        u = _rng.uniform_block(_rng.substream_seed(seed, 1), range(lo, lo + n), prep_slots)
        if start == "cap":
            u[:, 0] = 0.75 + 0.25 * u[:, 0]  # z = 2u - 1 in [0.5, 1]
        states = sample_uniform_sphere(u)
        for dt in durations:
            states = bb.evolve_batch(states, float(dt))
        return SphereHistogram.from_points(states, nz, nphi)

    def fresh_chunk(lo: int, n: int) -> SphereHistogram:
        u = _rng.uniform_block(_rng.substream_seed(seed, 2), range(lo, lo + n), prep_slots)
        return SphereHistogram.from_points(sample_uniform_sphere(u), nz, nphi)

    h_evolved = SphereHistogram(nz, nphi)
    for h in _rng.map_chunks(evolved_chunk, runs, workers):
        h_evolved.merge(h)
    h_fresh = SphereHistogram(nz, nphi)
    for h in _rng.map_chunks(fresh_chunk, runs, workers):
        h_fresh.merge(h)

    return InvarianceReport(
        start=start,
        rotations=rotations,
        runs=runs,
        bins=(int(nz), int(nphi)),
        tv=tv_distance(h_evolved, h_fresh),
        noise_threshold=multinomial_noise_threshold(h_evolved, h_fresh),
    )
