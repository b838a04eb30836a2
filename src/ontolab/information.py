"""Information-flow diagnostics for the ontological models.

Three questions, each answered with integer counts of sampled ontic states
in the cells of the equal-area sphere grid:

* does a measurement with the outcome discarded *decrease* the entropy of
  the ontic distribution (information erasure)?  For the state-collapse
  model it does, and without bound: the post-measurement distribution is
  two atoms, so the plug-in entropy falls by ln 4 for every doubling of the
  grid resolution in each axis.  The telegraph control shows no drop.
* does the post-measurement distribution *depend on which* measurement was
  executed (information flow)?  A chi-square homogeneity test of the two
  arms' atom counts, with their total-variation distance as effect size.
* does the branching model really leave the system untouched?  One pass
  of the branching model counts its joint statistics and compares (x0, x1)
  bit for bit with a stored copy in every run it counts.

Every statistical verdict is ``chi_square_test`` (Pearson's X^2) rejecting at
``ALPHA``, the two-sided 5-sigma tail.  Entropies are differential, in nats.

States are counted in exact cells, never binned as points, in one fresh
int64 array per chunk that ``rng.map_chunks`` adds up.  Every state
counted is of one of two kinds:

* an atom: a post-measurement state is the atom of its outcome (the
  collapse model's +-d, the telegraph's poles +-z), and the telegraph's
  prepared values are the same poles.  A chunk counts its +1 and -1 states,
  two numbers; the totals are then placed in the atoms' cells,
  ``sphere.bin_index`` of ``model.embed_on_sphere(model.atoms(d))`` at each
  grid, as a table over those cells alone (``_atom_table``);
* the collapse model's uniform preparation, whose cell is
  ``sphere.uniform_cell`` of the uniforms ``measured_states`` returns, with
  no trigonometry (the edge rule is in ``sphere``).  Only these states are
  counted per cell, once per family of grids (``_finest_grids``): a chunk
  counts the finest grid of each family, and the coarser ones are summed
  out of its total after ``map_chunks``, exactly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import ContractMismatchError, InvalidArgumentError
from .models import BranchingModel, OntologicalModel
from .qubit import unit_vector
from .sphere import bin_index, histogram_entropy, uniform_cell

#: false-positive rate of every verdict: the two-sided 5-sigma normal tail, ~5.73e-7
ALPHA = math.erfc(5.0 / math.sqrt(2.0))

#: cells whose pooled expected count is below this merge into one before the test
MIN_POOLED = 10


def chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for X ~ chi-square(df), integer df >= 0: 1 at df = 0 or x <= 0, 0 at x = inf.

    erfc(sqrt(lam)) for odd df, plus e^-lam lam^n / Gamma(n + 1) summed over n = h, h + 1, ..., h +
    df//2 - 1, with lam = x/2 and h = (df mod 2)/2; each term is taken in log space, with math.lgamma.
    """
    lam, h = 0.5 * x, 0.5 * (df % 2)
    if df == 0 or not lam > 0:
        return 1.0
    if lam == math.inf:
        return 0.0
    log_lam = math.log(lam)
    log_terms = np.array([(h + k) * log_lam - lam - math.lgamma(h + k + 1.0) for k in range(df // 2)])
    top = log_terms.max(initial=-math.inf)
    total = math.exp(top + math.log(np.exp(log_terms - top).sum())) if top > -math.inf else 0.0
    return total + (math.erfc(math.sqrt(lam)) if h else 0.0)


def chi_square_test(observed, expected) -> tuple[float, int, float]:
    """Pearson's X^2 of a count table against its expected counts: (chi2, df, p_value).

    Rows are samples, columns categories (a 1-D input is one row).  One row is
    a goodness-of-fit test, df = columns - 1; r rows whose expected counts
    come from the table's margins are a homogeneity test, df = (r - 1) x
    (columns - 1).  Columns whose pooled expected count is below MIN_POOLED
    first merge into one column, which also takes in the smallest other
    column if it would still expect fewer than MIN_POOLED counts, and is
    dropped when nothing is expected or observed in it.  With df = 0 left
    there is nothing to test and p_value = 1; a count observed where none
    is expected gives p_value = 0.
    """
    observed, expected = (np.atleast_2d(np.asarray(t, dtype=float)) for t in (observed, expected))
    pooled = expected.sum(axis=0)
    rare = pooled < MIN_POOLED
    if 0 < pooled[rare].sum() < MIN_POOLED:
        rare[np.argmin(np.where(rare, np.inf, pooled))] = True  # too small alone: join the smallest column
    obs, exp = (np.column_stack([t[:, ~rare], t[:, rare].sum(axis=1)]) for t in (observed, expected))
    columns = int((obs.any(axis=0) | exp.any(axis=0)).sum())  # without an empty merged column
    df = max(columns - 1, 0) * max(obs.shape[0] - 1, 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 adds nothing, k/0 makes chi2 inf
        chi2 = float(np.nansum((obs - exp) ** 2 / exp))
    return chi2, df, chi2_sf(chi2, df)


def _homogeneity_test(table) -> tuple[float, int, float]:
    """chi_square_test of a count table, samples by row, with expected counts from its margins.

    Cells left out of the table change nothing: an all-zero column would
    fall in the rare pool, add exactly 0 to it and not count in df, so a
    table of the occupied cells gives the chi2, df and p of the full grid.
    """
    table = np.asarray(table, dtype=float)
    return chi_square_test(table, np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum())


def _require_single_world(model) -> OntologicalModel:
    if isinstance(model, BranchingModel):
        raise ContractMismatchError(
            "the branching model leaves the system state untouched by construction; "
            "use the dedicated no-erasure check instead"
        )
    if not isinstance(model, OntologicalModel):
        raise ContractMismatchError(f"{model!r} does not implement the single-world model contract")
    return model


def _grid(nz, nphi) -> tuple[int, int]:
    """(nz, nphi) as ints; InvalidArgumentError if either is below 1."""
    if min(int(nz), int(nphi)) < 1:
        raise InvalidArgumentError("nz and nphi must be >= 1")
    return int(nz), int(nphi)


def _finest_grids(grids) -> dict[tuple[int, int], tuple[int, int]]:
    """Each of `grids` mapped to the finest grid of its family, the one grid of the family whose cells a chunk counts.

    Largest first, a grid joins the first family whose finest grid it
    divides by a power of two in both axes, or starts its own; no grid is
    made up, so 8x16 and 16x8 count two grids, not 16x16.  Summing out is
    exact: the uniforms lie on the 2**-53 grid and scaling by 2**k is
    exact, so floor(u * n * 2**k) >> k == floor(u * n), slab and sector
    alike, where u * 3n and u * n, say, would round apart.

    Such a finest grid has the grid's odd parts in both axes, and is at
    least as fine in each, so a grid looks only among the families of its
    odd parts, in the order they started.
    """
    finest, families = {}, {}
    for grid in sorted(set(grids), key=lambda g: (-g[0] * g[1], g)):
        started = families.setdefault(tuple(n // (n & -n) for n in grid), [])
        finest[grid] = next((f for f in started if f[0] >= grid[0] and f[1] >= grid[1]), grid)
        if finest[grid] == grid:
            started.append(grid)
    return finest


def _summed_out(counts: np.ndarray, finest: tuple[int, int], grid: tuple[int, int]) -> np.ndarray:
    """Cell counts on `grid` of the flat `counts` on the `finest` grid of its family; the counts themselves if the same grid."""
    (fz, fphi), (nz, nphi) = finest, grid
    if finest == grid:
        return counts
    return counts.reshape(nz, fz // nz, nphi, fphi // nphi).sum(axis=(1, 3)).ravel()


def _atom_table(model: OntologicalModel, directions, counts, nz: int, nphi: int) -> np.ndarray:
    """Row i of counts, (n+, n-), placed in the cells of the model's atoms for directions[i], on the nz x nphi grid.

    An r x C int64 table over the C <= 2r cells the atoms occupy, in
    ascending cell order; atoms that share a cell share its column.
    """
    points = np.concatenate([model.embed_on_sphere(model.atoms(d)) for d in directions])
    cells = bin_index(points, nz, nphi).tolist()
    occupied = sorted(set(cells))
    table = np.zeros((len(directions), len(occupied)), dtype=np.int64)
    for atom, (cell, n) in enumerate(zip(cells, np.ravel(counts))):
        table[atom // 2, occupied.index(cell)] += n
    return table


def _outcome_counts(values: np.ndarray) -> np.ndarray:
    """[number of +1, number of -1] among +-1 values: the counts of the two atoms."""
    minus = np.count_nonzero(values < 0)
    return np.array([len(values) - minus, minus])


def _joint_counts(o1: np.ndarray, o2: np.ndarray) -> list[int]:
    """The (2, 2) counts of the +-1 outcome pairs (o1, o2), flat, [0] = +1 as in qubit.OUTCOMES.

    Three counts of negatives give all four: +-1 values AND to -1 only
    where both are -1.
    """
    minus1, minus2, both = (np.count_nonzero(o < 0) for o in (o1, o2, o1 & o2))
    return [len(o1) - minus1 - minus2 + both, minus2 - both, minus1 - both, both]


@dataclass(frozen=True)
class ErasureReport:
    """Ontic-distribution entropy before/after a measurement whose outcome is discarded."""

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
) -> ErasureReport:
    """Measure the entropy drop caused by one non-selective measurement.

    Samples the maximal-ignorance preparation, records the plug-in entropy,
    applies the measurement with the outcome discarded, and records it again,
    at every requested grid resolution.
    """
    model = _require_single_world(model)
    resolutions = tuple(_grid(nz, nphi) for nz, nphi in resolutions)
    direction = unit_vector(setting)
    cells = [nz * nphi for nz, nphi in resolutions]
    finest = _finest_grids(resolutions)
    counted = list(dict.fromkeys(finest.values())) if model.UNIFORM_PREPARATION else []
    sizes = [nz * nphi for nz, nphi in counted]
    starts = np.cumsum([2, *sizes[:-1]])

    def run_chunk(lo: int, n: int) -> np.ndarray:
        """Atom counts of the outcomes, then of the prepared states, or the latter's cell counts on each counted grid if uniform."""
        states, outcomes = model.measured_states(_rng.Uniforms(seed, range(lo, lo + n)), direction)
        if not model.UNIFORM_PREPARATION:
            return np.concatenate([_outcome_counts(outcomes), _outcome_counts(states)])
        flat = [uniform_cell(states, *grid) for grid in counted]
        for family, start in zip(flat, starts):
            family += start
        # the bincount is the chunk's vector, each family's cells offset into its slice: no grid-sized temporary
        counts = np.bincount(np.concatenate(flat) if len(flat) > 1 else flat[0], minlength=2 + sum(sizes))
        counts[:2] = _outcome_counts(outcomes)
        return counts

    after, *before = np.split(_rng.map_chunks(run_chunk, runs), starts)
    if model.UNIFORM_PREPARATION:
        totals = dict(zip(counted, before))
        # once per distinct grid, so a grid repeated in `resolutions` is summed out once
        summed = {grid: _summed_out(totals[f], f, grid) for grid, f in finest.items()}
        before = [summed[grid] for grid in resolutions]
    else:
        before = [_atom_table(model, (direction,), before, *grid)[0] for grid in resolutions]
    after = [_atom_table(model, (direction,), [after], *grid)[0] for grid in resolutions]
    return ErasureReport(
        setting=tuple(direction),
        runs=runs,
        resolutions=resolutions,
        entropy_before=tuple(histogram_entropy(c, k) for c, k in zip(before, cells)),
        entropy_after=tuple(histogram_entropy(c, k) for c, k in zip(after, cells)),
    )


@dataclass(frozen=True)
class NoFlowReport:
    """Setting dependence of the post-measurement ontic distribution."""

    setting1: tuple[float, float, float]
    setting2: tuple[float, float, float]
    runs: int
    bins: tuple[int, int]
    tv: float
    chi2: float
    df: int
    p_value: float

    @property
    def flow_detected(self) -> bool:
        """True when the homogeneity test rejects at ALPHA."""
        return self.p_value < ALPHA


def noflow_test(
    model,
    setting1,
    setting2,
    runs: int,
    nz: int = 16,
    nphi: int = 16,
    seed: int = 0,
) -> NoFlowReport:
    """Compare post-measurement ontic distributions across two settings.

    Each arm prepares, measures its own setting (outcome discarded), and
    counts the outgoing states in their atoms' cells; the arms use
    independent substreams so the identical-settings case shows honest
    multinomial noise, and each chunk runs both.  The verdict is
    ``_homogeneity_test`` of the arms' atom table; ``tv``, the effect size,
    is sum |n1 - n2| / (2 runs) over its columns, an integer sum with one
    rounding.
    """
    model = _require_single_world(model)
    nz, nphi = _grid(nz, nphi)
    d1, d2 = unit_vector(setting1), unit_vector(setting2)
    arms = ((d1, _rng.substream_seed(seed, 1)), (d2, _rng.substream_seed(seed, 2)))

    def run_chunk(lo: int, n: int) -> np.ndarray:
        """Per arm, the atom counts of its outcomes, drawn from the arm's own substream."""
        return np.array([
            _outcome_counts(model.measured_states(_rng.Uniforms(s, range(lo, lo + n)), d)[1])
            for d, s in arms
        ])

    table = _atom_table(model, (d1, d2), _rng.map_chunks(run_chunk, runs), nz, nphi)
    chi2, df, p_value = _homogeneity_test(table)
    return NoFlowReport(
        setting1=tuple(d1),
        setting2=tuple(d2),
        runs=runs,
        bins=(nz, nphi),
        tv=int(np.abs(table[0] - table[1]).sum()) / (2 * runs),
        chi2=chi2,
        df=df,
        p_value=p_value,
    )


@dataclass(frozen=True, eq=False)
class BranchingNoErasureReport:
    """The branching pass: its joint statistics and its verdict on leaving the system untouched.

    ``counts`` holds two (2, 2) int64 tables of the outcomes of measuring
    a, then b: ``counts[0]`` with the second device's bookkeeping along b,
    as the protocol keeps it, and ``counts[1]`` along a, the bookkeeping
    slip.  Index order matches qubit.OUTCOMES: [0] = +1, [1] = -1.
    """

    immutable: bool
    runs: int
    counts: np.ndarray

    @property
    def joint(self) -> np.ndarray:
        """The two joint distributions, counts / runs."""
        return self.counts / self.runs


def branching_no_erasure_check(
    a,
    b,
    runs: int,
    seed: int = 0,
    model: BranchingModel | None = None,
) -> BranchingNoErasureReport:
    """Joint statistics of the branching model, and whether it left (x0, x1) bit-identical in every run.

    Each chunk samples the ontic pairs, stores a copy, measures a, then b,
    through ``branch_outcomes`` with the second device's bookkeeping along
    b (the protocol's own) and along a (the slip), counts the outcomes of
    both from the one sample, and compares every coordinate array of the
    pairs with the copy bit for bit, so a model that writes into the arrays
    it was handed, or swaps one out, fails.  The outcomes come from
    ``settled_branch_outcomes``, and the copy and the comparison cover both
    of its passes: the float32 pairs of every run and the float64
    pairs of the runs it recomputes.  The check is exact: while it holds,
    the post-run pairs *are* the sample, which depends on the seed alone and
    not on (a, b), so no distribution test of them could add anything.
    """
    model = model if model is not None else BranchingModel()
    a, b = unit_vector(a), unit_vector(b)

    def run_chunk(lo: int, n: int) -> np.ndarray:
        """The 8 joint counts, then the number of stored coordinate arrays that differ, all of a mapping's if its axes did."""
        changed = []

        @contextmanager
        def unchanged(x0, x1):
            stored = [{axis: c.copy() for axis, c in x.items()} for x in (x0, x1)]
            yield
            # compared as unsigned integers of their width, so that a write that keeps the value (-0.0 for 0.0)
            # is caught too; not as uint64, which an odd-length float32 array cannot be viewed as
            changed.extend(
                x.keys() != s.keys() or not np.array_equal(*(c.view(f"u{c.itemsize}") for c in (x[k], s[k])))
                for x, s in zip((x0, x1), stored) for k in s
            )

        pairs = model.settled_branch_outcomes(a, b, (b, a), _rng.Uniforms(seed, range(lo, lo + n)), unchanged)
        return np.array([*(count for o1, o2 in pairs for count in _joint_counts(o1, o2)), sum(changed)], dtype=np.int64)

    total = _rng.map_chunks(run_chunk, runs)
    return BranchingNoErasureReport(immutable=int(total[-1]) == 0, runs=runs, counts=total[:-1].reshape(-1, 2, 2))
