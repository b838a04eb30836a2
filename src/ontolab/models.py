"""Hidden-variable (ontological) models of the sequentially measured qubit.

Three concrete models sit behind one contract:

* ``BeltramettiBugajski``: the pure quantum state itself is the ontic state,
  a point on the unit sphere.  Measurements collapse it onto an eigenstate,
  which is exactly the information-erasing reset the entropy reports detect.
* ``Telegraph``: a macrorealist control.  The ontic state is a definite
  +-1 value flipping at rate gamma (a two-state Markov jump process);
  measurement reads it out without disturbance.  It satisfies macroscopic
  realism and noninvasive measurability by construction and can never
  violate the temporal inequality.
* ``BranchingModel``: the erasure-free construction.  The qubit's ontic pair
  (x0, x1) is never altered by measurements; instead each measuring device
  branches in two, and the branches of the two parties are paired up when
  results are compared.  A variant of the Toner-Bacon protocol, it
  reproduces the quantum statistics exactly while the system state carries
  no record of which measurement happened.

All three share one Monte Carlo contract, made of kernels.  Each model owns
the kernels of the paths it runs.  A kernel takes ``rng.Uniforms`` ``u``,
one chunk's runs of one seed, draws the counter-mode slots it reads from it
in one call at its top, ``u.draw(slots)``, and indexes the drawn block by
position; no other slot is hashed.  The slots of a run, per path:

* four-time inequality, prepare -> evolve -> measure -> evolve -> measure:
  0-1 preparation, 2 evolve to the first time, 3 first measurement, 4
  evolve across the gap, 5 second measurement;
* diagnostics, prepare -> measure: 0-1 preparation, 2 measurement;
* branching model, one measurement of a, then b: 0-3 the ontic pair
  (x0, x1), 4 the branch selection.  Its four-time inequality is one such
  run per pair, in the same layout.

The kernels, and the slots each draws:

* ``lg_products(u, pair)``: the product of the two outcomes of the
  four-time inequality, driven by ``leggett_garg.empirical_correlations``.
  bb draws 0, 1, 3 and 5 (its evolution is deterministic), and not 1
  where its first measurement reads no y; the telegraph draws 4 alone (its
  product is the flip across the gap); mw draws 0-4;
* ``measured_states(u, direction)``, single-world models only: the prepared
  states, or the uniforms of a uniform preparation (``UNIFORM_PREPARATION``),
  and the outcomes of measuring them, which the ``information`` diagnostics
  histogram.  bb draws 0-2, the telegraph 0 (its readout is deterministic).
  A post-measurement state is one of two atoms, the state
  ``atoms(direction)`` lists for its outcome, so the outcomes are all a
  post-measurement histogram needs;
* ``settled_branch_outcomes(a, b, references, u, watch)``, branching model
  only: draws 0-4, samples the ontic pair (``sample_ontic_batch``) and
  returns the kept branch's outcomes, one pair per bookkeeping reference
  (``branch_outcomes``; see ``BranchingModel``).  ``watch`` lets
  ``information.branching_no_erasure_check`` hold a copy of the pair
  around ``branch_outcomes`` and compare the pair with it afterwards.

The single-world models also keep their sequential methods,
``prepare_max_batch``, ``evolve_batch`` and ``measure_batch``, vectorized
over runs, as per-model references outside the contract.  Their kernels
reproduce them bit for bit: each kernel computes only what its outcomes
read of prepare -> evolve -> measure -> evolve -> measure (the four-time
inequality) or prepare -> measure (the diagnostics).  The telegraph's
product is its flip across the gap alone; the collapse model's outcomes are
Born's rule on the dot of its prepared point with the direction it reads,
with no (n, 3) array.  The branching model has no sequential
reference (its branch pairing happens only when the parties meet, after
both measurements) and builds its kernels from its two devices and the
pairing rule.

Sign convention everywhere: sign(0) := +1, and sign(-0.0) := +1 too.  Ties
occur on measure-zero sets, so any fixed rule leaves the statistics unchanged
and keeps runs reproducible.  The same rule sets every random outcome: a
uniform u gives +1 exactly when u < p(+1), so u == p(+1) gives -1.

Kernels build their +-1 outcomes without branches or int64 temporaries: a
comparison viewed as int8 is 0 or 1, and ``1 - 2 * m`` or ``2 * m - 1`` maps
it onto +-1 in int8.

One dot rule serves every kernel and reference: ``sphere.dot`` sums d_k
times coordinate k over the nonzero components d_k of a direction, in the
order x, y, z, with numpy's correctly rounded elementwise multiply and add.
Its bits depend neither on the CPU nor on which rows are computed.  Kernels
take the coordinates from ``sphere.uniform_coordinates``, for the axes
some direction reads (``sphere.axes_read``), with no (n, 3) array.  The
paper's directions are axes or Heisenberg directions (0, sin 2t, cos 2t):
the latter never read x, a z measurement computes z alone, and an x
measurement no sine.

Every outcome that reads x or y is a comparison: Born's rule u < 0.5 * (1 +
p), which flips where a projection p crosses 2u - 1, or the sign of a dot.
A kernel first runs in float32 (``trig_dtype=np.float32`` in ``sphere``):
the coordinates, mw's x0 +- x1, the dots and their near marks are
float32, and bb widens its projection to float64 once, before Born's
rule.  That moves no p or dot by as much as ``sphere.FLOAT32_MARGIN / 2``.
A run is near a threshold where |p - (2u - 1)| or some |dot| it takes a
sign of is at most that margin.  The kernel decides every other run, and
recomputes the runs near a threshold on the exact float64 path, on those
rows alone (``settle``).  Every outcome keeps its bits: the exact path's
values do not depend on which rows are computed with them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import nullcontext

import numpy as np

from . import rng as _rng
from .errors import InvalidArgumentError
from .qubit import OUTCOMES, heisenberg_direction
from .sphere import FLOAT32_MARGIN, axes_read, dot, sample_uniform_sphere, uniform_coordinates


#: the outcomes +1 and -1, in the order of ``atoms``
_OUTCOMES = np.array(OUTCOMES, dtype=np.int8)


def sign_pm1(x: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) := +1 (also for -0.0 and NaN), as int8 in {-1, +1}."""
    return 1 - 2 * (np.asarray(x) < 0).view(np.int8)


def settle(kernel) -> list[np.ndarray]:
    """The outcomes of a kernel's runs, decided in float32 where that cannot flip them.

    kernel(rows, trig_dtype) returns a list of outcome arrays over `rows` (a
    slice or row indices) and a mask of the rows near a threshold: those
    with a comparison within ``FLOAT32_MARGIN`` of flipping an outcome.  It
    runs once on every row in float32, and again in float64 on the rows
    near a threshold, whose outcomes replace the first pass's.  Every
    float64 expression of a kernel is elementwise, so a row gets the same
    bits however few rows are recomputed with it.
    """
    outcomes, near = kernel(slice(None), np.float32)
    (rows,) = np.nonzero(near)
    if len(rows):
        for kept, exact in zip(outcomes, kernel(rows, np.float64)[0], strict=True):
            kept[rows] = exact
    return outcomes


def _mark_near(near: np.ndarray, *dots: np.ndarray) -> None:
    """Set near where some |dot| is at most ``FLOAT32_MARGIN``; each dot is overwritten with its absolute value."""
    for dot in dots:
        near |= np.abs(dot, out=dot) <= FLOAT32_MARGIN


class OntologicalModel(ABC):
    """Single-world model contract: the Monte Carlo kernels and the atoms.

    Properties honored by construction: the ontic state lives in a fixed
    finite-measure space chosen before any setting is known; preparation and
    measurement are stochastic kernels receiving the current state only, so
    nothing can depend on settings chosen later.

    Each kernel draws the slots it reads from the ``rng.Uniforms`` it is
    handed, in one call (the layout is in the module docstring).  Each
    concrete model keeps its sequential methods (prepare, evolve, measure)
    as the reference its kernels reproduce; they are not part of this
    contract.
    """

    name: str = "abstract"

    #: True when ``measured_states`` returns the (n, 2) uniforms of points uniform
    #: on the sphere, whose cells are sphere.uniform_cell of them; False when it
    #: returns +-1 values, which index ``atoms`` like outcomes
    UNIFORM_PREPARATION: bool = False

    @abstractmethod
    def atoms(self, direction: np.ndarray | None):
        """The post states of outcomes +1 and -1 of a measurement along `direction`, in that order."""

    @abstractmethod
    def embed_on_sphere(self, states) -> np.ndarray:
        """Represent states as (n, 3) unit vectors for the shared histogram tooling."""

    # Monte Carlo kernels, each drawing the slots it reads

    @abstractmethod
    def lg_products(self, u: _rng.Uniforms, pair: tuple[float, float]) -> np.ndarray:
        """o1 * o2 of z measurements at both times of a pair, earlier time first, as int8.

        Bit for bit the product of prepare -> evolve(t_first) -> measure z ->
        evolve(t_second - t_first) -> measure z on the same uniforms.
        """

    @abstractmethod
    def measured_states(self, u: _rng.Uniforms, direction: np.ndarray):
        """Prepared states and the outcomes of measuring them along `direction`, as int8.

        Each run's post state is its outcome's atom.  The prepared states
        are +-1 values, or the preparation uniforms (``UNIFORM_PREPARATION``).
        """


class BeltramettiBugajski(OntologicalModel):
    """Ontic state = the pure quantum state, a unit vector on the Bloch sphere.

    The maximally ignorant preparation is the uniform (rotation-invariant)
    distribution on the sphere; unitary evolution rotates it; a projective
    measurement along n yields +1 with Born probability (1 + n.lam)/2 and
    collapses lam onto outcome * n.
    """

    name = "bb"
    UNIFORM_PREPARATION = True

    def prepare_max_batch(self, u: np.ndarray) -> np.ndarray:
        """``sphere.sample_uniform_sphere`` of u: (n, 3) unit vectors."""
        return sample_uniform_sphere(u[:, :2])

    def evolve_batch(self, states: np.ndarray, dt: float, u=None) -> np.ndarray:
        # deterministic volume-preserving image of U(dt): rotation about x by 2*dt
        c, s = np.cos(2.0 * dt), np.sin(2.0 * dt)
        out = np.empty_like(states)
        out[:, 0] = states[:, 0]
        out[:, 1] = c * states[:, 1] - s * states[:, 2]
        out[:, 2] = s * states[:, 1] + c * states[:, 2]
        return out

    @staticmethod
    def _born(projection: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Born's rule: +1 where u < 0.5 * (1 + projection), the state's component along the measured direction."""
        if u is None:
            raise InvalidArgumentError("Beltrametti-Bugajski measurement is stochastic and needs uniforms")
        return 2 * (np.asarray(u).reshape(-1) < 0.5 * (1.0 + projection)).view(np.int8) - 1

    @classmethod
    def _born_along(cls, direction, prep: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``_born`` of the dot of the uniform points of `prep` with `direction`, through ``settle``.

        Born's rule flips where the dot crosses 2u - 1, so a run is near a
        threshold where they are within ``FLOAT32_MARGIN``.  A dot that reads
        neither x nor y is exact as it is, and is computed once in float64.
        """
        axes = axes_read(direction)

        def projection(rows, trig_dtype):
            return dot(uniform_coordinates(prep[rows], axes, trig_dtype=trig_dtype), direction)

        if axes == (2,):
            return cls._born(projection(slice(None), np.float64), u)

        def kernel(rows, trig_dtype):
            # a float32 projection is widened once, so Born's rule and the near test compare in float64
            p = projection(rows, trig_dtype).astype(np.float64, copy=False)
            outcomes = cls._born(p, u[rows])
            p -= 2.0 * u[rows] - 1.0
            return [outcomes], np.abs(p, out=p) <= FLOAT32_MARGIN

        return settle(kernel)[0]

    def measure_batch(self, states: np.ndarray, direction, u: np.ndarray):
        """Born's rule on ``sphere.dot`` of the states with `direction`, and the collapsed states; returns (outcomes, post states)."""
        if direction is None:
            raise InvalidArgumentError("Beltrametti-Bugajski measurement needs a direction")
        outcomes = self._born(dot(states.T, direction), u)
        return outcomes, self._collapse(outcomes, direction)

    def atoms(self, direction) -> np.ndarray:
        # -1 * 0.0 is -0.0 here as in every post state, so -z is (-0.0, -0.0, -1)
        return self._collapse(_OUTCOMES, direction)

    @staticmethod
    def _collapse(outcomes: np.ndarray, direction) -> np.ndarray:
        """outcome * direction per run, as an (n, 3) array."""
        post = np.empty((len(outcomes), 3))
        # one pass per column: a length-3 inner loop is slow
        for j, component in enumerate(np.asarray(direction, dtype=float)):
            np.multiply(outcomes, component, out=post[:, j])
        return post

    def embed_on_sphere(self, states: np.ndarray) -> np.ndarray:
        return states

    # Monte Carlo kernels, each drawing the slots it reads

    def lg_products(self, u: _rng.Uniforms, pair: tuple[float, float]) -> np.ndarray:
        """o1 * o2 of z measurements at both times of a pair, earlier time first.

        Each outcome is Born's rule on the z row of the state it measures, as
        ``evolve_batch`` computes that row; a measurement along z reads that
        row alone.  The first reads the prepared point's dot with
        ``heisenberg_direction(t_first)`` = (0, s, c), (c, s) = (cos, sin)(2 t_first),
        which is s*y + c*z.  The second reads the collapsed state o1 * z
        rotated across the gap, whose z row is cos(2 (t_second - t_first)) *
        o1 plus an exact +-0.  Only the first outcome can read y, and so goes
        through ``settle``; where it reads none (s is +-0.0), the azimuth
        slot 1 is not drawn.
        """
        t_first, t_second = min(pair), max(pair)
        heisenberg = heisenberg_direction(t_first)
        block = u.draw((0, 1, 3, 5) if heisenberg[1] != 0.0 else (0, 3, 5))
        o1 = self._born_along(heisenberg, block[:, :-2], block[:, -2])
        o2 = self._born(np.cos(2.0 * (t_second - t_first)) * o1, block[:, -1])
        return o1 * o2

    def measured_states(self, u: _rng.Uniforms, direction: np.ndarray):
        """The preparation uniforms, which give the prepared states' cells, and the outcomes.

        The outcomes are Born's rule on the dot of the prepared points with
        `direction`, as ``measure_batch`` computes it on ``prepare_max_batch``'s
        states.  Along a direction that reads x or y they go through ``settle``.
        """
        block = u.draw((0, 1, 2))
        prep = block[:, :2]
        return prep, self._born_along(np.asarray(direction, dtype=float), prep, block[:, 2])


class Telegraph(OntologicalModel):
    """Macrorealist control: a definite +-1 macrostate with Poisson flips.

    Between measurements the value flips with the exact two-state Markov
    kernel, p_flip(dt) = (1 - exp(-2 gamma dt)) / 2, giving the stationary
    autocorrelation exp(-2 gamma dt).  Measurement returns the value and
    never alters it (noninvasive readout of a definite value), so the
    post-measurement distribution cannot depend on the setting and the
    temporal inequality is satisfied for every gamma and schedule.

    The flip dynamics is stochastic collapse-style noise, not the image of a
    unitary, which is the one Model-contract property this control trades
    away on purpose.
    """

    name = "telegraph"

    def __init__(self, gamma: float = 1.0):
        if not np.isfinite(gamma) or gamma < 0:
            raise InvalidArgumentError(f"flip rate gamma must be finite and >= 0, got {gamma}")
        self.gamma = float(gamma)

    def prepare_max_batch(self, u: np.ndarray) -> np.ndarray:
        return 2 * (u[:, 0] < 0.5).view(np.int8) - 1

    def evolve_batch(self, states: np.ndarray, dt: float, u: np.ndarray) -> np.ndarray:
        """Flip each value with probability p_flip(|dt|).

        The symmetric chain started from its stationary preparation (+-1
        with probability 1/2 each) is reversible: its law over an interval
        run backwards is its law over the forward one.  So a negative dt,
        which the sequential reference's first evolution gets for a schedule
        with a negative first time, evolves by |dt|.  ``lg_products`` reads
        only the flip across the gap, which is never negative.
        """
        return states * self._flips(dt, u)

    def _flips(self, dt: float, u: np.ndarray) -> np.ndarray:
        """-1 for each run whose value flips over dt, that is where u < p_flip(|dt|), else +1, as int8."""
        if u is None:
            raise InvalidArgumentError("telegraph evolution is stochastic and needs uniforms")
        p_flip = 0.5 * (1.0 - np.exp(-2.0 * self.gamma * abs(dt)))
        return 1 - 2 * (np.asarray(u).reshape(-1) < p_flip).view(np.int8)

    def measure_batch(self, states: np.ndarray, direction=None, u=None):
        return states.astype(np.int8), states

    def atoms(self, direction=None) -> np.ndarray:
        # the readout leaves the value, so the post state of each outcome is that value
        return _OUTCOMES.copy()

    def embed_on_sphere(self, states: np.ndarray) -> np.ndarray:
        # definite values sit at the sphere poles so one estimator serves all models
        out = np.zeros((len(states), 3))
        out[:, 2] = states
        return out

    # Monte Carlo kernels, each drawing the slots it reads

    def lg_products(self, u: _rng.Uniforms, pair: tuple[float, float]) -> np.ndarray:
        """o1 * o2 of the readouts at both times of a pair: the flip factor across the gap.

        With prepared value v and flip factors f1 (to the first time) and f2
        (across the gap), o1 = v * f1 and o2 = o1 * f2, so o1 * o2 = f2.
        """
        return self._flips(max(pair) - min(pair), u.draw((4,)))

    def measured_states(self, u: _rng.Uniforms, direction: np.ndarray):
        """The prepared values and the readouts of ``measure_batch`` along `direction`."""
        states = self.prepare_max_batch(u.draw((0,)))
        return states, self.measure_batch(states, direction)[0]


class BranchingModel:
    """Erasure-free branching model of two projective measurements.

    The qubit (maximally mixed) is described by two independent uniform unit
    vectors x0, x1.  The first device measures direction a and branches; the
    visible outcome in the kept branch is s_A = sign(a.x0), and the device
    records n_A = sign(a.x0) sign(a.x1) in both branches.  The second device
    measures b and branches with s_B = sign(b.(x0+x1)) and
    n_B = sign(b.(x0+x1)) sign(b.(x0-x1)).  When the parties meet, branches
    are paired A(+-) <-> B(+-) unless (n_A, n_B) = (-1, -1), in which case
    they cross; one merged branch is then selected at random.  The system
    vectors are never modified, yet <alpha beta> = a.b exactly.

    The direction that n_B is taken along is the bookkeeping reference, an
    argument of ``bob_batch`` and of ``branch_outcomes``: the protocol's own
    is b.  Taking it along the *first* party's direction a is the bookkeeping
    slip ``mwcheck`` exposes; it provably breaks the quantum equivalence.
    ``branch_outcomes`` pairs the branches once per reference from one
    sample of (x0, x1), so the slip costs no second draw.
    """

    name = "mw"

    # sampling

    def sample_ontic_batch(self, u: np.ndarray, axes, trig_dtype=np.float64) -> tuple[dict, dict]:
        """Independent uniform pairs (x0, x1) from (n, 4) uniforms, as `trig_dtype` coordinates.

        Each point is its coordinates `axes` (``sphere.uniform_coordinates``),
        a mapping from axis to array: those that the devices' directions read
        (``sphere.axes_read``).
        """
        return tuple(uniform_coordinates(u[:, k : k + 2], axes, trig_dtype=trig_dtype) for k in (0, 2))

    # the two measurements

    def alice_batch(self, a: np.ndarray, x0, x1, near: np.ndarray):
        """s_A = sign(a.x0), n_A = sign(a.x0) sign(a.x1); `near` is set where either |dot| is within the margin."""
        dots = dot(x0, a), dot(x1, a)
        s0, s1 = map(sign_pm1, dots)
        _mark_near(near, *dots)
        return s0, s0 * s1

    def bob_batch(self, b: np.ndarray, x0, x1, references, near: np.ndarray):
        """s_B = sign(b.(x0+x1)), and n_B = sign(r.(x0+x1)) sign(r.(x0-x1)) for each reference r.

        x0 + x1 and x0 - x1 are formed per coordinate.  b.(x0+x1) is computed
        once, also for a reference equal to b (the protocol's own): ``dot``
        reads the same components of both.  `near` is set where any of these
        |dots| is within the margin.
        """
        x = {axis: np.add(x0[axis], x1[axis]) for axis in x0}  # scratch arrays: x0 + x1, then x0 - x1
        xb = dot(x, b)
        s_b = sign_pm1(xb)
        plus = [xb if np.array_equal(r, b) else dot(x, r) for r in references]
        for axis, scratch in x.items():
            np.subtract(x0[axis], x1[axis], out=scratch)
        n_bs = []
        for p, r in zip(plus, references):
            minus = dot(x, r)
            n_bs.append(sign_pm1(p) * sign_pm1(minus))
            _mark_near(near, minus)
        _mark_near(near, xb, *(p for p in plus if p is not xb))
        return s_b, n_bs

    # branch pairing at the meeting point

    def pair_and_select_batch(self, s_a, n_a, s_b, n_b, u: np.ndarray):
        """Pair branches, pick one merged branch uniformly, return its (alpha, beta)."""
        branch = 2 * (np.asarray(u).reshape(-1) < 0.5).view(np.int8) - 1
        crossed = (n_a == -1) & (n_b == -1)
        return branch * s_a, branch * (1 - 2 * crossed.view(np.int8)) * s_b

    # whole experiment

    def branch_outcomes(self, a, b, references, x0, x1, u_select, near: np.ndarray):
        """The kept branch's (alpha, beta) for each bookkeeping reference, from one (x0, x1).

        `near` is set where a dot whose sign either device takes is within
        the margin, the mask ``settle`` reads.
        """
        s_a, n_a = self.alice_batch(a, x0, x1, near)
        s_b, n_bs = self.bob_batch(b, x0, x1, references, near)
        return tuple(self.pair_and_select_batch(s_a, n_a, s_b, n_b, u_select) for n_b in n_bs)

    def settled_branch_outcomes(self, a, b, references, u: _rng.Uniforms, watch=None):
        """``branch_outcomes`` of the runs of u, through ``settle``, from slots 0-3, the ontic pair, and 4, the selection.

        The ontic pairs of the rows ``settle`` recomputes are sampled again in
        float64.  `watch`, if given, is called on each pass's (x0, x1) and
        returns a context manager that encloses ``branch_outcomes``.
        """
        axes = axes_read(a, b, *references)
        block = u.draw((0, 1, 2, 3, 4))

        def kernel(rows, trig_dtype):
            x0, x1 = self.sample_ontic_batch(block[rows, 0:4], axes, trig_dtype)
            u_select = block[rows, 4]
            near = np.zeros(len(u_select), dtype=bool)
            with watch(x0, x1) if watch else nullcontext():
                pairs = self.branch_outcomes(a, b, references, x0, x1, u_select, near)
            return [outcome for pair in pairs for outcome in pair], near

        outcomes = settle(kernel)
        return list(zip(outcomes[0::2], outcomes[1::2]))

    def run_experiment_batch(self, a: np.ndarray, b: np.ndarray, u: _rng.Uniforms):
        """(alpha, beta) of the complete runs of u, with the bookkeeping along b."""
        ((alpha, beta),) = self.settled_branch_outcomes(a, b, (b,), u)
        return alpha, beta

    # Monte Carlo kernels, each drawing the slots it reads

    def lg_products(self, u: _rng.Uniforms, pair: tuple[float, float]) -> np.ndarray:
        """alpha * beta of one pair; times enter this static model as Heisenberg directions."""
        t_first, t_second = min(pair), max(pair)
        a = heisenberg_direction(t_first)
        b = heisenberg_direction(t_second)
        alpha, beta = self.run_experiment_batch(a, b, u)
        return alpha * beta


MODEL_NAMES = ("quantum", "bb", "mw", "telegraph")


def make_model(name: str, gamma: float = 1.0):
    """Model factory used by the command-line harness."""
    if name == "bb":
        return BeltramettiBugajski()
    if name == "telegraph":
        return Telegraph(gamma=gamma)
    if name == "mw":
        return BranchingModel()
    built = ", ".join(m for m in MODEL_NAMES if m != "quantum")
    raise InvalidArgumentError(f"unknown model {name!r}; expected one of {built} (quantum is exact and needs no model)")
