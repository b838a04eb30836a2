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

Single-world models (``OntologicalModel``) expose the sequential contract
prepare/evolve/measure, both run-by-run and vectorized over runs; the
branching model does not fit that contract (its branch pairing happens only
when the parties meet, after both measurements) and instead exposes a
two-measurement experiment runner.

Every model declares, per Monte Carlo path, the counter-mode slots it reads
(``LG_SLOTS`` for the four-time inequality, ``SAMPLE_SLOTS`` for ensemble
sampling, ``JOINT_SLOTS`` for two back-to-back measurements); only those
slots are drawn.  The slot layout of each path sits next to the path.

Sign convention everywhere: sign(0) := +1.  Ties occur on measure-zero sets,
so any fixed rule leaves the statistics unchanged and keeps runs reproducible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .errors import InvalidArgumentError
from .qubit import as_direction
from .sphere import sample_uniform_sphere


def sign_pm1(x: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) := +1, as int8 in {-1, +1}."""
    return np.where(np.asarray(x) < 0, -1, 1).astype(np.int8)


class OntologicalModel(ABC):
    """Single-world sequential contract.

    Properties honored by construction: the ontic state lives in a fixed
    finite-measure space chosen before any setting is known; preparation and
    measurement are stochastic kernels receiving the current state only, so
    nothing can depend on settings chosen later.

    Vectorized methods operate on a batch of independent runs.  Each takes a
    dedicated column of per-run uniforms (drawn by the caller from the
    counter-mode stream); a method that ignores its column accepts None
    there, and one that needs it rejects None, so a column a model reads
    but does not declare fails loudly.
    """

    name: str = "abstract"

    #: uniforms consumed by prepare_max_batch per run
    PREP_SLOTS: int = 2
    #: slots read by the four-time inequality path (layout in leggett_garg)
    LG_SLOTS: tuple[int, ...]
    #: slots read by post-measurement ensemble sampling (layout in information)
    SAMPLE_SLOTS: tuple[int, ...]
    #: slots read by two back-to-back measurements (layout at _two_measurements)
    JOINT_SLOTS: tuple[int, ...]

    @abstractmethod
    def prepare_max_batch(self, u: np.ndarray):
        """Sample n ontic states for the maximally mixed preparation; u is (n, PREP_SLOTS)."""

    @abstractmethod
    def evolve_batch(self, states, dt: float, u: np.ndarray | None = None):
        """Advance all states by a time interval dt; u is one column of uniforms."""

    @abstractmethod
    def measure_batch(self, states, direction: np.ndarray | None, u: np.ndarray | None):
        """Measure all runs; returns (outcomes in {-1,+1} int8, post states)."""

    @abstractmethod
    def embed_on_sphere(self, states) -> np.ndarray:
        """Represent states as (n, 3) unit vectors for the shared histogram tooling."""

    # run-by-run API, built on the batch path

    def prepare_max(self, rng: np.random.Generator):
        return self.prepare_max_batch(rng.random((1, self.PREP_SLOTS)))[0]

    def evolve(self, lam, dt: float, rng: np.random.Generator | None = None):
        u = None if rng is None else rng.random(1)
        return self.evolve_batch(self._as_batch(lam), dt, u)[0]

    def measure(self, lam, setting, rng: np.random.Generator):
        direction = None if setting is None else as_direction(setting)
        outcomes, post = self.measure_batch(self._as_batch(lam), direction, rng.random(1))
        return int(outcomes[0]), post[0]

    def _as_batch(self, lam):
        return np.asarray(lam)[None, ...]


class BeltramettiBugajski(OntologicalModel):
    """Ontic state = the pure quantum state, a unit vector on the Bloch sphere.

    The maximally ignorant preparation is the uniform (rotation-invariant)
    distribution on the sphere; unitary evolution rotates it; a projective
    measurement along n yields +1 with Born probability (1 + n.lam)/2 and
    collapses lam onto outcome * n.
    """

    name = "bb"
    PREP_SLOTS = 2
    LG_SLOTS = (1, 2, 4, 6)
    SAMPLE_SLOTS = (0, 1, 2)
    JOINT_SLOTS = (0, 1, 2, 3)

    def prepare_max_batch(self, u: np.ndarray) -> np.ndarray:
        return sample_uniform_sphere(u[:, :2])

    def evolve_batch(self, states: np.ndarray, dt: float, u=None) -> np.ndarray:
        # deterministic volume-preserving image of U(dt): rotation about x by 2*dt
        c, s = np.cos(2.0 * dt), np.sin(2.0 * dt)
        out = np.empty_like(states)
        out[:, 0] = states[:, 0]
        out[:, 1] = c * states[:, 1] - s * states[:, 2]
        out[:, 2] = s * states[:, 1] + c * states[:, 2]
        return out

    def measure_batch(self, states: np.ndarray, direction, u: np.ndarray):
        if direction is None:
            raise InvalidArgumentError("Beltrametti-Bugajski measurement needs a direction")
        if u is None:
            raise InvalidArgumentError("Beltrametti-Bugajski measurement is stochastic and needs uniforms")
        direction = np.asarray(direction, dtype=float)
        p_plus = 0.5 * (1.0 + states @ direction)
        outcomes = np.where(np.asarray(u).reshape(-1) < p_plus, 1, -1).astype(np.int8)
        post = outcomes[:, None].astype(float) * direction[None, :]
        return outcomes, post

    def embed_on_sphere(self, states: np.ndarray) -> np.ndarray:
        return states


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
    PREP_SLOTS = 1
    LG_SLOTS = (1, 3, 5)
    SAMPLE_SLOTS = (0,)
    JOINT_SLOTS = (0,)

    def __init__(self, gamma: float = 1.0):
        if not np.isfinite(gamma) or gamma < 0:
            raise InvalidArgumentError(f"flip rate gamma must be >= 0, got {gamma}")
        self.gamma = float(gamma)

    def prepare_max_batch(self, u: np.ndarray) -> np.ndarray:
        return np.where(u[:, 0] < 0.5, 1, -1).astype(np.int8)

    def evolve_batch(self, states: np.ndarray, dt: float, u: np.ndarray) -> np.ndarray:
        if dt < 0:
            raise InvalidArgumentError(f"telegraph evolution needs dt >= 0, got {dt}")
        if u is None:
            raise InvalidArgumentError("telegraph evolution is stochastic and needs uniforms")
        p_flip = 0.5 * (1.0 - np.exp(-2.0 * self.gamma * dt))
        return np.where(np.asarray(u).reshape(-1) < p_flip, -states, states).astype(np.int8)

    def measure_batch(self, states: np.ndarray, direction=None, u=None):
        return states.astype(np.int8), states

    def embed_on_sphere(self, states: np.ndarray) -> np.ndarray:
        # definite values sit at the sphere poles so one estimator serves all models
        out = np.zeros((len(states), 3))
        out[:, 2] = states
        return out


@dataclass
class BranchOntic:
    """Ontic state of one branching-model run: system pair plus device bits."""

    x0: np.ndarray
    x1: np.ndarray
    s_a: int | None = None
    n_a: int | None = None
    s_b: int | None = None
    n_b: int | None = None


@dataclass
class BranchRunResult:
    """Batch output of the two-measurement branching experiment."""

    alpha: np.ndarray
    beta: np.ndarray
    x0_post: np.ndarray
    x1_post: np.ndarray


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

    ``setting_variant="a"`` computes n_B from the *first* party's direction
    (the bookkeeping slip this flag exists to expose); it provably breaks the
    quantum equivalence and is kept only as a diagnostic.
    ``collapse_fault=True`` deliberately resets x0 onto the first measurement
    axis, as a single-world collapse would; the no-erasure checker must
    flag it.
    """

    name = "mw"
    #: slots read by the four-time inequality path (layout in leggett_garg)
    LG_SLOTS = (1, 2, 3, 4, 5)
    #: slots read by two-measurement runs: 0-3 ontic pair, 4 branch selection
    JOINT_SLOTS = (0, 1, 2, 3, 4)

    def __init__(self, setting_variant: str = "b", collapse_fault: bool = False):
        if setting_variant not in ("a", "b"):
            raise InvalidArgumentError(f"setting_variant must be 'a' or 'b', got {setting_variant!r}")
        self.setting_variant = setting_variant
        self.collapse_fault = bool(collapse_fault)

    # sampling

    def sample_ontic_batch(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Independent uniform pairs (x0, x1) from (n, 4) uniforms."""
        return sample_uniform_sphere(u[:, 0:2]), sample_uniform_sphere(u[:, 2:4])

    def sample_ontic(self, rng: np.random.Generator) -> BranchOntic:
        x0, x1 = self.sample_ontic_batch(rng.random((1, 4)))
        return BranchOntic(x0=x0[0], x1=x1[0])

    # the two measurements

    def alice_batch(self, a: np.ndarray, x0: np.ndarray, x1: np.ndarray):
        a = np.asarray(a, dtype=float)
        s0, s1 = sign_pm1(x0 @ a), sign_pm1(x1 @ a)
        return s0, (s0 * s1).astype(np.int8)

    def bob_batch(self, b: np.ndarray, x0: np.ndarray, x1: np.ndarray, a: np.ndarray | None = None):
        x_plus, x_minus = x0 + x1, x0 - x1
        s_b = sign_pm1(x_plus @ np.asarray(b, dtype=float))
        if self.setting_variant == "a":
            if a is None:
                raise InvalidArgumentError("the 'a' diagnostic variant needs the first direction")
            ref = np.asarray(a, dtype=float)
        else:
            ref = np.asarray(b, dtype=float)
        n_b = (sign_pm1(x_plus @ ref) * sign_pm1(x_minus @ ref)).astype(np.int8)
        return s_b, n_b

    def alice(self, a, ontic: BranchOntic) -> tuple[int, int]:
        s, n = self.alice_batch(as_direction(a), ontic.x0[None, :], ontic.x1[None, :])
        ontic.s_a, ontic.n_a = int(s[0]), int(n[0])
        return ontic.s_a, ontic.n_a

    def bob(self, b, ontic: BranchOntic, a=None) -> tuple[int, int]:
        a_dir = None if a is None else as_direction(a)
        s, n = self.bob_batch(as_direction(b), ontic.x0[None, :], ontic.x1[None, :], a=a_dir)
        ontic.s_b, ontic.n_b = int(s[0]), int(n[0])
        return ontic.s_b, ontic.n_b

    # branch pairing at the meeting point

    def pair_and_select_batch(self, s_a, n_a, s_b, n_b, u: np.ndarray):
        """Pair branches, pick one merged branch uniformly, return its (alpha, beta)."""
        branch = np.where(np.asarray(u).reshape(-1) < 0.5, 1, -1).astype(np.int8)
        crossed = (n_a == -1) & (n_b == -1)
        alpha = branch * s_a
        beta = np.where(crossed, -branch, branch) * s_b
        return alpha.astype(np.int8), beta.astype(np.int8)

    def pair_and_select(self, s_a: int, n_a: int, s_b: int, n_b: int, rng: np.random.Generator):
        alpha, beta = self.pair_and_select_batch(
            np.int8(s_a), np.int8(n_a), np.int8(s_b), np.int8(n_b), rng.random(1)
        )
        return int(alpha[0]), int(beta[0])

    # whole experiment

    def run_experiment_batch(self, a: np.ndarray, b: np.ndarray, u: np.ndarray) -> BranchRunResult:
        """One batch of complete runs; u is (n, 5): four ontic slots + selection."""
        x0, x1 = self.sample_ontic_batch(u[:, 0:4])
        s_a, n_a = self.alice_batch(a, x0, x1)
        s_b, n_b = self.bob_batch(b, x0, x1, a=a)
        alpha, beta = self.pair_and_select_batch(s_a, n_a, s_b, n_b, u[:, 4])
        x0_post, x1_post = x0, x1
        if self.collapse_fault:
            x0_post = s_a[:, None].astype(float) * np.asarray(a, dtype=float)[None, :]
        return BranchRunResult(alpha=alpha, beta=beta, x0_post=x0_post, x1_post=x1_post)

    def joint_statistics(self, a, b, runs: int, seed: int, workers: int | None = None) -> np.ndarray:
        """Monte Carlo joint distribution of (alpha, beta) as a (2, 2) array.

        Index order matches qubit.OUTCOMES: [0] = +1, [1] = -1.  Counting is
        integer-exact, so the result is independent of worker count.
        """
        if runs < 1:
            raise InvalidArgumentError("runs must be >= 1")
        a = as_direction(a)
        b = as_direction(b)

        def run_chunk(lo: int, n: int) -> np.ndarray:
            u = _rng.uniform_block(seed, range(lo, lo + n), self.JOINT_SLOTS)
            res = self.run_experiment_batch(a, b, u)
            ia, ib = (1 - res.alpha) // 2, (1 - res.beta) // 2
            return np.bincount((ia * 2 + ib).astype(np.int64), minlength=4)

        counts = sum(_rng.map_chunks(run_chunk, runs, workers))
        return counts.reshape(2, 2).astype(float) / runs


# Per-run uniform slots of two back-to-back measurements: 0-1 preparation,
# 2 first measurement, 3 second measurement.
def _two_measurements(model: OntologicalModel, u: dict[int, np.ndarray], a, b):
    """Outcomes of measuring a, then b, on the maximal-ignorance preparation."""
    states = model.prepare_max_batch(_rng.slot_columns(u, range(model.PREP_SLOTS)))
    o1, states = model.measure_batch(states, a, u.get(2))
    o2, _ = model.measure_batch(states, b, u.get(3))
    return o1, o2


def single_world_joint_statistics(
    model: OntologicalModel, a, b, runs: int, seed: int, workers: int | None = None
) -> np.ndarray:
    """Monte Carlo joint for two back-to-back measurements through a sequential model.

    Prepares the maximal-ignorance state, measures direction a, then direction
    b on the outgoing ontic state.  Returns the (2, 2) joint in OUTCOMES index
    order, integer-counted and therefore worker-count independent.
    """
    if runs < 1:
        raise InvalidArgumentError("runs must be >= 1")
    a = as_direction(a)
    b = as_direction(b)

    def run_chunk(lo: int, n: int) -> np.ndarray:
        u = _rng.uniforms_by_slot(seed, range(lo, lo + n), model.JOINT_SLOTS)
        o1, o2 = _two_measurements(model, u, a, b)
        idx = ((1 - o1) // 2) * 2 + (1 - o2) // 2
        return np.bincount(idx.astype(np.int64), minlength=4)

    counts = sum(_rng.map_chunks(run_chunk, runs, workers))
    return counts.reshape(2, 2).astype(float) / runs


MODEL_NAMES = ("quantum", "bb", "mw", "telegraph")


def make_model(name: str, gamma: float = 1.0):
    """Model factory used by the command-line harness."""
    if name == "bb":
        return BeltramettiBugajski()
    if name == "telegraph":
        return Telegraph(gamma=gamma)
    if name == "mw":
        return BranchingModel()
    raise InvalidArgumentError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
