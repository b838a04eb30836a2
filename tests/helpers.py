"""Reference computations the tests compare ontolab against.

The library answers its questions without these; the tests use them as
independent routes to the same numbers:

* the density-matrix conversions (``bloch_to_density``,
  ``density_to_bloch``, ``check_density``) and the Schroedinger-picture
  qubit operations built on them (``unitary``, ``evolve``, ``measure``,
  ``joint_marginals``), checked against ``scipy.linalg.expm`` and projector
  algebra, which the collapse model's kernels are checked against in turn;
* ``bb_joint_statistics``: two back-to-back measurements through the
  collapse model's own prepare and measure kernels, the Born-rule check
  against ``qubit.sequential_joint``;
* ``from_points``: the point path the ``information`` histograms replaced,
  ``sphere.bin_index`` on (n, 3) unit vectors with one count each, which
  their exact cells must match count for count;
* ``invariance_tv``: whether the collapse model's dynamics leaves the
  uniform ontic distribution invariant, each chunk's cell counts added up
  by ``rng.map_chunks``, judged by the chi-square homogeneity test
  ``noflow_test`` runs and by ``tv_distance``, the total-variation
  distance of two count arrays;
* ``composed_lg_products`` and ``composed_measured_outcomes``: the
  single-world kernels as the sequential reference methods compose them,
  prepare -> evolve -> measure -> evolve -> measure and prepare -> measure,
  which the kernels that compute only what their outcomes read must match
  bit for bit; ``Planted`` hands both the same uniforms, with values
  planted in them;
* the ``where_*`` and ``stacked_*`` kernels: the ``np.where``,
  ``astype``, ``np.column_stack`` and two-temporary formulas the branch-free
  int8 and scratch-array kernels of ``models`` and ``sphere`` replaced,
  which those must match bit for bit; they dot points with a direction by
  ``sphere.dot``, as the kernels do;
* ``scanned_finest_grids``: the grouping of ``erasure``'s grids into
  power-of-two families as a scan over every family started so far, which
  the grouping by odd parts must match grid for grid.
"""

from __future__ import annotations

import math

import numpy as np

from ontolab import BeltramettiBugajski
from ontolab.errors import InvalidArgumentError
from ontolab.information import _homogeneity_test
from ontolab.qubit import ATOL, IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, unit_vector
from ontolab.rng import map_chunks, substream_seed, uniform_block
from ontolab.sphere import SphereHistogram, bin_index, dot

HAMILTONIAN = SIGMA_X
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


class InvalidDensityError(ValueError):
    """A density matrix or Bloch vector violates its invariants (shape, norm, trace, positivity)."""


class UndefinedConditionalStateError(ValueError):
    """A post-measurement state was requested for a zero-probability outcome."""


def check_density(rho: np.ndarray) -> np.ndarray:
    """Validate a 2x2 density matrix (Hermitian, unit trace, PSD) and return it."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise InvalidDensityError(f"density matrix must be 2x2, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > ATOL:
        raise InvalidDensityError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > ATOL or abs(np.trace(rho).imag) > ATOL:
        raise InvalidDensityError("density matrix trace != 1")
    if np.linalg.eigvalsh(rho).min() < -ATOL:
        raise InvalidDensityError("density matrix has a negative eigenvalue")
    return rho


def bloch_to_density(v) -> np.ndarray:
    """Density matrix (I + v . sigma) / 2 for a Bloch vector with |v| <= 1."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise InvalidDensityError(f"Bloch vector must have 3 components, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if not np.isfinite(norm) or norm > 1 + ATOL:
        raise InvalidDensityError(f"Bloch vector norm {norm} exceeds 1")
    return (IDENTITY + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z) / 2


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector v_i = tr(rho sigma_i); exact inverse of bloch_to_density."""
    rho = check_density(rho)
    return np.array([np.trace(rho @ s).real for s in PAULIS])


def unitary(dt: float) -> np.ndarray:
    """Evolution operator U(dt) = I cos(dt) - i H sin(dt) = exp(-i H dt)."""
    dt = float(dt)
    if not math.isfinite(dt):
        raise InvalidArgumentError("dt must be finite")
    return IDENTITY * math.cos(dt) - 1j * HAMILTONIAN * math.sin(dt)


def evolve(rho: np.ndarray, dt: float) -> np.ndarray:
    """Conjugate rho by U(dt); spectrum is preserved."""
    rho = check_density(rho)
    u = unitary(dt)
    return u @ rho @ u.conj().T


def measure(rho: np.ndarray, n, outcome: int) -> tuple[float, np.ndarray]:
    """Born probability and collapsed state for a projective measurement along n.

    probability = (1 + outcome * n.v) / 2 with v the Bloch vector of rho; the
    conditional post state is the pure eigenstate outcome * n.  Requesting the
    post state of a (numerically) impossible outcome raises
    UndefinedConditionalStateError.
    """
    n = unit_vector(n)
    v = density_to_bloch(rho)
    p = (1.0 + outcome * float(n @ v)) / 2.0
    if p < 1e-15:
        raise UndefinedConditionalStateError(
            f"outcome {outcome:+d} along {n} has probability {p}; conditional state undefined"
        )
    return p, bloch_to_density(outcome * n)


def joint_marginals(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, second) marginal distributions, each ordered like OUTCOMES."""
    probs = np.asarray(probs, dtype=float)
    return probs.sum(axis=1), probs.sum(axis=0)


def bb_joint_statistics(a, b, runs: int, seed: int) -> np.ndarray:
    """(2, 2) joint of measuring a, then b, on the collapse model's uniform preparation.

    Slots 0-1 prepare, slot 2 drives the first measurement and slot 3 the
    second; index order matches qubit.OUTCOMES.
    """
    bb = BeltramettiBugajski()
    u = uniform_block(seed, range(runs), (0, 1, 2, 3))
    states = bb.prepare_max_batch(u[:, :2])
    o1, states = bb.measure_batch(states, np.asarray(a, dtype=float), u[:, 2])
    o2, _ = bb.measure_batch(states, np.asarray(b, dtype=float), u[:, 3])
    cells = ((1 - o1) // 2) * 2 + (1 - o2) // 2
    return np.bincount(cells.astype(np.int64), minlength=4).reshape(2, 2) / runs


class Planted:
    """Uniforms with values planted in them, handed to a kernel in place of ``rng.Uniforms``.

    Column j of the (n, k) `block` holds slot j, and ``draw(slots)`` returns
    ``block[:, slots]``, as ``rng.Uniforms.draw`` returns those slots.
    """

    def __init__(self, block: np.ndarray):
        self.block = block

    def draw(self, slots) -> np.ndarray:
        return self.block[:, list(slots)]


def composed_lg_products(model, u, pair) -> np.ndarray:
    """o1 * o2 of z measurements at both times of a pair through prepare -> evolve -> measure -> evolve -> measure.

    Slots 0-5 of u in the four-time layout of ``models``: 0-1 preparation,
    2 and 4 the evolutions, 3 and 5 the measurements.
    """
    t_first, t_second = min(pair), max(pair)
    z = np.array([0.0, 0.0, 1.0])
    block = u.draw(range(6))
    states = model.prepare_max_batch(block[:, :2])
    states = model.evolve_batch(states, t_first, block[:, 2])
    o1, states = model.measure_batch(states, z, block[:, 3])
    states = model.evolve_batch(states, t_second - t_first, block[:, 4])
    o2, _ = model.measure_batch(states, z, block[:, 5])
    return o1 * o2


def composed_measured_outcomes(model, u, direction) -> np.ndarray:
    """Outcomes of prepare -> measure along `direction`, through ``measure_batch``, from slots 0-1 and 2 of u."""
    block = u.draw(range(3))
    return model.measure_batch(model.prepare_max_batch(block[:, :2]), direction, block[:, 2])[0]


def from_points(points: np.ndarray, nz: int, nphi: int) -> SphereHistogram:
    """Histogram of unit vectors of shape (n, 3), each binned by sphere.bin_index."""
    return SphereHistogram(nz, nphi).add(bin_index(points, nz, nphi))


def tv_distance(c1, c2) -> float:
    """Total-variation distance (1/2) sum |p - q| of two integer count arrays over the same cells, with one rounding.

    sum |c1 n2 - c2 n1| / (2 n1 n2) for totals n1 and n2, in integers.
    """
    c1, c2 = np.asarray(c1, dtype=np.int64), np.asarray(c2, dtype=np.int64)
    n1, n2 = int(c1.sum()), int(c2.sum())
    return int(np.abs(c1 * n2 - c2 * n1).sum()) / (2 * n1 * n2)


def invariance_tv(runs: int, rotations: int, seed: int, cap: bool = False, nz: int = 16, nphi: int = 16):
    """(TV distance, homogeneity p-value) of an evolved ensemble against a fresh uniform one.

    Applies `rotations` collapse-model evolutions of random duration in
    [0, pi) to a uniform ensemble and compares it with an independent fresh
    uniform sample on the nz x nphi grid.  cap=True starts from the polar
    cap z >= 0.5 instead, a negative control: rotation about the x axis
    cannot make it uniform.
    """
    bb = BeltramettiBugajski()
    durations = np.pi * uniform_block(substream_seed(seed, 7), range(rotations), (0,))[:, 0]

    def cell_counts(arm: int, evolve: bool) -> np.ndarray:
        def chunk(lo, n):
            prep = uniform_block(substream_seed(seed, arm), range(lo, lo + n), (0, 1))
            if evolve and cap:
                prep[:, 0] = 0.75 + 0.25 * prep[:, 0]  # z = 2u - 1 in [0.5, 1]
            states = bb.prepare_max_batch(prep)
            for dt in durations if evolve else ():
                states = bb.evolve_batch(states, float(dt))
            return np.bincount(bin_index(states, nz, nphi), minlength=nz * nphi)

        return map_chunks(chunk, runs)

    table = np.stack([cell_counts(1, True), cell_counts(2, False)])
    return tv_distance(*table), _homogeneity_test(table)[2]


# Reference kernels: each is the former formula of the branch-free kernel it is named after.


def where_sign_pm1(x) -> np.ndarray:
    return np.where(np.asarray(x) < 0, -1, 1).astype(np.int8)


def where_bb_measure(states: np.ndarray, direction: np.ndarray, u: np.ndarray):
    direction = np.asarray(direction, dtype=float)
    p_plus = 0.5 * (1.0 + dot(states.T, direction))
    outcomes = np.where(np.asarray(u).reshape(-1) < p_plus, 1, -1).astype(np.int8)
    return outcomes, outcomes[:, None].astype(float) * direction[None, :]


def where_telegraph_prepare(u: np.ndarray) -> np.ndarray:
    return np.where(u[:, 0] < 0.5, 1, -1).astype(np.int8)


def where_telegraph_evolve(states: np.ndarray, gamma: float, dt: float, u: np.ndarray) -> np.ndarray:
    p_flip = 0.5 * (1.0 - np.exp(-2.0 * gamma * dt))
    return np.where(np.asarray(u).reshape(-1) < p_flip, -states, states).astype(np.int8)


def where_alice(a, x0, x1):
    s0, s1 = where_sign_pm1(dot(x0, a)), where_sign_pm1(dot(x1, a))
    return s0, (s0 * s1).astype(np.int8)


def where_bob(b, x0, x1, references):
    # x0 + x1 and x0 - x1 as two temporaries per coordinate; bob_batch reuses one scratch array per coordinate
    x_plus = {axis: x0[axis] + x1[axis] for axis in x0}
    x_minus = {axis: x0[axis] - x1[axis] for axis in x0}
    s_b = where_sign_pm1(dot(x_plus, b))
    return s_b, [(where_sign_pm1(dot(x_plus, r)) * where_sign_pm1(dot(x_minus, r))).astype(np.int8) for r in references]


def where_pair_and_select(s_a, n_a, s_b, n_b, u: np.ndarray):
    branch = np.where(np.asarray(u).reshape(-1) < 0.5, 1, -1).astype(np.int8)
    crossed = (n_a == -1) & (n_b == -1)
    alpha = branch * s_a
    beta = np.where(crossed, -branch, branch) * s_b
    return alpha.astype(np.int8), beta.astype(np.int8)


def where_joint_cells(o1: np.ndarray, o2: np.ndarray) -> np.ndarray:
    return (((1 - o1) // 2) * 2 + (1 - o2) // 2).astype(np.int64)


def stacked_sample_uniform_sphere(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    z = 2.0 * u[:, 0] - 1.0
    phi = 2.0 * np.pi * u[:, 1]
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


def where_bin_index(points: np.ndarray, nz: int, nphi: int) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    iz = np.minimum((0.5 * (points[:, 2] + 1.0) * nz).astype(np.int64), nz - 1)
    iz = np.maximum(iz, 0)
    phi = np.arctan2(points[:, 1], points[:, 0])
    phi = np.where(phi < 0, phi + 2.0 * np.pi, phi)
    iphi = np.minimum((phi / (2.0 * np.pi) * nphi).astype(np.int64), nphi - 1)
    return iz * nphi + iphi


def scanned_finest_grids(grids) -> dict[tuple[int, int], tuple[int, int]]:
    """Each grid mapped to the first family, largest first, whose finest grid it divides by a power of two in both axes."""
    finest = {}
    for grid in sorted(set(grids), key=lambda g: (-g[0] * g[1], g)):
        finest[grid] = next(
            (f for f in finest.values() if all(a % b == 0 and (a // b) & (a // b - 1) == 0 for a, b in zip(f, grid))),
            grid,
        )
    return finest
