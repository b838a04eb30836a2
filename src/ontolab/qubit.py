"""Exact single-qubit oracle: Bloch algebra, dephasing, sequential projective measurements.

Everything downstream (the inequality scans and the hidden-variable models)
is validated against the closed forms here.  Conventions, fixed once:

* basis |+1> = (1, 0)^T, |-1> = (0, 1)^T, so the time-independent hopping
  Hamiltonian H = |+1><-1| + |-1><+1| is the Pauli matrix sigma_x;
* U(dt) = exp(-i H dt) = I cos(dt) - i H sin(dt);
* under U, Schroedinger states rotate about x-hat by angle 2*dt
  (z-hat -> -y-hat at dt = pi/4), while the Heisenberg-picture direction of
  the sigma_z observable measured at time t is (0, sin 2t, cos 2t);
* sequential sigma_z measurements on the maximally mixed state at times
  t_k, t_l are correlated as <a_k a_l> = cos 2(t_k - t_l).

All tolerances are 1e-12: plain double-precision algebra on 2x2 matrices.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, InvalidStateError

ATOL = 1e-12

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

#: Outcome labels in index order: P[0] is outcome +1, P[1] is outcome -1.
OUTCOMES = (1, -1)

MAXIMALLY_MIXED = IDENTITY / 2


def check_density(rho: np.ndarray) -> np.ndarray:
    """Validate a 2x2 density matrix (Hermitian, unit trace, PSD) and return it."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise InvalidStateError(f"density matrix must be 2x2, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > ATOL:
        raise InvalidStateError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > ATOL or abs(np.trace(rho).imag) > ATOL:
        raise InvalidStateError("density matrix trace != 1")
    if np.linalg.eigvalsh(rho).min() < -ATOL:
        raise InvalidStateError("density matrix has a negative eigenvalue")
    return rho


def bloch_to_density(v) -> np.ndarray:
    """Density matrix (I + v . sigma) / 2 for a Bloch vector with |v| <= 1."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise InvalidStateError(f"Bloch vector must have 3 components, got shape {v.shape}")
    norm = np.linalg.norm(v)
    if not np.isfinite(norm) or norm > 1 + ATOL:
        raise InvalidStateError(f"Bloch vector norm {norm} exceeds 1")
    return (IDENTITY + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z) / 2


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector v_i = tr(rho sigma_i); exact inverse of bloch_to_density."""
    rho = check_density(rho)
    return np.array([np.trace(rho @ s).real for s in PAULIS])


def unit_vector(v) -> np.ndarray:
    """Validate a measurement direction: a real 3-vector of unit norm."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise InvalidArgumentError(f"direction must have 3 components, got shape {v.shape}")
    if abs(np.linalg.norm(v) - 1.0) > ATOL:
        raise InvalidArgumentError(f"direction must be a unit vector, |v| = {np.linalg.norm(v)}")
    return v


def heisenberg_direction(t: float) -> np.ndarray:
    """Bloch direction of the sigma_z observable measured at time t: (0, sin 2t, cos 2t).

    Satisfies dir(t_k) . dir(t_l) = cos 2(t_k - t_l), the pairwise
    correlation law for the maximally mixed preparation.
    """
    t = float(t)
    if not math.isfinite(t):
        raise InvalidArgumentError("time must be finite")
    return np.array([0.0, math.sin(2 * t), math.cos(2 * t)])


def projector(n, outcome: int) -> np.ndarray:
    """Rank-1 projector onto the +-1 eigenstate of n . sigma."""
    n = unit_vector(n)
    if outcome not in (1, -1):
        raise InvalidArgumentError(f"outcome must be +1 or -1, got {outcome}")
    return (IDENTITY + outcome * (n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)) / 2


def dephase(rho: np.ndarray, n) -> np.ndarray:
    """Non-selective measurement along n: sum of P rho P over both projectors.

    In Bloch terms the state vector v becomes (n.v) n.  Never decreases the
    von Neumann entropy.
    """
    n = unit_vector(n)
    v = density_to_bloch(rho)
    return bloch_to_density(float(n @ v) * n)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(lam ln lam) in nats from the two eigenvalues, 0 ln 0 := 0."""
    eig = np.linalg.eigvalsh(check_density(rho))
    eig = np.clip(eig.real, 0.0, 1.0)
    nz = eig[eig > 0]
    return float(-(nz * np.log(nz)).sum())


def sequential_joint(rho0: np.ndarray, settings) -> np.ndarray:
    """Exact joint distribution of two sequential projective measurements.

    settings is a pair of unit Bloch directions (a time t measures along
    heisenberg_direction(t)).  Returns a (2, 2) array P with
    P[i, j] = Prob(first = OUTCOMES[i], second = OUTCOMES[j])
            = tr(Pi_b Pi_a rho0 Pi_a).

    Rounding can leave a cell that is exactly 0 or 1 a few ulps outside
    [0, 1], which would make its binomial variance negative; cells are
    clipped into [0, 1].
    """
    rho0 = check_density(rho0)
    if len(settings) != 2:
        raise InvalidArgumentError(f"need exactly 2 settings, got {len(settings)}")
    na, nb = (unit_vector(s) for s in settings)
    probs = np.empty((2, 2))
    for i, a in enumerate(OUTCOMES):
        pa = projector(na, a)
        collapsed = pa @ rho0 @ pa
        for j, b in enumerate(OUTCOMES):
            probs[i, j] = np.trace(projector(nb, b) @ collapsed).real
    return np.clip(probs, 0.0, 1.0, out=probs)


def joint_expectation(probs: np.ndarray) -> float:
    """<alpha * beta> of a (2, 2) joint distribution in OUTCOMES index order."""
    a = np.array(OUTCOMES, dtype=float)
    return float(a @ probs @ a)
