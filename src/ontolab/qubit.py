"""Exact single-qubit oracle: two sequential projective measurements on the maximally mixed state.

The maximally mixed state is the paper's maximal-ignorance preparation, and
the joint of two measurements on it is the one quantum number a command
reads (``mwcheck``'s oracle).  Everything downstream (the inequality scans
and the hidden-variable models) is validated against the closed forms here.
Conventions, fixed once:

* basis |+1> = (1, 0)^T, |-1> = (0, 1)^T, so the time-independent hopping
  Hamiltonian H = |+1><-1| + |-1><+1| is the Pauli matrix sigma_x;
* U(dt) = exp(-i H dt) = I cos(dt) - i H sin(dt);
* under U, Schroedinger states rotate about x-hat by angle 2*dt
  (z-hat -> -y-hat at dt = pi/4), while the Heisenberg-picture direction of
  the sigma_z observable measured at time t is (0, sin 2t, cos 2t);
* sequential sigma_z measurements on the maximally mixed state at times
  t_k, t_l are correlated as <a_k a_l> = cos 2(t_k - t_l).

The joint is a closed form, not matrix algebra.  Outcome i = +-1 along a
unit direction a projects with Pi_a = (I + i a.sigma)/2; on rho = I/2 the
first measurement leaves Pi_a rho Pi_a = Pi_a / 2, and the Pauli traces give
tr(Pi_b Pi_a) = (1 + ij a.b)/2, so Prob(i, j) = (1 + ij a.b)/4 exactly.
The only roundings are those of a.b, summed x, then y, then z by elementwise
multiply and add as ``sphere.dot`` sums, and of the one add; the division by
4 is exact.  No step goes through BLAS, whose rounding differs between CPU
kernels, so the bits of a joint are fixed by the bits of its directions.
All tolerances are 1e-12.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

ATOL = 1e-12

#: Outcome labels in index order: P[0] is outcome +1, P[1] is outcome -1.
OUTCOMES = (1, -1)


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


def sequential_joint(a, b) -> np.ndarray:
    """Exact joint distribution of measuring a, then b, on the maximally mixed state.

    a and b are unit Bloch directions (a time t measures along
    heisenberg_direction(t)).  Returns a (2, 2) array P with
    P[i, j] = Prob(first = OUTCOMES[i], second = OUTCOMES[j])
            = (1 + OUTCOMES[i] * OUTCOMES[j] * a.b) / 4.

    Rounding can leave a.b a few ulps outside [-1, 1], and so a cell that is
    exactly 0 a few ulps below it, which would make its binomial variance
    negative; cells are clipped into [0, 1].
    """
    na, nb = unit_vector(a), unit_vector(b)
    ab = na[0] * nb[0] + na[1] * nb[1] + na[2] * nb[2]
    probs = (1.0 + np.multiply.outer(OUTCOMES, OUTCOMES) * ab) / 4
    return np.clip(probs, 0.0, 1.0, out=probs)


def joint_expectation(probs: np.ndarray) -> float:
    """<alpha * beta> of a (2, 2) joint distribution in OUTCOMES index order."""
    a = np.array(OUTCOMES, dtype=float)
    return float(a @ probs @ a)
