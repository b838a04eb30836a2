"""Equal-area binning and uniform sampling on the unit sphere.

Cells are the product of nz slabs uniform in z = cos(theta) with nphi
azimuth sectors uniform in phi; the slab area element 2*pi*dz makes every
cell cover exactly 4*pi / (nz * nphi) of solid angle.  This grid is the
substrate for the histogram entropy estimator and the chi-square
distribution tests.

Zero keeps the sign convention of ``models`` (sign(0) := +1): an azimuth
of -0.0 or +0.0 lies in sector 0, and phi = 2*pi*u1 covers [0, 2*pi).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

FULL_SOLID_ANGLE = 4.0 * np.pi


def sample_uniform_sphere(u: np.ndarray) -> np.ndarray:
    """Map uniforms u of shape (n, 2) to points uniform on S^2, as a C-ordered (n, 3) array.

    Equal-area construction: z = 2*u0 - 1, phi = 2*pi*u1, and
    (x, y) = r (cos phi, sin phi) with r = sqrt(max(0, 1 - z^2)).  Every
    column is computed in place in the one output array.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty((len(u), 3))
    x, y, z = out[:, 0], out[:, 1], out[:, 2]
    np.multiply(u[:, 0], 2.0, out=z)
    z -= 1.0
    r = np.multiply(z, z)
    np.subtract(1.0, r, out=r)
    np.maximum(r, 0.0, out=r)
    np.sqrt(r, out=r)
    phi = np.multiply(u[:, 1], 2.0 * np.pi)
    np.cos(phi, out=x)
    x *= r
    np.sin(phi, out=y)
    y *= r
    return out


def bin_index(points: np.ndarray, nz: int, nphi: int) -> np.ndarray:
    """Flat cell index in [0, nz*nphi) for unit vectors of shape (n, 3)."""
    points = np.asarray(points, dtype=float)
    slab = points[:, 2] + 1.0
    slab *= 0.5
    slab *= nz
    flat = slab.astype(np.int64)
    np.clip(flat, 0, nz - 1, out=flat)
    flat *= nphi
    phi = np.arctan2(points[:, 1], points[:, 0])
    # wraps into [0, 2*pi); only -0.0 turns into +0.0, which lands in the same cell
    phi += 2.0 * np.pi * (phi < 0)
    phi /= 2.0 * np.pi
    phi *= nphi
    sector = phi.astype(np.int64)
    np.minimum(sector, nphi - 1, out=sector)
    flat += sector
    return flat


@dataclass(eq=False)  # identity comparison: a field-wise == of counts arrays has no truth value
class SphereHistogram:
    """Counts over the nz x nphi equal-area grid."""

    nz: int
    nphi: int
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.nz < 1 or self.nphi < 1:
            raise InvalidArgumentError("nz and nphi must be >= 1")
        self.counts = np.zeros((self.nz, self.nphi), dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def n_bins(self) -> int:
        return self.nz * self.nphi

    @property
    def cell_area(self) -> float:
        return FULL_SOLID_ANGLE / self.n_bins

    def add(self, points: np.ndarray) -> "SphereHistogram":
        """Accumulate unit vectors of shape (n, 3); returns self."""
        flat = bin_index(points, self.nz, self.nphi)
        self.counts += np.bincount(flat, minlength=self.n_bins).reshape(self.nz, self.nphi)
        return self

    def merge(self, other: "SphereHistogram") -> "SphereHistogram":
        """Add another histogram's counts (same binning); order-independent."""
        self._check_same_binning(other)
        self.counts += other.counts
        return self

    def probabilities(self) -> np.ndarray:
        total = self.total
        if total == 0:
            raise InvalidArgumentError("histogram is empty")
        return self.counts.astype(float) / total

    def _check_same_binning(self, other: "SphereHistogram") -> None:
        if (self.nz, self.nphi) != (other.nz, other.nphi):
            raise InvalidArgumentError(
                f"binning mismatch: {(self.nz, self.nphi)} vs {(other.nz, other.nphi)}"
            )

    @classmethod
    def from_points(cls, points: np.ndarray, nz: int, nphi: int) -> "SphereHistogram":
        return cls(nz, nphi).add(points)


def histogram_entropy(hist: SphereHistogram) -> float:
    """Plug-in differential entropy (nats) of an accumulated histogram.

    -sum(p ln p) over occupied cells plus ln(cell area); converges to
    -integral rho ln rho for a density rho on the sphere.  The uniform
    density scores ln(4*pi) ~ 2.5310.
    """
    p = hist.probabilities()
    occupied = p[p > 0]
    return float(-(occupied * np.log(occupied)).sum() + np.log(hist.cell_area))


def tv_distance(h1: SphereHistogram, h2: SphereHistogram) -> float:
    """Total-variation distance (1/2) sum |p - q| between binned distributions."""
    h1._check_same_binning(h2)
    return float(0.5 * np.abs(h1.probabilities() - h2.probabilities()).sum())
