"""Equal-area binning and uniform sampling on the unit sphere.

Cells are the product of nz slabs uniform in z = cos(theta) with nphi
azimuth sectors uniform in phi; the slab area element 2*pi*dz makes every
cell cover exactly 4*pi / (nz * nphi) of solid angle.  This grid is the
substrate for the histogram entropy estimator and the chi-square
distribution tests.

A cell is found one of two ways.  ``bin_index`` bins arbitrary unit
vectors through arctan2; an azimuth of -0.0 lies in sector 0, and at a pole
the sector follows the signs of the zeros: (+0.0, +0.0, z) lies in sector 0
and (-0.0, -0.0, z) in sector nphi/2.  ``uniform_cell`` gives the cell of
a uniform point from its uniforms alone, with no trigonometry.
The two agree except within a few rounding errors of a sector edge, where
the arctan2 round trip can land one sector off, and at the pole u0 == 0;
there the uniforms' cell, by the rule ``uniform_cell`` states, is the
defined one.

A kernel reads sphere points through ``uniform_coordinates``, for the
axes some direction it dots them with reads (``axes_read``), and dots them
with ``dot``: the sum of d_k times coordinate k over the nonzero components
d_k, in the order x, y, z.  numpy's elementwise multiply and add are
correctly rounded on every CPU, so a dot has the same bits on any machine
and on any subset of rows, which a BLAS gemv does not promise.
``sample_uniform_sphere`` stacks all three coordinates as unit vectors.

``uniform_coordinates`` takes its sine and cosine in float64 by default:
that is the exact path, whose bits every outcome has.  With
``trig_dtype=np.float32`` it takes them in float32 of float32(phi), some 20
times faster, and each coordinate then lies within ``FLOAT32_MARGIN / 8``
of the exact one.  A kernel decides from these every outcome whose margin
exceeds ``FLOAT32_MARGIN`` and recomputes the rest on the exact path
(``models.settle``), so no outcome changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

FULL_SOLID_ANGLE = 4.0 * np.pi

#: Outcomes whose margin exceeds this are decided from float32 trigonometry.
#: float32(phi) is within half a float32 ulp of phi < 2*pi, 2**-22, and
#: numpy's float32 sin and cos are within about 1.5 float32 ulps, 2**-23 at
#: most, of the sine and cosine of their argument; r <= 1 and r * s rounds
#: to within 2**-53.  So a float32 x or y lies within about 3.6e-7 < 2**-21
#: = FLOAT32_MARGIN / 8 of the float64 one (4.2e6 counter-mode uniforms:
#: 2.55e-7 at most).  A dot with a unit direction then moves by at most
#: sqrt(2) * 2**-21 per point, and by twice that for the sum or difference of
#: two points, under FLOAT32_MARGIN / 2.  Born's rule u < 0.5 * (1 + dot)
#: flips within a few float64 ulps of dot = 2u - 1.
FLOAT32_MARGIN = 2.0**-18


def uniform_coordinates(u: np.ndarray, axes, trig_dtype=np.float64) -> dict[int, np.ndarray]:
    """Coordinates `axes` (0, 1, 2 for x, y, z) of the uniform points of uniforms u, shape (n, 2), as fresh arrays by axis.

    Equal-area construction: z = 2*u0 - 1, phi = 2*pi*u1, and
    (x, y) = r (cos phi, sin phi) with r = sqrt(max(0, 1 - z^2)); z, r and
    phi are computed once for all the axes asked.  With
    ``trig_dtype=np.float32`` the sine and cosine are taken in float32 of
    float32(phi), within ``FLOAT32_MARGIN / 8`` of the float64 ones; z is
    exact either way.
    """
    u = np.asarray(u, dtype=float)
    columns = {axis: np.empty(len(u)) for axis in axes}
    z = columns.get(2, np.empty(len(u)))
    np.multiply(u[:, 0], 2.0, out=z)
    z -= 1.0
    if columns.keys() & {0, 1}:
        r = np.multiply(z, z)
        np.subtract(1.0, r, out=r)
        np.maximum(r, 0.0, out=r)
        np.sqrt(r, out=r)
        phi = np.multiply(u[:, 1], 2.0 * np.pi).astype(trig_dtype, copy=False)
        for axis, trig in ((0, np.cos), (1, np.sin)):
            if axis in columns:
                trig(phi, out=columns[axis])
                columns[axis] *= r
    return columns


def axes_read(*directions) -> tuple[int, ...]:
    """The axes whose coordinates ``dot`` reads for some of the 3-vectors `directions`, and z.

    x and y are read where some direction has a nonzero component along
    them (a -0.0 reads nothing).  z always is: ``uniform_coordinates``
    computes it on the way to x and y.
    """
    return (*(axis for axis in (0, 1) if any(d[axis] != 0.0 for d in directions)), 2)


def dot(coordinates, direction) -> np.ndarray:
    """The sum of d_k * coordinates[k] over the nonzero components d_k of `direction`, in the order x, y, z.

    `coordinates` maps an axis to its array, as ``uniform_coordinates``
    returns them, or is an (n, 3) array's transpose.  The result is a fresh
    array.  `direction` has a nonzero component, as every direction that
    passed ``qubit.unit_vector`` or ``qubit.heisenberg_direction`` has.
    """
    total = None
    for axis, component in enumerate(direction):
        if component != 0.0:
            term = np.multiply(coordinates[axis], component)
            total = term if total is None else np.add(total, term, out=total)
    return total


def sample_uniform_sphere(u: np.ndarray) -> np.ndarray:
    """Map uniforms u of shape (n, 2) to points uniform on S^2, as a C-ordered (n, 3) array of unit vectors.

    The columns are ``uniform_coordinates``.
    """
    return np.column_stack(list(uniform_coordinates(u, (0, 1, 2)).values()))


def uniform_cell(u: np.ndarray, nz: int, nphi: int) -> np.ndarray:
    """Flat cell index in [0, nz*nphi) of the uniform point of u, for uniforms u in [0, 1) of shape (n, 2).

    Slab floor(u0 * nz) and sector floor(u1 * nphi), each product rounded
    to a double.  For u0 on the 2**-53 grid of ``rng``, ((2*u0 - 1) + 1) *
    0.5 == u0 exactly, so the slab is the one bin_index finds.  The sector
    is the cell of the exact azimuth 2*pi*u1, except where u1 * nphi rounds
    up onto a sector edge, which puts the point in the sector above.  No
    clip is needed: for u < 1 the exact product u*n lies at least n*2**-53
    below n, which is more than half the spacing of the doubles just below
    n unless it lands on one of them, so floor(u*n) <= n - 1.
    """
    u = np.asarray(u, dtype=float)
    flat = np.multiply(u[:, 0], nz).astype(np.int64)
    flat *= nphi
    flat += np.multiply(u[:, 1], nphi).astype(np.int64)
    return flat


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

    def add(self, cells: np.ndarray, counts: np.ndarray | None = None) -> "SphereHistogram":
        """Accumulate flat cell indices, each counted `counts` times (default once); returns self.

        One bincount, so a cell listed twice gets both counts: two atoms may
        share a cell.  Counts are summed as doubles, exact below 2**53.
        """
        added = np.bincount(cells, counts, self.n_bins)
        self.counts += added.astype(np.int64, copy=False).reshape(self.nz, self.nphi)
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
