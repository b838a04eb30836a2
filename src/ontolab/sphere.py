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

``uniform_coordinates`` works in float64 by default: that is the exact
path, whose bits every outcome has.  With ``trig_dtype=np.float32`` it
returns float32 coordinates, their sine and cosine taken in float32 of
float32(phi), some 20 times faster, and each coordinate then lies within
``FLOAT32_MARGIN / 8`` of the exact one.  ``dot`` keeps the coordinates'
dtype, so every later step of a kernel's float32 pass moves half the
bytes.  A kernel decides from these every outcome whose margin exceeds
``FLOAT32_MARGIN`` and recomputes the rest on the exact path
(``models.settle``), so no outcome changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

FULL_SOLID_ANGLE = 4.0 * np.pi

#: Outcomes whose margin exceeds this are decided in float32.  In units of
#: e = 2**-24, float32's relative rounding: float32(phi) is within 4e of
#: phi < 2*pi, which moves (x, y) by at most 4e; numpy's float32 sin and cos
#: are within about 1.5 float32 ulps, 1.5e, of the sine and cosine of their
#: argument; float32(r), the product r * s and float32(z) each round by e/2
#: at most.  So a float32 x or y lies within 6.5e ~ 3.9e-7 < 2**-21 =
#: FLOAT32_MARGIN / 8 of the float64 one, and z within e/2 (4.2e6
#: counter-mode uniforms: 4.6e at most).  Against a unit direction d, the
#: coordinate errors move a dot by at most 4e plus the length of the rest,
#: sqrt(2 * 2.5**2 + 0.5**2) e < 3.6e; casting d to float32, the three
#: products and the two sums add at most 4e * sum |d_k x_k| <= 4e: 11.6e ~
#: 6.9e-7 in all.  For x0 +- x1, formed in float32: twice 7.6e, e * |x0 +- x1|
#: <= 2e for the sums, and 4e * 2 for the dot: 25.2e ~ 1.5e-6.  Both are
#: under FLOAT32_MARGIN / 2 = 32e.  bb widens its dot to float64 before
#: Born's rule u < 0.5 * (1 + dot), which flips within a few float64 ulps of
#: dot = 2u - 1.
FLOAT32_MARGIN = 2.0**-18


def uniform_coordinates(u: np.ndarray, axes, trig_dtype=np.float64) -> dict[int, np.ndarray]:
    """Coordinates `axes` (0, 1, 2 for x, y, z) of the uniform points of uniforms u, shape (n, 2), as fresh `trig_dtype` arrays by axis.

    Equal-area construction: z = 2*u0 - 1, phi = 2*pi*u1, and
    (x, y) = r (cos phi, sin phi) with r = sqrt(max(0, 1 - z^2)); z, r and
    phi are computed once, in float64, for all the axes asked.  With
    ``trig_dtype=np.float32`` z and r are cast to float32 once, the sine
    and cosine are taken in float32 of float32(phi), and their products
    with r rounded to float32: z lies within 2**-25, and x and y within
    ``FLOAT32_MARGIN / 8``, of the float64 ones.
    """
    u = np.asarray(u, dtype=float)
    z = np.multiply(u[:, 0], 2.0)
    z -= 1.0
    columns = {}
    if {0, 1} & set(axes):
        # r from the float64 z: 1 - z^2 of a float32 z would lose r near the poles
        r = np.multiply(z, z)
        np.subtract(1.0, r, out=r)
        np.maximum(r, 0.0, out=r)
        np.sqrt(r, out=r)
        r = r.astype(trig_dtype, copy=False)
        phi = np.multiply(u[:, 1], 2.0 * np.pi).astype(trig_dtype, copy=False)
        for axis, trig in ((0, np.cos), (1, np.sin)):
            if axis in axes:
                columns[axis] = trig(phi)
                columns[axis] *= r
    columns[2] = z.astype(trig_dtype, copy=False)
    return {axis: columns[axis] for axis in axes}


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
    array of the coordinates' dtype: each component is cast to it first, so
    float32 coordinates give a float32 dot.  `direction` has a nonzero
    component, as every direction that passed ``qubit.unit_vector`` or
    ``qubit.heisenberg_direction`` has.
    """
    total = None
    for axis, component in enumerate(direction):
        if component != 0.0:
            coordinate = coordinates[axis]
            term = np.multiply(coordinate, coordinate.dtype.type(component))
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

    def add(self, cells: np.ndarray) -> "SphereHistogram":
        """Count each of the flat cell indices `cells` once; returns self."""
        self.counts += np.bincount(cells, minlength=self.nz * self.nphi).reshape(self.nz, self.nphi)
        return self

    def merge(self, other: "SphereHistogram") -> "SphereHistogram":
        """Add another histogram's counts (same binning); order-independent."""
        if (self.nz, self.nphi) != (other.nz, other.nphi):
            raise InvalidArgumentError(
                f"binning mismatch: {(self.nz, self.nphi)} vs {(other.nz, other.nphi)}"
            )
        self.counts += other.counts
        return self


def histogram_entropy(counts: np.ndarray, n_cells: int) -> float:
    """Plug-in differential entropy (nats) of integer counts over some of the `n_cells` cells of a grid, the rest empty.

    -sum(p ln p) over the nonzero counts plus ln(cell area); converges to
    -integral rho ln rho for a density rho on the sphere.  The uniform
    density scores ln(4*pi) ~ 2.5310.
    """
    total = counts.sum()
    if total == 0:
        raise InvalidArgumentError("histogram is empty")
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum() + np.log(FULL_SOLID_ANGLE / n_cells))
