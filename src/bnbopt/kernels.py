"""Stationary covariance kernels with one lengthscale per input axis."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionError

FAMILIES = ("se", "matern52")

_SQRT5 = math.sqrt(5.0)
# fourth derivative at zero of t -> profile(t^2), from the Taylor series:
# e^{-t^2/2} = 1 - t^2/2 + t^4/8 - ... and, for Matern-5/2,
# 1 - 5t^2/6 + 25t^4/24 - ..., so d4 = 4! times the t^4 coefficient
_PROFILE_D4 = {"se": 3.0, "matern52": 25.0}
# entries per row block of the distance helpers: a block and its scratch
# block stay in cache, and no second n x m array is held
_BLOCK = 1 << 15
# from this many axis differences (n * m * dim) in a call of four rows or
# more, BLAS products give them (see sqdist): numpy broadcasting a column
# against a row costs more per entry, but in a smaller call setting up the
# products' operands costs more than they save, and with one to three rows
# the products lose at every size measured. Each path wins where it runs.
# Calls at seed 0 of the perfbench workloads, broadcast / BLAS: regret-1d
# 5,077 / 36 (4.39M / 2.12M entries), envelope-1d 6,794 / 3, bowl-1d
# 101 / 68 (0.08M / 10.4M entries), bowl-3d 120 / 114 (0.06M / 17.2M).
# On one BLAS thread of a 2-core Xeon, BLAS alone makes a small call about
# 40 % slower (a 1 x 1025 pairwise, 9 to 13 us), and broadcasting alone
# makes large blocks 14 to 64 % slower (d = 1 4096 x 1500, d = 3
# 4096 x 1000). The four-row clause decides none of those calls; it decides
# UCB rows over a 1-D lattice of level 13 or finer
_BLAS_MIN = 1 << 13


@dataclass(frozen=True)
class KernelSpec:
    """Covariance kernel description.

    The covariance of two points is ``output_scale * profile(r)`` where the
    scaled distance satisfies ``r^2 = sum_i ((x_i - y_i) / lengthscales[i])^2``:
    each axis is divided by its own lengthscale before the isotropic profile
    is applied, so a short lengthscale makes correlation decay fast along
    that axis.
    """

    family: str
    output_scale: float
    lengthscales: tuple[float, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {FAMILIES}"
            )
        scales = tuple(float(v) for v in self.lengthscales)
        object.__setattr__(self, "lengthscales", scales)
        object.__setattr__(self, "output_scale", float(self.output_scale))
        if not scales:
            raise ValueError("dim must be a positive integer: no lengthscales")
        if any(not 0.0 < v < math.inf for v in scales):
            raise ValueError("lengthscales must all be finite and strictly positive")
        if not 0.0 < self.output_scale < math.inf:
            raise ValueError("output_scale must be finite and strictly positive")

    @property
    def dim(self) -> int:
        """Input dimension: one lengthscale per axis."""
        return len(self.lengthscales)

    @classmethod
    def isotropic(cls, family: str, dim: int, lengthscale: float,
                  output_scale: float = 1.0) -> "KernelSpec":
        """Spec with the same lengthscale on every axis."""
        return cls(family, output_scale, (float(lengthscale),) * dim)


def as_point(spec: KernelSpec, x) -> np.ndarray:
    """Coerce to a float vector of the kernel's input dimension."""
    p = np.asarray(x, dtype=float)
    if p.shape != (spec.dim,):
        raise DimensionError(
            f"expected a point of dimension {spec.dim}, got shape {p.shape}"
        )
    return p


def as_points(spec: KernelSpec, points) -> np.ndarray:
    """Coerce to an (n, dim) float array; n may be zero."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, spec.dim)
    if arr.ndim != 2 or arr.shape[1] != spec.dim:
        raise DimensionError(
            f"expected points of shape (n, {spec.dim}), got {arr.shape}"
        )
    return arr


def _profile(family: str, sq):
    """Unit-scale isotropic profile as a function of the scaled squared distance."""
    if family == "se":
        return np.exp(-0.5 * sq)
    r = np.sqrt(sq)
    return (1.0 + _SQRT5 * r + (5.0 / 3.0) * sq) * np.exp(-_SQRT5 * r)


def _block_rows(m: int) -> int:
    """Rows in a row block of a distance matrix with m columns."""
    return max(1, _BLOCK // max(m, 1))


def sqdist(a: np.ndarray, b: np.ndarray, each=None) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` (n, dim) and
    ``b`` (m, dim), shape (n, m).

    Each entry is ``(a_0 - b_0)^2 + (a_1 - b_1)^2 + ...`` summed in axis
    order, as SciPy's ``cdist(a, b, "sqeuclidean")`` sums it, so the bits
    are the same. A large matrix is filled a row block of about 2^15 entries
    at a time, every axis inside the block, so no second (n, m) array is
    held; ``each``, if given, is called on every block once it is filled,
    while it is in cache. A small call, or one of under four rows, is one
    block whose differences come from one broadcast over all axes, which
    holds at most ``dim`` arrays of its size.
    """
    (n, d), m = a.shape, len(b)
    if n < 4 or n * m * d < _BLAS_MIN:
        # one broadcast gives every axis's differences; numpy broadcasts
        # contiguous axis rows several times faster than strided ones
        ac = np.ascontiguousarray(a.T)
        bc = np.ascontiguousarray(b.T)
        sq = ac[:, :, None] - bc[:, None, :]
        sq *= sq
        out = sq[0] if d == 1 else np.add(sq[0], sq[1])
        for k in range(2, d):
            out += sq[k]
        if each is not None:
            each(out)
        return out
    # left[k] @ right[k] has entries a[i, k] * 1 + -1 * b[j, k]: both
    # products are exact, so each is a - b rounded once, whatever order or
    # fusing the BLAS kernel uses
    left = np.empty((d, n, 2))
    left[:, :, 1] = -1.0
    left[:, :, 0] = a.T
    right = np.empty((d, 2, m))
    right[:, 0] = 1.0
    right[:, 1] = b.T
    out = np.empty((n, m))
    rows = _block_rows(m)
    tmp = np.empty((min(rows, n), m))
    for s in range(0, n, rows):
        blk = out[s:s + rows]
        np.matmul(left[0, s:s + rows], right[0], out=blk)
        blk *= blk
        for k in range(1, d):
            sq = tmp[:len(blk)]
            np.matmul(left[k, s:s + rows], right[k], out=sq)
            sq *= sq
            blk += sq
        if each is not None:
            each(blk)
    return out


def min_dist(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """Least Euclidean distance from a row of ``a`` to a row of ``b``, or,
    with ``b`` None, between two different rows of ``a``; inf with no pair.

    The bits of SciPy's ``cdist(a, b).min()`` and ``pdist(a).min()``: the
    square root is monotone, so the root of the least square is the least
    root. The squares come a row block at a time, so no (n, m) array is
    held.
    """
    same = b is None
    if same:
        b = a
    rows = _block_rows(len(b))
    least = math.inf
    for s in range(0, len(a), rows):
        sq = sqdist(a[s:s + rows], b)
        if same:
            # each row meets its own point
            np.fill_diagonal(sq[:, s:], math.inf)
        if sq.size:
            least = min(least, float(sq.min()))
    return math.sqrt(least)


def _apply_profile(spec: KernelSpec, sq: np.ndarray) -> None:
    """Overwrite scaled squared distances with their covariances: the bits
    of ``spec.output_scale * _profile(spec.family, sq)``."""
    if spec.family == "se":
        sq *= -0.5
        np.exp(sq, out=sq)
    else:
        # _profile's Matern steps, reordered only where IEEE + and * commute
        # and -(sqrt5 * r) == (-sqrt5) * r, so the bits are the same
        r = np.sqrt(sq)
        r *= _SQRT5
        sq *= 5.0 / 3.0
        sq += r + 1.0
        np.negative(r, out=r)
        np.exp(r, out=r)
        sq *= r
    sq *= spec.output_scale


def pairwise(spec: KernelSpec, points_a, points_b) -> np.ndarray:
    """Covariance matrix between two point sets, shape (len(a), len(b))."""
    # the profile works on each distance block while it is in cache: a Gram
    # matrix is the largest array a fit holds
    ls = np.asarray(spec.lengthscales)
    return sqdist(as_points(spec, points_a) / ls, as_points(spec, points_b) / ls,
                  partial(_apply_profile, spec))


def evaluate(spec: KernelSpec, x, y) -> float:
    """Covariance between two points."""
    xp = as_point(spec, x)
    yp = as_point(spec, y)
    diff = (xp - yp) / np.asarray(spec.lengthscales)
    return float(spec.output_scale * _profile(spec.family, float(diff @ diff)))


def smoothness_constant(spec: KernelSpec) -> float:
    """Constant Q bounding the posterior deviation by Q * delta^2 / 4 on covers.

    Defined through the curvature of the covariance along the diagonal:
    Q = sqrt(output_scale * d4) / min(lengthscale)^2, with d4 the exact
    fourth derivative of the unit profile at zero. Scales like
    sqrt(output_scale) and like 1/c^2 when all lengthscales are scaled by c.
    """
    d4 = _PROFILE_D4[spec.family]
    return math.sqrt(spec.output_scale * d4) / min(spec.lengthscales) ** 2
