"""Stationary covariance kernels with one lengthscale per input axis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DimensionError

FAMILIES = ("se", "matern52")

_SQRT5 = math.sqrt(5.0)
# fourth derivative at zero of t -> profile(t^2), from the Taylor series:
# e^{-t^2/2} = 1 - t^2/2 + t^4/8 - ... and, for Matern-5/2,
# 1 - 5t^2/6 + 25t^4/24 - ..., so d4 = 4! times the t^4 coefficient
_PROFILE_D4 = {"se": 3.0, "matern52": 25.0}


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


def pairwise(spec: KernelSpec, points_a, points_b) -> np.ndarray:
    """Covariance matrix between two point sets, shape (len(a), len(b))."""
    a = as_points(spec, points_a)
    b = as_points(spec, points_b)
    ls = np.asarray(spec.lengthscales)
    sq = cdist(a / ls, b / ls, "sqeuclidean")
    # work in the cdist buffer: a Gram matrix is the largest array a fit holds
    if spec.family == "se":
        sq *= -0.5
        np.exp(sq, out=sq)
    else:
        # _profile's Matern steps, reordered only where IEEE + and * commute
        # and -(sqrt5 * r) == (-sqrt5) * r, so the bits are the same
        a = np.sqrt(sq)
        a *= _SQRT5
        sq *= 5.0 / 3.0
        sq += a + 1.0
        np.negative(a, out=a)
        np.exp(a, out=a)
        sq *= a
    sq *= spec.output_scale
    return sq


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
