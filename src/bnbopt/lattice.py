"""Dyadic lattices over axis-aligned boxes, and ball-shaped search regions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, GridTooLargeError

_ENUM_CAP = 2_000_000


def point_keys(points: np.ndarray):
    """The rows of an (n, dim) array as tuples of floats, one per point.

    Lattice points are named by these tuples: dyadic lattices nest bitwise,
    so equal tuples are the same point at any level. Built from the columns,
    with no list per row.
    """
    return zip(*points.T.tolist())


@dataclass(frozen=True)
class RegionBall:
    """Closed Euclidean ball."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1:
            raise ValueError("center must be a 1-d point")
        if not 0.0 <= self.radius < math.inf:
            raise ValueError("radius must be finite and nonnegative")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    def contains(self, x) -> bool:
        """True when x lies in the ball."""
        p = np.asarray(x, dtype=float)
        return float(np.sqrt(((p - self.center) ** 2).sum())) <= self.radius


@dataclass(frozen=True)
class DyadicGrid:
    """Nested lattice of dyadic points over the box [lower, upper].

    Level-``l`` points are ``lower + k * (upper - lower) / 2^l`` for integer
    multi-indices ``k`` in ``[0, 2^l]^dim``; every point of level ``l`` is a
    point of level ``l + 1``, bitwise, so refinement never moves a sample.
    Every query names its level. ``level`` is only where a run starts:
    `bnb.run` samples the levels ``level + 1`` to ``max_level``.
    """

    lower: np.ndarray
    upper: np.ndarray
    level: int
    max_level: int
    # upper - lower and its norm, fixed by the box; every level divides them
    _span: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _diag: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != up.shape:
            raise ValueError("lower and upper must be 1-d arrays of equal shape")
        if not (np.isfinite(lo).all() and np.isfinite(up).all()):
            raise ValueError("lower and upper must be finite")
        if not np.all(lo < up):
            raise ValueError("lower must be strictly below upper componentwise")
        if self.max_level < 1:
            raise ValueError("max_level must be at least 1")
        if not 0 <= self.level <= self.max_level:
            raise ValueError("level must lie in [0, max_level]")
        # finite bounds can still be too far apart for a float; say so here,
        # not through the inf or nan that would follow
        with np.errstate(over="ignore"):
            span = up - lo
            # np.linalg.norm of a real vector is sqrt(x.dot(x)), without its overhead
            diag = math.sqrt(span.dot(span))
        if not math.isfinite(diag):
            raise ValueError("upper - lower overflows: the box is too wide for floats")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "_span", tuple(span.tolist()))
        object.__setattr__(self, "_diag", diag)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def delta(self, level: int) -> float:
        """Cell diagonal at the level.

        Exactly halves for each level increment (division by a power of two).
        """
        return self._diag / float(2**level)

    def num_points(self, level: int) -> int:
        return (2**level + 1) ** self.dim

    def points(self, level: int) -> np.ndarray:
        """All lattice points at the level, in lexicographic order."""
        if not 0 <= level <= self.max_level:
            raise ValueError("level must lie in [0, max_level]")
        return self._enumerate(level, [0] * self.dim, [2**level] * self.dim)

    def _enumerate(self, level: int, k_lo: list[int], k_hi: list[int]) -> np.ndarray:
        """Level points with per-axis indices in [k_lo, k_hi], lexicographically.

        The point of index k is ``lower + k * ((upper - lower) / 2^level)``,
        so the same index gives the same float whichever window enumerates it.
        """
        counts = [hi - lo + 1 for lo, hi in zip(k_lo, k_hi)]
        size = math.prod(counts)
        if size > _ENUM_CAP:
            raise GridTooLargeError(
                f"{size} lattice points exceed the {_ENUM_CAP} enumeration cap"
            )
        out = np.empty((size, self.dim))
        cells = out.reshape(*counts, self.dim)  # a view: cells[k] is one point
        scale = float(2**level)
        for i, (lo, span) in enumerate(zip(self.lower.tolist(), self._span)):
            shape = [1] * self.dim
            shape[i] = counts[i]
            axis = lo + np.arange(k_lo[i], k_hi[i] + 1) * (span / scale)
            cells[..., i] = axis.reshape(shape)
        return out

    def _window(self, region: RegionBall, level: int):
        """Per-axis index window (k_lo, k_hi) holding the level's cover of the region.

        The window is a superset, padded by one cell, of the points within
        ``radius + delta(level)`` of the centre. None when the region misses
        the box. Works on Python floats, axis by axis; a centre outside the
        box has its distance to the box summed by numpy, whose summation order
        sets the last bit from 8 axes on.
        """
        c = region.center
        if c.shape != (self.dim,):
            raise DimensionError(
                f"region center has shape {c.shape}, expected ({self.dim},)"
            )
        center = c.tolist()
        lower = self.lower.tolist()
        outside = [max(lo - x, 0.0) + max(x - up, 0.0)
                   for lo, x, up in zip(lower, center, self.upper.tolist())]
        if any(outside) and float(np.sqrt(np.square(outside).sum())) > region.radius:
            return None
        top = 2**level
        scale = float(top)
        reach = region.radius + self._diag / scale
        k_lo, k_hi = [], []
        for x, lo, span in zip(center, lower, self._span):
            h = span / scale
            a = max(math.floor((x - reach - lo) / h) - 1, 0)
            b = min(math.ceil((x + reach - lo) / h) + 1, top)
            k_lo.append(a)
            k_hi.append(b)
        return k_lo, k_hi

    def cover_window_size(self, region: RegionBall, level: int) -> int:
        """Upper bound on the cover enumeration size at a level, in O(dim) time."""
        window = self._window(region, level)
        if window is None:
            return 0
        k_lo, k_hi = window
        return math.prod(hi - lo + 1 for lo, hi in zip(k_lo, k_hi))

    def cover_points(self, region: RegionBall, level: int) -> np.ndarray:
        """Level lattice points within the region dilated by one cell diagonal.

        Every point of the (ball-and-box) region then lies in a cell whose
        corners are all returned, so it is within ``delta(level)`` of a
        returned point. A region disjoint from the box yields an empty array.
        Requires ``1 <= level <= max_level``.
        """
        if not 1 <= level <= self.max_level:
            raise ValueError("cover_points requires 1 <= level <= max_level")
        window = self._window(region, level)
        if window is None:
            return np.zeros((0, self.dim))
        pts = self._enumerate(level, *window)
        dist = np.sqrt(((pts - region.center) ** 2).sum(axis=1))
        return pts[dist <= region.radius + self.delta(level)]
