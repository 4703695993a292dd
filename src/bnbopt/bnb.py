"""Branch-and-bound optimizer: densify the lattice, then shrink the region."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import gp, kernels
from .errors import DimensionError
from .kernels import KernelSpec
from .lattice import DyadicGrid, RegionBall, point_keys


@dataclass(frozen=True)
class RunConfig:
    """Knobs for a single optimizer run.

    ``max_level=None`` keeps the grid's own refinement cap. ``seed`` is read
    only by `bench.random_run`; `run` and `bench.plain_ucb_run` are
    deterministic.
    """

    alpha: float = 0.05
    max_evaluations: int = 200
    jitter: float | None = None
    seed: int = 0
    max_level: int | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    """Bookkeeping for one densify-then-shrink iteration."""

    iteration: int
    level: int
    delta: float
    new_points_count: int
    T_after: int
    beta_T: float
    sup_lcb: float
    region_before: RegionBall
    region_after: RegionBall
    kept_count: int


@dataclass(frozen=True)
class ShrinkEvent:
    """Handed to a run observer after each shrink.

    ``record`` is the iteration's entry in ``RunTrace.iterations``; the
    arrays are the shrink candidates, their posterior mean and deviation,
    and the kept subset, which the trace does not keep.
    """

    record: IterationRecord
    candidates: np.ndarray
    mus: np.ndarray
    sigmas: np.ndarray
    kept: np.ndarray


@dataclass
class RunTrace:
    """Complete record of one run: evaluations in order plus shrink bookkeeping."""

    points: np.ndarray
    values: np.ndarray
    iterations: list[IterationRecord]
    truncated: bool = False
    _best_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if pts.ndim != 2 or vals.shape != (pts.shape[0],):
            raise ValueError("points must be (T, dim) with matching values")
        if not np.isfinite(vals).all():
            raise ValueError("observed values must be finite")
        self.points = pts
        self.values = vals
        best = np.zeros(len(vals), dtype=int)
        bi = 0
        for i in range(len(vals)):
            if vals[i] > vals[bi]:
                bi = i
            best[i] = bi
        self._best_index = best

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def incumbent_values(self) -> np.ndarray:
        """Best value seen up to each step (running maximum)."""
        return self.values[self._best_index]

    def incumbent(self, t: int) -> tuple[np.ndarray, float]:
        """Best (point, value) among evaluations 1..t; ties go to the earliest."""
        if not 1 <= t <= len(self):
            raise IndexError(f"t must lie in [1, {len(self)}], got {t}")
        i = int(self._best_index[t - 1])
        return self.points[i].copy(), float(self.values[i])


def beta(T: int, lattice_size: float, alpha: float) -> float:
    """Confidence multiplier 2 * ln(lattice_size * T^2 / alpha).

    ``lattice_size`` is the number of lattice points at the finest level of
    the run's grid, fixed for the whole run.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0, 1)")
    if not lattice_size > 0:
        raise ValueError("lattice_size must be positive")
    return 2.0 * math.log(float(lattice_size) * float(T) * float(T) / alpha)


def initial_region(grid: DyadicGrid) -> RegionBall:
    """Circumscribed ball of the domain box."""
    center = 0.5 * (grid.lower + grid.upper)
    return RegionBall(center, 0.5 * float(np.linalg.norm(grid.upper - grid.lower)))


_PROBE_CAP = 4096


def _probe_level(grid: DyadicGrid, region: RegionBall, level: int) -> int:
    """Deepest level whose region cover stays within ``_PROBE_CAP`` points.

    Shrink candidates live on this lattice, never coarser than one level
    past the sampled ``level``. As the region contracts, the probe level
    reaches the finest lattice, where the surviving set is exactly the fine
    lattice points whose UCB still clears the best LCB.
    """
    floor_level = min(level + 1, grid.max_level)
    for lev in range(grid.max_level, floor_level, -1):
        if grid.cover_window_size(region, lev) <= _PROBE_CAP:
            return lev
    return floor_level


def densify(post: gp.GPPosterior, cover: np.ndarray, objective, max_new: int):
    """Evaluate every not-yet-observed point of the cover, in its order.

    The cover comes from the lattice, not from the posterior, so all of it is
    evaluated first and then appended to the posterior in one block.
    Returns ``(post, truncated)``: the extended posterior, whose points and
    values past the old length are the ones added, and whether ``max_new``
    stopped the pass with an unseen cover point left. Idempotent for a fixed
    cover.
    """
    seen = set(point_keys(post.points))
    block = cover[np.array([key not in seen for key in point_keys(cover)], dtype=bool)]
    truncated = block.shape[0] > max_new
    if truncated:
        block = block[:max_new]
    values = [float(objective(p)) for p in block]
    return post.extend(block, values), truncated


def shrink(post: gp.GPPosterior, beta_value: float, candidates):
    """Keep candidates whose UCB clears the best LCB; enclose them in a ball.

    The comparison is non-strict (ucb >= sup lcb) so the LCB argmax itself
    always survives and ``kept`` is never empty. The ball is centred midway
    between the farthest kept pair with radius equal to their full distance.
    Returns (kept, new_region, sup_lcb, mus, sigmas), the last two being the
    posterior mean and deviation at the candidates.
    """
    cands = np.asarray(candidates, dtype=float)
    if cands.ndim != 2 or cands.shape[0] == 0:
        raise ValueError("candidates must be a nonempty (n, dim) array")
    if beta_value < 0.0:
        raise ValueError("beta must be nonnegative")
    root = math.sqrt(beta_value)
    mus, sigmas = post.predict_batch(cands)
    ucbs = mus + root * sigmas
    lcbs = mus - root * sigmas
    sup_lcb = float(lcbs.max())
    kept = cands[ucbs >= sup_lcb]
    i, j, dist = _farthest_pair(kept)
    region = RegionBall(0.5 * (kept[i] + kept[j]), dist)
    return kept, region, sup_lcb, mus, sigmas


# relative slack on the pruning radius; the distances' rounding is a few ulps
_PAIR_MARGIN = 1e-12


def _farthest_pair(points: np.ndarray) -> tuple[int, int, float]:
    """First row-major argmax (i, j) of the full matrix of Euclidean
    distances between the points, and its value.

    With r the distances to the bounding box's centre and lb the largest
    distance from the point of largest r, both ends of every pair at least
    lb apart have r >= lb - max(r) (triangle inequality). Only those points,
    in their original order, enter the exact distance matrix, so the indices
    and the distance bits are those of the full matrix at a fraction of its
    size (in 1-D, the two end points). The roots are taken before any
    argmax, as two squares can round to one root and the first of them wins.
    """
    mid = 0.5 * (points.min(axis=0) + points.max(axis=0))
    r = np.sqrt(kernels.sqdist(points, mid[None, :])[:, 0])
    far = int(np.argmax(r))
    lb = float(np.sqrt(kernels.sqdist(points[far:far + 1], points)).max())
    r_max = float(r[far])
    idx = np.flatnonzero(r >= lb - r_max - _PAIR_MARGIN * (lb + r_max))
    dists = np.sqrt(kernels.sqdist(points[idx], points[idx]))
    a, b = np.unravel_index(int(np.argmax(dists)), dists.shape)
    return int(idx[a]), int(idx[b]), float(dists[a, b])


def run(objective, spec: KernelSpec, grid: DyadicGrid, config: RunConfig,
        observer: Callable[[ShrinkEvent], None] | None = None) -> RunTrace:
    """Walk the lattice levels past ``grid.level``: sample each level's
    cover of the region, then shrink the region.

    Terminates when the region's radius hits zero, the evaluation budget is
    spent (truncated if that happens mid densify), or the finest level has
    been sampled. Deterministic for a fixed configuration. An objective
    with a box (``lower``, ``upper``) must have exactly the grid's box.
    """
    if spec.dim != grid.dim:
        raise DimensionError(
            f"kernel dimension {spec.dim} != grid dimension {grid.dim}"
        )
    obj_lower = getattr(objective, "lower", None)
    if obj_lower is not None and not (
        np.array_equal(obj_lower, grid.lower)
        and np.array_equal(objective.upper, grid.upper)
    ):
        raise ValueError("objective domain does not match the grid domain")
    if config.max_level is not None and config.max_level != grid.max_level:
        grid = replace(grid, max_level=config.max_level)
    lattice_size = grid.num_points(grid.max_level)
    post = gp.fit(spec, np.zeros((0, grid.dim)), np.zeros(0), config.jitter)
    region = initial_region(grid)
    iterations: list[IterationRecord] = []
    truncated = False

    for iteration, level in enumerate(range(grid.level + 1, grid.max_level + 1), 1):
        if len(post) >= config.max_evaluations:
            break
        before = len(post)
        post, truncated = densify(post, grid.cover_points(region, level),
                                  objective, config.max_evaluations - before)
        if truncated:
            break
        # Probe candidates on a finer lattice than the samples: between
        # samples the uncertainty still admits the maximum, so the surviving
        # set reflects the confidence bounds there, not just at the sampled
        # points. The probe level is never below the sampled one and dyadic
        # lattices nest bitwise, so every evaluated point inside the region
        # is already a probe point.
        candidates = grid.cover_points(region, _probe_level(grid, region, level))
        T = len(post)
        beta_T = beta(T, lattice_size, config.alpha)
        kept, new_region, sup_lcb, mus, sigmas = shrink(post, beta_T, candidates)
        record = IterationRecord(
            iteration=iteration,
            level=level,
            delta=grid.delta(level),
            new_points_count=T - before,
            T_after=T,
            beta_T=beta_T,
            sup_lcb=sup_lcb,
            region_before=region,
            region_after=new_region,
            kept_count=int(kept.shape[0]),
        )
        iterations.append(record)
        if observer is not None:
            observer(ShrinkEvent(record, candidates, mus, sigmas, kept))
        region = new_region
        if region.radius == 0.0:
            # the ball pinpoints a single lattice point: sample it, budget
            # permitting, before stopping so the conclusion is observed
            post, _ = densify(post, region.center[None, :], objective,
                              config.max_evaluations - len(post))
            break

    return RunTrace(post.points, post.values, iterations, truncated)
