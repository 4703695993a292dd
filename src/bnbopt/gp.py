"""Exact noise-free Gaussian-process posterior."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist, pdist

from . import kernels
from .errors import DuplicateObservationError, IllConditionedError

DEFAULT_JITTER_FACTOR = 1e-10
JITTER_CAP_FACTOR = 1e-6
DUPLICATE_TOL = 1e-12


def _factor(K: np.ndarray, jitter: float, scale: float, points: np.ndarray):
    """Cholesky of K + jitter*I, escalating jitter tenfold up to the cap.

    Adds the jitter to K's diagonal in place, so K is overwritten.
    Returns (lower_factor, jitter_actually_used).
    """
    cap = JITTER_CAP_FACTOR * scale
    j = float(jitter)
    n = K.shape[0]
    diag = K.diagonal().copy()
    while True:
        np.fill_diagonal(K, diag + j)
        try:
            return np.linalg.cholesky(K), j
        except np.linalg.LinAlgError:
            nxt = j * 10.0 if j > 0.0 else 0.01 * DEFAULT_JITTER_FACTOR * scale
            if nxt > cap:
                dmin = float(pdist(points).min()) if n > 1 else math.inf
                raise IllConditionedError(
                    f"Gram matrix not factorizable at jitter {j:g} "
                    f"(cap {cap:g}); closest point pair distance {dmin:g}",
                    min_pair_distance=dmin,
                    jitter=j,
                ) from None
            j = nxt


@dataclass(frozen=True)
class GPPosterior:
    """Posterior after exact observations of a zero-mean GP.

    ``points`` (n, dim) and ``values`` (n,) are the observations in the
    order they were made. ``chol`` is the lower-triangular factor L of
    K + jitter*I, with K the Gram matrix of the points, and ``whitened`` is
    L^-1 values, so the mean at x is (L^-1 K(X, x))^T whitened. Instances
    are immutable; :meth:`extend` returns a new posterior.
    """

    spec: kernels.KernelSpec
    points: np.ndarray
    values: np.ndarray
    jitter: float
    chol: np.ndarray
    whitened: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]

    def predict_batch(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean/deviation over an (m, dim) array, both from one
        Fortran-order kernel block solved in place: v = L^-1 K(X, x)."""
        x = kernels.as_points(self.spec, xs)
        v = solve_triangular(self.chol, kernels.pairwise(self.spec, x, self.points).T,
                             lower=True, overwrite_b=True, check_finite=False)
        var = self.spec.output_scale - np.einsum("ij,ij->j", v, v)
        # negative roundoff clamped before the square root
        return v.T @ self.whitened, np.sqrt(np.clip(var, 0.0, None))

    def extend(self, points, values) -> "GPPosterior":
        """Posterior with a block of m extra observations, via a block factor append.

        With L the current factor and B the new points, C = L^-1 K(X, B) and
        the Schur complement S = K(B, B) + jitter*I - C^T C give the new
        factor [[L, 0], [C^T, chol(S)]] (the block form of Rasmussen &
        Williams 2006, Alg. 2.1); ``whitened`` keeps its entries and gains
        chol(S)^-1 (y_B - C^T whitened). Costs O(n^2 m + n m^2 + m^3) instead
        of a full refit; falls back to a refit (with jitter escalation) if S is
        not positive definite. Points closer than ``DUPLICATE_TOL`` to an
        observed point or to each other are rejected. An empty block returns
        this posterior.
        """
        block = kernels.as_points(self.spec, points)
        n, m = len(self), block.shape[0]
        _check_new(self.points, block)
        pts = np.vstack([self.points, block])
        vals = np.append(self.values, np.asarray(values, dtype=float))
        if vals.shape != (n + m,):
            raise ValueError("points and values must have matching lengths")
        if m == 0:
            return self
        # K(X, B) over K(B, B): every entry is computed on its own, so one
        # kernel block gives the bits of two
        kb = kernels.pairwise(self.spec, pts, block)
        c, corner = _schur_step(self.chol, kb[:n], kb[n:], self.jitter)
        if corner is None:
            return fit(self.spec, pts, vals, self.jitter)
        chol = np.zeros((n + m, n + m))
        chol[:n, :n] = self.chol
        chol[n:, :n] = c.T
        chol[n:, n:] = corner
        whitened = np.append(self.whitened, solve_triangular(
            corner, vals[n:] - c.T @ self.whitened, lower=True, check_finite=False))
        return GPPosterior(self.spec, pts, vals, self.jitter, chol, whitened)


def _check_new(observed: np.ndarray, block: np.ndarray) -> None:
    """Reject a block with a point within ``DUPLICATE_TOL`` of an observed
    point or of another point of the block."""
    gap = math.inf
    if len(observed) and len(block):
        gap = float(cdist(observed, block).min())
    if len(block) > 1:
        gap = min(gap, float(pdist(block).min()))
    if gap < DUPLICATE_TOL:
        raise DuplicateObservationError(
            f"point already observed or repeated in the block (distance {gap:g})"
        )


def _schur_step(chol: np.ndarray, k: np.ndarray, kbb: np.ndarray,
                jitter: float):
    """The rows a block of m points appends to the lower factor ``chol``.

    With k = K(X, B) of shape (n, m) and kbb = K(B, B), returns C = L^-1 k
    and the factor of the Schur complement kbb + jitter*I - C^T C, or None in
    its place when that complement is not positive definite. The new factor
    is [[L, 0], [C^T, corner]].
    """
    c = solve_triangular(chol, k, lower=True, check_finite=False)
    # one m x m buffer; kbb may be a view into a caller's array. Adding the
    # jitter to the diagonal alone gives the bits of kbb + jitter*I, as
    # kernel entries are >= +0.0
    schur = kbb.copy()
    schur.flat[::schur.shape[0] + 1] += jitter
    schur -= c.T @ c
    try:
        return c, np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        return c, None


def fit(spec: kernels.KernelSpec, points, values,
        jitter: float | None = None) -> GPPosterior:
    """Factor the jittered Gram matrix and whiten the values: L^-1 values.

    ``points`` is (n, dim) with one value each; exact duplicate points raise
    :class:`DuplicateObservationError`. ``jitter=None`` uses
    1e-10 * output_scale; a failed factorization escalates the jitter tenfold
    up to 1e-6 * output_scale before raising :class:`IllConditionedError`.
    """
    if jitter is None:
        jitter = DEFAULT_JITTER_FACTOR * spec.output_scale
    if jitter < 0.0:
        raise ValueError("jitter must be nonnegative")
    pts = kernels.as_points(spec, points)
    vals = np.asarray(values, dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValueError("points and values must have matching lengths")
    if pts.shape[0] > 1 and np.unique(pts, axis=0).shape[0] != pts.shape[0]:
        raise DuplicateObservationError(
            "observation points must be pairwise distinct"
        )
    if pts.shape[0] == 0:
        return GPPosterior(spec, pts, vals, float(jitter), np.zeros((0, 0)),
                           np.zeros(0))
    K = kernels.pairwise(spec, pts, pts)
    chol, used = _factor(K, jitter, spec.output_scale, pts)
    whitened = solve_triangular(chol, vals, lower=True, check_finite=False)
    return GPPosterior(spec, pts, vals, used, chol, whitened)


def sample_prior_on_grid(spec: kernels.KernelSpec, grid_points, seed: int,
                         jitter: float | None = None) -> np.ndarray:
    """One zero-mean prior draw at the given points, deterministic per seed."""
    pts = kernels.as_points(spec, grid_points)
    prior = fit(spec, pts, np.zeros(pts.shape[0]), jitter)
    return prior_draw(prior, seed)


def prior_draw(prior: GPPosterior, seed: int) -> np.ndarray:
    """One zero-mean prior draw at ``prior``'s points, deterministic per seed.

    Reads only the factor, so one zero-valued :func:`fit` on a point set
    serves every seed drawn there. Each draw is one matrix-vector product
    ``chol @ z``; stacking seeds into a matrix product may round differently.
    """
    z = np.random.default_rng(seed).standard_normal(len(prior))
    return prior.chol @ z
