"""Exact noise-free Gaussian-process posterior."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

from . import kernels
from .errors import DuplicateObservationError, IllConditionedError

DEFAULT_JITTER_FACTOR = 1e-10
JITTER_CAP_FACTOR = 1e-6
DUPLICATE_TOL = 1e-12


def _solve_lower(chol: np.ndarray, b: np.ndarray,
                 overwrite_b: bool = False) -> np.ndarray:
    """L^-1 b for a C-order lower factor L, with the bits of
    ``solve_triangular(chol, b, lower=True)``.

    ``chol.T`` is L^T in Fortran order, so this is the one LAPACK call that
    ``solve_triangular`` makes for a C-order factor, without its argument
    checks. ``chol`` may be the first n rows of a wider C-order buffer: its
    row stride is LAPACK's leading dimension, and LAPACK reads only the
    leading n x n block, so that block is not copied. ``dtrtrs`` rejects an
    empty factor, and OpenBLAS says so on the C stdout, so an empty factor
    or right-hand side returns zeros of b's shape without the call. The
    factor's diagonal is positive, so info is 0.
    """
    if b.size == 0:
        return np.zeros(b.shape)
    x, _ = dtrtrs(chol.T, b, lower=0, trans=1, overwrite_b=overwrite_b)
    return x


def _factor(K: np.ndarray, jitter: float, scale: float, points: np.ndarray):
    """Cholesky of K + jitter*I, escalating jitter tenfold up to the cap.

    Adds the jitter to K's diagonal in place, so K is overwritten.
    Returns (lower_factor, jitter_actually_used).
    """
    cap = JITTER_CAP_FACTOR * scale
    j = float(jitter)
    diag = K.diagonal().copy()
    while True:
        np.fill_diagonal(K, diag + j)
        try:
            return np.linalg.cholesky(K), j
        except np.linalg.LinAlgError:
            nxt = j * 10.0 if j > 0.0 else 0.01 * DEFAULT_JITTER_FACTOR * scale
            if nxt > cap:
                dmin = kernels.min_dist(points)
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
        v = _solve_lower(self.chol, kernels.pairwise(self.spec, xs, self.points).T,
                         overwrite_b=True)
        var = self.spec.output_scale - np.einsum("ij,ij->j", v, v)
        # negative roundoff clamped before the square root, in place
        np.maximum(var, 0.0, out=var)
        return v.T @ self.whitened, np.sqrt(var, out=var)

    def extend(self, points, values) -> "GPPosterior":
        """Posterior with a block of m extra observations, via a block factor append.

        With L the current factor and B the new points, C = L^-1 K(X, B) and
        the Schur complement S = K(B, B) + jitter*I - C^T C give the new
        factor [[L, 0], [C^T, chol(S)]] (the block form of Rasmussen &
        Williams 2006, Alg. 2.1); ``whitened`` keeps its entries and gains
        chol(S)^-1 (y_B - C^T whitened). Costs O(n^2 m + n m^2 + m^3) instead
        of a full refit; falls back to a refit (with jitter escalation) if S is
        not positive definite. The block is checked as :func:`fit` checks its
        points, and against the observed points too. An empty block returns
        this posterior.
        """
        block, bvals = _check_new(self.spec, self.points, points, values)
        n, m = len(self), block.shape[0]
        if m == 0:
            return self
        pts = np.concatenate([self.points, block])
        vals = np.concatenate([self.values, bvals])
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
        whitened = np.concatenate(
            [self.whitened, _solve_lower(corner, bvals - c.T @ self.whitened)])
        return GPPosterior(self.spec, pts, vals, self.jitter, chol, whitened)


def _check_new(spec: kernels.KernelSpec, observed: np.ndarray, points,
               values) -> tuple[np.ndarray, np.ndarray]:
    """A block of new observations as (m, dim) points and m values.

    Rejects non-finite values, and a point within ``DUPLICATE_TOL`` of an
    observed point or of another point of the block.
    """
    block = kernels.as_points(spec, points)
    vals = np.asarray(values, dtype=float)
    if vals.shape != (block.shape[0],):
        raise ValueError("points and values must have matching lengths")
    if not np.isfinite(vals).all():
        raise ValueError("observed values must be finite")
    gap = math.inf
    if len(observed) and len(block):
        gap = kernels.min_dist(observed, block)
    if len(block) > 1:
        # a row block at a time, so a large fit holds no n x n array
        gap = min(gap, kernels.min_dist(block))
    if gap < DUPLICATE_TOL:
        raise DuplicateObservationError(
            f"point already observed or repeated in the block (distance {gap:g})"
        )
    return block, vals


def _schur_step(chol: np.ndarray, k: np.ndarray, kbb: np.ndarray,
                jitter: float):
    """The rows a block of m points appends to the lower factor ``chol``.

    With k = K(X, B) of shape (n, m) and kbb = K(B, B), returns C = L^-1 k
    and the factor of the Schur complement kbb + jitter*I - C^T C, or None in
    its place when that complement is not positive definite. The new factor
    is [[L, 0], [C^T, corner]].
    """
    c = _solve_lower(chol, k)
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

    ``points`` is (n, dim) with one finite value each; two points closer
    than ``DUPLICATE_TOL`` raise :class:`DuplicateObservationError`, as in
    :meth:`GPPosterior.extend`. ``jitter=None`` uses 1e-10 * output_scale;
    a failed factorization escalates the jitter tenfold up to
    1e-6 * output_scale before raising :class:`IllConditionedError`.
    """
    if jitter is None:
        jitter = DEFAULT_JITTER_FACTOR * spec.output_scale
    if jitter < 0.0:
        raise ValueError("jitter must be nonnegative")
    pts, vals = _check_new(spec, np.zeros((0, spec.dim)), points, values)
    K = kernels.pairwise(spec, pts, pts)
    chol, used = _factor(K, jitter, spec.output_scale, pts)
    whitened = _solve_lower(chol, vals)
    return GPPosterior(spec, pts, vals, used, chol, whitened)


def sample_prior_on_grid(spec: kernels.KernelSpec, grid_points,
                         seed: int) -> np.ndarray:
    """One zero-mean prior draw at the given points, deterministic per seed."""
    pts = kernels.as_points(spec, grid_points)
    prior = fit(spec, pts, np.zeros(pts.shape[0]))
    return prior_draw(prior, seed)


def prior_draw(prior: GPPosterior, seed: int) -> np.ndarray:
    """One zero-mean prior draw at ``prior``'s points, deterministic per seed.

    Reads only the factor L and its jitter j, so one zero-valued :func:`fit`
    on a point set serves every seed drawn there. L z with LL^T = K + jI
    would be a draw of K plus white noise of variance j at every point,
    noise the posterior's deviation leaves out. The draw is K L^-T z =
    L z - j L^-T z instead, the posterior mean of that noisy draw: one
    matrix-vector product and one LAPACK ``trtrs`` solve with L^T per seed,
    whose covariance K (K + jI)^-1 K is at most K. Stacking seeds into
    matrix products may round differently.
    """
    z = np.random.default_rng(seed).standard_normal(len(prior))
    if not len(z):  # dtrtrs rejects an empty factor
        return z
    # chol.T is L^T in Fortran order, so trans=0 solves L^T w = z
    w, _ = dtrtrs(prior.chol.T, z, lower=0, trans=0)
    return prior.chol @ z - prior.jitter * w
