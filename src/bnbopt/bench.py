"""Objectives, baseline strategies, regret metrics and verification experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dtrtrs

from . import gp, kernels
from .bnb import RunConfig, RunTrace, ShrinkEvent, beta, run
from .errors import GridTooLargeError, IllConditionedError, InsufficientDataError
from .kernels import KernelSpec
from .lattice import DyadicGrid, point_keys

ENUMERATION_CAP = 20_000
PROBE_REFINE = 2  # variance probes lie this many levels finer than the cover
JITTER_FLOOR_MARGIN = 2.0  # sup sigma below this times sqrt(jitter) is floor


@dataclass(frozen=True)
class Objective:
    """Deterministic box-domain objective with an optional known maximum.

    ``batch``, when set, maps an (n, dim) array to the n values ``fn`` gives
    at its rows, bitwise. The optimizer always calls the objective one point
    at a time.
    """

    lower: np.ndarray
    upper: np.ndarray
    fn: Callable[[np.ndarray], float]
    known_max_point: np.ndarray | None = None
    known_max_value: float | None = None
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.known_max_point is not None:
            object.__setattr__(
                self, "known_max_point", np.asarray(self.known_max_point, dtype=float)
            )

    def __call__(self, x) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class TablePrior:
    """The prior over one table lattice, shared by every seed drawn on it.

    ``grid`` is the table lattice, ``DyadicGrid(lower, upper, 0, level)``.
    ``post`` is a zero-valued fit on its points: the factor of the jittered
    Gram matrix and the jitter actually used depend only on (spec, lattice,
    jitter). ``index`` maps each point's key (`point_keys`) to its row.
    """

    grid: DyadicGrid
    post: gp.GPPosterior
    index: dict


def table_prior(spec: KernelSpec, grid: DyadicGrid, level: int) -> TablePrior:
    """Factor the prior over `grid`'s level-`level` lattice once, for many seeds."""
    if not 1 <= level <= grid.max_level:
        coarsest = grid.num_points(1)
        raise ValueError(
            f"table level must lie in [1, {grid.max_level}], got {level}; the "
            f"level-1 lattice has {coarsest} points, "
            f"{'over' if coarsest > ENUMERATION_CAP else 'within'} the "
            f"{ENUMERATION_CAP}-point enumeration cap"
        )
    table = DyadicGrid(grid.lower, grid.upper, 0, level)
    if table.num_points(level) > ENUMERATION_CAP:
        raise GridTooLargeError(
            f"{table.num_points(level)} table points exceed the "
            f"{ENUMERATION_CAP} cap"
        )
    pts = table.points(level)
    post = gp.fit(spec, pts, np.zeros(len(pts)))
    return TablePrior(table, post, dict(zip(point_keys(pts), range(len(pts)))))


def gp_sample_objective(prior: TablePrior, seed: int) -> Objective:
    """Tabulate one prior draw over the table lattice of `prior`.

    The objective is defined on the table only: evaluation is an exact
    lookup, and a point off the table raises `KeyError`. The known maximum
    is the table argmax. Seeds that share a lattice share one `table_prior`,
    so each seed costs one draw.
    """
    pts = prior.post.points
    vals = gp.prior_draw(prior.post, seed)

    def evaluate(x: np.ndarray) -> float:
        return float(vals[prior.index[tuple(x)]])

    def batch(points: np.ndarray) -> np.ndarray:
        rows = np.fromiter(map(prior.index.__getitem__, point_keys(points)),
                           dtype=np.intp, count=len(points))
        return vals[rows]

    imax = int(np.argmax(vals))
    return Objective(prior.grid.lower, prior.grid.upper, evaluate,
                     pts[imax].copy(), float(vals[imax]), batch)


def quadratic_objective(center, curvature: float, peak: float,
                        lower, upper) -> Objective:
    """Concave bowl peak - curvature * ||x - center||^2 with an interior maximum."""
    center = np.asarray(center, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if not curvature > 0.0:
        raise ValueError("curvature must be strictly positive")
    if not np.all((lower < center) & (center < upper)):
        raise ValueError("center must lie strictly inside the domain box")

    def evaluate(x: np.ndarray) -> float:
        return peak - curvature * float(((x - center) ** 2).sum())

    return Objective(lower, upper, evaluate, center.copy(), float(peak))


def boundary_max_objective(lower, upper) -> Objective:
    """Linear ramp maximized at the upper corner: a boundary max with nonzero gradient."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)

    def evaluate(x: np.ndarray) -> float:
        return float(np.sum(x))

    return Objective(lower, upper, evaluate, upper.copy(), float(np.sum(upper)))


def enumeration_level(grid: DyadicGrid, cap: int = ENUMERATION_CAP) -> int:
    """Deepest level whose full lattice enumeration stays within `cap` points."""
    best = None
    for lev in range(grid.max_level + 1):
        if grid.num_points(lev) <= cap:
            best = lev
        else:
            break
    if best is None:
        raise GridTooLargeError("even the level-0 lattice exceeds the cap")
    return best


def plain_ucb_run(objective, spec: KernelSpec, grid: DyadicGrid,
                  config: RunConfig) -> RunTrace:
    """UCB baseline: always evaluate the unevaluated lattice point with top UCB.

    No region shrinking. The candidate lattice is the deepest level within
    the enumeration cap; ties resolve to the lexicographically first point.
    Stops when the budget is spent or the lattice is exhausted.

    The posterior over the fixed lattice is carried across steps instead of
    re-predicted. Each evaluation appends one row to the factor L, to
    V = L^-1 K(X, pts) and to a = L^-1 y. The step's Schur column K(X, x) is
    its kernel row K(x, pts) read at the earlier picks, as kernel entries are
    symmetric bit for bit. C = L^-1 K(X, x) is one LAPACK ``dtrtrs`` solve on
    the factor buffer itself, with no copy of its leading block, and the new
    row is [C^T, sqrt(s)] for the scalar Schur complement
    s = k(x, x) + jitter - C^T C: the bits `GPPosterior.extend` would give.
    The mean V^T a gains a_n V[n] and the variances fall by V[n] squared, so
    a step costs O(n m) instead of O(n^2 m). When s <= 0 (where a 1x1
    Cholesky fails too), the points are refit with jitter escalation: L and
    a are the refit's ``chol`` and ``whitened``, and V and the posterior are
    recomputed from the new factor.
    """
    level = enumeration_level(grid)
    pts = grid.points(level)
    lattice_size = grid.num_points(grid.max_level)
    # the empty fit validates the starting jitter
    jitter = gp.fit(spec, np.zeros((0, grid.dim)), np.zeros(0), config.jitter).jitter
    steps = min(config.max_evaluations, len(pts))
    chol = np.zeros((steps, steps))
    v = np.zeros((steps, len(pts)))
    a = np.zeros(steps)
    picks = np.zeros(steps, dtype=int)
    values = np.zeros(steps)
    mus = np.zeros(len(pts))
    var = np.full(len(pts), spec.output_scale)
    score = np.empty(len(pts))
    for n in range(steps):
        root = math.sqrt(beta(n + 1, lattice_size, config.alpha))
        np.maximum(var, 0.0, out=score)
        np.sqrt(score, out=score)
        score *= root
        score += mus
        score[picks[:n]] = -np.inf
        pick = int(np.argmax(score))
        x = pts[pick]
        values[n] = float(objective(x))
        picks[n] = pick
        k = kernels.pairwise(spec, x[None, :], pts)[0]
        c = k[picks[:n], None]
        if n:  # dtrtrs rejects an empty right-hand side
            # chol.T[:, :n] holds L[:n, :n]^T in Fortran order with
            # lda = steps, so LAPACK reads the buffer in place: the call
            # solve_triangular makes after copying the block. The factor's
            # diagonal is positive, so info is 0
            c, _ = dtrtrs(chol.T[:, :n], c, lower=0, trans=1, overwrite_b=1)
        # the 1x1 Schur complement: s > 0.0 exactly where its Cholesky
        # succeeds, and sqrt(s) is that Cholesky bit for bit
        s = (float(k[pick]) + jitter) - float((c.T @ c)[0, 0])
        if s > 0.0:
            chol[n, :n] = c[:, 0]
            chol[n, n] = math.sqrt(s)
            v[n] = (k - chol[n, :n] @ v[:n]) / chol[n, n]
            a[n] = (values[n] - chol[n, :n] @ a[:n]) / chol[n, n]
            mus += a[n] * v[n]
            var -= v[n] ** 2
        else:  # refit with escalation; the factor and all it carries change
            post = gp.fit(spec, pts[picks[: n + 1]], values[: n + 1], jitter)
            jitter = post.jitter
            chol[: n + 1, : n + 1] = post.chol
            k = kernels.pairwise(spec, post.points, pts)
            v[: n + 1] = gp._solve_lower(post.chol, k)
            a[: n + 1] = post.whitened
            mus = v[: n + 1].T @ a[: n + 1]
            var = spec.output_scale - np.einsum("ij,ij->j", v[: n + 1], v[: n + 1])
    return RunTrace(pts[picks], values, [], truncated=False)


def random_run(objective, grid: DyadicGrid, config: RunConfig) -> RunTrace:
    """Uniform without-replacement baseline over the enumerated lattice."""
    level = enumeration_level(grid)
    pts = grid.points(level)
    order = np.random.default_rng(config.seed).permutation(len(pts))
    take = order[: min(config.max_evaluations, len(pts))]
    chosen = pts[take]
    values = np.array([float(objective(p)) for p in chosen])
    return RunTrace(chosen.copy(), values, [], truncated=False)


@dataclass(frozen=True)
class RegretSeries:
    """Incumbent simple regret and running cumulative regret of a trace."""

    simple: np.ndarray
    cumulative: np.ndarray
    dim: int


def regret_series(trace: RunTrace, objective) -> RegretSeries:
    """Regret against the objective's known maximum.

    Simple regret is computed on the incumbent (nonincreasing); cumulative
    regret sums the raw per-step gaps (nondecreasing).
    """
    if objective.known_max_value is None:
        raise ValueError("objective has no known maximum; regret is undefined")
    fstar = float(objective.known_max_value)
    simple = fstar - trace.incumbent_values
    cumulative = np.cumsum(fstar - trace.values)
    return RegretSeries(simple, cumulative, trace.points.shape[1])


@dataclass(frozen=True)
class RateFit:
    """Fit of regret ~ amplitude * exp(-rate * t / (ln t)^(d/4))."""

    amplitude: float
    rate: float
    r_squared: float


def fit_rate(series: RegretSeries) -> RateFit:
    """Least-squares fit of log regret against t / (ln t)^(d/4).

    Entries with zero regret (exactly optimal incumbent) and t < 3 are
    dropped; fewer than 10 usable entries raises InsufficientDataError.
    """
    r = series.simple
    t = np.arange(1, len(r) + 1, dtype=float)
    usable = (r > 0.0) & (t >= 3.0)
    n = int(usable.sum())
    if n < 10:
        raise InsufficientDataError(
            f"only {n} usable regret entries; at least 10 required"
        )
    tt = t[usable]
    x = tt / np.log(tt) ** (series.dim / 4.0)
    y = np.log(r[usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return RateFit(float(np.exp(intercept)), float(-slope), r2)


@dataclass(frozen=True)
class VarianceScaling:
    """Worst posterior deviation and fit jitter per cover level."""

    levels: tuple[int, ...]
    deltas: np.ndarray
    sup_sigmas: np.ndarray
    jitters: np.ndarray

    @property
    def slope(self) -> float:
        """Least-squares slope of ln(sup sigma) on ln(delta); NaN below two levels."""
        if len(self.levels) < 2:
            return float("nan")
        return float(np.polyfit(np.log(self.deltas), np.log(self.sup_sigmas), 1)[0])

    def above_floor(self) -> VarianceScaling:
        """The levels whose sup sigma exceeds JITTER_FLOOR_MARGIN * sqrt(jitter);
        below that the jitter, not the variance lemma, sets sup sigma."""
        keep = self.sup_sigmas > JITTER_FLOOR_MARGIN * np.sqrt(self.jitters)
        return VarianceScaling(tuple(lev for lev, k in zip(self.levels, keep) if k),
                               self.deltas[keep], self.sup_sigmas[keep],
                               self.jitters[keep])


def variance_bound_experiment(spec: KernelSpec, lower, upper,
                              levels) -> VarianceScaling:
    """Fit full-domain covers level by level; record the worst deviation.

    Deviations are probed on a lattice PROBE_REFINE levels finer than each
    cover. Stops early if a cover becomes numerically unfactorizable and
    reports only the levels that completed. The slope regresses
    ln(sup sigma) on ln(delta). The variance lemma is an upper bound,
    sup sigma <= Q * delta^2 / 4 (Q from `kernels.smoothness_constant`), so
    it shows as a slope of at least 2 with every level under the bound, not
    as a slope of exactly 2: Matern-5/2 measures about 2 on coarse levels,
    the analytic SE kernel measures steeper, and sup sigma stops falling
    near sqrt(jitter), about 1e-5 at the default jitter and unit output
    scale. `VarianceScaling.above_floor` drops the levels at that floor. A
    probe lattice over ENUMERATION_CAP points raises before any fit.
    """
    levels = [int(v) for v in levels]
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(
            f"levels must be non-empty and strictly ascending, got {levels}"
        )
    grid = DyadicGrid(lower, upper, 0, max(max(levels) + PROBE_REFINE, 1))
    probes = grid.num_points(grid.max_level)
    if probes > ENUMERATION_CAP:
        raise GridTooLargeError(f"{probes} probe points at level {grid.max_level} "
                                f"exceed the {ENUMERATION_CAP}-point enumeration cap")
    done: list[int] = []
    deltas: list[float] = []
    sups: list[float] = []
    jitters: list[float] = []
    for lev in levels:
        pts = grid.points(lev)
        try:
            # deviations depend only on the points; values are irrelevant
            post = gp.fit(spec, pts, np.zeros(len(pts)))
        except IllConditionedError:
            break
        probes = grid.points(lev + PROBE_REFINE)
        _, sigmas = post.predict_batch(probes)
        done.append(lev)
        deltas.append(grid.delta(lev))
        sups.append(float(sigmas.max()))
        jitters.append(post.jitter)
    return VarianceScaling(tuple(done), np.asarray(deltas), np.asarray(sups),
                           np.asarray(jitters))


@dataclass(frozen=True)
class EnvelopeReport:
    """Per-seed worst envelope ratios and argmax-retention flags."""

    seeds: tuple[int, ...]
    max_ratios: np.ndarray
    retained: np.ndarray

    @property
    def coverage(self) -> float:
        """Fraction of runs whose envelope held at every shrink candidate."""
        return float(np.mean(self.max_ratios <= 1.0))

    @property
    def retention(self) -> float:
        """Fraction of runs keeping the true argmax in the region throughout."""
        return float(np.mean(self.retained))


class _EnvelopeAudit:
    """Run observer accumulating the worst envelope ratio and retention flag."""

    _INTERP_TOL = 1e-8

    def __init__(self, objective):
        self.objective = objective
        self.max_ratio = 0.0
        self.retained = True

    def __call__(self, event: ShrinkEvent) -> None:
        record = event.record
        f = self.objective.batch(event.candidates)
        resid = np.abs(f - event.mus)
        env = math.sqrt(record.beta_T) * event.sigmas
        # where the envelope is zero only exact interpolation passes
        ratio = np.where(resid <= self._INTERP_TOL, 0.0, np.inf)
        np.divide(resid, env, out=ratio, where=env > 0.0)
        self.max_ratio = max(self.max_ratio, float(ratio.max()))
        xstar = self.objective.known_max_point
        if xstar is not None and not record.region_after.contains(xstar):
            self.retained = False


def envelope_experiment(spec: KernelSpec, grid: DyadicGrid, level: int,
                        alpha: float, n_seeds: int, budget: int = 200,
                        first_seed: int = 0) -> EnvelopeReport:
    """Draw prior-sample objectives, run the optimizer and audit the envelope.

    For every shrink of every run, compares |f - mu| with sqrt(beta) * sigma
    at all shrink candidates and tracks whether the table argmax stays inside
    the shrunken region. The report's coverage is the fraction of seeds with
    zero violations. Runs are on the table lattice, so every evaluated and
    audited point is a table row, whatever ``grid.max_level`` is.
    """
    if n_seeds < 100:
        raise ValueError("n_seeds must be at least 100 for a stable estimate")
    ratios = np.zeros(n_seeds)
    kept_ok = np.zeros(n_seeds, dtype=bool)
    seeds = tuple(range(first_seed, first_seed + n_seeds))
    prior = table_prior(spec, grid, level)
    for i, seed in enumerate(seeds):
        objective = gp_sample_objective(prior, seed)
        audit = _EnvelopeAudit(objective)
        config = RunConfig(alpha=alpha, max_evaluations=budget, seed=seed)
        run(objective, spec, prior.grid, config, observer=audit)
        ratios[i] = audit.max_ratio
        kept_ok[i] = audit.retained
    return EnvelopeReport(seeds, ratios, kept_ok)
