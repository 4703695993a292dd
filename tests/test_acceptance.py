"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time

import numpy as np
import pytest

from bnbopt.bench import (
    envelope_experiment,
    fit_rate,
    gp_sample_objective,
    plain_ucb_run,
    quadratic_objective,
    regret_series,
    table_prior,
    variance_bound_experiment,
    RegretSeries,
)
from bnbopt.bnb import RunConfig, beta, run
from bnbopt.errors import InsufficientDataError
from bnbopt.gp import fit
from bnbopt.kernels import KernelSpec, evaluate, smoothness_constant
from bnbopt.lattice import DyadicGrid

SUITE_ALPHA = 0.1
SUITE_BUDGET = 200


def suite_spec():
    return KernelSpec.isotropic("se", 1, 0.3)


def suite_grid(max_level):
    return DyadicGrid(np.zeros(1), np.ones(1), 0, max_level)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


@pytest.fixture(scope="module")
def envelope_report():
    # criteria 3 and 4 share these 200 instrumented runs
    return envelope_experiment(suite_spec(), suite_grid(8), 8,
                               alpha=SUITE_ALPHA, n_seeds=200,
                               budget=SUITE_BUDGET)


@pytest.fixture(scope="module")
def regret_suite():
    # criteria 5 and 6 share this 20-seed suite on the level-10 lattice
    spec = suite_spec()
    grid = suite_grid(10)
    prior = table_prior(spec, grid, 10)
    runs = []
    for seed in range(20):
        objective = gp_sample_objective(prior, seed=seed)
        config = RunConfig(alpha=SUITE_ALPHA, max_evaluations=SUITE_BUDGET,
                           seed=seed)
        bnb_trace = run(objective, spec, grid, config)
        ucb_trace = plain_ucb_run(objective, spec, grid, config)
        runs.append(
            (regret_series(bnb_trace, objective),
             regret_series(ucb_trace, objective))
        )
    return runs


def padded_cumulative(series: RegretSeries, budget: int) -> np.ndarray:
    """Cumulative regret as a function of the step, flat after termination."""
    c = series.cumulative
    if len(c) >= budget:
        return c[:budget]
    return np.concatenate([c, np.full(budget - len(c), c[-1])])


def test_criterion_1_variance_scaling():
    # The variance lemma is an upper bound: on a delta-cover the noise-free
    # deviation is at most Q * delta^2 / 4 (Q = smoothness_constant). It
    # implies at least quadratic decay (slope >= 1.8) but no ceiling on the
    # slope: the analytic SE kernel decays faster (pair slopes 2.8, 5.9, 5.8
    # on these levels) until sup sigma reaches the sqrt(jitter) ~ 1e-5 floor.
    started = time.perf_counter()
    spec = suite_spec()
    levels = (1, 2, 3, 4, 5)
    result = variance_bound_experiment(spec, [0.0], [1.0], levels)
    elapsed = time.perf_counter() - started
    bounds = smoothness_constant(spec) * result.deltas ** 2 / 4.0
    ratios = result.sup_sigmas / bounds
    complete = result.levels == levels
    decreasing = bool(np.all(np.diff(result.sup_sigmas) < 0.0))
    bounded = bool(np.all(ratios <= 1.0))
    steep = result.slope >= 1.8
    ok = complete and decreasing and bounded and steep and elapsed < 60.0
    margins = ", ".join(
        f"L{lev} {s:.2e} ({r:.2g})"
        for lev, s, r in zip(result.levels, result.sup_sigmas, ratios)
    )
    report("1 variance-scaling",
           ok, f"(slope={result.slope:.3f}, decreasing={decreasing}, "
               f"sup sigma (/ Q*delta^2/4): {margins}, {elapsed:.1f}s)")
    assert complete, f"only levels {result.levels} completed"
    assert decreasing
    assert bounded, (
        f"sup sigma exceeds Q*delta^2/4: ratios {np.round(ratios, 3).tolist()}"
    )
    assert steep, (
        f"slope {result.slope:.3f} < 1.8: slower than the quadratic decay the "
        "bound Q*delta^2/4 implies"
    )
    assert elapsed < 60.0


def test_criterion_2_posterior_exactness():
    rng = np.random.default_rng(2024)
    worst_mu = worst_sigma = worst_mu_obs = worst_sigma_obs = 0.0
    jitter = 1e-10
    for case in range(50):
        dim = 1 + case % 2
        n, sep = (int(rng.integers(5, 11)), 0.08) if dim == 1 else (
            int(rng.integers(10, 41)), 0.1)
        lengthscale = sep / 2.5
        spec = KernelSpec.isotropic("se" if case % 2 else "matern52", dim,
                                    lengthscale)
        pts = _separated(rng, n, dim, sep)
        vals = rng.normal(size=n)
        post = fit(spec, pts, vals, jitter)
        # dense direct-solve oracle, built entrywise
        K = np.array([[evaluate(spec, a, b) for b in pts] for a in pts])
        A = K + post.jitter * np.eye(n)
        probes = rng.uniform(0, 1, size=(20, dim))
        for x in probes:
            k = np.array([evaluate(spec, p, x) for p in pts])
            sol = np.linalg.solve(A, k)
            mu_o = float(k @ np.linalg.solve(A, vals))
            sigma_o = math.sqrt(max(0.0, 1.0 - float(k @ sol)))
            (mu,), (sigma,) = post.predict_batch(np.atleast_2d(x))
            worst_mu = max(worst_mu, abs(mu - mu_o))
            worst_sigma = max(worst_sigma, abs(sigma - sigma_o))
        mus, sigmas = post.predict_batch(pts)
        worst_mu_obs = max(worst_mu_obs, float(np.max(np.abs(mus - vals))))
        worst_sigma_obs = max(worst_sigma_obs, float(np.max(sigmas)))
    ok = (worst_mu <= 1e-8 and worst_sigma <= 1e-6
          and worst_mu_obs <= 1e-8 and worst_sigma_obs <= 1e-4)
    report("2 posterior-exactness", ok,
           f"(mu={worst_mu:.2e}, sigma={worst_sigma:.2e}, "
           f"obs-mu={worst_mu_obs:.2e}, obs-sigma={worst_sigma_obs:.2e})")
    assert worst_mu <= 1e-8
    assert worst_sigma <= 1e-6
    assert worst_mu_obs <= 1e-8
    assert worst_sigma_obs <= 1e-4


def test_criterion_3_envelope_coverage(envelope_report):
    threshold = (1.0 - SUITE_ALPHA
                 - 3.0 * math.sqrt(SUITE_ALPHA * (1 - SUITE_ALPHA) / 200))
    ok = envelope_report.coverage >= threshold
    report("3 envelope-coverage", ok,
           f"(coverage={envelope_report.coverage:.3f}, "
           f"threshold={threshold:.4f})")
    assert envelope_report.coverage >= threshold


def test_criterion_4_maximizer_retention(envelope_report):
    ok = envelope_report.retention >= envelope_report.coverage
    report("4 maximizer-retention", ok,
           f"(retention={envelope_report.retention:.3f}, "
           f"coverage={envelope_report.coverage:.3f})")
    assert envelope_report.retention >= envelope_report.coverage


def test_criterion_5_exponential_regret_direction(regret_suite):
    fits = []
    finals, at_t3 = [], []
    for bnb_series, _ in regret_suite:
        finals.append(float(bnb_series.simple[-1]))
        at_t3.append(float(bnb_series.simple[2]))
        try:
            fits.append(fit_rate(bnb_series))
        except InsufficientDataError:
            continue  # regret hit zero too fast to fit a rate
    good = sum(1 for f in fits if f.rate > 0 and f.r_squared >= 0.7)
    frac = good / len(fits) if fits else 0.0
    median_final = float(np.median(finals))
    median_t3 = float(np.median(at_t3))
    ok = len(fits) >= 1 and frac >= 0.9 and median_final <= 1e-3 * median_t3
    report("5 regret-rate", ok,
           f"(fits={len(fits)}, tau>0 & r2>=0.7 on {frac:.0%}, "
           f"median final={median_final:.2e} vs 1e-3*r3={1e-3 * median_t3:.2e})")
    assert len(fits) >= 1
    assert frac >= 0.9
    assert median_final <= 1e-3 * median_t3


def test_criterion_6_bounded_vs_unbounded_cumulative_regret(regret_suite):
    quartile = 3 * SUITE_BUDGET // 4
    bnb_total = np.zeros(SUITE_BUDGET)
    ucb_total = np.zeros(SUITE_BUDGET)
    for bnb_series, ucb_series in regret_suite:
        bnb_total += padded_cumulative(bnb_series, SUITE_BUDGET)
        ucb_total += padded_cumulative(ucb_series, SUITE_BUDGET)
    bnb_increase = bnb_total[-1] - bnb_total[quartile - 1]
    ucb_increase = ucb_total[-1] - ucb_total[quartile - 1]
    plateau = bnb_increase <= 0.01 * bnb_total[-1]
    dominates = ucb_increase >= 5.0 * bnb_increase and ucb_increase > 0.0

    # Remark-4 behaviour at exhaustion: a 9-point lattice with budget 9 is
    # fully swept by the plain UCB baseline
    spec = suite_spec()
    grid9 = suite_grid(3)
    objective = gp_sample_objective(table_prior(spec, grid9, 3), seed=0)
    sweep = plain_ucb_run(objective, spec, grid9,
                          RunConfig(alpha=SUITE_ALPHA, max_evaluations=9))
    swept = {tuple(p) for p in sweep.points} == {tuple(p)
                                                 for p in grid9.points(3)}

    ok = plateau and dominates and swept
    report("6 cumulative-regret-contrast", ok,
           f"(bnb last-quartile={bnb_increase:.3g} of {bnb_total[-1]:.3g}, "
           f"ucb last-quartile={ucb_increase:.3g}, 9-point sweep={swept})")
    assert plateau
    assert dominates
    assert swept


def test_criterion_7_algorithmic_invariants():
    # beta identity to 1e-12 on 1000 random inputs
    rng = np.random.default_rng(7)
    identity_ok = True
    for _ in range(1000):
        T = int(rng.integers(1, 10_000))
        size = float(rng.uniform(1, 1e7))
        alpha = float(rng.uniform(1e-3, 0.999))
        diff = abs(beta(T, size, alpha)
                   - (4 * math.log(T) + 2 * math.log(size / alpha)))
        identity_ok = identity_ok and diff <= 1e-12

    # deterministic suite run with full instrumentation
    spec = suite_spec()
    grid = suite_grid(8)
    objective = gp_sample_objective(table_prior(spec, grid, 8), seed=3)
    config = RunConfig(alpha=SUITE_ALPHA, max_evaluations=SUITE_BUDGET, seed=3)
    events = []
    trace = run(objective, spec, grid, config, observer=events.append)
    rerun = run(objective, spec, grid, config)

    pts = trace.points
    dup_free = all(
        np.linalg.norm(pts[i] - pts[j]) > 1e-12
        for i in range(len(pts)) for j in range(i + 1, len(pts))
    )
    deltas = [rec.delta for rec in trace.iterations]
    halving = all(b == a / 2.0 for a, b in zip(deltas, deltas[1:]))
    kept_inside = all(
        np.linalg.norm(p - ev.record.region_after.center)
        <= ev.record.region_after.radius * (1 + 1e-12) + 1e-15
        for ev in events for p in ev.kept
    )
    identical = (trace.points.tobytes() == rerun.points.tobytes()
                 and trace.values.tobytes() == rerun.values.tobytes())

    # 2D bowl: budget 300 lands the incumbent within 1e-4 of the curvature
    # scale (curvature times the squared domain diagonal)
    curvature = 50.0
    bowl = quadratic_objective([0.53, 0.46], curvature, 1.0, [0.0, 0.0],
                               [1.0, 1.0])
    spec2 = KernelSpec.isotropic("se", 2, 0.5)
    grid2 = DyadicGrid(np.zeros(2), np.ones(2), 0, 12)
    bowl_trace = run(bowl, spec2, grid2,
                     RunConfig(alpha=0.05, max_evaluations=300, seed=0))
    bowl_regret = 1.0 - bowl_trace.incumbent(len(bowl_trace))[1]
    scale = curvature * float(np.sum(np.ones(2) ** 2))  # curvature * diam^2
    bowl_ok = bowl_regret <= 1e-4 * scale

    ok = (identity_ok and dup_free and halving and kept_inside and identical
          and bowl_ok)
    report("7 algorithmic-invariants", ok,
           f"(beta-identity={identity_ok}, no-dup={dup_free}, "
           f"halving={halving}, kept-in-region={kept_inside}, "
           f"deterministic={identical}, bowl-regret={bowl_regret:.2e} "
           f"vs {1e-4 * scale:.2e})")
    assert identity_ok
    assert dup_free
    assert halving
    assert kept_inside
    assert identical
    assert bowl_ok


def test_criterion_8_fit_rate_recovery():
    t = np.arange(1, 201, dtype=float)
    with np.errstate(divide="ignore"):
        u = np.where(t >= 3, t / np.log(np.maximum(t, 3.0)) ** 0.5, 1.0)
    r = 2.0 * np.exp(-0.5 * u)
    series = RegretSeries(r, np.cumsum(r), dim=2)
    fitted = fit_rate(series)
    amp_ok = abs(fitted.amplitude - 2.0) <= 0.01 * 2.0
    rate_ok = abs(fitted.rate - 0.5) <= 0.01 * 0.5
    report("8 rate-fit-recovery", amp_ok and rate_ok,
           f"(A={fitted.amplitude:.4f}, tau={fitted.rate:.4f})")
    assert amp_ok
    assert rate_ok


def _separated(rng, n, dim, min_dist):
    pts = []
    tries = 0
    while len(pts) < n:
        tries += 1
        if tries > 500_000:
            raise RuntimeError("separation too tight")
        cand = rng.uniform(0, 1, size=dim)
        if all(np.linalg.norm(cand - p) >= min_dist for p in pts):
            pts.append(cand)
    return np.asarray(pts)
