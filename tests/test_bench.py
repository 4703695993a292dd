"""Objectives, baselines, regret metrics and the verification experiments."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from bnbopt.bench import (
    boundary_max_objective,
    enumeration_level,
    envelope_experiment,
    fit_rate,
    gp_sample_objective,
    plain_ucb_run,
    quadratic_objective,
    random_run,
    regret_series,
    table_prior,
    variance_bound_experiment,
    RegretSeries,
)
from bnbopt import bench, bnb, gp, kernels
from bnbopt.bnb import RunConfig, RunTrace, beta, initial_region
from bnbopt.errors import (
    GridTooLargeError,
    IllConditionedError,
    InsufficientDataError,
)
from bnbopt.gp import fit, sample_prior_on_grid
from bnbopt.kernels import KernelSpec
from bnbopt.lattice import DyadicGrid, RegionBall, point_keys


def spec_se(dim=1, ls=0.3, scale=1.0):
    return KernelSpec.isotropic("se", dim, ls, scale)


def unit_grid(dim=1, max_level=8):
    return DyadicGrid(np.zeros(dim), np.ones(dim), 0, max_level)


class TestGpSampleObjective:
    def test_same_seed_identical_table(self):
        spec, grid = spec_se(), unit_grid(max_level=5)
        a = gp_sample_objective(table_prior(spec, grid, 5), seed=7)
        b = gp_sample_objective(table_prior(spec, grid, 5), seed=7)
        for p in grid.points(5):
            assert a(p) == b(p)

    def test_table_point_evaluation_is_exact_lookup(self):
        spec, grid = spec_se(), unit_grid(max_level=5)
        obj = gp_sample_objective(table_prior(spec, grid, 4), seed=3)
        pts = grid.points(4)
        from bnbopt.gp import sample_prior_on_grid

        vals = sample_prior_on_grid(spec, pts, seed=3)
        for p, v in zip(pts, vals):
            assert obj(p) == float(v)

    def test_known_max_matches_exhaustive_scan(self):
        spec, grid = spec_se(), unit_grid(max_level=6)
        obj = gp_sample_objective(table_prior(spec, grid, 6), seed=11)
        pts = grid.points(6)
        vals = np.array([obj(p) for p in pts])
        i = int(np.argmax(vals))
        assert np.array_equal(obj.known_max_point, pts[i])
        assert obj.known_max_value == vals[i]

    @pytest.mark.parametrize("dim, fine", [(1, 6), (2, 4)])
    def test_off_table_lookups_raise(self, dim, fine):
        # the objective is its level-3 table: a finer point has no value
        spec, grid = spec_se(dim=dim), unit_grid(dim=dim, max_level=fine)
        obj = gp_sample_objective(table_prior(spec, grid, 3), seed=5)
        pts = grid.points(fine)
        table = set(point_keys(grid.points(3)))
        off = [p for p, key in zip(pts, point_keys(pts)) if key not in table]
        assert 0 < len(off) < len(pts)
        with pytest.raises(KeyError):
            obj(off[0])
        with pytest.raises(KeyError):
            obj.batch(pts)

    def test_oversized_table_rejected(self):
        spec = spec_se(dim=2, ls=0.3)
        grid = unit_grid(dim=2, max_level=10)
        with pytest.raises(GridTooLargeError):
            gp_sample_objective(table_prior(spec, grid, 10), seed=0)


class TestBatch:
    @pytest.mark.parametrize("dim, fine", [(1, 6), (2, 4)])
    def test_gp_sample_gather_is_the_calls_bitwise(self, dim, fine):
        spec, grid = spec_se(dim=dim), unit_grid(dim=dim, max_level=fine)
        rng = np.random.default_rng(dim)
        pts = grid.points(fine)[rng.permutation(grid.num_points(fine))]
        obj = gp_sample_objective(table_prior(spec, grid, fine), seed=4)
        assert obj.batch is not None
        for query in (pts, np.zeros((0, dim))):
            want = np.array([obj(p) for p in query], dtype=float)
            got = obj.batch(query)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestTablePrior:
    @pytest.mark.parametrize("family", ["se", "matern52"])
    @pytest.mark.parametrize("dim, level", [(1, 8), (2, 4)])
    def test_shared_prior_draws_are_sample_prior_on_grid(self, family, dim, level):
        spec = KernelSpec.isotropic(family, dim, 0.3)
        grid = unit_grid(dim=dim, max_level=level)
        pts = grid.points(level)
        prior = table_prior(spec, grid, level)
        # reference: a fresh Cholesky of K with the jitter on its diagonal
        gram = kernels.pairwise(spec, pts, pts)
        gram[np.diag_indices_from(gram)] += gp.DEFAULT_JITTER_FACTOR
        chol = np.linalg.cholesky(gram)
        for seed in range(5):
            obj = gp_sample_objective(prior, seed)
            vals = sample_prior_on_grid(spec, pts, seed)
            z = np.random.default_rng(seed).standard_normal(len(pts))
            assert np.array_equal(vals, chol @ z)
            assert np.array_equal(np.array([obj(p) for p in pts]), vals)
            i = int(np.argmax(vals))
            assert np.array_equal(obj.known_max_point, pts[i])
            assert obj.known_max_value == vals[i]

    def test_prior_owns_its_table_lattice(self):
        # the table lattice keeps the box and stops at the table level
        grid = DyadicGrid(np.array([0.0]), np.array([2.0]), 0, 9)
        prior = table_prior(spec_se(), grid, 5)
        assert (prior.grid.level, prior.grid.max_level) == (0, 5)
        assert np.array_equal(prior.grid.lower, grid.lower)
        assert np.array_equal(prior.grid.upper, grid.upper)
        assert np.array_equal(prior.post.points, grid.points(5))
        assert list(prior.index) == list(point_keys(grid.points(5)))
        obj = gp_sample_objective(prior, seed=0)
        assert np.array_equal(obj.lower, grid.lower)
        assert np.array_equal(obj.upper, grid.upper)

    def test_envelope_factors_the_table_gram_once(self, monkeypatch):
        sizes = []
        original = gp._factor

        def counting(K, *args, **kwargs):
            sizes.append(K.shape[0])
            return original(K, *args, **kwargs)

        monkeypatch.setattr(gp, "_factor", counting)
        # budget 30 < 65 table points, so no run's own fit reaches table size
        envelope_experiment(spec_se(), unit_grid(max_level=6), 6, alpha=0.1,
                            n_seeds=100, budget=30)
        assert sizes.count(65) == 1


class TestQuadraticObjective:
    def test_peak_at_center(self):
        obj = quadratic_objective([0.4, 0.6], 2.0, 1.5, [0.0, 0.0], [1.0, 1.0])
        assert obj(np.array([0.4, 0.6])) == 1.5

    def test_unit_offset_drop(self):
        obj = quadratic_objective([0.5], 2.0, 1.0, [0.0], [1.0])
        assert obj(np.array([0.6])) == pytest.approx(1.0 - 0.02, abs=1e-15)

    def test_quadratic_pinning_inequalities(self):
        # the bowl sits exactly on its upper pinning; a curvature bumped by
        # 1e-6 makes the lower pinning strict away from the centre
        rng = np.random.default_rng(31)
        c = 2.0
        obj = quadratic_objective([0.45, 0.55], c, 1.0, [0.0, 0.0], [1.0, 1.0])
        center = np.array([0.45, 0.55])
        for _ in range(1000):
            x = rng.uniform(0, 1, size=2)
            r2 = float(((x - center) ** 2).sum())
            if r2 < 1e-6:
                continue
            assert obj(x) <= 1.0 - c * r2 + 1e-12
            assert obj(x) > 1.0 - (c * (1 + 1e-6)) * r2

    def test_center_on_boundary_rejected(self):
        with pytest.raises(ValueError):
            quadratic_objective([0.0], 1.0, 1.0, [0.0], [1.0])
        with pytest.raises(ValueError):
            quadratic_objective([1.5], 1.0, 1.0, [0.0], [1.0])

    def test_flat_bowl_rejected(self):
        with pytest.raises(ValueError, match="curvature must be strictly positive"):
            quadratic_objective([0.5], 0.0, 1.0, [0.0], [1.0])


class TestBoundaryMaxObjective:
    def test_1d_ramp(self):
        obj = boundary_max_objective([0.0], [1.0])
        assert obj(np.array([1.0])) == 1.0
        assert np.array_equal(obj.known_max_point, np.array([1.0]))
        assert obj.known_max_value == 1.0

    def test_nonzero_gradient_at_max(self):
        obj = boundary_max_objective([0.0], [1.0])
        h = 1e-6
        grad = (obj(np.array([1.0])) - obj(np.array([1.0 - h]))) / h
        assert grad == pytest.approx(1.0, rel=1e-6)

    def test_grid_argmax_is_boundary_lattice_point(self):
        obj = boundary_max_objective([0.0], [1.0])
        pts = unit_grid(max_level=4).points(4)
        vals = np.array([obj(p) for p in pts])
        assert pts[int(np.argmax(vals))][0] == 1.0


class TestPlainUcb:
    def test_first_pick_is_lexicographically_first(self):
        spec, grid = spec_se(), unit_grid(max_level=3)
        obj = gp_sample_objective(table_prior(spec, grid, 3), seed=2)
        trace = plain_ucb_run(obj, spec, grid, RunConfig(max_evaluations=1))
        assert trace.points[0, 0] == 0.0

    def test_never_repeats_a_point(self):
        spec, grid = spec_se(), unit_grid(max_level=4)
        obj = gp_sample_objective(table_prior(spec, grid, 4), seed=3)
        trace = plain_ucb_run(obj, spec, grid, RunConfig(max_evaluations=17))
        keys = {tuple(p) for p in trace.points}
        assert len(keys) == len(trace)

    def test_exhausts_nine_point_lattice_with_budget_nine(self):
        spec = spec_se()
        grid = unit_grid(max_level=3)  # 9 lattice points
        obj = gp_sample_objective(table_prior(spec, grid, 3), seed=4)
        trace = plain_ucb_run(obj, spec, grid, RunConfig(max_evaluations=9))
        assert len(trace) == 9
        assert {tuple(p) for p in trace.points} == {
            tuple(p) for p in grid.points(3)
        }


def reference_ucb_run(objective, spec, grid, config):
    """The re-predicting UCB loop: predict_batch over the available points at
    every step, then a one-row extend. The incremental baseline must match it."""
    pts = grid.points(enumeration_level(grid))
    lattice_size = grid.num_points(grid.max_level)
    post = fit(spec, np.zeros((0, grid.dim)), np.zeros(0), config.jitter)
    available = np.ones(len(pts), dtype=bool)
    points, values = [], []
    for t in range(1, min(config.max_evaluations, len(pts)) + 1):
        root = math.sqrt(max(beta(t, lattice_size, config.alpha), 0.0))
        mus, sigmas = post.predict_batch(pts[available])
        pick = int(np.flatnonzero(available)[int(np.argmax(mus + root * sigmas))])
        fx = float(objective(pts[pick]))
        post = post.extend(pts[pick][None, :], [fx])
        available[pick] = False
        points.append(pts[pick].copy())
        values.append(fx)
    return np.asarray(points), np.asarray(values)


def counting_fits(monkeypatch):
    """Patch gp.fit to record the size of every set it fits; returns the list."""
    sizes = []
    original_fit = gp.fit

    def counted(spec, points, values, jitter=None):
        sizes.append(len(points))
        return original_fit(spec, points, values, jitter)

    monkeypatch.setattr(gp, "fit", counted)
    return sizes


class TestUcbMatchesReference:
    @staticmethod
    def assert_matches_reference(monkeypatch, spec, grid, table, budget, seeds,
                                 jitter):
        for seed in seeds:
            obj = gp_sample_objective(table_prior(spec, grid, table), seed)
            config = RunConfig(alpha=0.1, max_evaluations=budget, jitter=jitter,
                               seed=seed)
            with monkeypatch.context() as patch:
                sizes = counting_fits(patch)
                trace = plain_ucb_run(obj, spec, grid, config)
            # the baseline's own refits: every fit after the empty one
            assert sizes[0] == 0
            refits = sizes[1:]
            assert bool(refits) == (jitter == 0.0)
            points, values = reference_ucb_run(obj, spec, grid, config)
            assert trace.points.tobytes() == points.tobytes()
            assert trace.values.tobytes() == values.tobytes()

    # (family, dim, lengthscale, lattice level, table level, budget, seeds, jitter);
    # the 2-D lattice stops at level 5 (1089 points, not 4225), which keeps
    # the table's Cholesky small
    @pytest.mark.parametrize("family, dim, ls, level, table, budget, seeds, jitter", [
        ("se", 1, 0.3, 10, 10, 200, range(5), None),
        ("matern52", 1, 0.2, 10, 10, 200, range(5), None),
        ("se", 2, 0.4, 5, 5, 150, range(3), None),
        # zero jitter makes the Schur complement fail, so the baseline refits
        ("se", 1, 0.3, 8, 8, 60, range(6), 0.0),
        # the budget exhausts the 33-point lattice: the last Schur complements
        # are the smallest the baseline meets
        ("se", 1, 0.3, 5, 5, 40, range(3), None),
        ("matern52", 1, 0.2, 5, 5, 40, range(3), None),
    ])
    def test_bitwise_equal_traces(self, monkeypatch, family, dim, ls, level,
                                  table, budget, seeds, jitter):
        spec = KernelSpec.isotropic(family, dim, ls)
        grid = unit_grid(dim, max_level=level)
        self.assert_matches_reference(monkeypatch, spec, grid, table, budget,
                                      seeds, jitter)

    def test_bitwise_equal_traces_anisotropic_box(self, monkeypatch):
        spec = KernelSpec("se", 1.0, (0.3, 0.6))
        grid = DyadicGrid(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), 0, 5)
        self.assert_matches_reference(monkeypatch, spec, grid, 5, 150, range(2),
                                      None)

    def test_no_extend_and_no_refit_at_default_jitter(self, monkeypatch):
        # the baseline appends its own factor rows: a per-step extend or refit
        # would show here
        spec, grid = spec_se(), unit_grid(max_level=10)
        obj = gp_sample_objective(table_prior(spec, grid, 10), seed=0)
        extends = []
        original_extend = gp.GPPosterior.extend

        def counted_extend(post, points, values):
            extends.append(len(post))
            return original_extend(post, points, values)

        monkeypatch.setattr(gp.GPPosterior, "extend", counted_extend)
        sizes = counting_fits(monkeypatch)
        # a per-step factor copy or 1x1 Cholesky would show here
        choleskys, solves = [], []
        original_cholesky = np.linalg.cholesky
        original_solve = gp._solve_lower

        def counted_cholesky(a, *args, **kwargs):
            choleskys.append(np.shape(a))
            return original_cholesky(a, *args, **kwargs)

        def counted_solve(*args, **kwargs):
            solves.append(len(args[0]))
            return original_solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(gp, "_solve_lower", counted_solve)
        trace = plain_ucb_run(obj, spec, grid,
                              RunConfig(alpha=0.1, max_evaluations=200))
        assert len(trace) == 200
        assert extends == []
        assert sizes == [0]
        assert choleskys == [(0, 0)]  # the empty fit's
        assert solves == [0]  # the empty fit's

    def test_refit_solve_is_solve_triangular_bitwise(self, monkeypatch):
        # zero jitter makes the Schur complement fail, so the baseline refits
        # and solves for V = L^-1 K(X, pts) against the refit's factor
        spec, grid = spec_se(), unit_grid(max_level=8)
        obj = gp_sample_objective(table_prior(spec, grid, 8), seed=1)
        pts = grid.points(8)
        original_solve = gp._solve_lower
        refit_solves = []

        def checked_solve(chol, b, overwrite_b=False):
            want = solve_triangular(chol, b, lower=True, check_finite=False)
            got = original_solve(chol, b, overwrite_b)
            assert got.tobytes() == want.tobytes()
            if b.ndim == 2 and b.shape[1] == len(pts):
                refit_solves.append(len(chol))
            return got

        monkeypatch.setattr(gp, "_solve_lower", checked_solve)
        plain_ucb_run(obj, spec, grid,
                      RunConfig(alpha=0.1, max_evaluations=60, jitter=0.0))
        assert refit_solves

    @pytest.mark.parametrize("s", [1.0, 1e-10, 1e-300, 5e-324, 0.0, -0.0,
                                   -1e-300, -1.0, math.inf])
    def test_scalar_corner_is_the_1x1_cholesky(self, s):
        # the baseline factors its 1x1 Schur complement as sqrt(s) when s > 0
        corner = math.sqrt(s) if s > 0.0 else None
        try:
            expected = float(np.linalg.cholesky(np.array([[s]]))[0, 0])
        except np.linalg.LinAlgError:
            expected = None
        if expected is None:
            assert corner is None
        else:
            assert np.float64(corner).tobytes() == np.float64(expected).tobytes()


class TestRandomRun:
    def test_deterministic_and_duplicate_free(self):
        grid = unit_grid(max_level=5)
        obj = gp_sample_objective(table_prior(spec_se(), grid, 5), seed=1)
        a = random_run(obj, grid, RunConfig(max_evaluations=20, seed=9))
        b = random_run(obj, grid, RunConfig(max_evaluations=20, seed=9))
        assert a.points.tobytes() == b.points.tobytes()
        assert len({tuple(p) for p in a.points}) == 20

    def test_top_decile_hit_rate(self):
        grid = unit_grid(max_level=6)  # 65 points
        obj = gp_sample_objective(table_prior(spec_se(), grid, 6), seed=0)
        vals = np.array([obj(p) for p in grid.points(6)])
        k = round(len(vals) / 10)
        cutoff = np.sort(vals)[-k]
        hits = 0
        n = 2000
        for seed in range(n):
            tr = random_run(obj, grid, RunConfig(max_evaluations=1, seed=seed))
            hits += tr.values[0] >= cutoff
        expected = k / len(vals)
        tolerance = 3.0 * math.sqrt(expected * (1 - expected) / n) + 0.005
        assert abs(hits / n - expected) <= tolerance


@pytest.mark.parametrize("strategy, max_level, budget",
                         [("bnb", 8, 50), ("ucb", 4, 17), ("random", 4, 17)])
def test_every_strategy_rejects_a_nan_value(strategy, max_level, budget):
    # every strategy evaluates the box centre within these budgets
    obj = bench.Objective(np.zeros(1), np.ones(1),
                          lambda x: math.nan if x[0] == 0.5 else float(x[0]))
    grid, config = unit_grid(max_level=max_level), RunConfig(max_evaluations=budget)
    runs = {"bnb": lambda: bnb.run(obj, spec_se(), grid, config),
            "ucb": lambda: plain_ucb_run(obj, spec_se(), grid, config),
            "random": lambda: random_run(obj, grid, config)}
    with pytest.raises(ValueError, match="observed values must be finite"):
        runs[strategy]()


class TestRegretSeries:
    def _trace(self, values):
        pts = np.arange(len(values), dtype=float).reshape(-1, 1)
        return RunTrace(pts, np.asarray(values, dtype=float), [])

    def _objective_with_max(self, fstar):
        return quadratic_objective([0.5], 1.0, fstar, [0.0], [1.0])

    def test_hand_computed_trace(self):
        series = regret_series(self._trace([0.0, 3.0, 1.0, 3.0, 5.0]),
                               self._objective_with_max(5.0))
        assert np.array_equal(series.simple, [5.0, 2.0, 2.0, 2.0, 0.0])
        assert np.array_equal(series.cumulative, [5.0, 7.0, 11.0, 13.0, 13.0])
        assert series.cumulative[-1] == 13.0

    def test_all_optimal_trace_has_zero_cumulative(self):
        series = regret_series(self._trace([2.0, 2.0, 2.0]),
                               self._objective_with_max(2.0))
        assert np.all(series.cumulative == 0.0)
        assert np.all(series.simple == 0.0)

    def test_zero_after_hitting_max(self):
        series = regret_series(self._trace([0.0, 4.0, 1.0]),
                               self._objective_with_max(4.0))
        assert np.array_equal(series.simple, [4.0, 0.0, 0.0])

    def test_missing_known_max_rejected(self):
        from bnbopt.bench import Objective

        obj = Objective(np.zeros(1), np.ones(1), lambda x: 0.0)
        with pytest.raises(ValueError):
            regret_series(self._trace([1.0]), obj)

    def test_monotonicity_invariants_on_real_run(self):
        from bnbopt.bnb import run

        spec, grid = spec_se(), unit_grid(max_level=8)
        obj = gp_sample_objective(table_prior(spec, grid, 8), seed=13)
        trace = run(obj, spec, grid, RunConfig(alpha=0.1, max_evaluations=200))
        series = regret_series(trace, obj)
        assert np.all(np.diff(series.simple) <= 0.0)
        assert np.all(np.diff(series.cumulative) >= 0.0)


class TestFitRate:
    def test_generate_then_recover(self):
        t = np.arange(1, 201, dtype=float)
        r = 2.0 * np.exp(-0.5 * t / np.log(np.maximum(t, 2)) ** 0.5)
        series = RegretSeries(r, np.cumsum(r), dim=2)
        fitted = fit_rate(series)
        assert fitted.amplitude == pytest.approx(2.0, rel=0.01)
        assert fitted.rate == pytest.approx(0.5, rel=0.01)
        assert fitted.r_squared >= 0.999

    def test_constant_series_has_zero_rate(self):
        series = RegretSeries(np.full(50, 0.7), np.cumsum(np.full(50, 0.7)), 1)
        fitted = fit_rate(series)
        assert fitted.rate == pytest.approx(0.0, abs=1e-12)

    def test_faster_than_model_decay_reports_low_r_squared(self):
        t = np.arange(1, 101, dtype=float)
        r = np.exp(-0.01 * t * t)
        series = RegretSeries(r, np.cumsum(r), dim=1)
        fitted = fit_rate(series)  # no error
        assert fitted.r_squared < 1.0

    def test_insufficient_data_signalled(self):
        series = RegretSeries(np.array([1.0, 0.5, 0.2, 0.0, 0.0]),
                              np.cumsum([1.0, 0.5, 0.2, 0.0, 0.0]), 1)
        with pytest.raises(InsufficientDataError):
            fit_rate(series)


class TestVarianceBoundExperiment:
    def test_matern_scaling_matches_resolution_squared(self):
        # finite smoothness pins the deviation to the delta^2 law
        spec = KernelSpec.isotropic("matern52", 1, 0.3)
        res = variance_bound_experiment(spec, [0.0], [1.0], [1, 2, 3, 4, 5])
        assert res.levels == (1, 2, 3, 4, 5)
        assert 1.8 <= res.slope <= 2.2
        assert np.all(np.diff(res.sup_sigmas) < 0.0)

    def test_se_decays_at_least_quadratically(self):
        # analytic smoothness gives faster-than-quadratic decay, so the
        # bound Q*delta^2/4 holds with growing slack (slope well above 2)
        res = variance_bound_experiment(spec_se(), [0.0], [1.0], [1, 2, 3, 4])
        assert res.slope >= 1.8
        assert np.all(np.diff(res.sup_sigmas) < 0.0)

    def test_prior_deviation_bound(self):
        spec = KernelSpec.isotropic("matern52", 1, 0.3, 1.9)
        res = variance_bound_experiment(spec, [0.0], [1.0], [1, 2, 3])
        assert np.all(res.sup_sigmas <= math.sqrt(1.9))

    def test_levels_must_ascend(self):
        for levels in ([3, 2], [1, 1, 2], []):
            with pytest.raises(ValueError, match="strictly ascending"):
                variance_bound_experiment(spec_se(), [0.0], [1.0], levels)

    def test_slope_of_one_level_is_nan(self):
        res = variance_bound_experiment(spec_se(), [0.0], [1.0], [2])
        assert res.levels == (2,)
        assert math.isnan(res.slope)

    def test_stops_at_the_first_unfactorizable_level(self, monkeypatch):
        original = gp.fit
        sizes = []

        def failing_past_five_points(spec, points, values, jitter=None):
            sizes.append(len(points))
            if len(points) > 5:
                raise IllConditionedError("forced", jitter=1e-6)
            return original(spec, points, values, jitter)

        monkeypatch.setattr(gp, "fit", failing_past_five_points)
        # levels 1 and 2 have 3 and 5 points; level 3 fails, level 4 is not tried
        res = variance_bound_experiment(spec_se(), [0.0], [1.0], [1, 2, 3, 4])
        assert sizes == [3, 5, 9]
        assert res.levels == (1, 2)
        assert len(res.deltas) == len(res.sup_sigmas) == len(res.jitters) == 2


@pytest.fixture(scope="module")
def report():
    return envelope_experiment(spec_se(), unit_grid(max_level=8), 8,
                               alpha=0.1, n_seeds=100, budget=200)


class TestEnvelopeExperiment:
    def test_minimum_seed_count_enforced(self):
        with pytest.raises(ValueError):
            envelope_experiment(spec_se(), unit_grid(), 8, 0.1, n_seeds=10)

    def test_coverage_meets_confidence_guarantee(self, report):
        threshold = 1.0 - 0.1 - 3.0 * math.sqrt(0.1 * 0.9 / 100)
        assert report.coverage >= threshold

    def test_scaled_envelope_covers_everything(self, report):
        # beta scaled by 100 widens the envelope tenfold
        assert np.all(report.max_ratios <= 10.0)

    def test_zero_envelope_covers_nothing(self, report):
        assert np.mean(report.max_ratios <= 0.0) <= 0.05

    def test_retention_at_least_coverage(self, report):
        assert report.retention >= report.coverage

    @pytest.mark.parametrize("center, retained", [(0.75, True), (0.25, False)])
    def test_audit_clears_retention_when_the_region_drops_the_argmax(
            self, center, retained):
        obj = bench.Objective(np.zeros(1), np.ones(1), lambda x: 0.0,
                              np.array([0.875]), 0.0,
                              batch=lambda pts: np.zeros(len(pts)))
        audit = bench._EnvelopeAudit(obj)
        region = RegionBall(np.array([center]), 0.25)
        record = bnb.IterationRecord(1, 1, 0.5, 3, 3, 1.0, 0.0,
                                     initial_region(unit_grid()), region, 1)
        kept = np.array([[center]])
        audit(bnb.ShrinkEvent(record, kept, np.zeros(1), np.ones(1), kept))
        assert audit.retained is retained
        assert audit.max_ratio == 0.0

    def test_audit_reuses_the_shrink_predictions(self, monkeypatch):
        calls = {"predict_batch": 0, "shrink": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gp.GPPosterior, "predict_batch",
                            counted("predict_batch", gp.GPPosterior.predict_batch))
        monkeypatch.setattr(bnb, "shrink", counted("shrink", bnb.shrink))
        envelope_experiment(spec_se(), unit_grid(max_level=6), 6, alpha=0.1,
                            n_seeds=100, budget=30)
        assert calls["shrink"] > 0
        assert calls["predict_batch"] == calls["shrink"]

    def test_audit_matches_a_per_point_reference_bitwise(self, report,
                                                         monkeypatch):
        monkeypatch.setattr(bench._EnvelopeAudit, "__call__", reference_audit)
        want = envelope_experiment(spec_se(), unit_grid(max_level=8), 8,
                                   alpha=0.1, n_seeds=100, budget=200)
        assert report.max_ratios.tobytes() == want.max_ratios.tobytes()
        assert report.retained.tobytes() == want.retained.tobytes()

    def test_audit_makes_no_objective_calls(self, monkeypatch):
        counts = {"audits": 0, "calls_in_audit": 0}
        in_audit = []
        call, audit = bench.Objective.__call__, bench._EnvelopeAudit.__call__

        def counted_call(obj, x):
            counts["calls_in_audit"] += bool(in_audit)
            return call(obj, x)

        def flagged_audit(observer, event):
            counts["audits"] += 1
            in_audit.append(True)
            try:
                return audit(observer, event)
            finally:
                in_audit.pop()

        monkeypatch.setattr(bench.Objective, "__call__", counted_call)
        monkeypatch.setattr(bench._EnvelopeAudit, "__call__", flagged_audit)
        envelope_experiment(spec_se(), unit_grid(max_level=6), 6, alpha=0.1,
                            n_seeds=100, budget=30)
        assert counts["audits"] > 0
        assert counts["calls_in_audit"] == 0

    def test_runs_and_audit_stay_on_the_table(self, monkeypatch):
        # a grid finer than the table must not take the runs off it, where
        # the objective has no value
        table = set(map(tuple, unit_grid(max_level=6).points(6).tolist()))
        audited = []
        audit = bench._EnvelopeAudit.__call__

        def recording(observer, event):
            audited.append(event.candidates)
            return audit(observer, event)

        coarse = envelope_experiment(spec_se(), unit_grid(max_level=6), 6,
                                     alpha=0.1, n_seeds=100, budget=60)
        monkeypatch.setattr(bench._EnvelopeAudit, "__call__", recording)
        fine = envelope_experiment(spec_se(), unit_grid(max_level=8), 6,
                                   alpha=0.1, n_seeds=100, budget=60)
        assert fine.max_ratios.tobytes() == coarse.max_ratios.tobytes()
        assert fine.retained.tobytes() == coarse.retained.tobytes()
        assert audited
        for cands in audited:
            assert set(map(tuple, cands.tolist())) <= table


def reference_audit(self, event):
    """The envelope audit as it was with one objective call per candidate."""
    record = event.record
    f = np.array([self.objective(c) for c in event.candidates])
    resid = np.abs(f - event.mus)
    env = math.sqrt(max(record.beta_T, 0.0)) * event.sigmas
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            env > 0.0,
            resid / env,
            np.where(resid <= self._INTERP_TOL, 0.0, np.inf),
        )
    self.max_ratio = max(self.max_ratio, float(ratio.max()))
    xstar = self.objective.known_max_point
    if xstar is not None and not record.region_after.contains(xstar):
        self.retained = False


class TestBoundaryRunSmoke:
    def test_optimizer_reaches_the_boundary_corner(self):
        from bnbopt.bnb import run

        obj = boundary_max_objective([0.0], [1.0])
        spec = spec_se(ls=0.4)
        trace = run(obj, spec, unit_grid(max_level=8),
                    RunConfig(alpha=0.1, max_evaluations=60))
        point, value = trace.incumbent(len(trace))
        assert point[0] >= 1.0 - 2.0 ** -6
        assert value >= 1.0 - 2.0 ** -6


class TestEnumerationLevel:
    def test_1d_deep_grid_stays_within_cap(self):
        assert enumeration_level(unit_grid(max_level=10)) == 10
        assert enumeration_level(unit_grid(max_level=20)) == 14

    def test_2d_capped(self):
        assert enumeration_level(unit_grid(dim=2, max_level=10)) == 7

    def test_impossible_cap_rejected(self):
        grid = DyadicGrid(np.zeros(15), np.ones(15), 0, 2)
        with pytest.raises(GridTooLargeError):
            enumeration_level(grid)


def test_gp_sample_level_out_of_range():
    # a table lattice needs 1 <= level <= grid.max_level
    for level in (0, 6):
        with pytest.raises(ValueError, match="table level"):
            table_prior(spec_se(), unit_grid(max_level=5), level)
