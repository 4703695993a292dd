"""Optimizer mechanics: confidence multiplier, densify, shrink, full runs."""

import math

import numpy as np
import pytest

from bnbopt.bench import (Objective, gp_sample_objective, quadratic_objective,
                          table_prior)
from bnbopt.bnb import (
    RunConfig,
    RunTrace,
    beta,
    densify,
    initial_region,
    run,
    shrink,
)
from bnbopt.errors import DimensionError
from bnbopt.gp import GPPosterior, fit
from bnbopt.kernels import KernelSpec
from bnbopt.lattice import DyadicGrid

BETA_ORACLE_100_1000_005 = 38.22765584902462  # 2*ln(1000*100^2/0.05), 50 digits


def spec_se(dim=1, ls=0.3, scale=1.0):
    return KernelSpec.isotropic("se", dim, ls, scale)


def unit_grid(dim=1, max_level=8):
    return DyadicGrid(np.zeros(dim), np.ones(dim), 0, max_level)


class TestBeta:
    def test_log_of_one_is_zero(self):
        # lattice_size equal to alpha makes the argument exactly one at T=1
        assert beta(1, 0.5, 0.5) == 0.0

    def test_algebraic_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            T = int(rng.integers(1, 10_000))
            size = float(rng.uniform(1, 1e6))
            alpha = float(rng.uniform(1e-3, 0.999))
            lhs = beta(T, size, alpha)
            rhs = 4.0 * math.log(T) + 2.0 * math.log(size / alpha)
            assert abs(lhs - rhs) <= 1e-12

    def test_frozen_value(self):
        assert beta(100, 1000, 0.05) == pytest.approx(
            BETA_ORACLE_100_1000_005, abs=1e-9
        )

    def test_nondecreasing_in_T(self):
        vals = [beta(t, 257, 0.1) for t in range(1, 100)]
        assert np.all(np.diff(vals) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            beta(0, 100, 0.1)
        with pytest.raises(ValueError):
            beta(1, 100, 1.0)
        with pytest.raises(ValueError):
            beta(1, 0.0, 0.1)


class TestShrink:
    def _observed_posterior(self, points, values):
        spec = spec_se(dim=points.shape[1], ls=0.5)
        return fit(spec, points, values, jitter=1e-12)

    def test_all_observed_distinct_values_keep_argmax_only(self):
        pts = np.array([[0.0], [0.5], [1.0]])
        post = self._observed_posterior(pts, np.array([0.0, 1.0, 2.0]))
        kept, region, sup_lcb, _, _ = shrink(post, 1.0, pts)
        assert kept.shape == (1, 1)
        assert kept[0, 0] == 1.0
        assert region.radius == 0.0
        assert sup_lcb == pytest.approx(2.0, abs=1e-4)

    def test_single_candidate(self):
        # a lone kept point is its own farthest pair, and 0.5 * (x + x) is x
        # bitwise, also off the lattice
        for pts in (np.array([[0.25]]), np.array([[0.1, 1.0 / 3.0, 0.7]])):
            post = self._observed_posterior(pts, np.array([1.0]))
            kept, region, _, _, _ = shrink(post, 9.0, pts)
            assert np.array_equal(kept, pts)
            assert region.radius == 0.0
            assert region.center.tobytes() == pts[0].tobytes()

    def test_enclosing_ball_of_kept_pair(self):
        # an empty posterior scores every candidate identically, so the
        # non-strict rule keeps the whole pair
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        post = fit(KernelSpec.isotropic("se", 2, 1.0), np.zeros((0, 2)), np.zeros(0))
        kept, region, _, _, _ = shrink(post, 4.0, pts)
        assert kept.shape[0] == 2
        assert np.array_equal(region.center, np.array([1.0, 0.0]))
        assert region.radius == 2.0  # full pair distance, not halved

    def test_returns_the_candidate_predictions_bitwise(self):
        pts = np.array([[0.0], [0.5], [1.0]])
        post = self._observed_posterior(pts, np.array([0.0, 1.0, 0.5]))
        cands = np.linspace(0.0, 1.0, 17)[:, None]
        *_, mus, sigmas = shrink(post, 4.0, cands)
        ref_mus, ref_sigmas = post.predict_batch(cands)
        assert mus.tobytes() == ref_mus.tobytes()
        assert sigmas.tobytes() == ref_sigmas.tobytes()

    def test_empty_candidates_rejected(self):
        post = fit(spec_se(), np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            shrink(post, 1.0, np.zeros((0, 1)))

    def test_negative_beta_rejected(self):
        post = fit(spec_se(), np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            shrink(post, -1.0, np.array([[0.5]]))


class TestDensify:
    def test_first_call_evaluates_full_cover_in_order(self):
        spec = spec_se()
        grid = unit_grid()
        cover = grid.cover_points(initial_region(grid), 1)
        post = fit(spec, np.zeros((0, 1)), np.zeros(0))
        seen = []

        def objective(x):
            seen.append(float(x[0]))
            return 0.0

        post, truncated = densify(post, cover, objective, len(cover))
        assert seen == [0.0, 0.5, 1.0]  # lexicographic order
        assert post.points[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert post.values.tolist() == [0.0, 0.0, 0.0]
        assert not truncated

    def test_idempotent_at_fixed_level_and_region(self):
        spec = spec_se()
        grid = unit_grid()
        cover = grid.cover_points(initial_region(grid), 1)
        post = fit(spec, np.zeros((0, 1)), np.zeros(0))
        first, _ = densify(post, cover, lambda x: float(x[0]), len(cover))
        assert len(first) == 3
        second, truncated = densify(first, cover, lambda x: float(x[0]),
                                    len(cover))
        assert np.array_equal(second.points, first.points)
        assert np.array_equal(second.values, first.values)
        assert not truncated

    def test_max_new_caps_evaluations(self):
        spec = spec_se()
        grid = unit_grid()
        cover = grid.cover_points(initial_region(grid), 1)
        post = fit(spec, np.zeros((0, 1)), np.zeros(0))
        post, truncated = densify(post, cover, lambda x: float(x[0]), max_new=2)
        assert len(post) == 2
        assert truncated

    def test_truncated_only_when_unseen_point_left_at_cap(self):
        spec = spec_se()
        grid = unit_grid()
        # cover of the whole domain at level 1: 3 points
        cover = grid.cover_points(initial_region(grid), 1)
        empty = fit(spec, np.zeros((0, 1)), np.zeros(0))
        # a cap equal to the unseen count evaluates them all: not truncated
        post, truncated = densify(empty, cover, lambda x: float(x[0]), max_new=3)
        assert len(post) == 3 and not truncated
        # a cap of zero with nothing left unseen stops nothing
        same, truncated = densify(post, cover, lambda x: float(x[0]), max_new=0)
        assert len(same) == 3 and not truncated
        # one point seen, cap of one: the third cover point is left unseen
        seeded = fit(spec, np.array([[0.5]]), np.array([0.5]))
        post, truncated = densify(seeded, cover, lambda x: float(x[0]), max_new=1)
        assert post.points[1:, 0].tolist() == [0.0]
        assert truncated

    @staticmethod
    def _record_calls(monkeypatch):
        """Log objective values and wrap GPPosterior.extend with a counter."""
        events = []
        original = GPPosterior.extend

        def counting_extend(self, points, values):
            events.append(("extend", np.array(points), list(values)))
            return original(self, points, values)

        def objective(x):
            events.append(("objective", float(x[0])))
            return float(x[0]) ** 2

        monkeypatch.setattr(GPPosterior, "extend", counting_extend)
        return events, objective

    def test_whole_cover_evaluated_then_appended_once(self, monkeypatch):
        events, objective = self._record_calls(monkeypatch)
        grid = unit_grid()
        cover = grid.cover_points(initial_region(grid), 2)  # 5 points
        seeded = fit(spec_se(), np.array([[0.5]]), np.array([0.25]))
        post, truncated = densify(seeded, cover, objective, len(cover))
        assert [e[0] for e in events] == ["objective"] * 4 + ["extend"]
        _, block, values = events[-1]
        assert block[:, 0].tolist() == [0.0, 0.25, 0.75, 1.0]
        assert values == [0.0, 0.0625, 0.5625, 1.0]
        assert len(post) == 5 and not truncated
        assert post.points[1:, 0].tolist() == block[:, 0].tolist()
        assert post.values[1:].tolist() == values

    def test_truncated_pass_appends_the_evaluated_prefix(self, monkeypatch):
        events, objective = self._record_calls(monkeypatch)
        grid = unit_grid()
        cover = grid.cover_points(initial_region(grid), 2)
        seeded = fit(spec_se(), np.array([[0.25]]), np.array([0.0625]))
        post, truncated = densify(seeded, cover, objective, max_new=2)
        assert truncated
        assert [e[0] for e in events] == ["objective"] * 2 + ["extend"]
        evaluated = [e[1] for e in events[:-1]]
        _, block, values = events[-1]
        assert evaluated == [0.0, 0.5]  # lattice order, seen point skipped
        assert block[:, 0].tolist() == evaluated
        assert values == [0.0, 0.25]
        assert post.points[1:, 0].tolist() == evaluated
        assert post.values[1:].tolist() == values


def constant_objective(c, dim=1):
    return Objective(np.zeros(dim), np.ones(dim), lambda x: c, None, None)


class TestRun:
    def test_constant_objective_terminates_with_incumbent(self):
        spec = spec_se(ls=0.5)
        grid = unit_grid(max_level=4)
        trace = run(constant_objective(3.25), spec, grid,
                    RunConfig(alpha=0.1, max_evaluations=40))
        assert len(trace) >= 3
        assert trace.incumbent(len(trace))[1] == 3.25

    def test_budget_truncation_flagged(self):
        spec = spec_se(ls=0.5)
        grid = unit_grid(max_level=6)
        trace = run(constant_objective(0.0), spec, grid,
                    RunConfig(alpha=0.1, max_evaluations=10))
        assert trace.truncated
        assert len(trace) == 10

    def test_quadratic_bowl_monotone_improvement(self):
        obj = quadratic_objective([0.37], 4.0, 2.0, [0.0], [1.0])
        spec = spec_se(ls=0.4)
        trace = run(obj, spec, unit_grid(max_level=10),
                    RunConfig(alpha=0.05, max_evaluations=100))
        incumbents = trace.incumbent_values
        regret = 2.0 - incumbents
        assert regret[-1] <= regret[2]
        assert np.all(np.diff(incumbents) >= 0)

    def test_gp_sample_on_33_point_grid_finds_exhaustive_argmax(self):
        spec = spec_se()
        grid = unit_grid(max_level=5)
        obj = gp_sample_objective(table_prior(spec, grid, 5), seed=12)
        trace = run(obj, spec, grid, RunConfig(alpha=0.1, max_evaluations=200,
                                               seed=12))
        point, value = trace.incumbent(len(trace))
        assert np.array_equal(point, obj.known_max_point)
        assert value == obj.known_max_value

    def test_levels_run_from_grid_level_to_the_finest(self):
        # a constant objective never pinpoints a region, so only the level
        # loop stops these runs: at the grid's cap, at the config's, or with
        # the budget spent exactly at the end of a level, which is not a
        # truncation
        spec = spec_se(ls=0.3)
        cases = ((unit_grid(max_level=4), RunConfig(max_evaluations=10**6),
                  [1, 2, 3, 4], 17),
                 (unit_grid(max_level=8),
                  RunConfig(max_evaluations=10**6, max_level=3), [1, 2, 3], 9),
                 (unit_grid(max_level=4), RunConfig(max_evaluations=9),
                  [1, 2, 3], 9))
        for grid, config, levels, T in cases:
            trace = run(constant_objective(0.0), spec, grid, config)
            assert [rec.level for rec in trace.iterations] == levels
            assert len(trace) == T and not trace.truncated

    def _pinpointed_gp_run(self, budget):
        spec = spec_se()
        grid = unit_grid(max_level=6)
        obj = gp_sample_objective(table_prior(spec, grid, 6), seed=1)
        return run(obj, spec, grid, RunConfig(alpha=0.05, max_evaluations=budget))

    def test_pinpointed_unseen_centre_is_evaluated_last(self):
        trace = self._pinpointed_gp_run(200)
        last = trace.iterations[-1]
        assert last.region_after.radius == 0.0
        assert (last.T_after, len(trace)) == (9, 10)
        assert trace.points[-1].tolist() == [0.21875]
        assert np.array_equal(trace.points[-1], last.region_after.center)
        assert not trace.truncated

    def test_pinpointed_centre_skipped_when_budget_spent(self):
        trace = self._pinpointed_gp_run(9)
        last = trace.iterations[-1]
        assert last.region_after.center.tolist() == [0.21875]
        assert last.region_after.radius == 0.0
        assert len(trace) == last.T_after == 9
        assert 0.21875 not in trace.points[:, 0].tolist()
        assert not trace.truncated

    def test_pinpointed_seen_centre_is_not_evaluated_again(self):
        obj = quadratic_objective([0.5], 1.0, 1.0, [0.0], [1.0])
        trace = run(obj, spec_se(), unit_grid(max_level=6), RunConfig())
        last = trace.iterations[-1]
        assert last.region_after.center.tolist() == [0.5]
        assert last.region_after.radius == 0.0
        assert len(trace) == last.T_after == 11
        assert trace.points[:, 0].tolist().count(0.5) == 1

    def test_domain_mismatch_rejected(self):
        obj = quadratic_objective([0.5], 1.0, 1.0, [0.0], [2.0])
        with pytest.raises(ValueError):
            run(obj, spec_se(), unit_grid(), RunConfig())

    def test_domain_must_match_exactly(self):
        off = quadratic_objective([0.5], 1.0, 1.0, [0.0], [1.0 + 1e-9])
        with pytest.raises(ValueError, match="objective domain does not match"):
            run(off, spec_se(), unit_grid(max_level=4), RunConfig())
        same = quadratic_objective([0.5], 1.0, 1.0, [0.0], [1.0])
        assert len(run(same, spec_se(), unit_grid(max_level=4), RunConfig())) > 0

    def test_kernel_of_another_dimension_rejected(self):
        with pytest.raises(DimensionError,
                           match="kernel dimension 2 != grid dimension 1"):
            run(constant_objective(0.0), spec_se(dim=2), unit_grid(), RunConfig())


class TestRunInvariants:
    def _gp_run(self, seed, observer=None):
        spec = spec_se()
        grid = unit_grid(max_level=8)
        obj = gp_sample_objective(table_prior(spec, grid, 8), seed=seed)
        cfg = RunConfig(alpha=0.1, max_evaluations=200, seed=seed)
        return run(obj, spec, grid, cfg, observer=observer), obj, grid

    def test_no_duplicate_evaluations(self):
        trace, _, _ = self._gp_run(seed=1)
        pts = trace.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert np.linalg.norm(pts[i] - pts[j]) > 1e-12

    def test_evaluations_are_lattice_points_inside_active_region(self):
        trace, _, grid = self._gp_run(seed=2)
        # every evaluated point sits on the finest lattice
        idx = trace.points[:, 0] * 2**grid.max_level
        assert np.allclose(idx, np.rint(idx), atol=1e-9)
        # and within its iteration's region, dilated by that level's diagonal
        t = 0
        for rec in trace.iterations:
            while t < rec.T_after:
                p = trace.points[t]
                dist = np.linalg.norm(p - rec.region_before.center)
                assert dist <= rec.region_before.radius + rec.delta + 1e-12
                t += 1
        # any closing evaluation is the pinpointed region centre itself
        for k in range(t, len(trace)):
            assert np.array_equal(trace.points[k],
                                  trace.iterations[-1].region_after.center)

    def test_kept_subset_of_new_region(self):
        events = []
        self._gp_run(seed=3, observer=events.append)
        assert events
        for ev in events:
            mid = ev.record.region_after.center
            radius = ev.record.region_after.radius
            for p in ev.kept:
                assert np.linalg.norm(p - mid) <= radius * (1 + 1e-12) + 1e-15

    def test_event_record_is_the_trace_record(self):
        events = []
        trace, _, _ = self._gp_run(seed=3, observer=events.append)
        assert len(events) == len(trace.iterations) > 0
        for k, ev in enumerate(events):
            assert ev.record is trace.iterations[k]

    def test_delta_halves_and_beta_nondecreasing(self):
        trace, _, _ = self._gp_run(seed=4)
        recs = trace.iterations
        assert len(recs) >= 2
        for a, b in zip(recs, recs[1:]):
            assert b.delta == a.delta / 2.0
            assert b.beta_T >= a.beta_T
            assert b.T_after > a.T_after

    def test_deterministic_traces_bitwise(self):
        a, _, _ = self._gp_run(seed=5)
        b, _, _ = self._gp_run(seed=5)
        assert a.points.tobytes() == b.points.tobytes()
        assert a.values.tobytes() == b.values.tobytes()
        assert len(a.iterations) == len(b.iterations)
        for ra, rb in zip(a.iterations, b.iterations):
            assert ra.beta_T == rb.beta_T
            assert ra.sup_lcb == rb.sup_lcb
            assert ra.kept_count == rb.kept_count

    def test_envelope_conditional_argmax_retention(self):
        # on a run where the envelope held at every shrink candidate, the
        # candidate argmax of f survives every shrink (non-strict rule)
        spec = spec_se()
        grid = unit_grid(max_level=8)
        obj = gp_sample_objective(table_prior(spec, grid, 8), seed=6)
        events = []
        run(obj, spec, grid, RunConfig(alpha=0.1, max_evaluations=200, seed=6),
            observer=events.append)
        for ev in events:
            f = np.array([obj(c) for c in ev.candidates])
            env = math.sqrt(ev.record.beta_T) * ev.sigmas
            envelope_ok = np.all(np.abs(f - ev.mus) <= env + 1e-12)
            assert envelope_ok  # seed chosen to satisfy the envelope
            best = ev.candidates[int(np.argmax(f))]
            assert any(np.array_equal(best, k) for k in ev.kept)


class TestTrace:
    def _toy_trace(self, values):
        pts = np.arange(len(values), dtype=float).reshape(-1, 1)
        return RunTrace(pts, np.asarray(values, dtype=float), [])

    def test_incumbent_first_step(self):
        tr = self._toy_trace([4.0, 9.0, 1.0])
        point, value = tr.incumbent(1)
        assert value == 4.0
        assert point[0] == 0.0

    def test_incumbent_monotone(self):
        rng = np.random.default_rng(23)
        tr = self._toy_trace(rng.normal(size=50))
        vals = [tr.incumbent(t)[1] for t in range(1, 51)]
        assert np.all(np.diff(vals) >= 0)

    def test_incumbent_matches_rescan_oracle(self):
        rng = np.random.default_rng(29)
        values = rng.normal(size=200)
        tr = self._toy_trace(values)
        for t in (1, 7, 50, 140, 200):
            i = int(np.argmax(values[:t]))  # argmax takes the earliest tie
            point, value = tr.incumbent(t)
            assert value == values[i]
            assert point[0] == float(i)

    def test_incumbent_ties_break_earliest(self):
        tr = self._toy_trace([1.0, 5.0, 5.0])
        point, _ = tr.incumbent(3)
        assert point[0] == 1.0
        # -0.0 == 0.0, so the earliest keeps its sign bit in every incumbent
        # value; np.maximum.accumulate would return +0.0 at the second step
        signed = self._toy_trace([-0.0, 0.0])
        assert signed.incumbent_values.tobytes() == np.array([-0.0, -0.0]).tobytes()

    def test_out_of_range(self):
        tr = self._toy_trace([1.0])
        with pytest.raises(IndexError):
            tr.incumbent(0)
        with pytest.raises(IndexError):
            tr.incumbent(2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="observed values must be finite"):
            self._toy_trace([1.0, bad, 2.0])


class TestRunConfig:
    def test_alpha_strictly_inside_unit_interval(self):
        with pytest.raises(ValueError):
            RunConfig(alpha=0.0)
        with pytest.raises(ValueError):
            RunConfig(alpha=1.0)

    def test_budget_positive(self):
        with pytest.raises(ValueError):
            RunConfig(max_evaluations=0)


def test_trace_shape_validation():
    with pytest.raises(ValueError):
        RunTrace(np.zeros((3, 1)), np.zeros(2), [])
