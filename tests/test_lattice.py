"""Dyadic grid geometry: resolution, covers, nesting and the lattice checks."""

import math

import numpy as np
import pytest

from bnbopt.errors import ResolutionExhausted
from bnbopt.lattice import DyadicGrid, RegionBall


def grid_1d(level=0, max_level=10):
    return DyadicGrid(np.array([0.0]), np.array([1.0]), level, max_level)


def grid_2d(level=0, max_level=10):
    return DyadicGrid(np.zeros(2), np.ones(2), level, max_level)


def grid_offset(level=0, max_level=10):
    """A box that is neither unit nor anchored at zero: [0.2, 1.7]."""
    return DyadicGrid(np.array([0.2]), np.array([1.7]), level, max_level)


class TestConstruction:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            DyadicGrid(np.array([1.0]), np.array([0.0]))

    def test_level_within_cap(self):
        with pytest.raises(ValueError):
            DyadicGrid(np.array([0.0]), np.array([1.0]), level=5, max_level=4)

    def test_region_radius_nonnegative(self):
        with pytest.raises(ValueError):
            RegionBall(np.array([0.5]), -0.1)


class TestDelta:
    def test_unit_square_level0_is_sqrt2(self):
        assert grid_2d().delta() == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_unit_interval_level3(self):
        assert grid_1d(level=3).delta() == 0.125

    def test_exact_halving_under_refinement(self):
        g = DyadicGrid(np.array([-0.3, 0.1]), np.array([1.1, 2.7]), 0, 12)
        for _ in range(10):
            before = g.delta()
            g = g.refine()
            assert g.delta() == before / 2.0  # exact in floating point


class TestPoints:
    def test_1d_level1(self):
        pts = grid_1d(level=1).points()
        assert np.array_equal(pts, np.array([[0.0], [0.5], [1.0]]))

    def test_lexicographic_order_2d(self):
        pts = grid_2d(level=1).points()
        expected = np.array(
            [[0.0, 0.0], [0.0, 0.5], [0.0, 1.0],
             [0.5, 0.0], [0.5, 0.5], [0.5, 1.0],
             [1.0, 0.0], [1.0, 0.5], [1.0, 1.0]]
        )
        assert np.array_equal(pts, expected)

    def test_num_points(self):
        assert grid_1d(level=3).num_points() == 9
        assert grid_2d(level=2).num_points() == 25

    def test_nesting_exhaustive_low_dims(self):
        for make in (grid_1d, grid_2d, grid_offset):
            for lev in range(5):
                coarse = {tuple(p) for p in make(level=lev).points()}
                fine = {tuple(p) for p in make(level=lev + 1).points()}
                assert coarse <= fine  # bitwise containment

    def test_exact_dyadic_coordinates(self):
        g = grid_1d(level=5)
        pts = g.points().ravel()
        assert np.array_equal(pts * 32.0, np.rint(pts * 32.0))


class TestRefine:
    def test_level0_refines_to_three_points(self):
        g = grid_1d(level=0).refine()
        assert np.array_equal(g.points(), np.array([[0.0], [0.5], [1.0]]))

    def test_old_points_survive_random_refinements(self):
        rng = np.random.default_rng(0)
        g = DyadicGrid(np.array([0.2, -1.0]), np.array([0.9, 2.0]), 0, 12)
        for _ in range(10):
            lev = int(rng.integers(0, 5))
            coarse = {tuple(p) for p in g.points(lev)}
            fine = {tuple(p) for p in g.points(lev + 1)}
            assert coarse <= fine

    def test_resolution_exhausted_at_cap(self):
        g = grid_1d(level=3, max_level=3)
        with pytest.raises(ResolutionExhausted):
            g.refine()

    def test_refine_then_coarsen_identity_on_even_indices(self):
        g = grid_1d(level=3)
        fine = g.refine().points().ravel()
        assert np.array_equal(fine[::2], g.points().ravel())


class TestCoverPoints:
    def test_whole_domain_level1(self):
        g = grid_1d(level=1)
        region = RegionBall(np.array([0.5]), 0.5)
        assert np.array_equal(g.cover_points(region),
                              np.array([[0.0], [0.5], [1.0]]))

    def test_zero_radius_at_lattice_point_returns_cell_neighbours(self):
        g = grid_1d(level=2)
        region = RegionBall(np.array([0.5]), 0.0)
        got = g.cover_points(region)
        # oracle: enumerate every level-2 point, keep those within one cell
        # diagonal of the region
        all_pts = g.points()
        keep = np.sqrt(((all_pts - 0.5) ** 2).sum(axis=1)) <= g.delta()
        assert np.array_equal(got, all_pts[keep])
        assert np.array_equal(got, np.array([[0.25], [0.5], [0.75]]))

    def test_2d_ball_matches_bruteforce_enumeration(self):
        g = grid_2d(level=2)
        region = RegionBall(np.array([0.5, 0.5]), 0.3)
        got = g.cover_points(region)
        all_pts = g.points()  # 25 points
        dist = np.sqrt(((all_pts - region.center) ** 2).sum(axis=1))
        expected = all_pts[dist <= region.radius + g.delta()]
        assert np.array_equal(got, expected)

    def test_disjoint_region_is_empty(self):
        g = grid_1d(level=3)
        assert g.cover_points(RegionBall(np.array([5.0]), 0.5)).shape == (0, 1)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            grid_1d(level=0).cover_points(RegionBall(np.array([0.5]), 0.1))

    def test_cover_soundness_random_probes(self):
        rng = np.random.default_rng(21)
        g = grid_2d(level=3)
        region = RegionBall(np.array([0.4, 0.6]), 0.25)
        cover = g.cover_points(region)
        hits = 0
        while hits < 100:
            probe = rng.uniform(0, 1, size=2)
            if not region.contains(probe, g.lower, g.upper):
                continue
            hits += 1
            nearest = np.sqrt(((cover - probe) ** 2).sum(axis=1)).min()
            assert nearest <= g.delta()

    def test_window_size_bounds_enumeration(self):
        g = grid_2d(level=4)
        region = RegionBall(np.array([0.5, 0.5]), 0.2)
        assert g.cover_points(region).shape[0] <= g.cover_window_size(region)


class TestDivisibility:
    def test_fresh_grids_pass(self):
        # every point is exactly lower + k * (span / 2^level) for an integer
        # k in [0, 2^level], and index 2k of the next level is the same float
        for g in (grid_1d(level=4), grid_2d(level=3), grid_offset(level=5)):
            h = (g.upper - g.lower) / float(2**g.level)
            pts = g.points()
            k = np.rint((pts - g.lower) / h)
            assert k.min() == 0 and k.max() == 2**g.level
            assert np.array_equal(pts, g.lower + k * h)
            h_fine = (g.upper - g.lower) / float(2 ** (g.level + 1))
            assert np.array_equal(pts, g.lower + (2 * k) * h_fine)

    def test_level5_doubling_enumeration(self):
        g = grid_1d(level=5)
        # oracle: normalized doubling of any lattice point that stays in the
        # unit box lands on another lattice point, exhaustively
        pts = {tuple(p) for p in g.points()}
        for p in g.points():
            doubled = 2.0 * p
            if np.all(doubled <= 1.0):
                assert tuple(doubled) in pts


class TestRegionBall:
    def test_membership_includes_box_clipping(self):
        ball = RegionBall(np.array([0.1, 0.1]), 0.5)
        lower, upper = np.zeros(2), np.ones(2)
        assert ball.contains(np.array([0.3, 0.3]), lower, upper)
        assert not ball.contains(np.array([-0.1, 0.1]), lower, upper)  # off box
        assert not ball.contains(np.array([0.9, 0.9]), lower, upper)  # off ball


def test_enumeration_beyond_cap_rejected():
    from bnbopt.errors import GridTooLargeError

    from bnbopt.bnb import initial_region

    g = DyadicGrid(np.array([0.0]), np.array([1.0]), 0, 24)
    with pytest.raises(GridTooLargeError):
        g.points(24)
    # the cover of the whole 4-d unit box at level 10 spans a 1025^4 window
    g4 = DyadicGrid(np.zeros(4), np.ones(4), 10, 10)
    assert g4.cover_window_size(initial_region(g4)) == 1025**4
    with pytest.raises(GridTooLargeError):
        g4.cover_points(initial_region(g4))


def test_points_level_out_of_range_rejected():
    g = grid_1d(max_level=4)
    with pytest.raises(ValueError):
        g.points(5)
