"""Dyadic grid geometry: resolution, covers, nesting and the lattice checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnbopt.lattice import DyadicGrid, RegionBall, point_keys


def grid_1d(max_level=10):
    return DyadicGrid(np.array([0.0]), np.array([1.0]), 0, max_level)


def grid_2d(max_level=10):
    return DyadicGrid(np.zeros(2), np.ones(2), 0, max_level)


def grid_offset(max_level=10):
    """A box that is neither unit nor anchored at zero: [0.2, 1.7]."""
    return DyadicGrid(np.array([0.2]), np.array([1.7]), 0, max_level)


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

    def test_region_radius_finite(self):
        # an infinite ball's cover has no index window
        with pytest.raises(ValueError):
            RegionBall(np.array([0.5]), math.inf)


class TestDelta:
    def test_unit_square_level0_is_sqrt2(self):
        assert grid_2d().delta(0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_unit_interval_level3(self):
        assert grid_1d().delta(3) == 0.125

    def test_exact_halving_under_refinement(self):
        g = DyadicGrid(np.array([-0.3, 0.1]), np.array([1.1, 2.7]), 0, 12)
        for lev in range(10):
            assert g.delta(lev + 1) == g.delta(lev) / 2.0  # exact in floating point


class TestPoints:
    def test_1d_level1(self):
        pts = grid_1d().points(1)
        assert np.array_equal(pts, np.array([[0.0], [0.5], [1.0]]))

    def test_lexicographic_order_2d(self):
        pts = grid_2d().points(1)
        expected = np.array(
            [[0.0, 0.0], [0.0, 0.5], [0.0, 1.0],
             [0.5, 0.0], [0.5, 0.5], [0.5, 1.0],
             [1.0, 0.0], [1.0, 0.5], [1.0, 1.0]]
        )
        assert np.array_equal(pts, expected)

    def test_num_points(self):
        assert grid_1d().num_points(3) == 9
        assert grid_2d().num_points(2) == 25

    def test_nesting_exhaustive_low_dims(self):
        for make in (grid_1d, grid_2d, grid_offset):
            for lev in range(5):
                coarse = {tuple(p) for p in make().points(lev)}
                fine = {tuple(p) for p in make().points(lev + 1)}
                assert coarse <= fine  # bitwise containment

    def test_exact_dyadic_coordinates(self):
        pts = grid_1d().points(5).ravel()
        assert np.array_equal(pts * 32.0, np.rint(pts * 32.0))


class TestRefine:
    def test_old_points_survive_random_refinements(self):
        rng = np.random.default_rng(0)
        g = DyadicGrid(np.array([0.2, -1.0]), np.array([0.9, 2.0]), 0, 12)
        for _ in range(10):
            lev = int(rng.integers(0, 5))
            coarse = {tuple(p) for p in g.points(lev)}
            fine = {tuple(p) for p in g.points(lev + 1)}
            assert coarse <= fine

    def test_refine_then_coarsen_identity_on_even_indices(self):
        g = grid_1d()
        fine = g.points(4).ravel()
        assert np.array_equal(fine[::2], g.points(3).ravel())


class TestCoverPoints:
    def test_whole_domain_level1(self):
        g = grid_1d()
        region = RegionBall(np.array([0.5]), 0.5)
        assert np.array_equal(g.cover_points(region, 1),
                              np.array([[0.0], [0.5], [1.0]]))

    def test_zero_radius_at_lattice_point_returns_cell_neighbours(self):
        g = grid_1d()
        region = RegionBall(np.array([0.5]), 0.0)
        got = g.cover_points(region, 2)
        # oracle: enumerate every level-2 point, keep those within one cell
        # diagonal of the region
        all_pts = g.points(2)
        keep = np.sqrt(((all_pts - 0.5) ** 2).sum(axis=1)) <= g.delta(2)
        assert np.array_equal(got, all_pts[keep])
        assert np.array_equal(got, np.array([[0.25], [0.5], [0.75]]))

    def test_2d_ball_matches_bruteforce_enumeration(self):
        g = grid_2d()
        region = RegionBall(np.array([0.5, 0.5]), 0.3)
        got = g.cover_points(region, 2)
        all_pts = g.points(2)  # 25 points
        dist = np.sqrt(((all_pts - region.center) ** 2).sum(axis=1))
        expected = all_pts[dist <= region.radius + g.delta(2)]
        assert np.array_equal(got, expected)

    def test_disjoint_region_is_empty(self):
        g = grid_1d()
        assert g.cover_points(RegionBall(np.array([5.0]), 0.5), 3).shape == (0, 1)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            grid_1d().cover_points(RegionBall(np.array([0.5]), 0.1), 0)
        with pytest.raises(ValueError):
            grid_1d().cover_points(RegionBall(np.array([0.5]), 0.1), 11)

    def test_cover_soundness_random_probes(self):
        rng = np.random.default_rng(21)
        g = grid_2d()
        region = RegionBall(np.array([0.4, 0.6]), 0.25)
        cover = g.cover_points(region, 3)
        hits = 0
        while hits < 100:
            probe = rng.uniform(0, 1, size=2)
            if not region.contains(probe, g.lower, g.upper):
                continue
            hits += 1
            nearest = np.sqrt(((cover - probe) ** 2).sum(axis=1)).min()
            assert nearest <= g.delta(3)

    def test_window_size_bounds_enumeration(self):
        g = grid_2d()
        region = RegionBall(np.array([0.5, 0.5]), 0.2)
        assert g.cover_points(region, 4).shape[0] <= g.cover_window_size(region, 4)


class TestDivisibility:
    def test_fresh_grids_pass(self):
        # every point is exactly lower + k * (span / 2^level) for an integer
        # k in [0, 2^level], and index 2k of the next level is the same float
        for g, lev in ((grid_1d(), 4), (grid_2d(), 3), (grid_offset(), 5)):
            h = (g.upper - g.lower) / float(2**lev)
            pts = g.points(lev)
            k = np.rint((pts - g.lower) / h)
            assert k.min() == 0 and k.max() == 2**lev
            assert np.array_equal(pts, g.lower + k * h)
            h_fine = (g.upper - g.lower) / float(2 ** (lev + 1))
            assert np.array_equal(pts, g.lower + (2 * k) * h_fine)

    def test_level5_doubling_enumeration(self):
        g = grid_1d()
        # oracle: normalized doubling of any lattice point that stays in the
        # unit box lands on another lattice point, exhaustively
        pts = {tuple(p) for p in g.points(5)}
        for p in g.points(5):
            doubled = 2.0 * p
            if np.all(doubled <= 1.0):
                assert tuple(doubled) in pts


@pytest.mark.parametrize("shape", [(0, 1), (1, 1), (7, 1), (0, 3), (5, 3)])
def test_point_keys_are_the_row_tuples(shape):
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=shape)
    keys = list(point_keys(pts))
    assert keys == [tuple(p) for p in pts]
    assert all(type(v) is float for key in keys for v in key)


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
    g4 = DyadicGrid(np.zeros(4), np.ones(4), 0, 10)
    assert g4.cover_window_size(initial_region(g4), 10) == 1025**4
    with pytest.raises(GridTooLargeError):
        g4.cover_points(initial_region(g4), 10)


def test_points_level_out_of_range_rejected():
    g = grid_1d(max_level=4)
    with pytest.raises(ValueError):
        g.points(5)



# A copy of the numpy window and enumeration that cover_points,
# cover_window_size and points used before they moved to per-axis scalar
# arithmetic; the tests below pin the new code to these bits.


def reference_delta(grid, level):
    return float(np.linalg.norm(grid.upper - grid.lower)) / float(2**level)


def reference_window(grid, region, level):
    c = region.center
    outside = np.maximum(grid.lower - c, 0.0) + np.maximum(c - grid.upper, 0.0)
    if float(np.sqrt((outside**2).sum())) > region.radius:
        return None
    reach = region.radius + reference_delta(grid, level)
    h = (grid.upper - grid.lower) / float(2**level)
    k_lo = np.maximum(np.floor((c - reach - grid.lower) / h).astype(int) - 1, 0)
    k_hi = np.minimum(np.ceil((c + reach - grid.lower) / h).astype(int) + 1,
                      2**level)
    if np.any(k_lo > k_hi):
        return None
    return k_lo, k_hi


def reference_window_size(grid, region, level):
    window = reference_window(grid, region, level)
    if window is None:
        return 0
    k_lo, k_hi = window
    return math.prod(int(n) for n in k_hi - k_lo + 1)


def reference_enumerate(grid, level, k_lo, k_hi):
    h = (grid.upper - grid.lower) / float(2**level)
    axes = [grid.lower[i] + np.arange(k_lo[i], k_hi[i] + 1) * h[i]
            for i in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def reference_cover_points(grid, region, level):
    window = reference_window(grid, region, level)
    if window is None:
        return np.zeros((0, grid.dim))
    pts = reference_enumerate(grid, level, *window)
    dist = np.sqrt(((pts - region.center) ** 2).sum(axis=1))
    return pts[dist <= region.radius + reference_delta(grid, level)]


@st.composite
def boxes_and_regions(draw):
    """(grid, region, level): d = 1-9, anisotropic non-unit boxes, centres
    that may lie outside the box, and radius 0 among the radii."""
    dim = draw(st.integers(1, 9))
    lower = np.array([draw(st.floats(-2.0, 2.0)) for _ in range(dim)])
    span = np.array([draw(st.floats(0.25, 3.0)) for _ in range(dim)])
    level = draw(st.integers(1, 12))
    grid = DyadicGrid(lower, lower + span, 0, 12)
    frac = np.array([draw(st.floats(-0.6, 1.6)) for _ in range(dim)])
    radius = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    return grid, RegionBall(lower + frac * span, radius), level


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(boxes_and_regions())
def test_cover_matches_the_numpy_reference_bitwise(case):
    grid, region, level = case
    for lev in range(grid.max_level + 1):
        assert grid.delta(lev) == reference_delta(grid, lev)
        assert grid.cover_window_size(region, lev) == reference_window_size(
            grid, region, lev)
    if reference_window_size(grid, region, level) <= 20_000:
        got = grid.cover_points(region, level)
        want = reference_cover_points(grid, region, level)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_points_match_the_numpy_reference_bitwise(dim):
    grid = DyadicGrid(np.linspace(-0.3, 0.4, dim), np.linspace(0.9, 2.6, dim),
                      0, 5)
    for level in range(6 - dim):
        full = [2**level] * dim
        want = reference_enumerate(grid, level, [0] * dim, full)
        assert grid.points(level).tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", range(1, 10))
def test_touching_regions_meet_the_box_as_in_the_reference(dim):
    # a ball whose radius is exactly the reference's centre-to-box distance
    # meets the box only if that distance is summed in the same order, so
    # these cases pin the summation on both sides of numpy's 8-term block
    rng = np.random.default_rng(300 + dim)
    lower = rng.uniform(-2.0, 2.0, dim)
    grid = DyadicGrid(lower, lower + rng.uniform(0.25, 3.0, dim), 0, 6)
    for _ in range(500):
        center = grid.lower + rng.uniform(-1.5, 2.5, dim) * (grid.upper - grid.lower)
        outside = (np.maximum(grid.lower - center, 0.0)
                   + np.maximum(center - grid.upper, 0.0))
        region = RegionBall(center, float(np.sqrt((outside**2).sum())))
        assert grid.cover_window_size(region, 3) == reference_window_size(
            grid, region, 3)
