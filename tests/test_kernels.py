"""Kernel evaluation, Gram structure and the smoothness constant."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

import bnbopt
from bnbopt.errors import DimensionError
from bnbopt.kernels import (
    FAMILIES,
    KernelSpec,
    _profile,
    evaluate,
    min_dist,
    pairwise,
    smoothness_constant,
    sqdist,
)

EXP_MINUS_ONE = 0.36787944117144233  # high-precision e^-1, 50-digit arithmetic
# fourth derivatives at zero of the unit profiles t -> k(t^2), 4! times the
# t^4 Taylor coefficient: 1/8 for SE, 25/24 for Matern-5/2
D4_SE_UNIT = 3.0
D4_M52_UNIT = 25.0


def spec_se(dim=1, ls=1.0, scale=1.0):
    return KernelSpec.isotropic("se", dim, ls, scale)


def spec_m52(dim=1, ls=1.0, scale=1.0):
    return KernelSpec.isotropic("matern52", dim, ls, scale)


class TestSpecValidation:
    def test_bad_family(self):
        with pytest.raises(ValueError):
            KernelSpec("cubic", 1.0, (1.0,))

    def test_nonpositive_parameters_rejected(self):
        # an infinite scale would make every bound NaN or the kernel constant
        for scale in (0.0, math.inf):
            with pytest.raises(ValueError, match="output_scale must be finite"):
                KernelSpec("se", scale, (1.0,))
        for ls in (0.0, -0.3, math.inf):
            with pytest.raises(ValueError, match="lengthscales must all be finite"):
                KernelSpec("se", 1.0, (ls,))

    def test_dim_must_be_positive(self):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            KernelSpec("se", 1.0, ())


class TestEvaluate:
    def test_self_covariance_is_output_scale(self):
        for spec in (spec_se(scale=1.0), spec_se(dim=3, ls=0.2, scale=2.5),
                     spec_m52(scale=0.7)):
            x = np.linspace(0.1, 0.9, spec.dim)
            assert evaluate(spec, x, x) == spec.output_scale

    def test_matern_decays_to_zero_at_large_distance(self):
        spec = spec_m52()
        assert evaluate(spec, [0.0], [50.0]) < 1e-12

    def test_se_at_scaled_squared_distance_two(self):
        # (x - y)^T D (x - y) = 2 with unit lengthscales -> exp(-1)
        spec = spec_se()
        v = evaluate(spec, [0.0], [math.sqrt(2.0)])
        assert v == pytest.approx(EXP_MINUS_ONE, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            evaluate(spec_se(dim=2, ls=0.5), [0.0], [0.0, 0.0])
        with pytest.raises(DimensionError):
            evaluate(spec_se(), [0.0, 1.0], [0.0, 1.0])

    def test_symmetry_over_random_pairs(self):
        rng = np.random.default_rng(7)
        for spec in (spec_se(dim=2, ls=0.4), spec_m52(dim=2, ls=0.6)):
            for _ in range(1000):
                x, y = rng.uniform(-2, 2, size=(2, 2))
                assert abs(evaluate(spec, x, y) - evaluate(spec, y, x)) <= 1e-15

    def test_bounded_by_self_covariance(self):
        rng = np.random.default_rng(11)
        for spec in (spec_se(dim=2, ls=0.4, scale=1.3), spec_m52(dim=2, ls=0.6)):
            for _ in range(500):
                x, y = rng.uniform(-2, 2, size=(2, 2))
                v = evaluate(spec, x, y)
                assert 0.0 <= v <= evaluate(spec, x, x)

    def test_anisotropy_shrinking_one_lengthscale(self):
        # pairs separated along axis 0: shorter lengthscale there means
        # strictly lower covariance
        x = np.array([0.0, 0.3])
        y = np.array([0.5, 0.3])
        for family in ("se", "matern52"):
            wide = KernelSpec(family, 1.0, (1.0, 1.0))
            narrow = KernelSpec(family, 1.0, (0.4, 1.0))
            assert evaluate(narrow, x, y) < evaluate(wide, x, y)


class TestGram:
    """pairwise(points, points), the Gram matrix the posterior factors."""

    def test_single_point(self):
        spec = spec_se(scale=1.7)
        K = pairwise(spec, [[0.25]], [[0.25]])
        assert K.shape == (1, 1)
        assert K[0, 0] == 1.7

    def test_duplicate_points_give_rank_deficient_block(self):
        spec = spec_se(scale=2.0)
        K = pairwise(spec, [[0.3], [0.3]], [[0.3], [0.3]])
        assert np.all(K == 2.0)

    def test_matches_entrywise_evaluate(self):
        rng = np.random.default_rng(3)
        for spec in (spec_se(dim=2, ls=0.5), spec_m52(dim=2, ls=0.3, scale=1.4)):
            pts = rng.uniform(0, 1, size=(3, 2))
            K = pairwise(spec, pts, pts)
            for i in range(3):
                for j in range(3):
                    assert K[i, j] == pytest.approx(
                        evaluate(spec, pts[i], pts[j]), abs=1e-14
                    )
            assert np.array_equal(K, K.T)
            assert np.all(np.diag(K) == spec.output_scale)

    def test_positive_semidefinite_up_to_jitter(self):
        rng = np.random.default_rng(5)
        for family in ("se", "matern52"):
            for n in (5, 20, 50):
                spec = KernelSpec.isotropic(family, 2, 0.4)
                pts = rng.uniform(0, 1, size=(n, 2))
                K = pairwise(spec, pts, pts)
                np.linalg.cholesky(K + 1e-10 * np.eye(n))  # must not raise


class TestCross:
    """pairwise(points, [x]), the column a one-row block append needs."""

    def test_first_entry_one_when_x_is_first_point(self):
        spec = spec_se()
        pts = [[0.1], [0.4], [0.9]]
        k = pairwise(spec, pts, [[0.1]])[:, 0]
        assert k[0] == 1.0

    def test_empty_points(self):
        k = pairwise(spec_se(), np.zeros((0, 1)), [[0.5]])[:, 0]
        assert k.shape == (0,)

    def test_matches_entrywise_evaluate(self):
        rng = np.random.default_rng(9)
        spec = spec_m52(dim=2, ls=0.7)
        pts = rng.uniform(0, 1, size=(3, 2))
        x = rng.uniform(0, 1, size=2)
        k = pairwise(spec, pts, x[None, :])[:, 0]
        for i in range(3):
            assert k[i] == pytest.approx(evaluate(spec, pts[i], x), abs=1e-14)


class TestSmoothnessConstant:
    def test_lengthscale_rescaling(self):
        # second-order constant: scaling lengthscales by c scales Q by 1/c^2
        for family in ("se", "matern52"):
            base = KernelSpec.isotropic(family, 1, 0.5)
            scaled = KernelSpec.isotropic(family, 1, 1.5)
            ratio = smoothness_constant(base) / smoothness_constant(scaled)
            assert ratio == pytest.approx(9.0, rel=1e-9)

    def test_against_finite_difference_oracle(self):
        # unit-lengthscale profiles vs the exact fourth derivatives, which a
        # five-point stencil at step 1e-3 approaches to about 0.3 %
        assert smoothness_constant(spec_se()) == pytest.approx(
            math.sqrt(D4_SE_UNIT), rel=1e-12
        )
        assert smoothness_constant(spec_m52()) == pytest.approx(
            math.sqrt(D4_M52_UNIT), rel=1e-12
        )

    def test_output_scale_doubling_scales_by_sqrt2(self):
        for family in ("se", "matern52"):
            q1 = smoothness_constant(KernelSpec.isotropic(family, 1, 0.3, 1.0))
            q2 = smoothness_constant(KernelSpec.isotropic(family, 1, 0.3, 2.0))
            assert q2 / q1 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_bounds_empirical_deviation_ratio(self):
        # Q delta^2 / 4 must dominate the measured sup sigma on covers
        from bnbopt.bench import variance_bound_experiment

        for family in ("se", "matern52"):
            for scale in (1.0, 2.0):
                spec = KernelSpec.isotropic(family, 1, 0.3, scale)
                q = smoothness_constant(spec)
                res = variance_bound_experiment(spec, [0.0], [1.0], [2, 3, 4])
                for d, s in zip(res.deltas, res.sup_sigmas):
                    assert s <= q * d * d / 4.0

    def test_anisotropic_uses_smallest_lengthscale(self):
        spec = KernelSpec("se", 1.0, (0.2, 0.8))
        assert smoothness_constant(spec) == pytest.approx(
            smoothness_constant(spec_se(ls=0.2)), rel=1e-12
        )


def test_pairwise_shape_and_consistency():
    spec = spec_se(dim=2, ls=0.5)
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.5, 0.5]])
    m = pairwise(spec, a, b)
    assert m.shape == (2, 1)
    assert m[0, 0] == pytest.approx(evaluate(spec, a[0], b[0]), abs=1e-15)


def test_cross_dimension_mismatch():
    with pytest.raises(DimensionError):
        pairwise(spec_se(), np.zeros((2, 2)), [[0.5]])


# (n, m) pairs: empty sides, one-block calls, several blocks with a partial
# last block, and one-row blocks (more than 2^15 columns)
DIST_SHAPES = [(0, 0), (0, 5), (4, 0), (1, 1), (7, 3), (40, 90), (300, 170),
               (1, 5000), (3, 33000)]


def _points(rng, n, dim):
    # dyadic points in half of the rows, so exact ties and zero gaps occur
    pts = rng.uniform(-3.0, 3.0, size=(n, dim))
    pts[::2] = np.round(pts[::2] * 16.0) / 16.0
    return pts


def test_pairwise_is_the_profile_bitwise():
    # pairwise works in place on its distance blocks; it must give the bits
    # of _profile on cdist's squared distances, at every dimension and
    # anisotropic lengthscales, for one-block and many-block calls alike
    rng = np.random.default_rng(5)
    for family in FAMILIES:
        for dim in range(1, 11):
            spec = KernelSpec(family, 1.7, tuple(rng.uniform(0.05, 3.0, dim)))
            ls = np.asarray(spec.lengthscales)
            for n, m in DIST_SHAPES:
                a, b = _points(rng, n, dim), _points(rng, m, dim)
                for x, y in ((a, b), (a, a)):
                    sq = cdist(x / ls, y / ls, "sqeuclidean")
                    expected = _profile(family, sq) * spec.output_scale
                    got = pairwise(spec, x, y)
                    assert got.tobytes() == expected.tobytes(), (family, dim, n, m)


class TestDistances:
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_sqdist_is_cdist_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        for n, m in DIST_SHAPES:
            a, b = _points(rng, n, dim), _points(rng, m, dim)
            got = sqdist(a, b)
            assert got.shape == (n, m)
            assert got.tobytes() == cdist(a, b, "sqeuclidean").tobytes()
            assert np.sqrt(got).tobytes() == cdist(a, b).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    def test_min_dist_is_pdist_and_cdist_min(self, dim):
        rng = np.random.default_rng(200 + dim)
        for n, m in DIST_SHAPES:
            a, b = _points(rng, n, dim), _points(rng, m, dim)
            want = cdist(a, b).min() if n and m else math.inf
            assert min_dist(a, b) == want
            want = pdist(a).min() if n > 1 else math.inf
            assert min_dist(a) == want

    def test_min_dist_finds_a_pair_in_a_late_block(self):
        # 3000 points, the one close pair in the last rows and columns
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 1.0, size=(3000, 2))
        pts[-1] = pts[-2] + 1e-9
        assert min_dist(pts) == pdist(pts).min()
        assert min_dist(pts[:5], pts) == 0.0
        # and the first row with the last, a pair in the first and last blocks
        pts[0] = pts[-1] + 1e-10
        assert min_dist(pts) == pdist(pts).min() < 1e-9


def test_import_loads_no_scipy_spatial():
    # a fresh interpreter, importing the bnbopt this test suite imports
    code = ("import sys, bnbopt, bnbopt.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))")
    src = str(Path(bnbopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
