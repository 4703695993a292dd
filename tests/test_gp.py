"""Posterior exactness, incremental updates and prior sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.spatial.distance import pdist

from bnbopt import kernels
from bnbopt.errors import DuplicateObservationError, IllConditionedError
from bnbopt.gp import (
    DUPLICATE_TOL,
    _check_new,
    _factor,
    _schur_step,
    _solve_lower,
    fit,
    sample_prior_on_grid,
)
from bnbopt.kernels import KernelSpec, evaluate, pairwise


def spec_se(dim=1, ls=1.0, scale=1.0):
    return KernelSpec.isotropic("se", dim, ls, scale)


def bounds(post, x, beta):
    """Confidence bounds (mu - sqrt(beta) sigma, mu + sqrt(beta) sigma) at x."""
    (mu,), (sigma,) = post.predict_batch(np.atleast_2d(x))
    return mu - math.sqrt(beta) * sigma, mu + math.sqrt(beta) * sigma


def two_obs_oracle(spec, pts, vals, x, jitter):
    """Closed-form 2x2 inversion for mean and deviation at x."""
    a = evaluate(spec, pts[0], pts[0]) + jitter
    b = evaluate(spec, pts[0], pts[1])
    d = evaluate(spec, pts[1], pts[1]) + jitter
    det = a * d - b * b
    inv = np.array([[d, -b], [-b, a]]) / det
    k = np.array([evaluate(spec, pts[0], x), evaluate(spec, pts[1], x)])
    mu = k @ inv @ np.asarray(vals)
    var = evaluate(spec, x, x) - k @ inv @ k
    return float(mu), math.sqrt(max(0.0, var))


class TestFit:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="matching lengths"):
            fit(spec_se(), np.zeros((2, 1)), np.zeros(3))

    def test_exact_duplicates_rejected(self):
        with pytest.raises(DuplicateObservationError):
            fit(spec_se(), np.array([[0.5], [0.5]]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="observed values must be finite"):
            fit(spec_se(), np.array([[0.1], [0.5]]), np.array([1.0, bad]))

    def test_duplicate_tolerance_boundary(self):
        # a gap of exactly DUPLICATE_TOL is kept, within a block and against
        # the observed points; the next double down is a duplicate
        spec = spec_se(dim=2)
        kept = np.array([[0.25, 0.0], [0.25, DUPLICATE_TOL], [0.75, 0.5]])
        assert pdist(kept).min() == DUPLICATE_TOL
        _check_new(spec, np.zeros((0, 2)), kept, np.zeros(3))
        _check_new(spec, kept[:1], kept[1:], np.zeros(2))
        close = kept.copy()
        close[1, 1] = np.nextafter(DUPLICATE_TOL, 0.0)
        with pytest.raises(DuplicateObservationError):
            _check_new(spec, np.zeros((0, 2)), close, np.zeros(3))
        with pytest.raises(DuplicateObservationError):
            _check_new(spec, close[:1], close[1:], np.zeros(2))

    def test_duplicate_check_holds_no_pair_matrix(self):
        # pdist's condensed array of 3,000 points is 36 MB
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 1.0, size=(3000, 2))
        condensed = 3000 * 2999 // 2 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _check_new(spec_se(dim=2), np.zeros((0, 2)), pts, np.zeros(3000))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < condensed / 10

    def test_empty_returns_prior(self):
        # the empty posterior takes predict_batch's general path
        spec = spec_se(scale=2.25)
        post = fit(spec, np.zeros((0, 1)), np.zeros(0))
        mus, sigmas = post.predict_batch(np.array([[0.3], [-1.0], [0.0], [7.5]]))
        assert mus.tobytes() == np.zeros(4).tobytes()
        assert sigmas.tobytes() == np.full(4, 1.5).tobytes()  # sqrt of 2.25

    def test_single_observation_weights(self):
        # L is the 1x1 factor sqrt(1 + jitter), so L^-1 y = 2 / sqrt(1 + jitter)
        spec = spec_se(scale=1.0)
        jitter = 1e-8
        post = fit(spec, np.array([[0.4]]), np.array([2.0]), jitter)
        assert post.whitened[0] == pytest.approx(2.0 / math.sqrt(1.0 + jitter),
                                                 rel=1e-12)

    def test_two_observations_match_closed_form(self):
        spec = spec_se(ls=0.5)
        pts = np.array([[0.2], [0.7]])
        vals = np.array([1.0, -0.5])
        jitter = 1e-10
        post = fit(spec, pts, vals, jitter)
        for x in ([0.45], [0.1], [0.9]):
            (mu,), (sigma,) = post.predict_batch(np.atleast_2d(x))
            mu_o, sigma_o = two_obs_oracle(spec, pts, vals, np.asarray(x), jitter)
            assert mu == pytest.approx(mu_o, abs=1e-10)
            assert sigma == pytest.approx(sigma_o, abs=1e-10)

    def test_factor_reproduces_jittered_gram(self):
        rng = np.random.default_rng(2)
        spec = spec_se(dim=2, ls=0.4)
        pts = rng.uniform(0, 1, size=(12, 2))
        post = fit(spec, pts, rng.normal(size=12))
        K = pairwise(spec, pts, pts) + post.jitter * np.eye(12)
        recon = post.chol @ post.chol.T
        assert np.max(np.abs(recon - K)) <= 1e-10 * np.max(np.abs(K))

    def test_jitter_escalates_on_singular_gram(self):
        # two points one nanometre apart produce bitwise-identical Gram rows;
        # a zero starting jitter must escalate rather than fail
        spec = spec_se()
        post = fit(spec, np.array([[0.5], [0.5 + 1e-9]]), np.array([1.0, 1.0]),
                   jitter=0.0)
        assert post.jitter > 0.0

    def test_ill_conditioned_error_reports_distance(self):
        # exercised directly on an indefinite matrix: kernels never produce
        # one, so this is the only way to reach the escalation ceiling
        bad = np.array([[1.0, 0.0], [0.0, -1.0]])
        pts = np.array([[0.0], [0.125]])
        with pytest.raises(IllConditionedError) as err:
            _factor(bad, 1e-10, 1.0, pts)
        assert err.value.min_pair_distance == pytest.approx(0.125)
        assert "0.125" in str(err.value)


class TestSolveLower:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 37, 200])
    @pytest.mark.parametrize("layout, m", [("1-D", 1)] + [
        (layout, m) for layout in ("C", "F") for m in (0, 1, 3, 65)])
    def test_bits_of_solve_triangular(self, n, layout, m):
        rng = np.random.default_rng(100 * n + m)
        a = rng.normal(size=(n, n + 3))
        chol = np.linalg.cholesky(a @ a.T + 1e-3 * np.eye(n))
        shape = (n,) if layout == "1-D" else (n, m)
        b = np.asarray(rng.normal(size=shape), order="F" if layout == "F" else "C")
        want = solve_triangular(chol, b, lower=True, check_finite=False)
        # the first n rows of a wider buffer, NaN off the factor's lower
        # triangle: LAPACK must read only that triangle of the leading block
        wide = np.full((n + 2, n + 5), np.nan)
        wide[:n, :n] = np.where(np.tri(n, dtype=bool), chol, np.nan)
        for factor in (chol, wide[:n]):
            for overwrite in (False, True):
                got = _solve_lower(factor, b.copy(order="K"),
                                   overwrite_b=overwrite)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_keeps_b_unless_told(self):
        rng = np.random.default_rng(5)
        chol = np.linalg.cholesky(np.eye(4) + 0.1)
        b = np.asfortranarray(rng.normal(size=(4, 3)))
        before = b.copy()
        _solve_lower(chol, b)
        assert np.array_equal(b, before)

    def test_empty_paths_print_nothing(self, capfd):
        # dtrtrs reports an empty factor through OpenBLAS's XERBLA, which
        # prints to the C stdout, not stderr: check both file descriptors
        spec = spec_se()
        empty = fit(spec, np.zeros((0, 1)), np.zeros(0))
        empty.predict_batch(np.array([[0.3], [0.6]]))
        post = empty.extend(np.array([[0.2], [0.7]]), np.array([1.0, -1.0]))
        mus, sigmas = post.predict_batch(np.zeros((0, 1)))
        assert mus.shape == sigmas.shape == (0,)
        assert capfd.readouterr() == ("", "")


class TestPredict:
    def test_interpolates_at_observed_point_with_zero_jitter(self):
        spec = spec_se(ls=0.5)
        pts = np.array([[0.2], [0.8]])
        vals = np.array([1.5, -0.5])
        post = fit(spec, pts, vals, jitter=0.0)
        (mu,), (sigma,) = post.predict_batch(np.atleast_2d([0.2]))
        assert mu == pytest.approx(1.5, abs=1e-9)
        assert sigma <= 1e-6

    def test_interpolation_invariant(self):
        # points separated by >= 2.5 lengthscales: closer spacing with
        # incoherent values makes noise-free interpolation ill-posed in
        # float64 (K^-1 y blows up against the jitter)
        rng = np.random.default_rng(4)
        for trial in range(10):
            dim = 1 + trial % 2
            n, sep = (9, 0.08) if dim == 1 else (20, 0.12)
            spec = KernelSpec.isotropic(
                "matern52" if trial % 3 else "se", dim, sep / 2.5
            )
            pts = _separated_points(rng, n, dim, sep)
            vals = rng.normal(size=len(pts))
            post = fit(spec, pts, vals, jitter=1e-10)
            mus, sigmas = post.predict_batch(pts)
            assert np.max(np.abs(mus - vals)) <= 1e-8
            assert np.max(sigmas) <= 1e-4

    def test_variance_dominance(self):
        rng = np.random.default_rng(6)
        spec = spec_se(dim=2, ls=0.3, scale=1.8)
        pts = rng.uniform(0, 1, size=(15, 2))
        post = fit(spec, pts, rng.normal(size=15))
        probes = rng.uniform(0, 1, size=(50, 2))
        _, sigmas = post.predict_batch(probes)
        assert np.all(sigmas**2 <= spec.output_scale + 1e-10)

    def test_zero_values_give_zero_mean(self):
        rng = np.random.default_rng(8)
        spec = spec_se(ls=0.3)
        pts = rng.uniform(0, 1, size=(10, 1))
        post = fit(spec, pts, np.zeros(10))
        mus, _ = post.predict_batch(rng.uniform(0, 1, size=(20, 1)))
        assert np.all(mus == 0.0)

    @pytest.mark.parametrize("family", ["se", "matern52"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_matches_two_block_formula_bitwise(self, family, dim):
        # the one-block formula written out: v = L^-1 K(X, x) from a C-order
        # kernel block, mu = v^T whitened and sigma from the same v; n and m
        # are large enough for BLAS to block the products
        rng = np.random.default_rng(90 + dim)
        n, m = 240, 1200
        if dim == 1:
            spec = KernelSpec(family, 1.7, (0.01,))
            pts = rng.permutation(np.linspace(0.0, 1.0, n))[:, None]
        else:
            spec = KernelSpec(family, 1.7, (0.15, 0.3, 0.6))
            pts = rng.uniform(0.0, 1.0, size=(n, 3))
        post = fit(spec, pts, rng.normal(size=n))
        x = rng.uniform(-0.1, 1.1, size=(m, dim))
        kx = pairwise(spec, post.points, x)
        v = solve_triangular(post.chol, kx, lower=True, check_finite=False)
        mus = v.T @ post.whitened
        var = spec.output_scale - np.einsum("ij,ij->j", v, v)
        sigmas = np.sqrt(np.clip(var, 0.0, None))
        got_mus, got_sigmas = post.predict_batch(x)
        assert got_mus.tobytes() == mus.tobytes()
        assert got_sigmas.tobytes() == sigmas.tobytes()

    def test_one_pairwise_call(self, monkeypatch):
        rng = np.random.default_rng(94)
        spec = KernelSpec("se", 1.0, (0.15, 0.3))
        post = fit(spec, rng.uniform(0.0, 1.0, size=(30, 2)), rng.normal(size=30))
        calls = []

        def counting(*args):
            calls.append(args)
            return pairwise(*args)

        monkeypatch.setattr(kernels, "pairwise", counting)
        post.predict_batch(rng.uniform(0.0, 1.0, size=(50, 2)))
        assert len(calls) == 1

    def test_holds_one_kernel_block(self):
        rng = np.random.default_rng(93)
        n, m = 600, 3000
        spec = KernelSpec("se", 1.0, (0.15, 0.3, 0.6))
        post = fit(spec, rng.uniform(0.0, 1.0, size=(n, 3)), rng.normal(size=n))
        x = rng.uniform(0.0, 1.0, size=(m, 3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            post.predict_batch(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * m * 8


class TestConfidenceBounds:
    def test_beta_zero_collapses_to_mean(self):
        spec = spec_se()
        post = fit(spec, np.array([[0.3]]), np.array([0.7]))
        x = [0.6]
        (mu,), _ = post.predict_batch(np.atleast_2d(x))
        assert bounds(post, x, 0.0) == (mu, mu)

    def test_observed_point_bound_equals_value(self):
        spec = spec_se(ls=0.5)
        post = fit(
            spec, np.array([[0.2], [0.8]]), np.array([1.5, -0.5]),
            jitter=0.0,
        )
        assert bounds(post, [0.2], 25.0)[1] == pytest.approx(1.5, abs=1e-5)

    def test_surrogate_arithmetic(self):
        # one observation engineered so (mu, sigma) = (0.2, 0.1) at x; then
        # beta = 4 gives ucb = 0.4 and lcb = 0.0
        spec = spec_se()
        x1 = 0.0
        kval = math.sqrt(0.99)
        x = math.sqrt(-2.0 * math.log(kval))
        f1 = 0.2 / kval
        post = fit(spec, np.array([[x1]]), np.array([f1]), jitter=0.0)
        (mu,), (sigma,) = post.predict_batch(np.atleast_2d([x]))
        assert mu == pytest.approx(0.2, abs=1e-12)
        assert sigma == pytest.approx(0.1, abs=1e-9)
        lcb, ucb = bounds(post, [x], 4.0)
        assert ucb == pytest.approx(0.4, abs=1e-9)
        assert lcb == pytest.approx(0.0, abs=1e-9)

    def test_ucb_at_least_lcb(self):
        rng = np.random.default_rng(10)
        spec = spec_se(dim=2, ls=0.5)
        pts = rng.uniform(0, 1, size=(8, 2))
        post = fit(spec, pts, rng.normal(size=8))
        for _ in range(100):
            x = rng.uniform(0, 1, size=2)
            b = rng.uniform(0, 30)
            lcb, ucb = bounds(post, x, b)
            assert ucb >= lcb


class TestExtend:
    def test_extend_empty_equals_single_fit(self):
        spec = spec_se(ls=0.5)
        empty = fit(spec, np.zeros((0, 1)), np.zeros(0))
        extended = empty.extend([[0.4]], [2.0])
        batch = fit(spec, np.array([[0.4]]), np.array([2.0]),
                    empty.jitter)
        for x in ([0.1], [0.4], [0.9]):
            mu_e, sigma_e = extended.predict_batch(np.atleast_2d(x))
            mu_b, sigma_b = batch.predict_batch(np.atleast_2d(x))
            assert mu_e == pytest.approx(mu_b, abs=1e-12)
            assert sigma_e == pytest.approx(sigma_b, abs=1e-12)

    def test_extend_then_predict_interpolates(self):
        spec = spec_se(ls=0.5)
        post = fit(spec, np.array([[0.1]]), np.array([0.3]))
        post = post.extend([[0.7]], [-1.2])
        (mu,), (sigma,) = post.predict_batch(np.atleast_2d([0.7]))
        assert mu == pytest.approx(-1.2, abs=1e-8)
        assert sigma <= 1e-4

    def test_five_extends_match_batch_fit(self):
        rng = np.random.default_rng(12)
        spec = spec_se(dim=2, ls=0.5)
        pts = _separated_points(rng, 5, 2, 0.1)
        vals = rng.normal(size=5)
        jitter = 1e-10
        post = fit(spec, np.zeros((0, 2)), np.zeros(0), jitter)
        for p, v in zip(pts, vals):
            post = post.extend(p[None, :], [v])
        batch = fit(spec, pts, vals, jitter)
        probes = rng.uniform(0, 1, size=(20, 2))
        mu_i, sig_i = post.predict_batch(probes)
        mu_b, sig_b = batch.predict_batch(probes)
        assert np.max(np.abs(mu_i - mu_b)) <= 1e-9
        assert np.max(np.abs(sig_i - sig_b)) <= 1e-9

    # these separations keep the Gram condition number below 1e4; at 0.25
    # lengthscales in 1-D (cond ~1e8) any two factor orders, sequential
    # against fit included, differ by ~1e-8 in the mean
    @pytest.mark.parametrize("dim, n, sep, ls", [(1, 10, 0.08, 0.1),
                                                 (3, 30, 0.15, 0.4)])
    def test_block_sequential_and_fit_agree(self, dim, n, sep, ls):
        rng = np.random.default_rng(40 + dim)
        spec = spec_se(dim=dim, ls=ls)
        pts = _separated_points(rng, n, dim, sep)
        vals = rng.normal(size=n)
        jitter = 1e-10
        head = n // 3  # a non-empty prior posterior, then one block
        prior = fit(spec, pts[:head], vals[:head], jitter)
        block = prior.extend(pts[head:], vals[head:])
        sequential = prior
        for p, v in zip(pts[head:], vals[head:]):
            sequential = sequential.extend(p[None, :], [v])
        batch = fit(spec, pts, vals, jitter)
        assert np.array_equal(block.points, batch.points)
        assert block.jitter == sequential.jitter == batch.jitter == jitter
        probes = np.vstack([pts, rng.uniform(0, 1, size=(40, dim))])
        mu_b, sig_b = batch.predict_batch(probes)
        for post in (block, sequential):
            mu, sig = post.predict_batch(probes)
            assert np.max(np.abs(mu - mu_b)) <= 1e-9
            assert np.max(np.abs(sig - sig_b)) <= 1e-9
            # extend keeps the prior's entries and appends the rest
            assert post.whitened[:head].tobytes() == prior.whitened.tobytes()
            assert np.max(np.abs(post.whitened - batch.whitened)) <= 1e-9

    def test_empty_block_keeps_points_and_predictions(self):
        spec = spec_se(ls=0.5)
        post = fit(spec, np.array([[0.2], [0.7]]), np.array([1.0, -0.5]))
        same = post.extend(np.zeros((0, 1)), [])
        assert np.array_equal(same.points, post.points)
        assert np.array_equal(same.values, post.values)
        probes = np.linspace(0, 1, 11).reshape(-1, 1)
        for a, b in zip(same.predict_batch(probes), post.predict_batch(probes)):
            assert np.array_equal(a, b)
        empty = fit(spec, np.zeros((0, 1)), np.zeros(0)).extend(np.zeros((0, 1)), [])
        assert len(empty) == 0

    def test_duplicate_rejected(self):
        spec = spec_se()
        post = fit(spec, np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(DuplicateObservationError):
            post.extend([[0.5]], [1.0])
        with pytest.raises(DuplicateObservationError):
            post.extend([[0.5 + 1e-13]], [1.0])
        # the same two distances between two points of one block
        for other in ([0.1], [0.1 + 1e-13]):
            with pytest.raises(DuplicateObservationError):
                post.extend([[0.1], [0.3], other], [1.0, 2.0, 3.0])
            with pytest.raises(DuplicateObservationError):
                fit(spec, np.zeros((0, 1)), np.zeros(0)).extend(
                    [[0.1], other], [1.0, 2.0])
            with pytest.raises(DuplicateObservationError):
                fit(spec, [[0.1], other], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_block_value_rejected(self, bad):
        post = fit(spec_se(), np.array([[0.5]]), np.array([1.0]))
        for block, values in (([[0.1]], [bad]), ([[0.1], [0.3]], [2.0, bad])):
            with pytest.raises(ValueError, match="observed values must be finite"):
                post.extend(block, values)

    def test_value_count_mismatch_rejected(self):
        post = fit(spec_se(), np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(ValueError, match="matching lengths"):
            post.extend([[0.1], [0.3]], [1.0])
        with pytest.raises(ValueError, match="matching lengths"):
            post.extend([[0.1]], [1.0, 2.0])
        with pytest.raises(ValueError, match="matching lengths"):
            post.extend([[0.1]], [[1.0]])

    @pytest.mark.parametrize("block", [[[0.5 + 1e-9]], [[0.1], [0.5 + 1e-9]]])
    def test_indefinite_schur_complement_refits(self, block):
        # at zero jitter a point one nanometre from an observed one gives a
        # bitwise-identical Gram row, so the Schur complement is singular
        spec = spec_se()
        post = fit(spec, np.array([[0.5], [0.9]]), np.array([1.0, -1.0]),
                   jitter=0.0)
        assert post.jitter == 0.0
        vals = np.arange(1.0, len(block) + 1.0)
        extended = post.extend(block, vals)
        refit = fit(spec, np.vstack([post.points, block]),
                    np.append(post.values, vals), jitter=0.0)
        assert refit.jitter > 0.0
        assert extended.jitter == refit.jitter
        assert np.array_equal(extended.chol, refit.chol)
        probes = np.linspace(0, 1, 11).reshape(-1, 1)
        for a, b in zip(extended.predict_batch(probes),
                        refit.predict_batch(probes)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("family", ["se", "matern52"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_one_kernel_block_matches_two_calls_bitwise(self, family, dim):
        # extend takes K(X, B) and K(B, B) as the row blocks of one
        # K([X; B], B); the reference builds them with two calls
        rng = np.random.default_rng(70 + dim)
        spec = KernelSpec(family, 1.3, tuple(rng.uniform(0.2, 0.8, dim)))
        pts = _separated_points(rng, 24, dim, 0.02 if dim == 1 else 0.2)
        vals = rng.normal(size=len(pts))
        post = fit(spec, np.zeros((0, dim)), np.zeros(0))
        start = 0
        for m in (3, 1, 5, 2, 6, 1, 4):
            block, bvals = pts[start:start + m], vals[start:start + m]
            start += m
            k = pairwise(spec, post.points, block)
            kbb = pairwise(spec, block, block)
            c, corner = _schur_step(post.chol, k, kbb, post.jitter)
            assert corner is not None
            n = len(post)
            chol = np.zeros((n + m, n + m))
            chol[:n, :n] = post.chol
            chol[n:, :n] = c.T
            chol[n:, n:] = corner
            tail = solve_triangular(corner, bvals - c.T @ post.whitened,
                                    lower=True, check_finite=False)
            whitened = np.append(post.whitened, tail)
            post = post.extend(block, bvals)
            assert np.array_equal(post.chol, chol)
            assert np.array_equal(post.whitened, whitened)

    def test_monotone_variance_reduction(self):
        rng = np.random.default_rng(14)
        spec = spec_se(ls=0.4)
        post = fit(spec, np.array([[0.2]]), np.array([0.5]))
        probes = rng.uniform(0, 1, size=(30, 1))
        _, before = post.predict_batch(probes)
        post = post.extend([[0.6]], [1.0])
        _, after = post.predict_batch(probes)
        assert np.all(after <= before + 1e-8)


class TestPriorSampling:
    def test_deterministic_per_seed(self):
        spec = spec_se(ls=0.5)
        pts = np.linspace(0, 1, 9).reshape(-1, 1)
        a = sample_prior_on_grid(spec, pts, seed=42)
        b = sample_prior_on_grid(spec, pts, seed=42)
        assert np.array_equal(a, b)
        c = sample_prior_on_grid(spec, pts, seed=43)
        assert not np.array_equal(a, c)

    def test_duplicate_grid_points_rejected(self):
        spec = spec_se()
        with pytest.raises(DuplicateObservationError):
            sample_prior_on_grid(spec, np.array([[0.1], [0.1]]), seed=0)

    def test_marginal_variance_monte_carlo(self):
        spec = spec_se(ls=0.5, scale=1.6)
        pts = np.linspace(0, 1, 5).reshape(-1, 1)
        draws = np.stack(
            [sample_prior_on_grid(spec, pts, seed=s) for s in range(2000)]
        )
        var = draws.var(axis=0)
        assert np.all(np.abs(var - 1.6) <= 0.16)

    def test_neighbour_correlation_monte_carlo(self):
        spec = spec_se(ls=0.5)
        pts = np.linspace(0, 1, 5).reshape(-1, 1)
        draws = np.stack(
            [sample_prior_on_grid(spec, pts, seed=s) for s in range(2000)]
        )
        expected = evaluate(spec, pts[0], pts[1])  # output scale is one
        measured = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(measured - expected) <= 0.05


def _separated_points(rng, n, dim, min_dist):
    """Rejection-sample points with a minimum pairwise separation."""
    pts: list[np.ndarray] = []
    tries = 0
    while len(pts) < n:
        tries += 1
        if tries > 200_000:
            raise RuntimeError("separation too tight for the unit box")
        cand = rng.uniform(0, 1, size=dim)
        if all(np.linalg.norm(cand - p) >= min_dist for p in pts):
            pts.append(cand)
    return np.asarray(pts)


def test_negative_jitter_rejected():
    spec = spec_se()
    with pytest.raises(ValueError):
        fit(spec, np.array([[0.5]]), np.array([1.0]), jitter=-1e-8)
