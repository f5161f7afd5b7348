import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptest import estimators
from adaptest.errors import BudgetExceeded, ZeroResidualDegenerate
from adaptest.estimators import (
    Gram,
    _cd_quadratic_l1,
    gamma_block,
    projection_direction,
    sample_cov,
    scaled_lasso,
    spiked_cov_estimate,
)
from adaptest.model import Dataset, ModelParams, dataset_to_bytes, generate_dataset, make_loading, stream


def orthonormal_design(n, p, seed):
    q, _ = np.linalg.qr(stream(seed, 0).standard_normal((n, n)))
    return q[:, :p] * math.sqrt(n)


def random_design(seed, n, p, dead):
    """Gaussian rows with correlated columns; the first `dead` columns are zero."""
    rng = stream(seed, 0)
    x = rng.standard_normal((n, p)) @ (np.eye(p) + 0.5 * rng.standard_normal((p, p)))
    x[:, :dead] = 0.0
    return x, rng


KKT_CASES = dict(
    seed=st.integers(0, 10**6),
    p=st.integers(1, 12),
    n=st.integers(1, 30),
    dead=st.integers(0, 3),
    constant_pen=st.booleans(),
    level=st.floats(0.01, 2.0),
)


class TestCoordinateDescentKKT:
    """Certificates at the returned point: for every coordinate with
    G_jj > 0, |lin_j - (Gv)_j - pen_j sign(v_j)| <= tol where v_j != 0 and
    |lin_j - (Gv)_j| <= pen_j + tol where v_j = 0."""

    @staticmethod
    def kkt_violation(gram, lin, pen, v):
        r = lin - gram @ v
        viol = np.where(v != 0.0, np.abs(r - pen * np.sign(v)), np.abs(r) - pen)
        return float(np.max(viol[np.diag(gram) > 0.0], initial=0.0))

    def solve_and_certify(self, seed, p, n, dead, constant_pen, level, lazy):
        """Run the core on the dense sample_cov or on the dataset's lazy Gram,
        and certify the point on the matrix the core read."""
        dead = min(dead, p)
        x, rng = random_design(seed, n, p, dead)
        data = Dataset(x=x, y=np.zeros(n))
        gram = Gram.of(data) if lazy else sample_cov(data)
        # lin in the row space of X keeps the objective bounded below
        lin = x.T @ rng.standard_normal(n) / n
        pen = np.full(p, level) if constant_pen else level * rng.uniform(0.1, 1.0, p)
        tol = 1e-9
        v, converged, passes = _cd_quadratic_l1(gram, lin, pen, np.zeros(p), kkt_tol=tol, max_passes=100_000)
        assert converged
        assert passes <= 100_000
        assert np.all(v[:dead] == 0.0)
        assert self.kkt_violation(Gram.of(gram).cols(range(p)), lin, pen, v) <= tol + 1e-12

    @given(**KKT_CASES)
    @settings(max_examples=60, deadline=None)
    def test_returned_point_satisfies_kkt(self, seed, p, n, dead, constant_pen, level):
        self.solve_and_certify(seed, p, n, dead, constant_pen, level, lazy=False)

    @given(**KKT_CASES)
    @settings(max_examples=60, deadline=None)
    def test_lazy_gram_point_satisfies_kkt(self, seed, p, n, dead, constant_pen, level):
        self.solve_and_certify(seed, p, n, dead, constant_pen, level, lazy=True)

    def test_pass_budget_exhausted_is_reported(self):
        x, rng = random_design(3, 40, 10, 0)
        gram = sample_cov(Dataset(x=x, y=np.zeros(40)))
        lin = x.T @ rng.standard_normal(40) / 40
        v, converged, passes = _cd_quadratic_l1(gram, lin, np.full(10, 1e-3), np.zeros(10), 1e-12, 1)
        assert not converged
        assert passes == 1

    def test_scaled_lasso_reports_inner_budget(self, monkeypatch):
        core = estimators._cd_quadratic_l1
        monkeypatch.setattr(
            estimators, "_cd_quadratic_l1", lambda *a, **kw: core(*a, **{**kw, "max_passes": 1})
        )
        x, rng = random_design(5, 60, 15, 0)
        y = x[:, :3] @ np.array([2.0, -1.0, 1.0]) + rng.standard_normal(60)
        fit = scaled_lasso(Dataset(x=x, y=y))
        assert not fit.converged


class TestScaledLasso:
    def test_zero_response_degenerate(self):
        x = orthonormal_design(40, 10, 0)
        with pytest.raises(ZeroResidualDegenerate):
            scaled_lasso(Dataset(x=x, y=np.zeros(40)))

    def test_zero_response_with_floor(self):
        x = orthonormal_design(40, 10, 0)
        fit = scaled_lasso(Dataset(x=x, y=np.zeros(40)), sigma_floor=1e-6)
        assert fit.sigma_hat == 1e-6
        assert np.allclose(fit.beta_hat, 0.0)

    def test_fit_memoised_per_floor_and_read_only(self):
        x, rng = random_design(7, 40, 10, 0)
        ds = Dataset(x=x, y=x[:, 0] + rng.standard_normal(40))
        fit = scaled_lasso(ds)
        assert scaled_lasso(ds) is fit and scaled_lasso(ds, sigma_floor=2.0) is not fit
        refit = scaled_lasso(Dataset(x=x, y=ds.y))  # a fresh dataset refits, to the same bits
        assert refit is not fit and refit.beta_hat.tobytes() == fit.beta_hat.tobytes()
        with pytest.raises(ValueError):
            fit.beta_hat[0] = 1.0

    def test_orthonormal_design_soft_threshold(self):
        n, p = 64, 16
        x = orthonormal_design(n, p, 42)
        rng = stream(7, 0)
        beta = np.zeros(p)
        beta[:3] = [3.0, -2.0, 1.5]
        y = x @ beta + 0.5 * rng.standard_normal(n)
        fit = scaled_lasso(Dataset(x=x, y=y))
        lam0 = math.sqrt(2.01 * math.log(p) / n)
        z = x.T @ y / n
        expect = np.sign(z) * np.maximum(np.abs(z) - fit.sigma_hat * lam0, 0.0)
        assert np.max(np.abs(fit.beta_hat - expect)) < 1e-8
        assert fit.converged

    def test_objective_non_increasing(self):
        theta = ModelParams(
            beta=np.concatenate(([5.0, -5.0], np.zeros(18))), sigma_cov=np.eye(20), noise_sd=1.0
        )
        for seed in range(5):
            fit = scaled_lasso(generate_dataset(theta, 400, seed))
            diffs = np.diff(fit.objectives)
            assert np.all(diffs <= 1e-12)

    def test_estimation_envelope_median(self):
        # median error over 50 seeds against the l2 / noise envelopes
        n, p = 400, 20
        theta = ModelParams(
            beta=np.concatenate(([5.0, -5.0], np.zeros(p - 2))), sigma_cov=np.eye(p), noise_sd=1.0
        )
        errs, sig_errs = [], []
        for seed in range(50):
            fit = scaled_lasso(generate_dataset(theta, n, seed))
            errs.append(float(np.linalg.norm(fit.beta_hat - theta.beta)))
            sig_errs.append(abs(fit.sigma_hat - 1.0))
        # envelope constant 1.5 on top of 1.5 sqrt(2 log p / n) = 0.184
        assert np.median(errs) <= 1.5 * 1.5 * math.sqrt(2 * math.log(p) / n)
        assert np.median(sig_errs) <= 0.15


def lars_design(seed, n, extra, mix, noise, b1, b2):
    """y = b1 x1 + b2 x2 + noise, x3 correlated (mix) with x1 + x2, `extra`
    independent columns.  With mix near 1, x3 enters the lasso path first
    and leaves it later, so the closed form on the first support can flip
    the sign of beta_3; mix = 0 is a plain Gaussian design."""
    rng = stream(seed, 0)
    x = rng.standard_normal((n, 3 + extra))
    x[:, 2] = mix * (x[:, 0] + x[:, 1]) / math.sqrt(2.0) + math.sqrt(1.0 - mix * mix) * x[:, 2]
    return Dataset(x=x, y=b1 * x[:, 0] + b2 * x[:, 1] + noise * rng.standard_normal(n))


def plain_alternation(data, rel=1e-14, rounds=500):
    """The scaled lasso by plain alternation of its two exact steps, until
    sigma changes by less than `rel` (relative)."""
    g = Gram.of(data)
    lam0 = math.sqrt(2.01 * math.log(data.p) / data.n)
    weights = np.sqrt(g.diag)
    beta, sigma = np.zeros(data.p), math.sqrt(g.yty)
    for _ in range(rounds):
        beta, ok, _ = _cd_quadratic_l1(g, g.xty, sigma * lam0 * weights, beta, kkt_tol=1e-12, max_passes=100_000)
        assert ok
        sigma_new = float(np.linalg.norm(data.y - data.x @ beta)) / math.sqrt(data.n)
        if abs(sigma_new / sigma - 1.0) < rel:
            return beta, sigma_new
        sigma = sigma_new
    raise AssertionError("plain alternation did not converge")


class TestScaledLassoFixedPoint:
    """The fit is the exact fixed point: the lasso KKT conditions at penalty
    sigma lam0 w on every column, and sigma^2 = ||y - X beta||^2 / n."""

    def test_certificate_on_both_paths(self, monkeypatch):
        paths = {"closed_form": 0, "alternation": 0}
        closed_form = estimators._fixed_point_on_support

        def spy(*args):
            out = closed_form(*args)
            paths["closed_form" if out is not None else "alternation"] += 1
            return out

        monkeypatch.setattr(estimators, "_fixed_point_on_support", spy)

        @given(seed=st.integers(0, 10**6), n=st.integers(10, 60), extra=st.integers(0, 12),
               mix=st.one_of(st.just(0.0), st.floats(0.8, 0.99)), noise=st.floats(0.2, 1.0),
               b1=st.floats(0.5, 2.0), b2=st.floats(0.5, 2.0))
        # the first support flips a sign here (seed 9) and is certified at once (seed 2)
        @example(seed=9, n=31, extra=4, mix=0.8545, noise=0.6825, b1=1.666, b2=1.574)
        @example(seed=2, n=51, extra=1, mix=0.8567, noise=0.8514, b1=0.638, b2=1.400)
        @settings(max_examples=80, deadline=None)
        def certify(seed, n, extra, mix, noise, b1, b2):
            data = lars_design(seed, n, extra, mix, noise, b1, b2)
            fit = scaled_lasso(data)
            assert fit.converged and len(fit.objectives) == fit.iterations
            assert np.all(np.diff(fit.objectives) <= 1e-12 * fit.objectives[0])
            beta, sigma = fit.beta_hat, fit.sigma_hat
            resid = data.y - data.x @ beta
            assert sigma**2 == pytest.approx(float(resid @ resid) / n, rel=1e-12)
            weights = np.linalg.norm(data.x, axis=0) / math.sqrt(n)
            pen = sigma * math.sqrt(2.01 * math.log(data.p) / n) * weights
            r = data.x.T @ resid / n
            viol = np.where(beta != 0.0, np.abs(r - pen * np.sign(beta)), np.abs(r) - pen)
            assert np.max(viol) <= 1e-10 * max(1.0, sigma)

        certify()
        assert paths["closed_form"] > 0 and paths["alternation"] > 0

    def test_agrees_with_plain_alternation(self):
        # criterion-3 size: n = 300, p = 600, k = 5, null-like and alternative signal
        p = 600
        for seed in range(4):
            for level in (0.8, 2.8):
                beta = np.zeros(p)
                beta[:5] = level
                data = generate_dataset(ModelParams(beta=beta, sigma_cov=np.eye(p), noise_sd=1.0), 300, seed)
                fit = scaled_lasso(data)
                want_beta, want_sigma = plain_alternation(data)
                assert abs(fit.sigma_hat / want_sigma - 1.0) <= 1e-10
                assert np.max(np.abs(fit.beta_hat - want_beta)) <= 1e-10


class TestGenerateDataset:
    @given(seed=st.integers(0, 2**32), rho=st.sampled_from([0.0, 0.3, -0.6]))
    @settings(max_examples=20, deadline=None)
    def test_second_call_is_byte_identical(self, seed, rho):
        p = 6
        cov = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        theta = ModelParams(beta=np.linspace(-1.0, 1.0, p), sigma_cov=cov, noise_sd=0.5)
        first = dataset_to_bytes(generate_dataset(theta, 9, seed))
        factor = theta.design_factor
        second = dataset_to_bytes(generate_dataset(theta, 9, seed))
        fresh = ModelParams(beta=theta.beta, sigma_cov=cov.copy(), noise_sd=0.5)
        assert theta.design_factor is factor
        assert first == second == dataset_to_bytes(generate_dataset(fresh, 9, seed))
        assert np.allclose(factor @ factor.T, cov, atol=1e-14)

    @pytest.mark.parametrize("rho", [0.0, 0.4])
    def test_identity_design_uses_the_draw_as_is(self, rho):
        n, p, seed = 300, 600, 17
        cov = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        theta = ModelParams(beta=np.linspace(-1.0, 1.0, p), sigma_cov=cov, noise_sd=0.5)
        rng = stream(seed, 0)
        x = rng.standard_normal((n, p)) @ theta.design_factor.T  # the product an identity skips
        expect = Dataset(x=x, y=x @ theta.beta + 0.5 * rng.standard_normal(n), seed=seed)
        got = generate_dataset(theta, n, seed)
        assert hashlib.sha256(dataset_to_bytes(got)).digest() == hashlib.sha256(dataset_to_bytes(expect)).digest()
        assert (theta.design_factor is theta.sigma_cov) == (rho == 0.0)


class TestSampleCov:
    def test_scaled_identity_design(self):
        n = 12
        x = math.sqrt(n) * np.eye(n)
        assert np.allclose(sample_cov(Dataset(x=x, y=np.zeros(n))), np.eye(n))

    def test_single_row(self):
        x = np.array([[1.0, 2.0, -1.0]])
        assert np.allclose(sample_cov(Dataset(x=x, y=np.zeros(1))), np.outer(x, x))

    def test_bitwise_symmetry(self):
        x = stream(5, 0).standard_normal((30, 8))
        s = sample_cov(Dataset(x=x, y=np.zeros(30)))
        assert np.array_equal(s, s.T)


class TestGram:
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 30), p=st.integers(1, 12), dead=st.integers(0, 3),
           scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_columns_agree_with_sample_cov(self, seed, n, p, dead, scale, data):
        x, rng = random_design(seed, n, p, min(dead, p))
        ds = Dataset(x=scale * x, y=rng.standard_normal(n))
        idx = data.draw(st.lists(st.integers(0, p - 1), max_size=2 * p))
        full, gram = sample_cov(ds), Gram.of(ds)
        bound = 1e-13 * float(np.max(np.sum(ds.x**2, axis=0))) / n
        assert gram.cols(idx).shape == (p, len(idx))
        assert np.all(np.abs(gram.cols(idx) - full[:, idx]) <= bound)
        assert np.all(np.abs(gram.diag - np.diag(full)) <= bound)
        assert np.array_equal(gram.xty, ds.x.T @ ds.y / n) and gram.yty == float(ds.y @ ds.y) / n
        assert sorted(gram.columns) == sorted(set(idx))

    def test_column_bits_do_not_depend_on_order(self):
        # the criterion-3 size: long enough products for the BLAS kernels to block
        x = stream(11, 0).standard_normal((300, 600))
        ds = Dataset(x=x, y=np.zeros(300))
        alone = Gram(ds).cols([7])
        after = Gram(ds)
        after.cols([3, 599, 0])
        inside = Gram(ds).cols([1, 2, 7, 8, 9, 400])
        for col in (after.cols([7]), inside[:, [2]], Gram(ds).cols([7, 7])[:, [1]]):
            assert col.tobytes() == alone.tobytes()

    def test_memoised_on_the_dataset(self):
        x = stream(2, 0).standard_normal((20, 6))
        ds = Dataset(x=x, y=x[:, 0])
        assert Gram.of(ds) is Gram.of(ds) and Gram.of(Gram.of(ds)) is Gram.of(ds)
        assert Gram.of(Dataset(x=x, y=x[:, 0])) is not Gram.of(ds)
        scaled_lasso(ds)
        formed = dict(Gram.of(ds).columns)
        assert 0 < len(formed) < 6
        projection_direction(ds, np.eye(6)[0], 2.0, 20)
        assert all(Gram.of(ds).columns[j] is col for j, col in formed.items())


class TestProjectionDirection:
    def radius_to_cxi(self, target, xi_vec, n):
        p = xi_vec.size
        return target / (float(np.linalg.norm(xi_vec)) * math.sqrt(math.log(p) / n))

    def test_identity_soft_threshold(self):
        xi = make_loading([1.0, 0.2, 0.0])
        n = 50
        c_xi = self.radius_to_cxi(0.3, xi.original(), n)
        res = projection_direction(np.eye(3), xi.original(), c_xi, n)
        assert res.feasible
        assert np.allclose(res.u_hat, [0.7, 0.0, 0.0], atol=1e-9)

    def test_huge_radius_gives_zero(self):
        xi = make_loading([1.0, 0.2, 0.0])
        n = 50
        c_xi = self.radius_to_cxi(1.5, xi.original(), n)
        res = projection_direction(np.eye(3), xi.original(), c_xi, n)
        assert res.feasible
        assert np.allclose(res.u_hat, 0.0)
        assert res.objective == 0.0

    def test_oracle_objective_dominates(self):
        # the returned point must beat any feasible point, e.g. Sigma^{-1} xi
        rng = stream(9, 0)
        n, p = 300, 12
        x = rng.standard_normal((n, p)) @ np.linalg.cholesky(np.eye(p) + 0.3).T
        s = sample_cov(Dataset(x=x, y=np.zeros(n)))
        xi = make_loading(rng.standard_normal(p))
        res = projection_direction(s, xi.original(), 2.0, n)
        oracle = np.linalg.solve(s, xi.original())
        assert res.feasible
        assert res.objective <= float(oracle @ (s @ oracle)) + 1e-9

    def test_complementary_slackness(self):
        rng = stream(13, 0)
        n, p = 200, 15
        x = rng.standard_normal((n, p))
        s = sample_cov(Dataset(x=x, y=np.zeros(n)))
        xi = make_loading(rng.standard_normal(p))
        res = projection_direction(s, xi.original(), 1.0, n)
        assert res.feasible
        slack = np.abs(s @ res.u_hat - xi.original())
        active = np.abs(res.u_hat) > 1e-8
        assert np.all(np.abs(slack[active] - res.radius) < 1e-6)
        assert np.max(slack) <= res.radius * (1 + 1e-8) + 1e-9

    @given(
        seed=st.integers(0, 10**6),
        p=st.integers(2, 12),
        n=st.integers(2, 40),
        dead=st.integers(0, 2),
        c_xi=st.floats(0.05, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_feasible_flag_certifies_constraint(self, seed, p, n, dead, c_xi):
        x, rng = random_design(seed, n, p, min(dead, p - 1))
        s = sample_cov(Dataset(x=x, y=np.zeros(n)))
        xi = make_loading(rng.standard_normal(p))
        res = projection_direction(s, xi.original(), c_xi, n)
        if res.feasible:
            tol = 1e-9 * max(float(np.linalg.norm(xi.original())), 1.0)
            assert np.max(np.abs(s @ res.u_hat - xi.original())) <= res.radius * (1 + 1e-8) + tol
        else:
            assert np.all(res.u_hat == 0.0)

    def test_infeasible_detection(self):
        # rank-one gram cannot reproduce a generic loading at tiny radius
        v = np.array([1.0, 0.0, 0.0])
        s = np.outer(v, v)
        xi = make_loading([0.0, 1.0, 0.0])
        res = projection_direction(s, xi.original(), 0.01, 10**6)
        assert not res.feasible
        assert np.allclose(res.u_hat, 0.0)


class TestSpikedCov:
    def planted(self, p=6, lam=0.5):
        v = np.zeros(p)
        v[:2] = 1.0 / math.sqrt(2)
        return np.eye(p) + lam * np.outer(v, v)

    def test_identity_data_picks_empty_support(self):
        theta = ModelParams(beta=np.zeros(6), sigma_cov=np.eye(6), noise_sd=1.0)
        fit = spiked_cov_estimate(generate_dataset(theta, 4000, 7), 2)
        assert fit.b_hat == ()
        assert not fit.fell_back_identity
        assert np.array_equal(fit.sigma_hat_spike, np.eye(6))

    def test_planted_spike_monte_carlo(self):
        sigma = self.planted()
        theta = ModelParams(beta=np.zeros(6), sigma_cov=sigma, noise_sd=1.0)
        rate_bound = 3.0 * math.sqrt(2 * math.log(6) / 2000)
        support_hits = rate_hits = 0
        for seed in range(50):
            fit = spiked_cov_estimate(generate_dataset(theta, 2000, 100 + seed), 2)
            if {0, 1} <= set(fit.b_hat):
                support_hits += 1
            if np.linalg.norm(fit.sigma_hat_spike - sigma, 2) <= rate_bound:
                rate_hits += 1
            # exact zero pattern off the selected block
            mask = np.ones((6, 6), dtype=bool)
            idx = np.array(fit.b_hat, dtype=int)
            if idx.size:
                mask[np.ix_(idx, idx)] = False
            assert np.array_equal(fit.sigma_hat_spike[mask], np.eye(6)[mask])
            assert np.max(np.abs(fit.omega_hat @ fit.sigma_hat_spike - np.eye(6))) < 1e-10
        assert support_hits >= 45
        assert rate_hits >= 45

    def test_gamma_block_idempotent_and_empty(self):
        rng = stream(3, 0)
        a = rng.standard_normal((5, 5))
        a = (a + a.T) / 2
        g = gamma_block(a, (1, 3))
        assert np.array_equal(gamma_block(g, (1, 3)), g)
        assert np.array_equal(gamma_block(a, ()), np.eye(5))

    def test_budget_exceeded(self):
        theta = ModelParams(beta=np.zeros(10), sigma_cov=np.eye(10), noise_sd=1.0)
        with pytest.raises(BudgetExceeded):
            spiked_cov_estimate(generate_dataset(theta, 100, 0), 3, comb_cap=10)

    def test_budget_checked_while_streaming_subsets(self):
        # the empty support alone has about 1.7M complement subsets at p = 80,
        # k_u = 4; none of them may be held at once
        theta = ModelParams(beta=np.zeros(80), sigma_cov=np.eye(80), noise_sd=1.0)
        data = generate_dataset(theta, 200, 3)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                spiked_cov_estimate(data, 4, comb_cap=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
