import hashlib
import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from adaptest import estimators
from adaptest.errors import AdaptestError, BudgetExceeded, DegenerateData, ZeroResidualDegenerate
from adaptest.estimators import (
    SpikedCovFit,
    _cd_quadratic_l1,
    gamma_block,
    projection_direction,
    sample_cov,
    scaled_lasso,
    spiked_cov_estimate,
)
from adaptest.harness import null_point
from adaptest.model import CoordinateDataset, Dataset, ModelParams, generate_dataset, make_loading, stream
from adaptest.priors import prior_sampler
from adaptest.profiles import cutoff_and_regime, example_profiles
from oracles import single


def orthonormal_design(n, p, seed):
    q, _ = np.linalg.qr(stream(seed, 0).standard_normal((n, n)))
    return q[:, :p] * math.sqrt(n)


class DenseGram:
    """A dense symmetric matrix behind the part of the dataset interface the solvers read
    on a Gram: its diagonal, its columns and the sample size n that bounds its rank."""

    def __init__(self, g, n):
        self.g, self.diag, self.n = g, np.diag(g), n

    def cols(self, idx):
        return self.g[:, np.asarray(idx, dtype=int)]


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
        gram = data if lazy else DenseGram(sample_cov(data), n)
        # lin in the row space of X keeps the objective bounded below
        lin = x.T @ rng.standard_normal(n) / n
        pen = np.full(p, level) if constant_pen else level * rng.uniform(0.1, 1.0, p)
        tol = 1e-9
        v, converged, passes = _cd_quadratic_l1(gram, lin, pen, np.zeros(p), kkt_tol=tol, max_passes=100_000)
        assert converged
        assert passes <= 100_000
        assert np.all(v[:dead] == 0.0)
        assert self.kkt_violation(gram.cols(range(p)), lin, pen, v) <= tol + 1e-12
        return passes

    @given(**KKT_CASES)
    @example(seed=0, p=6, n=2, dead=0, constant_pen=False, level=0.01171875)  # a 5-column block at rank 2
    @settings(max_examples=60, deadline=None)
    def test_returned_point_satisfies_kkt(self, seed, p, n, dead, constant_pen, level):
        self.solve_and_certify(seed, p, n, dead, constant_pen, level, lazy=False)

    @given(**KKT_CASES)
    @example(seed=0, p=6, n=2, dead=0, constant_pen=False, level=0.01171875)
    @settings(max_examples=60, deadline=None)
    def test_lazy_gram_point_satisfies_kkt(self, seed, p, n, dead, constant_pen, level):
        self.solve_and_certify(seed, p, n, dead, constant_pen, level, lazy=True)

    @pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
    @pytest.mark.xfail(strict=True, reason="the core cycles here: unconverged after 2,000 passes and after 20,000")
    def test_rank_four_stall_converges(self, lazy):
        # a hypothesis case of the tests above (n = 4, p = 11, one dead column) whose non-constant
        # penalty stalls the core; with a constant penalty it converges in 736 passes
        x, rng = random_design(163676, 4, 11, 1)
        data = Dataset(x=x, y=np.zeros(4))
        gram = data if lazy else DenseGram(sample_cov(data), 4)
        lin = x.T @ rng.standard_normal(4) / 4
        pen = 0.01094 * rng.uniform(0.1, 1.0, 11)
        v, converged, passes = _cd_quadratic_l1(gram, lin, pen, np.zeros(11), kkt_tol=1e-9, max_passes=2000)
        assert converged and self.kkt_violation(gram.cols(range(11)), lin, pen, v) <= 1e-9 + 1e-12

    def test_pass_budget_exhausted_is_reported(self):
        x, rng = random_design(3, 40, 10, 0)
        gram = DenseGram(sample_cov(Dataset(x=x, y=np.zeros(40))), 40)
        lin = x.T @ rng.standard_normal(40) / 40
        v, converged, passes = _cd_quadratic_l1(gram, lin, np.full(10, 1e-3), np.zeros(10), 1e-12, 1)
        assert not converged
        assert passes == 1

    def test_exact_step_and_sweep_fallback_both_certify(self, monkeypatch):
        # every pass is a solve or a sweep: both kinds run, and the certificate holds either way
        solves, counts = estimators._signed_solve, {"accepted": 0, "rejected": 0, "sweeps": 0}

        def spy(*args):
            out = solves(*args)
            counts["accepted" if out is not None else "rejected"] += 1
            return out

        monkeypatch.setattr(estimators, "_signed_solve", spy)

        @given(**KKT_CASES)
        @example(seed=0, p=12, n=30, dead=0, constant_pen=False, level=0.05)  # runs all three kinds of pass
        @settings(max_examples=60, deadline=None)
        def certify(seed, p, n, dead, constant_pen, level):
            before = counts["accepted"] + counts["rejected"]
            passes = self.solve_and_certify(seed, p, n, dead, constant_pen, level, lazy=True)
            counts["sweeps"] += passes - (counts["accepted"] + counts["rejected"] - before)

        certify()
        assert counts["accepted"] > 0 and counts["rejected"] > 0 and counts["sweeps"] > 0, counts

    def test_singular_working_set_falls_back_to_sweeps(self, monkeypatch):
        # columns 0 and 1 are equal, so every working set holding both is a singular block
        x, rng = random_design(11, 50, 6, 0)
        x[:, 1] = x[:, 0]
        data = Dataset(x=x, y=np.zeros(50))
        lin = x.T @ (x[:, 0] + 0.3 * rng.standard_normal(50)) / 50
        solve, singular = np.linalg.solve, []

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(a.shape)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        v, converged, passes = _cd_quadratic_l1(data, lin, np.full(6, 0.05), np.zeros(6), 1e-10, 10_000)
        assert singular and converged and passes > len(singular)
        assert v[0] != 0.0 and v[1] != 0.0
        assert self.kkt_violation(data.cols(range(6)), lin, np.full(6, 0.05), v) <= 1e-10

    @pytest.mark.parametrize("budget", [2, 7, 50])
    def test_pass_budget_bounds_solves_and_sweeps(self, budget):
        # solves and sweeps both spend the budget: a case that needs more passes stops unconverged within it
        x, rng = random_design(0, 40, 10, 0)
        gram = DenseGram(sample_cov(Dataset(x=x, y=np.zeros(40))), 40)
        lin = x.T @ rng.standard_normal(40) / 40
        v, converged, passes = _cd_quadratic_l1(gram, lin, np.full(10, 1e-3), np.zeros(10), 1e-12, budget)
        assert not converged and passes == budget
        v, converged, passes = _cd_quadratic_l1(gram, lin, np.full(10, 1e-3), np.zeros(10), 1e-12, 100_000)
        assert converged and passes > 50

    def test_scaled_lasso_reports_inner_budget(self, monkeypatch):
        core, calls = estimators._cd_quadratic_l1, []
        monkeypatch.setattr(
            estimators, "_cd_quadratic_l1", lambda *a, **kw: calls.append(1) or core(*a, **{**kw, "max_passes": 1})
        )
        x, rng = random_design(5, 60, 15, 0)
        x[:, 1] = x[:, 0]  # twin columns: the search meets a singular block and gives up to the alternation
        y = x[:, :3] @ np.array([2.0, 1.0, 1.0]) + rng.standard_normal(60)
        fit = scaled_lasso(Dataset(x=x, y=y))
        assert calls and not fit.converged


class TestScaledLasso:
    def test_zero_response_degenerate(self):
        x = orthonormal_design(40, 10, 0)
        with pytest.raises(ZeroResidualDegenerate):
            scaled_lasso(Dataset(x=x, y=np.zeros(40)))

    @pytest.mark.parametrize("n, dead", [(1, 0), (40, 1)], ids=["one-row", "zero-column"])
    def test_unfittable_data_is_a_numerical_failure(self, n, dead):
        # an AdaptestError, so the CLI exits 3, and a ValueError, so callers that catch one still do
        x, rng = random_design(2, n, 6, dead)
        data = Dataset(x=x, y=rng.standard_normal(n))
        fits = [scaled_lasso] + [lambda d: spiked_cov_estimate(d, 1)] * (n < 2)
        for fit in fits:
            with pytest.raises(DegenerateData) as err:
                fit(data)
            assert isinstance(err.value, AdaptestError) and isinstance(err.value, ValueError)

    def test_fit_memoised_per_floor_and_read_only(self):
        x, rng = random_design(7, 40, 10, 0)
        ds = Dataset(x=x, y=x[:, 0] + rng.standard_normal(40))
        fit = scaled_lasso(ds)
        assert scaled_lasso(ds) is fit
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
            beta=np.concatenate(([5.0, -5.0], np.zeros(18))), sigma_cov=None, noise_sd=1.0
        )
        for seed in range(5):
            fit = scaled_lasso(generate_dataset(theta, 400, seed))
            diffs = np.diff(fit.objectives)
            assert np.all(diffs <= 1e-12)

    def test_estimation_envelope_median(self):
        # median error over 50 seeds against the l2 / noise envelopes
        n, p = 400, 20
        theta = ModelParams(
            beta=np.concatenate(([5.0, -5.0], np.zeros(p - 2))), sigma_cov=None, noise_sd=1.0
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


LARS_CASES = dict(seed=st.integers(0, 10**6), n=st.integers(10, 60), extra=st.integers(0, 12),
                  mix=st.one_of(st.just(0.0), st.floats(0.8, 0.99)), noise=st.floats(0.2, 1.0),
                  b1=st.floats(0.5, 2.0), b2=st.floats(0.5, 2.0))


def criterion3_theta(level):
    """The criterion-3 model point (p = 600, n = 300 in the tests): five coefficients at `level`."""
    beta = np.zeros(600)
    beta[[3, 50, 100, 250, 599]] = level
    return ModelParams(beta=beta, sigma_cov=None, noise_sd=1.0)


@pytest.fixture
def cd_calls(monkeypatch):
    """A list that gains an entry at each `_cd_quadratic_l1` call."""
    core, calls = estimators._cd_quadratic_l1, []
    monkeypatch.setattr(estimators, "_cd_quadratic_l1", lambda *a, **kw: calls.append(1) or core(*a, **kw))
    return calls


def plain_alternation(data, rel=1e-14, rounds=500):
    """The scaled lasso by plain alternation of its two exact steps, until
    sigma changes by less than `rel` (relative)."""
    lam0 = math.sqrt(2.01 * math.log(data.p) / data.n)
    weights = np.sqrt(data.diag)
    beta, sigma = np.zeros(data.p), math.sqrt(data.yty)
    for _ in range(rounds):
        beta, ok, _ = _cd_quadratic_l1(data, data.xty, sigma * lam0 * weights, beta, kkt_tol=1e-12, max_passes=100_000)
        assert ok
        sigma_new = float(np.linalg.norm(data.y - data.x @ beta)) / math.sqrt(data.n)
        if abs(sigma_new / sigma - 1.0) < rel:
            return beta, sigma_new
        sigma = sigma_new
    raise AssertionError("plain alternation did not converge")


class TestScaledLassoFixedPoint:
    """The fit is the exact fixed point: the lasso KKT conditions at penalty
    sigma lam0 w on every column, and sigma^2 = ||y - X beta||^2 / n."""

    def test_certificate_on_both_paths(self, cd_calls):
        paths = {"search": 0, "alternation": 0}

        @given(**LARS_CASES)
        # the first support flips a sign here (seed 9) and is certified at once (seed 2); the search
        # gives up and coordinate descent runs (seed 923745)
        @example(seed=9, n=31, extra=4, mix=0.8545, noise=0.6825, b1=1.666, b2=1.574)
        @example(seed=2, n=51, extra=1, mix=0.8567, noise=0.8514, b1=0.638, b2=1.400)
        @example(seed=923745, n=18, extra=4, mix=0.9712, noise=0.4734, b1=0.858, b2=1.733)
        @settings(max_examples=80, deadline=None)
        def certify(seed, n, extra, mix, noise, b1, b2):
            data = lars_design(seed, n, extra, mix, noise, b1, b2)
            cd_calls.clear()
            fit = scaled_lasso(data)
            paths["alternation" if cd_calls else "search"] += 1
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
        assert paths["search"] > 0 and paths["alternation"] > 0

    @given(data=st.one_of(
        st.builds(lars_design, **LARS_CASES),
        st.builds(lambda seed, level: generate_dataset(criterion3_theta(level), 300, seed),
                  st.integers(0, 10**6), st.floats(0.0, 3.0)),
    ))
    @settings(max_examples=60, deadline=None)
    def test_search_matches_the_alternation_bits(self, data):
        # with the search off (its first closed form gives up) the alternation runs from (0, sqrt(y'y/n));
        # wherever its last closed form certifies on the search's support and signs, the bits agree
        closed_form, last = estimators._fixed_point_on_support, []

        def alternation_only(*args):
            last.append(closed_form(*args) if last else (None, None))
            return last[-1]

        fit = scaled_lasso(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimators, "_fixed_point_on_support", alternation_only)
            alone = scaled_lasso(Dataset(x=data.x, y=data.y))
        same = np.array_equal(np.sign(fit.beta_hat), np.sign(alone.beta_hat))
        if fit.converged and alone.converged and last[-1][0] is not None and same:
            assert fit.beta_hat.tobytes() == alone.beta_hat.tobytes() and fit.sigma_hat == alone.sigma_hat

    def test_agrees_with_plain_alternation(self):
        # criterion-3 size: n = 300, p = 600, k = 5, null-like and alternative signal
        p = 600
        for seed in range(4):
            for level in (0.8, 2.8):
                beta = np.zeros(p)
                beta[:5] = level
                data = generate_dataset(ModelParams(beta=beta, sigma_cov=None, noise_sd=1.0), 300, seed)
                fit = scaled_lasso(data)
                want_beta, want_sigma = plain_alternation(data)
                assert abs(fit.sigma_hat / want_sigma - 1.0) <= 1e-10
                assert np.max(np.abs(fit.beta_hat - want_beta)) <= 1e-10


def dataset_bits(ds: Dataset) -> bytes:
    return ds.x.tobytes() + ds.y.tobytes()


class TestGenerateDataset:
    @given(seed=st.integers(0, 2**32), rho=st.sampled_from([0.0, 0.3, -0.6]))
    @settings(max_examples=20, deadline=None)
    def test_second_call_is_byte_identical(self, seed, rho):
        p = 6
        cov = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        block = None if rho == 0.0 else (np.arange(p), cov)  # rho^|i-j| is I at rho = 0, dense otherwise
        theta = ModelParams(beta=np.linspace(-1.0, 1.0, p), sigma_cov=block, noise_sd=0.5)
        first = dataset_bits(generate_dataset(theta, 9, seed))
        factor = theta.design_factor
        second = dataset_bits(generate_dataset(theta, 9, seed))
        fresh = ModelParams(beta=theta.beta, sigma_cov=None if rho == 0.0 else (np.arange(p), cov.copy()), noise_sd=0.5)
        assert theta.design_factor is factor
        assert first == second == dataset_bits(generate_dataset(fresh, 9, seed))
        idx, low = factor
        embedded = np.eye(p)
        embedded[np.ix_(idx, idx)] = low
        assert np.allclose(embedded @ embedded.T, cov, atol=1e-14)

    @pytest.mark.parametrize("rho", [0.0, 0.4])
    def test_identity_design_uses_the_draw_as_is(self, rho):
        n, p, seed = 300, 600, 17
        cov = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        block = None if rho == 0.0 else (np.arange(p), cov)
        theta = ModelParams(beta=np.linspace(-1.0, 1.0, p), sigma_cov=block, noise_sd=0.5)
        rng = stream(seed, 0)
        z = rng.standard_normal((n, p))
        eps = 0.5 * rng.standard_normal(n)
        got = generate_dataset(theta, n, seed)
        assert (theta.design_factor[0].size == 0) == (rho == 0.0)
        if rho == 0.0:  # the draw as it is, with no product
            expect = Dataset(x=z, y=z @ theta.beta + eps)
            assert hashlib.sha256(dataset_bits(got)).digest() == hashlib.sha256(dataset_bits(expect)).digest()
        else:  # the dense factor's product
            assert np.allclose(got.x, z @ np.linalg.cholesky(cov).T, rtol=0.0, atol=1e-12)
            assert np.allclose(got.y, got.x @ theta.beta + eps, rtol=0.0, atol=1e-12)


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
        full = ds.x.T @ ds.x / n
        bound = 1e-13 * float(np.max(np.sum(ds.x**2, axis=0))) / n
        assert ds.cols(idx).shape == (p, len(idx))
        assert np.all(np.abs(ds.cols(idx) - full[:, idx]) <= bound)
        assert np.all(np.abs(ds.diag - np.diag(full)) <= bound)
        assert np.array_equal(ds.xty, ds.x.T @ ds.y / n) and ds.yty == float(ds.y @ ds.y) / n
        assert sorted(ds.columns) == sorted(set(idx))

    def test_column_bits_do_not_depend_on_order(self):
        # the criterion-3 size: long enough products for the BLAS kernels to block
        x = stream(11, 0).standard_normal((300, 600))
        ds = Dataset(x=x, y=np.zeros(300))
        alone = Dataset(x=ds.x, y=ds.y).cols([7])
        after = Dataset(x=ds.x, y=ds.y)
        after.cols([3, 599, 0])
        inside = Dataset(x=ds.x, y=ds.y).cols([1, 2, 7, 8, 9, 400])
        for col in (after.cols([7]), inside[:, [2]], Dataset(x=ds.x, y=ds.y).cols([7, 7])[:, [1]]):
            assert col.tobytes() == alone.tobytes()

    def test_memoised_on_the_dataset(self):
        x = stream(2, 0).standard_normal((20, 6))
        ds = Dataset(x=x, y=x[:, 0])
        assert ds.diag is ds.diag and ds.xty is ds.xty
        assert Dataset(x=x, y=x[:, 0]).diag is not ds.diag
        scaled_lasso(ds)
        formed = dict(ds.columns)
        assert 0 < len(formed) < 6
        projection_direction(ds, np.eye(6)[0], 2.0)
        assert all(ds.columns[j] is col for j, col in formed.items())


class RowSource:
    """The `GaussianSource` interface on given rows x, y: each new basis vector
    is the touched column's (or y's) residual by Gram-Schmidt, run twice."""

    def __init__(self, x, y):
        self.x, self.y, self.n = x, y, x.shape[0]
        self.norms2 = np.einsum("ij,ij->j", x, x)
        self.basis = np.zeros((self.n, 0))

    def direction(self, j):
        if self.basis.shape[1] == self.n:
            return np.empty((0, self.x.shape[1]))
        v = self.y if j is None else self.x[:, j]
        for _ in range(2):
            v = v - self.basis @ (self.basis.T @ v)
        self.basis = np.column_stack((self.basis, v / np.linalg.norm(v)))
        return self.x.T @ self.basis[:, -1]

    def response(self, coords):
        row = self.direction(None)
        return self.basis.T @ self.y, row


class TestCoordinateDataset:
    @pytest.mark.parametrize("n, p, support", [(40, 25, (4, 9)), (12, 30, (4, 9)), (3, 6, (0, 2, 4, 5))],
                             ids=["p<n", "p>n", "support>n"])
    def test_gram_schmidt_source_reproduces_the_products(self, n, p, support):
        rng = stream(5, 0)
        x = rng.standard_normal((n, p))
        beta = np.zeros(p)
        beta[list(support)] = rng.uniform(-2.0, 2.0, len(support))
        y = x @ beta + rng.standard_normal(n)
        for order in ([p - 1, 0, 3], range(p), range(p - 1, -1, -1)):
            theta = ModelParams(beta=beta, sigma_cov=None, noise_sd=1.0)
            gram = CoordinateDataset(theta, n, seed=0, source=RowSource(x, y))
            order = list(order)
            assert np.max(np.abs(gram.cols(order) - x.T @ x[:, order] / n)) <= 1e-12
            assert np.max(np.abs(gram.xty - x.T @ y / n)) <= 1e-12 and abs(gram.yty - y @ y / n) <= 1e-12
            assert np.max(np.abs(gram.diag - np.sum(x * x, axis=0) / n)) <= 1e-12
        assert gram.coords.shape[0] == min(n, p + 1)  # with every column touched a p > n basis fills up

    @pytest.mark.parametrize("n, p, block", [(40, 25, (3, 7, 12)), (12, 30, (20, 4, 9)), (3, 6, (1, 2, 4, 5))],
                             ids=["p<n", "p>n", "block>n"])
    def test_block_design_reproduces_the_products(self, n, p, block):
        # X = Z L' mixes only the block's columns; the source hands out Z's coordinates
        rng = stream(6, 0)
        z = rng.standard_normal((n, p))
        idx = np.array(block)
        a = rng.standard_normal((idx.size, idx.size))
        sigma_ss = np.eye(idx.size) + 0.3 * a @ a.T
        x = z.copy()
        x[:, idx] = z[:, idx] @ np.linalg.cholesky(sigma_ss).T
        beta = np.zeros(p)
        beta[[idx[0], 0, p - 1]] = rng.uniform(-2.0, 2.0, 3)
        y = x @ beta + rng.standard_normal(n)
        theta = ModelParams(beta=beta, sigma_cov=(idx, sigma_ss), noise_sd=1.0)
        for order in ([p - 1, 0, 3], range(p)):
            gram = CoordinateDataset(theta, n, seed=0, source=RowSource(z, y))
            order = list(order)
            assert np.max(np.abs(gram.cols(order) - x.T @ x[:, order] / n)) <= 1e-12
            assert np.max(np.abs(gram.xty - x.T @ y / n)) <= 1e-12 and abs(gram.yty - y @ y / n) <= 1e-12
            assert np.max(np.abs(gram.diag - np.sum(x * x, axis=0) / n)) <= 1e-12

    @pytest.mark.parametrize("n, p", [(20, 6), (4, 7)], ids=["p<n", "p>n"])
    def test_law_of_the_drawn_gram(self, n, p):
        reps = 2000
        theta = ModelParams(beta=np.zeros(p), sigma_cov=None, noise_sd=2.0)
        grams, yty = [], []
        for seed in range(reps):
            gram = CoordinateDataset(theta, n, seed)
            order = np.roll(np.arange(p), seed)  # touch orders differ across datasets
            gram.cols(order)
            grams.append(gram.cols(range(p)))
            yty.append(gram.yty)
            if p > n:
                assert np.linalg.matrix_rank(grams[-1]) == n
        grams = np.array(grams)
        off = grams[:, ~np.eye(p, dtype=bool)]
        se = np.where(np.eye(p, dtype=bool), math.sqrt(2.0 / n), math.sqrt(1.0 / n)) / math.sqrt(reps)
        assert np.all(np.abs(grams.mean(axis=0) - np.eye(p)) <= 4.5 * se)  # E G = I
        assert abs(off.var() * n - 1.0) <= 0.05  # Var G_jk = 1/n off the diagonal
        assert stats.kstest(n * grams[:, range(p), range(p)].ravel(), stats.chi2(n).cdf).pvalue > 1e-3
        assert stats.kstest(n * np.array(yty) / 4.0, stats.chi2(n).cdf).pvalue > 1e-3

    def test_law_at_the_eager_lazy_boundary(self):
        """Two-sample KS tests of Gram entries on each side of the source's norms2 read against
        row datasets, 2000 datasets per sampler and model point: an eager column's (the first of
        beta's support or the block, formed at construction) and a lazy column's diagonal, their
        cross entry, the eager column's xty and yty.  The points are an identity null point with
        3 coefficients at n = 20, a nu2 prior null mixing a block of 4 at n = 60, p = 120, and 6
        coefficients at n = 4, p = 10, where the eager basis spans R^n before norms2 is read."""
        reps = 2000
        xi = example_profiles("subweibull", {"q": 2.0, "p": 120, "k_u": 3}, 1)
        sampler = prior_sampler("nu2", xi, 8, 60, 5.0)
        nu2 = next(d for s in itertools.count() if (d := single(sampler(s, 1))).valid)
        points = (
            (null_point(make_loading(np.arange(8.0, 0.0, -1.0)), 3, 1.0, 1.5), 20),
            (nu2.model_point(xi, 8.0), 60),
            (null_point(make_loading(np.ones(10)), 6, 2.0, 1.0), 4),
        )
        for offset, (theta, n) in enumerate(points):
            eager = np.concatenate((theta.design_factor[0], np.flatnonzero(theta.beta)))
            lazy = int(np.setdiff1d(np.arange(theta.p), eager)[0])
            arms = []
            for draw, base in ((CoordinateDataset, 0), (generate_dataset, 10**6)):
                rows = []
                for seed in range(base + offset * reps, base + (offset + 1) * reps):
                    data = draw(theta, n, seed)
                    col = data.cols([lazy])[:, 0]
                    rows.append((data.diag[eager[0]], data.diag[lazy], col[eager[0]], data.xty[eager[0]], data.yty))
                arms.append(np.array(rows))
            for k, name in enumerate(["diag[eager]", "diag[lazy]", "G[eager, lazy]", "xty[eager]", "yty"]):
                assert stats.ks_2samp(arms[0][:, k], arms[1][:, k]).pvalue > 1e-3, (offset, name)

    @pytest.mark.parametrize("k", [6, 10])
    def test_eager_basis_that_spans_r_n(self, k):
        # n = 4 < k: R^n is spanned before norms2 is read, so every column lies in the span and its
        # outside squared norm is exactly 0 (chi2_0, which numpy's chisquare refuses)
        theta = ModelParams(beta=np.r_[np.ones(k), np.zeros(10 - k)], sigma_cov=None, noise_sd=1.0)
        for seed in range(20):
            data = CoordinateDataset(theta, 4, seed)
            assert len(data.coords) == 4 and np.all(data.source.rho == 0.0)
            assert np.max(np.abs(data.diag - np.sum(data.coords**2, axis=0) / 4)) <= 1e-12

    def test_coordinate_dataset_holds_no_rows_and_forks_apart(self):
        p = 12
        theta = ModelParams(beta=np.eye(p)[2], sigma_cov=None, noise_sd=1.0)
        data = CoordinateDataset(theta, 30, 4)
        for rows in ("x", "y"):
            with pytest.raises(TypeError, match="no rows"):
                getattr(data, rows)
        fit = scaled_lasso(data)
        formed = dict(data.columns)
        first, second = data.fork(), data.fork()
        assert scaled_lasso(first) is fit
        cov = sample_cov(first)  # every column, read from the fork's coordinates
        assert np.array_equal(cov, cov.T) and np.allclose(np.diag(cov), data.diag, rtol=1e-12, atol=0.0)
        assert data.columns.keys() == formed.keys() and len(first.columns) == p
        assert np.array_equal(second.cols(range(p)), first.cols(range(p)))


    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([8, 30]), st.integers(0, 2**32),
        st.lists(st.integers(0, 11), max_size=4), st.lists(st.integers(0, 11), min_size=1, max_size=12),
    )
    def test_fork_reads_what_the_original_would_and_leaves_it_alone(self, n, seed, before, read):
        theta = ModelParams(beta=np.eye(12)[2], sigma_cov=None, noise_sd=1.0)
        data = CoordinateDataset(theta, n, seed)
        data.cols(before)
        fork = data.fork()
        state = (data.coords.copy(), data.source.rho.copy(), repr(data.source.rng.bit_generator.state))
        got = fork.cols(read)
        assert np.array_equal(data.coords, state[0]) and np.array_equal(data.source.rho, state[1])
        assert repr(data.source.rng.bit_generator.state) == state[2]
        assert np.array_equal(got, data.cols(read))

    def test_fork_and_original_grow_separate_coordinates(self):
        # both write their next basis vector to row d: one shared buffer would let either overwrite the other
        theta = ModelParams(beta=np.eye(12)[2], sigma_cov=None, noise_sd=1.0)
        data = CoordinateDataset(theta, 30, 5)
        fork = data.fork()
        fork.cols([3, 4])
        seen = fork.coords.copy()
        data.cols([0, 1])
        assert np.array_equal(fork.coords, seen) and not np.array_equal(data.coords[: len(seen)], seen)


def criterion3_datasets():
    """40 criterion-3 `CoordinateDataset`s (n = 300, p = 600): a null (five
    coefficients 0.8) and an alternative (five at 2.8), at seeds 0..19 each."""
    for seed in range(20):
        for level in (0.8, 2.8):
            yield CoordinateDataset(criterion3_theta(level), 300, seed)


class TestCriterion3Bits:
    """Bits of the simulate hot loop, pinned: a change to the solver or the
    sampler that moves a single bit of these shows here.  The datasets are the
    two-phase `GaussianSource`'s: plain normals on the eager basis (beta's
    support and the noise), the column norms drawn after it, then Beta splits."""

    def test_scaled_lasso_bits(self):
        digest = hashlib.sha256()
        for data in criterion3_datasets():
            fit = scaled_lasso(data)
            digest.update(fit.beta_hat.tobytes() + np.float64(fit.sigma_hat).tobytes())
        assert digest.hexdigest() == "5a8b29d381633366eda3c2af70fa9b088f1e6dad8d41bc306a83664f21a47e52"

    def test_search_certifies_without_coordinate_descent(self, cd_calls):
        # the fits that the search certifies before any coordinate-descent call, pinned: all 40 of them
        searched = 0
        for data in criterion3_datasets():
            cd_calls.clear()
            searched += scaled_lasso(data).converged and not cd_calls
        assert searched == 40

    def test_coordinate_dataset_bits(self):
        digest = hashlib.sha256()
        for data in criterion3_datasets():
            data.cols([7, 3, 599, 250, 1, 2, 400])
            digest.update(data.coords.tobytes() + data.xty.tobytes() + np.float64(data.yty).tobytes())
        assert digest.hexdigest() == "5d4db36016ea906edc29db2bfe7845c04a9bb3b0229efa91556819ba3a13a485"


class TestProjectionDirection:
    def radius_to_cxi(self, target, xi_vec, n):
        p = xi_vec.size
        return target / (float(np.linalg.norm(xi_vec)) * math.sqrt(math.log(p) / n))

    @staticmethod
    def radius(c_xi, xi_vec, n):
        """The constraint radius C_xi ||xi||_2 sqrt(log p / n)."""
        return c_xi * float(np.linalg.norm(xi_vec)) * math.sqrt(math.log(xi_vec.size) / n)

    def test_identity_soft_threshold(self):
        xi = make_loading([1.0, 0.2, 0.0])
        n = 50
        c_xi = self.radius_to_cxi(0.3, xi.original(), n)
        res = projection_direction(DenseGram(np.eye(3), n), xi.original(), c_xi)
        assert res.feasible
        assert np.allclose(res.u_hat, [0.7, 0.0, 0.0], atol=1e-9)

    def test_huge_radius_gives_zero(self):
        xi = make_loading([1.0, 0.2, 0.0])
        n = 50
        c_xi = self.radius_to_cxi(1.5, xi.original(), n)
        res = projection_direction(DenseGram(np.eye(3), n), xi.original(), c_xi)
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
        res = projection_direction(DenseGram(s, n), xi.original(), 2.0)
        oracle = np.linalg.solve(s, xi.original())
        assert res.feasible
        assert res.objective <= float(oracle @ (s @ oracle)) + 1e-9

    def test_complementary_slackness(self):
        rng = stream(13, 0)
        n, p = 200, 15
        x = rng.standard_normal((n, p))
        s = sample_cov(Dataset(x=x, y=np.zeros(n)))
        xi = make_loading(rng.standard_normal(p))
        res = projection_direction(DenseGram(s, n), xi.original(), 1.0)
        assert res.feasible
        slack = np.abs(s @ res.u_hat - xi.original())
        active = np.abs(res.u_hat) > 1e-8
        radius = self.radius(1.0, xi.original(), n)
        assert np.all(np.abs(slack[active] - radius) < 1e-6)
        assert np.max(slack) <= radius * (1 + 1e-8) + 1e-9

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
        res = projection_direction(DenseGram(s, n), xi.original(), c_xi)
        if res.feasible:
            tol = 1e-9 * max(float(np.linalg.norm(xi.original())), 1.0)
            radius = self.radius(c_xi, xi.original(), n)
            assert np.max(np.abs(s @ res.u_hat - xi.original())) <= radius * (1 + 1e-8) + tol
        else:
            assert np.all(res.u_hat == 0.0)

    def test_infeasible_detection(self):
        # rank-one gram cannot reproduce a generic loading at tiny radius
        v = np.array([1.0, 0.0, 0.0])
        s = np.outer(v, v)
        xi = make_loading([0.0, 1.0, 0.0])
        res = projection_direction(DenseGram(s, 10**6), xi.original(), 0.01)
        assert not res.feasible
        assert np.allclose(res.u_hat, 0.0)

    def test_zero_direction_can_be_the_exact_optimum(self, caplog):
        # the criterion-3 sub-Weibull loading's m_star head: r >= ||head||_inf, so u = 0
        # is feasible with objective 0 and is returned as the optimum, not as the fallback
        n, p, k_u = 300, 600, 5
        xi = example_profiles("subweibull", {"q": 2.0, "p": p}, 3)
        head, _ = xi.split(cutoff_and_regime(k_u, n, p)[0])
        assert self.radius(2.0, head, n) >= np.max(np.abs(head))
        data = CoordinateDataset(ModelParams(beta=np.zeros(p), sigma_cov=None, noise_sd=1.0), n, 3)
        formed = len(data.columns)
        with caplog.at_level(logging.WARNING, logger="adaptest"):
            res = projection_direction(data, head, 2.0)
        assert res.feasible and res.objective == 0.0 and np.all(res.u_hat == 0.0)
        assert len(data.columns) == formed  # no coordinate-descent pass read a column
        assert caplog.records == []

    def test_fallback_is_logged(self, caplog):
        # S_11 = 0 and |xi_1| = 1 > r: no direction meets the constraint
        s, xi = np.diag([1.0, 0.0, 2.0]), np.array([0.5, 1.0, 0.0])
        with caplog.at_level(logging.WARNING, logger="adaptest"):
            res = projection_direction(DenseGram(s, 400), xi, 0.5)
        assert not res.feasible
        assert [(r.name, r.levelno) for r in caplog.records] == [("adaptest", logging.WARNING)]
        assert "u = 0" in caplog.records[0].getMessage()


# The per-block D-screen that spiked_cov_estimate's stacked walk replaced, kept verbatim as its oracle.
def _opnorm_sym(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


def _opnorm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _diag_bound(d: int, n: int, logp: float, gamma_star: float) -> float:
    s = math.sqrt(d / n) + math.sqrt(gamma_star * d * logp / n)
    return 2.0 * s + s * s


def _cross_bound(d: int, bsz: int, n: int, logp: float, gamma_star: float, gb_norm: float) -> float:
    return math.sqrt(gb_norm) * (
        math.sqrt(d / n) + math.sqrt(bsz / n) + math.sqrt(gamma_star * d * logp / n)
    )


def per_block_spiked_cov_estimate(
    data: Dataset,
    k_u: int,
    gamma_star: float = 3.0,
    *,
    comb_cap: int = 5_000_000,
) -> SpikedCovFit:
    if data.n < 2:
        raise ValueError("need at least two samples")
    n = data.n
    p = data.p
    s = sample_cov(data)
    logp = math.log(p)

    checked = 0

    def d_subsets(b_set: tuple):
        # lazily, so comb_cap is checked before a large enumeration is held
        comp = [j for j in range(p) if j not in b_set]
        sizes = range(1, min(k_u, len(comp)) + 1)
        return itertools.chain.from_iterable(itertools.combinations(comp, d) for d in sizes)

    eye = np.eye(p)
    for bsz in range(0, k_u + 1):
        for b_set in itertools.combinations(range(p), bsz):
            idx = np.array(b_set, dtype=int)
            gb_norm = 1.0
            if bsz:
                ev = np.linalg.eigvalsh(s[np.ix_(idx, idx)])
                if ev[0] < 1.0 / 20.0 or ev[-1] > 20.0:
                    continue
                gb_norm = max(float(np.max(np.abs(ev))), 1.0)
            ok = True
            for d_set in d_subsets(b_set):
                checked += 1
                if checked > comb_cap:
                    raise BudgetExceeded(f"enumeration exceeded cap {comb_cap}")
                didx = np.array(d_set, dtype=int)
                block = s[np.ix_(didx, didx)] - eye[np.ix_(didx, didx)]
                if _opnorm_sym(block) > _diag_bound(len(d_set), n, logp, gamma_star):
                    ok = False
                    break
                if bsz and _opnorm(s[np.ix_(didx, idx)]) > _cross_bound(
                    len(d_set), bsz, n, logp, gamma_star, gb_norm
                ):
                    ok = False
                    break
            if ok:
                omega = np.eye(p)
                if bsz:
                    omega[np.ix_(idx, idx)] = np.linalg.inv(s[np.ix_(idx, idx)])
                return SpikedCovFit(
                    sigma_hat_spike=gamma_block(s, b_set), omega_hat=omega, b_hat=b_set, fell_back_identity=False
                )
    return SpikedCovFit(sigma_hat_spike=np.eye(p), omega_hat=np.eye(p), b_hat=(), fell_back_identity=True)


def _spiked_or_budget(fit, data, k_u, cap):
    try:
        return fit(data, k_u, comb_cap=cap)
    except BudgetExceeded:
        return None


class TestSpikedCov:
    def planted(self, p=6, lam=0.5):
        v = np.zeros(p)
        v[:2] = 1.0 / math.sqrt(2)
        return np.eye(p) + lam * np.outer(v, v)

    def test_identity_data_picks_empty_support(self):
        theta = ModelParams(beta=np.zeros(6), sigma_cov=None, noise_sd=1.0)
        fit = spiked_cov_estimate(generate_dataset(theta, 4000, 7), 2)
        assert fit.b_hat == ()
        assert not fit.fell_back_identity
        assert np.array_equal(fit.sigma_hat_spike, np.eye(6))

    def test_planted_spike_monte_carlo(self):
        sigma = self.planted()
        theta = ModelParams(beta=np.zeros(6), sigma_cov=(np.arange(2), sigma[:2, :2]), noise_sd=1.0)
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
        theta = ModelParams(beta=np.zeros(10), sigma_cov=None, noise_sd=1.0)
        with pytest.raises(BudgetExceeded):
            spiked_cov_estimate(generate_dataset(theta, 100, 0), 3, comb_cap=10)

    def test_budget_checked_while_streaming_subsets(self):
        # the empty support alone has about 1.7M complement subsets at p = 80,
        # k_u = 4; none of them may be held at once
        theta = ModelParams(beta=np.zeros(80), sigma_cov=None, noise_sd=1.0)
        data = generate_dataset(theta, 200, 3)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                spiked_cov_estimate(data, 4, comb_cap=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @given(seed=st.integers(0, 10**6), p=st.integers(3, 13), n=st.integers(4, 39), k_u=st.integers(1, 3),
           spike=st.integers(0, 3), lam=st.sampled_from([2.0, 6.0, 15.0]), cap=st.sampled_from([5, 50, 500, 5_000_000]))
    @settings(max_examples=150, deadline=None)
    def test_stacked_walk_matches_per_block_walk(self, seed, p, n, k_u, spike, lam, cap):
        # a planted spike on `spike` random coordinates makes |B| >= 1 and the cross test run
        rng = stream(seed, 0)
        v = np.zeros(p)
        v[rng.choice(p, min(spike, p), replace=False)] = rng.choice([-1.0, 1.0], min(spike, p))
        factor = np.linalg.cholesky(np.eye(p) + lam * np.outer(v, v) / max(spike, 1))
        data = Dataset(x=rng.standard_normal((n, p)) @ factor.T, y=np.zeros(n))
        got = _spiked_or_budget(spiked_cov_estimate, data, k_u, cap)
        want = _spiked_or_budget(per_block_spiked_cov_estimate, data, k_u, cap)
        assert (got is None) == (want is None)  # BudgetExceeded on the same inputs
        if want is not None:
            assert got.b_hat == want.b_hat and got.fell_back_identity == want.fell_back_identity
            assert np.array_equal(got.omega_hat, want.omega_hat)
            assert np.array_equal(got.sigma_hat_spike, want.sigma_hat_spike)

    def test_stacked_walk_calls_eigvalsh_per_stack(self, monkeypatch):
        # the per-block walk made one eigvalsh call per D: 60 + 1,770 + 34,220 = 36,050 for B = {}
        theta = ModelParams(beta=np.zeros(60), sigma_cov=None, noise_sd=1.0)
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        assert spiked_cov_estimate(generate_dataset(theta, 75, 0), 3).b_hat == ()
        assert len(calls) <= 36
