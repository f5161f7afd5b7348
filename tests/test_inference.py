import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptest import inference as inf
from adaptest.errors import OddSampleSize
from adaptest.estimators import (
    ScaledLassoFit,
    projection_direction,
    scaled_lasso,
    spiked_cov_estimate,
)
from adaptest import model
from adaptest.model import ModelParams, generate_dataset, make_loading, stream

# alias keeps pytest from trying to collect the imported dataclass
problem_of = model.TestProblem

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)
small_pos = st.floats(min_value=0.0, max_value=50, allow_nan=False)


class TestConfidenceInterval:
    @given(finite, small_pos, finite, small_pos)
    @settings(max_examples=50, deadline=None)
    def test_minkowski_sum_exact_and_commutative(self, c1, r1, c2, r2):
        a = inf.ConfidenceInterval(c1, r1, 0.99, {"a": 0.01})
        b = inf.ConfidenceInterval(c2, r2, 0.98, {"b": 0.02})
        s = a + b
        assert s.center == c1 + c2
        assert s.radius == r1 + r2
        assert s.level == pytest.approx(1 - 0.03)
        t = b + a
        assert t.center == s.center and t.radius == s.radius and t.level == s.level

    def test_budget_collision_kept(self):
        a = inf.ConfidenceInterval(0, 1, 0.99, {"x": 0.01})
        s = a + a
        assert s.level == pytest.approx(0.98)
        assert len(s.budget) == 2

    def test_level_is_one_minus_total_budget(self):
        fit = ScaledLassoFit(beta_hat=np.zeros(10), sigma_hat=1.0, iterations=1, converged=True)
        ci = inf.plugin_ci(fit, np.ones(10), 2, 50, 10, 0.07)
        assert ci.level == pytest.approx(1 - sum(ci.budget.values()))


class TestPluginCI:
    def test_radius_arithmetic(self):
        fit = ScaledLassoFit(beta_hat=np.zeros(100), sigma_hat=1.0, iterations=1, converged=True)
        xi = np.zeros(100)
        xi[0] = 1.0
        ci = inf.plugin_ci(fit, xi, 2, 100, 100, 0.05)
        assert ci.radius == pytest.approx(4.4 * 2 * math.sqrt(math.log(100) / 100), rel=1e-12)
        assert ci.radius == pytest.approx(1.8884501, rel=1e-6)

    def test_radius_linear_in_sigma(self):
        base = ScaledLassoFit(beta_hat=np.zeros(20), sigma_hat=1.0, iterations=1, converged=True)
        double = ScaledLassoFit(beta_hat=np.zeros(20), sigma_hat=2.0, iterations=1, converged=True)
        xi = np.ones(20)
        r1 = inf.plugin_ci(base, xi, 3, 80, 20, 0.05).radius
        r2 = inf.plugin_ci(double, xi, 3, 80, 20, 0.05).radius
        assert r2 == 2.0 * r1


class TestDebiasedCI:
    def test_zero_direction_radius(self):
        theta = ModelParams(beta=np.zeros(30), sigma_cov=np.eye(30), noise_sd=1.0)
        data = generate_dataset(theta, 60, 3)
        fit = scaled_lasso(data)
        from adaptest.estimators import ProjectionResult

        proj = ProjectionResult(u_hat=np.zeros(30), feasible=False, radius=0.1, objective=0.0)
        xi = np.ones(30)
        ci = inf.debiased_ci(data, fit, proj, xi, 4, 0.05)
        expect = 1.1 * fit.sigma_hat * inf.C_BETA * inf.C_XI * math.sqrt(30.0) * 4 * math.log(30) / 60
        assert ci.radius == pytest.approx(expect, rel=1e-12)
        assert ci.center == pytest.approx(float(xi @ fit.beta_hat))

    def test_coverage_known_truth(self):
        # moderately hard regime; budget alpha = 0.05 allows 3% slack
        n, p, k = 500, 200, 3
        beta = np.zeros(p)
        beta[:k] = [1.0, -1.0, 0.5]
        theta = ModelParams(beta=beta, sigma_cov=np.eye(p), noise_sd=1.0)
        xi = make_loading(np.concatenate((np.ones(50), np.zeros(p - 50))))
        target = float(xi.original() @ beta)
        hits = 0
        reps = 1000
        for seed in range(reps):
            data = generate_dataset(theta, n, seed)
            fit = scaled_lasso(data)
            proj = projection_direction(data, xi.original(), 2.0, n)
            ci = inf.debiased_ci(data, fit, proj, xi.original(), 5, 0.05)
            hits += ci.covers(target)
        assert hits / reps >= 0.95 - 0.03


class TestMixedCI:
    def _setup(self, seed=0, n=150, p=50):
        rng = stream(seed, 0)
        beta = np.zeros(p)
        beta[:3] = rng.uniform(0.5, 2.0, 3)
        theta = ModelParams(beta=beta, sigma_cov=np.eye(p), noise_sd=1.0)
        data = generate_dataset(theta, n, seed + 1)
        xi = make_loading(rng.standard_normal(p))
        fit = scaled_lasso(data)
        return data, xi, fit

    def test_endpoints_recover_components(self):
        for seed in range(5):
            data, xi, fit = self._setup(seed)
            n, p, k_u = data.n, data.p, 4
            a_comp = min(0.05, 0.05) / 4.0
            m0 = inf.mixed_ci(data, fit, xi, 0, k_u, 0.05, 0.05)
            pi = inf.plugin_ci(fit, xi.original(), k_u, n, p, a_comp)
            assert m0.center == pytest.approx(pi.center, abs=1e-12)
            assert m0.radius == pytest.approx(pi.radius, abs=1e-12)
            mp = inf.mixed_ci(data, fit, xi, p, k_u, 0.05, 0.05)
            proj = projection_direction(data, xi.original(), 2.0, n)
            db = inf.debiased_ci(data, fit, proj, xi.original(), k_u, a_comp)
            assert mp.center == pytest.approx(db.center, abs=1e-12)
            assert mp.radius == pytest.approx(db.radius, abs=1e-12)

    def test_scan_beats_endpoints(self):
        data, xi, fit = self._setup(3)
        problem = problem_of(xi=xi, t0=0.0, k_u=4, alpha=0.05, eta=0.05)
        dec = inf.mixed_test(data, problem, scan_all_m=True)
        m0 = inf.mixed_ci(data, fit, xi, 0, 4, 0.05, 0.05)
        mp = inf.mixed_ci(data, fit, xi, data.p, 4, 0.05, 0.05)
        assert dec.interval.radius <= min(m0.radius, mp.radius) + 1e-12

    def test_decision_invariant_under_rescaling(self):
        # (xi, t0) -> (2 xi, 2 t0) leaves the decision unchanged
        for seed in range(6):
            data, xi, _ = self._setup(seed, n=120, p=40)
            xi2 = make_loading(2.0 * xi.original())
            t0 = 0.4
            d1 = inf.mixed_test(data, problem_of(xi=xi, t0=t0, k_u=4, alpha=0.05, eta=0.05))
            d2 = inf.mixed_test(data, problem_of(xi=xi2, t0=2 * t0, k_u=4, alpha=0.05, eta=0.05))
            assert d1.reject == d2.reject
            assert d2.interval.radius == pytest.approx(2 * d1.interval.radius, rel=1e-9)


class TestKnownSigmaCI:
    def test_odd_sample_size(self):
        theta = ModelParams(beta=np.zeros(10), sigma_cov=np.eye(10), noise_sd=1.0)
        data = generate_dataset(theta, 31, 0)
        with pytest.raises(OddSampleSize):
            inf.known_sigma_ci(data, np.ones(10), np.ones(10), 0.05, seed=0)

    def test_radius_from_half1_fit(self):
        # 1.1 (c2 + c3) ||xi||_2 sigma_hat / sqrt(n2) at c2 = c3 = 1, sigma_hat from the half-1 lasso
        theta = ModelParams(beta=np.zeros(20), sigma_cov=np.eye(20), noise_sd=1.0)
        data = generate_dataset(theta, 80, 1)
        xi = np.linspace(-1.0, 2.0, 20)
        ci = inf.known_sigma_ci(data, np.ones(20), xi, 0.05, seed=3)
        fit = scaled_lasso(inf.split_half(data, 3)[0])
        assert ci.radius == 2.2 * float(np.linalg.norm(xi)) * fit.sigma_hat / math.sqrt(40)

    def test_center_distribution(self):
        # beta = 0, Sigma = I: the center is nearly N(0, |xi|^2 sigma^2 / n2)
        n, p = 200, 40
        theta = ModelParams(beta=np.zeros(p), sigma_cov=np.eye(p), noise_sd=1.0)
        xi = np.ones(p)
        centers = []
        for seed in range(2000):
            data = generate_dataset(theta, n, seed)
            ci = inf.known_sigma_ci(data, np.ones(p), xi, 0.05, seed=seed)
            centers.append(ci.center)
        target_sd = float(np.linalg.norm(xi)) / math.sqrt(n // 2)
        sd = float(np.std(centers))
        assert abs(np.mean(centers)) <= 4 * sd / math.sqrt(len(centers))
        assert abs(sd / target_sd - 1.0) <= 0.2

    def test_coverage(self):
        n, p, k = 600, 300, 3
        beta = np.zeros(p)
        beta[:k] = [0.9, -1.2, 0.6]
        theta = ModelParams(beta=beta, sigma_cov=np.eye(p), noise_sd=1.0)
        xi = np.concatenate((np.ones(30), np.zeros(p - 30)))
        target = float(xi @ beta)
        hits = 0
        reps = 400
        for seed in range(reps):
            data = generate_dataset(theta, n, seed)
            ci = inf.known_sigma_ci(data, np.ones(p), xi, 0.05, seed=seed)
            hits += ci.covers(target)
        assert hits / reps >= 0.95 - 0.03

    def test_diagonal_covariance_direction(self):
        # Sigma0 = diag(d): the direction is Sigma0^{-1} xi = xi / d
        p = 20
        d = np.linspace(0.5, 2.0, p)
        theta = ModelParams(beta=np.zeros(p), sigma_cov=np.diag(d), noise_sd=1.0)
        data = generate_dataset(theta, 80, 4)
        xi = np.linspace(-1.0, 1.0, p)
        ci = inf.known_sigma_ci(data, d, xi, 0.05, seed=2)
        half1, half2 = inf.split_half(data, 2)
        fit = scaled_lasso(half1)
        resid = half2.y - half2.x @ fit.beta_hat
        center = xi @ fit.beta_hat + np.linalg.solve(np.diag(d), xi) @ (half2.x.T @ resid) / half2.n
        assert ci.center == pytest.approx(center, rel=1e-12, abs=1e-14)


class TestSpikedCI:
    def test_identity_precision_matches_known_sigma(self):
        theta = ModelParams(beta=np.zeros(12), sigma_cov=np.eye(12), noise_sd=1.0)
        data = generate_dataset(theta, 100, 2)
        xi = make_loading(np.ones(12))
        assert spiked_cov_estimate(inf.split_half(data, 5)[0], 3).b_hat == ()  # so omega_hat = I
        a = inf.spiked_ci(data, xi, 3, 0.05, seed=5)
        b = inf.known_sigma_ci(data, np.ones(12), xi.original(), 0.05, seed=5)
        assert a.center == pytest.approx(b.center, abs=1e-12)

    def test_center_matches_rows_formula(self):
        # xi'beta_hat + (omega_hat xi)' X2'(y2 - X2 beta_hat) / n2, with a planted spike and signal
        p, k_u = 8, 2
        v = np.zeros(p)
        v[:2] = 1.0 / math.sqrt(2)
        beta = np.zeros(p)
        beta[:2] = [0.8, -0.4]
        theta = ModelParams(beta=beta, sigma_cov=np.eye(p) + 2.0 * np.outer(v, v), noise_sd=1.0)
        data = generate_dataset(theta, 800, 6)
        xi = make_loading(np.linspace(-1.0, 1.5, p))
        ci = inf.spiked_ci(data, xi, k_u, 0.05, seed=7)
        half1, half2 = inf.split_half(data, 7)
        fit, spk = scaled_lasso(half1), spiked_cov_estimate(half1, k_u)
        assert spk.b_hat and np.any(fit.beta_hat)
        resid = half2.y - half2.x @ fit.beta_hat
        center = xi.original() @ fit.beta_hat + (spk.omega_hat @ xi.original()) @ (half2.x.T @ resid) / half2.n
        assert ci.center == pytest.approx(center, rel=1e-12)

    def test_radius_ordering_against_plugin(self):
        # when H(k_u) sqrt(log p) is small next to |xi|_inf k_u, the spiked
        # radius undercuts the plug-in radius (both at sigma_hat = 1)
        n, p, k_u = 800, 64, 2
        xi = make_loading(np.concatenate(([1.0], 0.05 * np.ones(p - 1))))
        from adaptest.profiles import top_norm

        r_spiked = float(np.linalg.norm(xi.coords)) / math.sqrt(n) + top_norm(xi, k_u) * k_u * math.log(p) / n
        r_plugin = inf.C_PI * 1.0 * k_u * math.sqrt(math.log(p) / n)
        assert r_spiked <= r_plugin

    def test_coverage_with_planted_spike(self):
        p, k_u, n = 8, 2, 800
        v = np.zeros(p)
        v[:2] = 1.0 / math.sqrt(2)
        sigma = np.eye(p) + 0.5 * np.outer(v, v)
        xi = make_loading(np.ones(p))
        unit = float(np.linalg.norm(xi.coords)) / math.sqrt(n) + (
            math.sqrt(2.0) * k_u * math.log(p) / n
        )

        # pilot null calibration of the radius multiplier; at unit multipliers the radius is sigma_hat * unit
        theta0 = ModelParams(beta=np.zeros(p), sigma_cov=sigma, noise_sd=1.0)
        pilot = []
        for seed in range(200):
            data = generate_dataset(theta0, n, 50_000 + seed)
            ci = inf.spiked_ci(data, xi, k_u, 0.05, seed=seed)
            pilot.append(abs(ci.center) / unit)
        c_cal = 1.15 * float(np.quantile(pilot, 0.975))

        beta = np.zeros(p)
        beta[:2] = [0.8, -0.4]
        theta = ModelParams(beta=beta, sigma_cov=sigma, noise_sd=1.0)
        target = float(xi.original() @ beta)
        hits = 0
        reps = 1000
        for seed in range(reps):
            data = generate_dataset(theta, n, seed)
            ci = inf.spiked_ci(data, xi, k_u, 0.05, seed=seed)
            hits += abs(ci.center - target) <= c_cal * ci.radius
        assert hits / reps >= 0.95 - 0.05


class TestRunSingleTest:
    def test_unknown_mode_names_the_mode_and_the_modes(self):
        theta = ModelParams(beta=np.zeros(6), sigma_cov=np.eye(6), noise_sd=1.0)
        data = generate_dataset(theta, 40, 0)
        problem = problem_of(xi=make_loading(np.ones(6)), t0=0.0, k_u=2, alpha=0.05, eta=0.05)
        with pytest.raises(ValueError, match="'bogus'") as err:
            inf.run_single_test("bogus", data, problem, seed=0)
        assert all(mode in str(err.value) for mode in inf.TEST_MODES)
