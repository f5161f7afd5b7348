import itertools
import logging
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtri

from adaptest import estimators
from adaptest import inference as inf
from adaptest.errors import OddSampleSize
from adaptest.estimators import (
    CoordinateDataset,
    projection_direction,
    scaled_lasso,
    spiked_cov_estimate,
)
from adaptest import model
from adaptest.harness import null_point, parse_config, run_experiment
from adaptest.model import ModelParams, generate_dataset, make_loading, stream
from adaptest.priors import prior_sampler
from adaptest.profiles import MODERATELY_SPARSE, ULTRA_SPARSE, cutoff_and_regime, example_profiles, log_grid
from adaptest.profiles import regular_profile
from oracles import debiased_ci, plugin_ci, single
from test_estimators import criterion3_theta
from test_harness import golden_dataset

# alias keeps pytest from trying to collect the imported dataclass
problem_of = model.TestProblem


class TestConfidenceInterval:
    def test_negative_radius_refused(self):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            inf.ConfidenceInterval(0.0, -1e-300, {"x": 0.01})

    def test_nan_radius_refused(self):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            inf.ConfidenceInterval(0.0, math.nan, {"x": 0.01})

    def test_level_is_one_minus_total_budget(self):
        data = generate_dataset(ModelParams(beta=np.zeros(10), sigma_cov=None, noise_sd=1.0), 50, 0)
        problem = problem_of(xi=make_loading(np.ones(10)), t0=0.0, k_u=2, alpha=0.07, eta=0.05)
        ci = inf.run_single_test("plugin", data, problem).interval
        assert ci.level == pytest.approx(1 - sum(ci.budget.values()))


class TestPluginCI:
    def test_radius_arithmetic(self):
        # sigma_hat = 1, ||xi||_inf = 1, k_u = 2, n = p = 100
        radius = inf._plugin_radius(1.0, 1.0, 2, 100, 100)
        assert radius == pytest.approx(4.4 * 2 * math.sqrt(math.log(100) / 100), rel=1e-12)
        assert radius == pytest.approx(1.8884501, rel=1e-6)

    def test_radius_linear_in_sigma(self):
        # ||xi||_inf = 1, k_u = 3, n = 80, p = 20
        r1 = inf._plugin_radius(1.0, 1.0, 3, 80, 20)
        r2 = inf._plugin_radius(2.0, 1.0, 3, 80, 20)
        assert r2 == 2.0 * r1


class TestDebiasedCI:
    def test_zero_direction_radius(self):
        # the constraint radius C_xi ||xi||_2 sqrt(log p / n) = 2.6 exceeds ||xi||_inf = 1, so u = 0
        theta = ModelParams(beta=np.zeros(30), sigma_cov=None, noise_sd=1.0)
        data = generate_dataset(theta, 60, 3)
        fit = scaled_lasso(data)
        xi = np.ones(30)
        problem = problem_of(xi=make_loading(xi), t0=0.0, k_u=4, alpha=0.05, eta=0.05)
        ci = inf.run_single_test("debiased", data, problem).interval
        expect = 1.1 * fit.sigma_hat * inf.C_BETA * inf.C_XI * math.sqrt(30.0) * 4 * math.log(30) / 60
        assert ci.radius == pytest.approx(expect, rel=1e-12)
        assert ci.center == pytest.approx(float(xi @ fit.beta_hat))

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(min_value=2.0**-50, max_value=1.0, exclude_max=True))
    @example(0.05)
    @example(0.05 / 4.0)
    def test_quantile_within_8_ulp_of_ndtri(self, alpha):
        # the debiased radius's z_{1 - alpha/8}, by AS241 in the standard library, against scipy's Cephes ndtri;
        # at alpha <= 2^-51, 1 - alpha/8 rounds to 1, which has no finite quantile
        q = 1.0 - alpha / 8.0
        ours, ref = NormalDist().inv_cdf(q), float(ndtri(q))
        assert abs(ours - ref) <= 8 * math.ulp(ref), (ours, ref)

    def test_quantile_of_one_is_infinite(self):
        # at alpha <= 2^-51 the radius is infinite, as scipy's ndtri(1) = inf made it; the loading
        # e_1 has a constraint radius 2 sqrt(log p / n) = 0.48 below ||xi||_inf = 1, so u'Su > 0
        # (0 z would be nan)
        theta = ModelParams(beta=np.zeros(30), sigma_cov=None, noise_sd=1.0)
        data = generate_dataset(theta, 60, 3)
        xi = make_loading(np.eye(30)[0])
        assert projection_direction(data, xi.original(), inf.C_XI).objective > 0.0

        def radius(alpha):
            problem = problem_of(xi=xi, t0=0.0, k_u=4, alpha=alpha, eta=0.05)
            return inf.run_single_test("debiased", data, problem).interval.radius

        assert radius(2.0**-51) == math.inf
        assert math.isfinite(radius(2.0**-49))

    def test_zero_direction_radius_at_quantile_of_one(self):
        # the all-ones loading's u = 0 is exact, so u'Su = 0 and the z term is left out, not 0 inf = nan:
        # the radius is the bias term alone at every level, and t0 at the center is not rejected
        data = generate_dataset(ModelParams(beta=np.zeros(30), sigma_cov=None, noise_sd=1.0), 60, 3)
        xi = make_loading(np.ones(30))
        for mode, alpha in (("debiased", 2.0**-51), ("mixed", 2.0**-49)):
            def decide(level, t0=0.0):
                return inf.run_single_test(mode, data, problem_of(xi=xi, t0=t0, k_u=4, alpha=level, eta=level))

            ci = decide(alpha).interval
            assert ci.radius == decide(0.05).interval.radius
            assert not decide(alpha, ci.center).reject

    def test_importing_the_cli_loads_no_scipy(self):
        src = str(Path(inf.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, adaptest.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_coverage_known_truth(self):
        # moderately hard regime; budget alpha = 0.05 allows 3% slack
        n, p, k = 500, 200, 3
        beta = np.zeros(p)
        beta[:k] = [1.0, -1.0, 0.5]
        theta = ModelParams(beta=beta, sigma_cov=None, noise_sd=1.0)
        xi = make_loading(np.concatenate((np.ones(50), np.zeros(p - 50))))
        target = float(xi.original() @ beta)
        hits = 0
        reps = 1000
        problem = problem_of(xi=xi, t0=target, k_u=5, alpha=0.05, eta=0.05)
        for seed in range(reps):
            hits += inf.run_single_test("debiased", generate_dataset(theta, n, seed), problem).interval.covers(target)
        assert hits / reps >= 0.95 - 0.03


class TestMixedCI:
    def _setup(self, seed=0, n=150, p=50):
        rng = stream(seed, 0)
        beta = np.zeros(p)
        beta[:3] = rng.uniform(0.5, 2.0, 3)
        theta = ModelParams(beta=beta, sigma_cov=None, noise_sd=1.0)
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
            pi = plugin_ci(fit, xi.original(), k_u, n, a_comp)
            assert m0.center == pytest.approx(pi.center, abs=1e-12)
            assert m0.radius == pytest.approx(pi.radius, abs=1e-12)
            mp = inf.mixed_ci(data, fit, xi, p, k_u, 0.05, 0.05)
            proj = projection_direction(data, xi.original(), 2.0)
            db = debiased_ci(data, fit, proj, xi.original(), k_u, a_comp)
            assert mp.center == pytest.approx(db.center, abs=1e-12)
            assert mp.radius == pytest.approx(db.radius, abs=1e-12)

    @pytest.mark.parametrize("m", [-1, 51])
    def test_cutoff_outside_0_to_p_refused(self, m):
        data, xi, fit = self._setup(0)
        with pytest.raises(ValueError, match="cutoff m out of range"):
            inf.mixed_ci(data, fit, xi, m, 4, 0.05, 0.05)

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


class TestEndpointModes:
    """The plugin and debiased modes are the mixed interval's construction at m = 0 and m = p."""

    @staticmethod
    def cases(tmp_path):
        """(data, xi, k_u): 50 criterion-3 `CoordinateDataset`s (five coefficients at 0.8 and at 2.8, seeds
        0..24) with the regular loading of five equal entries, and the golden row dataset with a normal loading."""
        cases = [(CoordinateDataset(criterion3_theta(level), 300, seed), regular_profile(5, 1.0, 600), 5)
                 for seed in range(25) for level in (0.8, 2.8)]
        with open(golden_dataset(tmp_path / "data.csv")) as fh:
            return cases + [(model.dataset_from_csv(fh, 7), make_loading(stream(7).standard_normal(30)), 3)]

    def test_modes_equal_the_written_out_intervals(self, tmp_path):
        for data, xi, k_u in self.cases(tmp_path):
            problem = problem_of(xi=xi, t0=0.0, k_u=k_u, alpha=0.05, eta=0.05)
            plugin, debiased = (inf.run_single_test(mode, data, problem) for mode in ("plugin", "debiased"))
            fit, view = scaled_lasso(data), data.fork()
            proj = projection_direction(view, xi.original(), inf.C_XI)
            for dec, ref, m in ((plugin, plugin_ci(fit, xi.original(), k_u, data.n, 0.05), 0),
                                (debiased, debiased_ci(view, fit, proj, xi.original(), k_u, 0.05), data.p)):
                ci = dec.interval
                assert (ci.center, ci.radius, ci.budget, dec.m_used) == (ref.center, ref.radius, ref.budget, m)

    def test_plugin_mode_forms_no_gram_column(self, tmp_path, monkeypatch):
        cases = self.cases(tmp_path)
        for data, xi, k_u in (cases[0], cases[1], cases[-1]):
            scaled_lasso(data)
            formed = []
            for cls in (CoordinateDataset, model.Dataset):
                monkeypatch.setattr(cls, "_column", lambda self, j, form=cls._column: formed.append(j) or form(self, j))
            inf.run_single_test("plugin", data, problem_of(xi=xi, t0=0.0, k_u=k_u, alpha=0.05, eta=0.05))
            monkeypatch.undo()
            assert formed == []

    @pytest.mark.parametrize("m, levels", [(1, {"plugin": 0.05}), (50, {"plugin": 0.05}), (0, {"debiased": 0.05}),
                                           (49, {"debiased": 0.05}), (0, {}), (50, {})])
    def test_a_nonempty_part_needs_a_level(self, m, levels):
        data, xi, fit = TestMixedCI()._setup(0)
        with pytest.raises(ValueError, match="has no level"):
            inf._interval(data, fit, xi, m, 4, **levels)


@st.composite
def scan_cases(draw):
    """(problem, theta, n, seed) over sizes, seeds, null and alternative, and the
    three example loadings: regular with a small loading_k, multiscale and sub-Weibull."""
    n, p, seed = draw(st.integers(20, 200)), draw(st.integers(6, 120)), draw(st.integers(0, 10**6))
    k_u = min(draw(st.integers(1, 10)), p)
    kind = draw(st.sampled_from(["regular", "multiscale", "subweibull"]))
    params = {
        "K": draw(st.integers(1, 5)), "a": 1.0, "k_u": k_u, "p": p,
        "L": 2 if 8 <= k_u and 5 * k_u <= p else 1, "q": draw(st.sampled_from([0.5, 1.0, 2.0])),
    }
    xi = example_profiles(kind, params, seed)
    problem = problem_of(xi=xi, t0=0.0, k_u=k_u, alpha=0.05, eta=0.05)
    return problem, null_point(xi, k_u, draw(st.sampled_from([0.0, 3.0])), 1.0), n, seed


class TestScanAllM:
    """The scan stops early, yet picks what the exhaustive scan over the whole grid picks."""

    @staticmethod
    def exhaustive(data, problem):
        fit, view = scaled_lasso(data), data.fork()
        cis = [(m, inf.mixed_ci(view, fit, problem.xi, m, problem.k_u, problem.alpha, problem.eta))
               for m in log_grid(data.p, 32)]
        return fit, cis, min(cis, key=lambda pair: pair[1].radius)

    @given(case=scan_cases())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_exhaustive_scan(self, case):
        problem, theta, n, seed = case
        for draw in (CoordinateDataset, generate_dataset):
            data = draw(theta, n, seed)
            dec = inf.mixed_test(data, problem, scan_all_m=True)
            _, _, (m, ci) = self.exhaustive(data, problem)
            assert (dec.m_used, dec.interval.center, dec.interval.radius) == (m, ci.center, ci.radius), draw
            assert dec.interval.budget == ci.budget

    @given(case=scan_cases())
    @settings(max_examples=40, deadline=None)
    def test_floor_bounds_every_radius(self, case):
        problem, theta, n, seed = case
        data = CoordinateDataset(theta, n, seed)
        fit, cis, _ = self.exhaustive(data, problem)
        floors = fit.sigma_hat * inf.radius_floors(problem.xi, [m for m, _ in cis], problem.k_u, n)
        # where u = 0 the floor is the radius itself, summed in another order
        assert np.all(floors <= np.array([ci.radius for _, ci in cis]) * (1.0 + 1e-12))

    @pytest.mark.parametrize("loading, most", [({"q": 2.0}, 1), ({"K": 5, "a": 1.0}, 6)], ids=["subweibull", "regular"])
    def test_solves_few_cutoffs(self, monkeypatch, loading, most):
        # the exhaustive scan builds 28 intervals on the sub-Weibull loading and 24 on the regular one
        n, p, k_u = 300, 600, 5
        mixed_ci, calls = inf.mixed_ci, []
        monkeypatch.setattr(inf, "mixed_ci", lambda *a: calls.append(a[3]) or mixed_ci(*a))
        for seed in range(3):
            xi = example_profiles("subweibull" if "q" in loading else "regular", {**loading, "p": p}, seed)
            problem = problem_of(xi=xi, t0=4.0, k_u=k_u, alpha=0.05, eta=0.05)
            calls.clear()
            inf.mixed_test(CoordinateDataset(null_point(xi, 5, 4.0, 1.0), n, seed), problem, scan_all_m=True)
            assert 1 <= len(calls) <= most, calls

    @pytest.mark.parametrize("n, p, k_u, regime", [(10_000, 200, 3, ULTRA_SPARSE), (300, 600, 5, MODERATELY_SPARSE)])
    def test_plan_without_the_scan_is_m_star(self, n, p, k_u, regime):
        m_star, found = cutoff_and_regime(k_u, n, p)
        grid, rest = make_loading(np.linspace(2.0, 0.1, p)).memoised(inf._cutoff_plan, k_u, n, False)
        assert found == regime and grid == (m_star,) and rest.shape == (1,)


class TestSplitHalf:
    def test_row_halves_follow_the_dataset_seed(self):
        x = stream(4, 0).standard_normal((20, 3))

        def halves(seed):
            return [half.x.tobytes() + half.y.tobytes() for half in inf.split_half(model.Dataset(x, x[:, 0], seed))]

        assert halves(7) == halves(7)
        assert halves(7) != halves(8)


class TestKnownSigmaCI:
    def test_odd_sample_size(self):
        theta = ModelParams(beta=np.zeros(10), sigma_cov=None, noise_sd=1.0)
        data = generate_dataset(theta, 31, 0)
        with pytest.raises(OddSampleSize):
            inf.known_sigma_ci(data, np.ones(10), np.ones(10), 0.05)

    def test_radius_from_half1_fit(self):
        # z_{1-alpha/2} sqrt((xi' Sigma0^{-1} xi RSS2 + (center - xi'beta_hat)^2) / n2), by hand from half 2's
        # rows: RSS2 its residual mean square at the half-1 lasso's beta_hat, the center its corrected one
        theta = ModelParams(beta=np.r_[1.5, -1.0, np.zeros(18)], sigma_cov=None, noise_sd=1.0)
        data = generate_dataset(theta, 80, 1)
        data.seed = 3
        xi, d = np.linspace(-1.0, 2.0, 20), np.linspace(0.5, 2.0, 20)
        ci = inf.known_sigma_ci(data, d, xi, 0.05)
        half1, half2 = inf.split_half(data)
        beta_hat = scaled_lasso(half1).beta_hat
        resid = half2.y - half2.x @ beta_hat
        correction = (xi / d) @ (half2.x.T @ resid) / 40
        radius = ndtri(0.975) * math.sqrt(((xi / d) @ xi * (resid @ resid) / 40 + correction**2) / 40)
        assert np.count_nonzero(beta_hat) and correction != 0.0
        assert ci.center == pytest.approx(xi @ beta_hat + correction, rel=1e-12)
        assert ci.radius == pytest.approx(radius, rel=1e-12)

    def test_radius_grows_as_alpha_falls(self):
        theta = ModelParams(beta=np.r_[1.0, np.zeros(29)], sigma_cov=None, noise_sd=1.0)
        data = generate_dataset(theta, 100, 2)
        data.seed = 4
        cis = [inf.known_sigma_ci(data, np.ones(30), np.ones(30), alpha) for alpha in (0.2, 0.05, 0.01, 0.001)]
        assert len({ci.center for ci in cis}) == 1
        assert all(a.radius < b.radius for a, b in zip(cis, cis[1:]))

    @pytest.mark.parametrize("t0", [4.0, 0.0])
    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    def test_size_at_stated_level(self, alpha, t0):
        # the criterion-3 problem at master seed 13, 1,000 replicates; tau = 0 makes the alternative column
        # a second null sample.  Each null rate is at most alpha plus 3 binomial standard errors.
        cfg = parse_config(
            "kind = size_power\nn = 300\np = 600\nk_u = 5\nk = 5\nloading = regular\nloading_k = 5\n"
            f"modes = known_sigma\ntau_grid = 0.0\nreps = 1000\nmaster_seed = 13\nalpha = {alpha}\nt0 = {t0}\n"
        )
        rates = {r.metric: r.value for r in run_experiment(cfg) if r.metric.startswith("mean/reject/")}
        assert sorted(rates) == ["mean/reject/alt/known_sigma/tau=0.0", "mean/reject/null/known_sigma"]
        bound = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / 1000)
        assert all(rate <= bound for rate in rates.values()), rates

    def test_center_distribution(self):
        # beta = 0, Sigma = I: the center is nearly N(0, |xi|^2 sigma^2 / n2)
        n, p = 200, 40
        theta = ModelParams(beta=np.zeros(p), sigma_cov=None, noise_sd=1.0)
        xi = np.ones(p)
        centers = []
        for seed in range(2000):
            data = generate_dataset(theta, n, seed)
            ci = inf.known_sigma_ci(data, np.ones(p), xi, 0.05)
            centers.append(ci.center)
        target_sd = float(np.linalg.norm(xi)) / math.sqrt(n // 2)
        sd = float(np.std(centers))
        assert abs(np.mean(centers)) <= 4 * sd / math.sqrt(len(centers))
        assert abs(sd / target_sd - 1.0) <= 0.2

    def test_coverage(self):
        n, p, k = 600, 300, 3
        beta = np.zeros(p)
        beta[:k] = [0.9, -1.2, 0.6]
        theta = ModelParams(beta=beta, sigma_cov=None, noise_sd=1.0)
        xi = np.concatenate((np.ones(30), np.zeros(p - 30)))
        target = float(xi @ beta)
        hits = 0
        reps = 400
        for seed in range(reps):
            data = generate_dataset(theta, n, seed)
            ci = inf.known_sigma_ci(data, np.ones(p), xi, 0.05)
            hits += ci.covers(target)
        assert hits / reps >= 0.95 - 0.03

    def test_diagonal_covariance_direction(self):
        # Sigma0 = diag(d): the direction is Sigma0^{-1} xi = xi / d
        p = 20
        d = np.linspace(0.5, 2.0, p)
        theta = ModelParams(beta=np.zeros(p), sigma_cov=(np.arange(p), np.diag(d)), noise_sd=1.0)
        data = generate_dataset(theta, 80, 4)
        data.seed = 2
        xi = np.linspace(-1.0, 1.0, p)
        ci = inf.known_sigma_ci(data, d, xi, 0.05)
        half1, half2 = inf.split_half(data)
        fit = scaled_lasso(half1)
        resid = half2.y - half2.x @ fit.beta_hat
        center = xi @ fit.beta_hat + np.linalg.solve(np.diag(d), xi) @ (half2.x.T @ resid) / half2.n
        assert ci.center == pytest.approx(center, rel=1e-12, abs=1e-14)


class TestSpikedCI:
    def test_identity_precision_matches_known_sigma(self):
        theta = ModelParams(beta=np.zeros(12), sigma_cov=None, noise_sd=1.0)
        data = generate_dataset(theta, 100, 2)
        data.seed = 5
        xi = make_loading(np.ones(12))
        assert spiked_cov_estimate(inf.split_half(data)[0], 3).b_hat == ()  # so omega_hat = I
        a = inf.spiked_ci(data, xi, 3, 0.05)
        b = inf.known_sigma_ci(data, np.ones(12), xi.original(), 0.05)
        assert a.center == pytest.approx(b.center, abs=1e-12)

    def test_center_matches_rows_formula(self):
        # xi'beta_hat + (omega_hat xi)' X2'(y2 - X2 beta_hat) / n2, with a planted spike and signal
        p, k_u = 8, 2
        v = np.zeros(p)
        v[:2] = 1.0 / math.sqrt(2)
        beta = np.zeros(p)
        beta[:2] = [0.8, -0.4]
        spike = np.eye(p) + 2.0 * np.outer(v, v)
        theta = ModelParams(beta=beta, sigma_cov=(np.arange(2), spike[:2, :2]), noise_sd=1.0)
        data = generate_dataset(theta, 800, 6)
        data.seed = 7
        xi = make_loading(np.linspace(-1.0, 1.5, p))
        ci = inf.spiked_ci(data, xi, k_u, 0.05)
        half1, half2 = inf.split_half(data)
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
        block = (np.arange(2), sigma[:2, :2])  # v lives on coordinates 0 and 1
        theta0 = ModelParams(beta=np.zeros(p), sigma_cov=block, noise_sd=1.0)
        pilot = []
        for seed in range(200):
            data = generate_dataset(theta0, n, 50_000 + seed)
            data.seed = seed
            ci = inf.spiked_ci(data, xi, k_u, 0.05)
            pilot.append(abs(ci.center) / unit)
        c_cal = 1.15 * float(np.quantile(pilot, 0.975))

        beta = np.zeros(p)
        beta[:2] = [0.8, -0.4]
        theta = ModelParams(beta=beta, sigma_cov=block, noise_sd=1.0)
        target = float(xi.original() @ beta)
        hits = 0
        reps = 1000
        for seed in range(reps):
            data = generate_dataset(theta, n, seed)
            ci = inf.spiked_ci(data, xi, k_u, 0.05)
            hits += abs(ci.center - target) <= c_cal * ci.radius
        assert hits / reps >= 0.95 - 0.05


class TestRunSingleTest:
    def test_unconverged_lasso_is_logged(self, monkeypatch, caplog):
        theta = ModelParams(beta=np.zeros(6), sigma_cov=None, noise_sd=1.0)
        problem = problem_of(xi=make_loading(np.ones(6)), t0=0.0, k_u=2, alpha=0.05, eta=0.05)
        monkeypatch.setattr(estimators, "LASSO_ROUNDS", 0)  # no round runs, so no fit converges
        for mode in inf.TEST_MODES:
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="adaptest"):
                inf.run_single_test(mode, generate_dataset(theta, 40, 0), problem)
            assert [(r.name, r.levelno) for r in caplog.records] == [("adaptest", logging.WARNING)], mode
            assert "did not converge" in caplog.records[0].getMessage()

    def test_unknown_mode_names_the_mode_and_the_modes(self):
        theta = ModelParams(beta=np.zeros(6), sigma_cov=None, noise_sd=1.0)
        data = generate_dataset(theta, 40, 0)
        problem = problem_of(xi=make_loading(np.ones(6)), t0=0.0, k_u=2, alpha=0.05, eta=0.05)
        with pytest.raises(ValueError, match="'bogus'") as err:
            inf.run_single_test("bogus", data, problem)
        assert all(mode in str(err.value) for mode in inf.TEST_MODES)


def test_coordinate_datasets_match_rows_in_law():
    """Two-sample KS tests of the scan_all_m mixed test's statistics on Gram-coordinate
    datasets against row datasets at a reduced criterion-3 problem, 500 datasets per
    sampler and model point.  Two identity-design points, the null and one alternative,
    put beta on three coordinates, about 1 and 2.4 each, so the lasso center varies.  A
    nu2 prior null (k_u = 8) mixes the design on a block S of 4 coordinates; there the
    Gram's S-block entries are compared too."""
    n, p, k_u, reps = 60, 120, 3, 500
    xi = example_profiles("subweibull", {"q": 2.0, "p": p, "k_u": k_u}, 1)
    problem = problem_of(xi=xi, t0=8.0, k_u=k_u, alpha=0.05, eta=0.05)
    sampler = prior_sampler("nu2", xi, 8, n, 5.0)
    nu2 = next(d for s in itertools.count() if (d := single(sampler(s, 1))).valid)
    points = (null_point(xi, k_u, 8.0, 1.0), null_point(xi, k_u, 20.0, 1.0), nu2.model_point(xi, 8.0))
    assert [theta.design_factor[0].size for theta in points] == [0, 0, 4]
    for offset, theta in enumerate(points):
        idx = theta.design_factor[0]
        upper = np.triu_indices(idx.size)
        arms = []
        for draw, base in ((CoordinateDataset, 0), (generate_dataset, 10**6)):
            rows = []
            for seed in range(base + offset * reps, base + (offset + 1) * reps):
                data = draw(theta, n, seed)
                dec = inf.mixed_test(data, problem, scan_all_m=True)
                block = data.cols(idx)[idx][upper]
                ci = dec.interval
                rows.append((scaled_lasso(data).sigma_hat, ci.radius, ci.center, dec.m_used, *block))
            arms.append(np.array(rows))
        names = ["sigma_hat", "radius", "center", "m_used"] + [f"G[{idx[i]},{idx[j]}]" for i, j in zip(*upper)]
        for col, name in enumerate(names):
            assert stats.ks_2samp(arms[0][:, col], arms[1][:, col]).pvalue > 1e-3, (offset, name)
