import dataclasses
import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptest import priors as pri
from adaptest.errors import DivergentIntegral, RegimeViolation
from adaptest.model import M1, M2, make_loading, stream
from adaptest.profiles import nu1 as nu1_value
from oracles import h_map, joint_covariance


def diag_reference(p, sigma_star):
    return np.diag(np.concatenate(([sigma_star**2], np.ones(p))))


def point_mass_draw(xi, sigma_star):
    """The degenerate draw at the reference alternative (beta = 0, Sigma = I)."""
    return pri.PriorDraw(
        kind="nu1", lead=np.zeros(0), trail=np.zeros(xi.p), kappa=0.0, tau=0.0, beta=np.zeros(xi.p),
        noise_sd=sigma_star, eig_min=1.0, eig_max=1.0, valid=True, reason="point_mass", sigma_star=sigma_star,
        sparsity=0, residual=0.0,
    )


class TestNu2Prior:
    xi = make_loading(np.linspace(2.0, 0.1, 40))

    @pytest.mark.parametrize("seed", [3, 11, 27, 101])
    @pytest.mark.parametrize("kind", ["nu2", "comp"])
    def test_matches_h_map(self, kind, seed):
        # the shared coupling algebra against the dense map and spectrum
        if kind == "nu2":
            d = pri.sample_nu2_prior(self.xi, 8, 500, 40, sigma_star=5.0, seed=seed)
        else:
            xi = make_loading(np.concatenate((np.linspace(2.0, 0.5, 200), np.zeros(300))))
            d = pri.sample_comp_prior(xi, 32, 2000, 1, seed=seed, sigma_star=5.0)
        assert d.valid and d.kind == kind
        theta = h_map(joint_covariance(d))
        assert np.max(np.abs(theta.beta - d.beta)) < 1e-12
        assert abs(theta.noise_sd - d.noise_sd) < 1e-12
        ev = np.linalg.eigvalsh(theta.sigma_cov[1])
        assert ev[0] == pytest.approx(d.eig_min, abs=1e-12)
        assert ev[-1] == pytest.approx(d.eig_max, abs=1e-12)

    def test_support_overlap_identity(self):
        n, p, k_u, c1 = 500, 40, 8, 0.05
        d1 = pri.sample_nu2_prior(self.xi, k_u, n, p, 5.0, c1=c1, seed=1)
        d2 = pri.sample_nu2_prior(self.xi, k_u, n, p, 5.0, c1=c1, seed=2)
        overlap = np.sum((d1.trail != 0) & (d2.trail != 0))
        expect = c1**2 * (math.log(p) / n) * overlap
        assert float(d1.trail @ d2.trail) == pytest.approx(expect, rel=1e-12)

    def test_validity_battery(self):
        worst = 0.0
        n_valid = 0
        for seed in range(1000):
            d = pri.sample_nu2_prior(self.xi, 8, 500, 40, 5.0, seed=seed)
            if not d.valid:
                continue
            n_valid += 1
            assert d.sparsity <= 4
            assert 0.0 < d.kappa <= 1.0
            worst = max(worst, abs(d.residual))
        assert n_valid >= 990
        assert worst <= 1e-10

    def test_kappa_linear_in_tau(self):
        c2 = pri.default_c2()
        a = pri.sample_nu2_prior(self.xi, 8, 500, 40, 5.0, c2=c2 / 2, seed=9)
        b = pri.sample_nu2_prior(self.xi, 8, 500, 40, 5.0, c2=c2, seed=9)
        assert b.kappa == pytest.approx(2 * a.kappa, rel=1e-12)
        assert a.valid and b.valid

    def test_needs_k_u_at_least_four(self):
        with pytest.raises(RegimeViolation):
            pri.sample_nu2_prior(self.xi, 3, 500, 40, 5.0, seed=0)

    def test_p_must_be_the_loading_dimension(self):
        with pytest.raises(ValueError, match="p = 41 but the loading has p = 40"):
            pri.sample_nu2_prior(self.xi, 8, 500, 41, 5.0, seed=0)


class TestNu1Prior:
    xi = make_loading(np.concatenate((np.ones(100), np.zeros(100))))

    def test_identity_design(self):
        tau = 0.0125 * nu1_value(self.xi, 10) / math.sqrt(400)
        d = pri.sample_nu1_prior(self.xi, 10, 400, tau, seed=0)
        assert np.array_equal(joint_covariance(d)[1:, 1:], np.eye(200))
        assert d.eig_min == d.eig_max == 1.0

    @pytest.mark.parametrize("c4, c5", [(0.1, 0.5), (0.2, 0.3)])
    def test_unset_tau_is_the_default_formula(self, c4, c5):
        tau = (c4 * c5 / 4.0) * nu1_value(self.xi, 10) / math.sqrt(400)
        for seed in range(5):
            d = pri.sample_nu1_prior(self.xi, 10, 400, c4=c4, c5=c5, seed=seed)
            e = pri.sample_nu1_prior(self.xi, 10, 400, tau, c4=c4, c5=c5, seed=seed)
            assert d.tau == tau and np.array_equal(d.beta, e.beta) and d.valid == e.valid

    def test_bernoulli_rate_sum_at_positive_lambda(self):
        # flat support of 100 with k_u = 10 has 2 sqrt(K)/k_u = 2 > 1: lambda > 0
        q, gamma, lam = pri.nu1_weights(self.xi, 10, c4=0.1)
        assert lam > 0
        assert float(q.sum()) == pytest.approx(0.1 * 10 / 2, rel=1e-9)

    def test_all_heads_inner_product_formula(self):
        q, gamma, lam = pri.nu1_weights(self.xi, 10, c4=0.1)
        k = self.xi.k_xi
        c5, n = 0.5, 400
        forced = (c5 / math.sqrt(n)) * float(self.xi.coords[:k] @ gamma)
        expect = (c5 / math.sqrt(n)) * float(np.sum(np.maximum(np.abs(self.xi.coords[:k]), lam)))
        assert forced == pytest.approx(expect, rel=1e-12)

    def test_valid_draws_satisfy_null_constraint(self):
        tau = 0.0125 * nu1_value(self.xi, 10) / math.sqrt(400)
        n_val = 0
        for seed in range(500):
            d = pri.sample_nu1_prior(self.xi, 10, 400, tau, seed=seed)
            if d.valid:
                n_val += 1
                assert abs(d.residual) <= 1e-10 * max(abs(tau), 1.0)
                assert d.sparsity <= 5
                assert 0 < d.noise_sd <= 10.0
            else:
                assert d.kappa == 0.0 or not (0 < d.kappa <= 1)
        assert n_val >= 100


class TestCompPrior:
    def test_rate_bound_and_sparsity(self):
        # k_u = 64 with a wide flat band: the lead's support stays below k_u/4
        p, k_u, n = 2000, 64, 20_000
        xi = make_loading(np.concatenate((np.ones(600), np.zeros(p - 600))))
        from adaptest.profiles import effective_sparsity

        k_eff = effective_sparsity(k_u, n, p, 1)
        p5 = k_eff - k_u
        q = pri.comp_prior_weights(xi, k_u, k_eff)
        assert np.all(q <= (1.0 / 8.0) * math.sqrt(k_u / p5) + 1e-15)
        assert np.all(q[:k_u] == 0.0)
        ok = 0
        draws = 10_000
        for seed in range(draws):
            rng = stream(seed, 0)
            bern = rng.random(k_eff) < q
            if bern.sum() <= k_u / 4:
                ok += 1
        assert ok / draws >= 0.99

    def test_delta1_overlap_identity(self):  # the paper's delta1 is the trailing factor
        p, k_u, n = 500, 32, 2000
        xi = make_loading(np.ones(p))
        d1 = pri.sample_comp_prior(xi, k_u, n, 1, seed=0)
        d2 = pri.sample_comp_prior(xi, k_u, n, 1, seed=1)
        overlap = np.sum((d1.trail != 0) & (d2.trail != 0))
        expect = 0.05**2 * (math.log(p) / n) * overlap
        assert float(d1.trail @ d2.trail) == pytest.approx(expect, rel=1e-12)

    def test_regime_violation(self):
        xi = make_loading(np.ones(100))
        with pytest.raises(RegimeViolation):
            pri.sample_comp_prior(xi, 40, 200, 4, seed=0)

    def test_validity_checks_on_valid_draws(self):
        p, k_u, n = 500, 32, 2000
        xi = make_loading(np.concatenate((np.ones(200), np.zeros(p - 200))))
        n_val = 0
        for seed in range(500):
            d = pri.sample_comp_prior(xi, k_u, n, 1, seed=seed)
            if d.valid:
                n_val += 1
                assert d.sparsity <= k_u
                assert abs(d.residual) <= 1e-10 * max(abs(d.tau), 1.0)
                assert 1.0 / 10 <= d.eig_min <= d.eig_max <= 10.0
        assert n_val >= 0.95 * 500


class TestValidDraws:
    def test_seed_order_and_fifty_misses_in_a_row(self):
        base = point_mass_draw(make_loading(np.ones(3)), 1.0)

        def sampler(s):  # valid at even seeds below 10 and at 58: 49 misses, then 50
            return dataclasses.replace(base, tau=float(s), valid=(s < 10 and s % 2 == 0) or s == 58)

        draws = pri.valid_draws(sampler, 0)
        assert [next(draws).tau for _ in range(6)] == [0.0, 2.0, 4.0, 6.0, 8.0, 58.0]
        with pytest.raises(RegimeViolation):
            next(draws)

    def test_stall_names_the_most_frequent_reason(self):
        base = point_mass_draw(make_loading(np.ones(3)), 1.0)

        def sampler(s):  # valid at 3; of the 50 misses after it (seeds 4-53) 40 are noise_bound
            why = "eigenvalue_window" if s < 3 else "noise_bound" if s % 5 else "sparsity_cap"
            return dataclasses.replace(base, valid=s == 3, reason="point_mass" if s == 3 else why)

        draws = pri.valid_draws(sampler, 0)
        assert next(draws).reason == "point_mass"
        with pytest.raises(RegimeViolation, match="50 invalid in a row, 40 noise_bound$"):
            next(draws)

    def test_draws_are_frozen(self):
        d = pri.sample_nu2_prior(make_loading(np.linspace(2.0, 0.1, 40)), 8, 500, 40, 5.0, seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.valid = False
        assert (d.split, d.p) == (d.lead.size, 40)


class TestValidityBounds:
    """The constructor's eigenvalue window [1/M1, M1] and noise bound M2,
    each just inside and just outside."""

    xi = make_loading(np.full(4, 0.5))

    def draw(self, cross, sigma_star):
        # |lead| = |trail| = sqrt(cross), so the spectrum is 1 -/+ cross and kappa = 0.1 (1 + cross) / (0.5 sqrt(cross));
        # the one draw is row 0 of a stack
        a = math.sqrt(cross)
        return pri._coupled_draw("nu2", self.xi, 4, np.array([[a]]), np.array([[a, 0.0, 0.0]]), 0.1, sigma_star).row(0)

    @pytest.mark.parametrize("side, reason", [(-1.0, "ok"), (1.0, "eigenvalue_window")])
    def test_eigenvalue_window(self, side, reason):
        # eig_max = 2 - eig_min < M1, so the window binds at its lower end 1/M1
        d = self.draw((1.0 - 1.0 / M1) * (1.0 + side * 1e-9), 2.0)
        assert (d.eig_min < 1.0 / M1) == (side > 0)
        assert d.eig_max < M1
        assert (d.valid, d.reason) == (reason == "ok", reason)

    @pytest.mark.parametrize(
        "noise_var, reason",
        [((M2 * (1 - 1e-9)) ** 2, "ok"), ((M2 * (1 + 1e-9)) ** 2, "noise_bound"), (-0.01, "noise_bound")],
    )
    def test_noise_bound(self, noise_var, reason):
        # the noise variance is sigma_star^2 less a part the factors and kappa fix
        explained = 1.0 - self.draw(0.25, 1.0).noise_sd ** 2
        d = self.draw(0.25, math.sqrt(noise_var + explained))
        assert (d.noise_sd > M2) == (noise_var > M2**2) and (d.noise_sd == 0.0) == (noise_var < 0)
        assert (d.valid, d.reason) == (reason == "ok", reason)


    def test_squares_are_python_float_powers(self):
        # coeff = 0.25 here, so kappa = 4 tau = x exactly, and the noise level is the one-draw formula's with
        # Python's x ** 2, which glibc's pow rounds one ulp off x * x at this x: a stack that multiplied
        # would give another noise_sd
        x, sigma_star = 0.7257718954826365, 0.4354631372895819
        d = pri._coupled_draw("nu1", make_loading(np.full(4, 0.5)), 4, np.zeros(0), np.array([[0.5, 0, 0, 0]]), x / 4,
                              sigma_star).row(0)
        assert d.kappa == x and d.valid
        assert d.noise_sd == math.sqrt(sigma_star**2 - x**2 * 0.25)


class TestChi2Integral:
    def test_identical_measures(self):
        sz = diag_reference(5, 2.0)
        assert pri.chi2_pair_integral(sz, sz, sz, 10) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_hand_value(self):
        # overlap 0.1 with unit coupling vector and n = 2: (1 - 0.1)^{-2}
        p1, p2 = 2, 4
        delta1 = np.array([1.0, 0.0])
        d2a = np.array([0.5, 0.2, 0.0, 0.0])
        d2b = np.array([0.2, 0.3, 0.0, 0.0])  # overlap = 0.1 + 0.06 - adjust below
        d2b = np.array([0.2, 0.0, 0.0, 0.0])  # overlap = 0.1 exactly
        def build(d2):
            sz = np.eye(p1 + p2 + 1)
            sz[1 : 1 + p1, 1 + p1 :] = np.outer(delta1, d2)
            sz[1 + p1 :, 1 : 1 + p1] = np.outer(d2, delta1)
            return sz
        ref = diag_reference(p1 + p2, 1.0)
        val = pri.chi2_pair_integral(build(d2a), build(d2b), ref, 2)
        assert val == pytest.approx((1 - 0.1) ** -2, rel=1e-10)
        assert val == pytest.approx(1.2345679, rel=1e-6)

    def test_symmetry(self):
        xi = make_loading(np.linspace(2, 0.3, 30))
        d1 = pri.sample_nu2_prior(xi, 8, 300, 30, 5.0, seed=4)
        d2 = pri.sample_nu2_prior(xi, 8, 300, 30, 5.0, seed=5)
        ref = diag_reference(30, 5.0)
        a = pri.chi2_pair_integral(joint_covariance(d1), joint_covariance(d2), ref, 6)
        b = pri.chi2_pair_integral(joint_covariance(d2), joint_covariance(d1), ref, 6)
        assert a == pytest.approx(b, rel=1e-12)

    def test_divergence_detection(self):
        # a variance above 2 against a unit reference makes int g1^2/g0 diverge
        strong = np.diag([2.5, 1.0, 1.0])
        ref = diag_reference(2, 1.0)
        with pytest.raises(DivergentIntegral):
            pri.chi2_pair_integral(strong, strong, ref, 3)

    def test_quadrature_oracle(self):
        # brute-force grid integration of int g1 g2 / g0 on three 3d triples
        rng = stream(21, 0)
        grid = np.linspace(-6.0, 6.0, 60)
        step = grid[1] - grid[0]
        xs = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)

        def density(cov):
            inv = np.linalg.inv(cov)
            det = np.linalg.det(cov)
            expo = -0.5 * np.einsum("ij,jk,ik->i", xs, inv, xs)
            return np.exp(expo) / math.sqrt((2 * math.pi) ** 3 * det)

        for trial in range(3):
            a = 0.12 * rng.standard_normal((3, 3))
            s1 = np.eye(3) + (a + a.T) / 2
            b = 0.12 * rng.standard_normal((3, 3))
            s2 = np.eye(3) + (b + b.T) / 2
            s0 = np.eye(3)
            brute = float(np.sum(density(s1) * density(s2) / density(s0)) * step**3)
            exact = pri.chi2_pair_integral(s1, s2, s0, 1)
            assert brute == pytest.approx(exact, rel=1e-3)


class TestChi2MixtureMC:
    def test_point_mass_is_zero(self):
        xi = make_loading(np.ones(10))
        sampler = lambda s: point_mass_draw(xi, 5.0)
        est, se = pri.chi2_mixture_mc(sampler, 4, 100, seed=0)
        assert est == 0.0
        assert se == 0.0

    def test_nu2_estimate_below_hypergeometric_bound(self):
        p, k_u, n = 200, 16, 400
        xi = make_loading(np.ones(p))
        sigma_star = 5.0
        sampler = lambda s: pri.sample_nu2_prior(xi, k_u, n, p, sigma_star, seed=s)
        est, se = pri.chi2_mixture_mc(sampler, n, 150, seed=3)
        assert est <= 0.5
        c3 = 2.0 * (1.0 / sigma_star**2 + 1.0)
        bound = pri.hypergeometric_mgf(p - k_u // 4, k_u // 4, c3 * 0.05**2) - 1.0
        assert est <= bound + 3 * se

    def test_nu1_pair_exponential_bound(self):
        # E exp(c7 n delta'delta~) <= exp(c4^2) for the identity-design prior
        xi = make_loading(np.concatenate((np.ones(100), np.zeros(100))))
        n, k_u, c4, sigma_star = 400, 10, 0.1, 5.0
        tau = 0.0125 * nu1_value(xi, k_u) / math.sqrt(n)
        c7 = 2.0 / sigma_star**2
        vals = []
        for i in range(500):
            d1 = pri.sample_nu1_prior(xi, k_u, n, tau, c4=c4, seed=2 * i, sigma_star=sigma_star)
            d2 = pri.sample_nu1_prior(xi, k_u, n, tau, c4=c4, seed=2 * i + 1, sigma_star=sigma_star)
            vals.append(math.exp(c7 * n * float(d1.trail @ d2.trail)))
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
        assert mean <= math.exp(c4**2) + 3 * se


def _mixture_samplers():
    """(sampler, p, n) per prior kind, sized so that many pairs overlap."""
    xi2 = make_loading(np.linspace(2.0, 0.1, 40))
    xi1 = make_loading(np.concatenate((np.ones(20), np.zeros(20))))
    tau = 0.0125 * nu1_value(xi1, 10) / math.sqrt(400)
    xic = make_loading(np.ones(40))

    def comp(s):
        return pri.sample_comp_prior(xic, 16, 400, 1, seed=s, k_eff_override=26, s1_override=3)

    return {
        "nu2": (lambda s: pri.sample_nu2_prior(xi2, 8, 500, 40, 5.0, seed=s), 40, 500),
        "nu1": (lambda s: pri.sample_nu1_prior(xi1, 10, 400, tau, seed=s, sigma_star=5.0), 40, 400),
        "comp": (comp, 40, 400),
        "point_mass": (lambda s: point_mass_draw(make_loading(np.ones(10)), 5.0), 10, 4),
    }


# per kind at p = 40: (loading, k_u, fixed keywords, strategies of n and of the kind's constants,
# from the defaults' scale up to values where the validity checks bite)
PRIOR_CASES = {
    "nu2": (
        np.linspace(2.0, 0.1, 40), 8, {},
        {"n": st.sampled_from([10, 50, 500]), "c1": st.floats(0.01, 1.0), "c2": st.none() | st.floats(1e-4, 5.0)},
    ),
    "nu1": (
        np.r_[np.ones(20), np.zeros(20)], 10, {},
        {"n": st.just(400), "tau": st.none() | st.floats(1e-4, 0.1), "c4": st.floats(0.05, 1.0),
         "c5": st.floats(0.1, 10.0)},
    ),
    "comp": (
        np.ones(40), 16, {"degree": 1, "k_eff_override": 26, "s1_override": 3},
        {"n": st.just(400), "c8": st.floats(0.05, 10.0), "c9": st.none() | st.floats(1e-4, 5.0)},
    ),
}


@given(
    kind=st.sampled_from([*PRIOR_CASES, "point_mass"]),
    seed=st.integers(0, 10**6),
    sigma_star=st.floats(0.5, 5.0),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_every_valid_draw_has_rank_one_norm_below_one(kind, seed, sigma_star, data):
    # |r||c| < 1 on each valid draw, so by Cauchy-Schwarz every pair of valid draws has overlap x < 1
    if kind == "point_mass":
        draws = [point_mass_draw(make_loading(np.ones(10)), sigma_star)]
    else:
        coords, k_u, fixed, strategies = PRIOR_CASES[kind]
        consts = {key: data.draw(strategy, label=key) for key, strategy in strategies.items()}
        n = consts.pop("n")
        sampler = pri.prior_sampler(kind, make_loading(coords), k_u, n, sigma_star, **fixed, **consts)
        draws = [sampler(s) for s in range(seed, seed + 4)]
    for r, c in (d.rank_one_factors() for d in draws if d.valid):
        assert np.linalg.norm(r) * np.linalg.norm(c) < 1.0


class TestChi2Routing:
    """chi2_mixture_mc routes every pair to the closed form against the implicit
    reference diag(sigma_star^2, I_p); the dense determinant form is the oracle."""

    @pytest.mark.parametrize("kind", ["nu2", "nu1", "comp", "point_mass"])
    def test_routed_matches_dense_only(self, kind, monkeypatch):
        sampler, p, n = _mixture_samplers()[kind]
        ref = diag_reference(p, 5.0)
        pairs = islice(pri.draw_pairs(pri.valid_draws(sampler, 7)), 100)
        dense = np.array([pri.chi2_pair_integral(joint_covariance(a), joint_covariance(b), ref, n) for a, b in pairs])
        oracle = (float(np.mean(dense)) - 1.0, float(np.std(dense, ddof=1) / math.sqrt(100)))
        # chi2_mixture_mc scores stack rows with the closed-form expression that chi2_pair_closed_form shares
        calls, closed = [], pri.closed_form
        monkeypatch.setattr(pri, "closed_form", lambda *args: calls.append(1) or closed(*args))
        est = pri.chi2_mixture_mc(sampler, n, 100, seed=7)
        assert len(calls) == 100
        if kind == "point_mass":
            assert est == oracle == (0.0, 0.0)
        else:
            assert est[0] > 0.0
            assert est == pytest.approx(oracle, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    def test_closed_form_diverges_at_overlap_one(self, kappa):
        # r = (kappa / sigma_star) and c = e_1, so a draw's overlap with itself is kappa^2
        base = point_mass_draw(make_loading(np.ones(4)), 1.0)
        d = dataclasses.replace(base, kappa=kappa, trail=np.eye(4)[0])
        assert pri.rank_one_overlap(d, d) == kappa**2
        with pytest.raises(DivergentIntegral):
            pri.chi2_pair_closed_form(d, d, 3)
        below = dataclasses.replace(d, kappa=0.5)
        assert pri.chi2_pair_closed_form(below, below, 3) == 0.75**-3


class TestHypergeometricMGF:
    def test_limit_at_zero(self):
        v = pri.hypergeometric_mgf(10, 2, 1e-12)
        assert 1.0 <= v <= 1.0 + 1e-6

    def test_exact_small_case(self):
        v = pri.hypergeometric_mgf(10, 2, math.log(2) / math.log(10))
        assert v == pytest.approx(64.0 / 45.0, abs=1e-12)

    def test_pmf_normalizes(self):
        assert pri.hypergeometric_mgf(50, 7, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert pri.hypergeometric_mgf(10**10, 999, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_c(self):
        vals = [pri.hypergeometric_mgf(100, 5, c) for c in (0.01, 0.1, 0.3)]
        assert vals[0] < vals[1] < vals[2]

    def test_overflow_is_infinite(self):
        # the value lies far beyond the float range: a vacuous bound, not a crash
        assert pri.hypergeometric_mgf(10**6, 5 * 10**5, 0.05) == math.inf


def _draw_bits(draw):
    """Every field of a PriorDraw, arrays as their bytes, so that two draws compare bit for bit."""
    return [v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in vars(draw).values()]


# per kind: two (n, constants) settings on the one PRIOR_CASES loading (p is its dimension, 40), and the
# functions of priors that build the kind's per-loading constants
MEMO_SETTINGS = {
    "nu2": ([(500, {"c1": 0.05}), (50, {"c1": 0.2, "c2": 0.01})], ("top_norm",)),
    "nu1": ([(400, {}), (300, {"tau": 0.01, "c4": 0.2})], ("nu1", "nu1_weights")),
    "comp": ([(400, {}), (600, {"c8": 0.1, "c9": 0.001})], ("top_norm", "comp_prior_weights")),
}


@pytest.mark.parametrize("kind", sorted(MEMO_SETTINGS))
def test_warm_memo_draws_equal_fresh_loading_draws(kind, monkeypatch):
    coords, k_u, fixed, _ = PRIOR_CASES[kind]
    cases, builders = MEMO_SETTINGS[kind]
    seeds = range(12)

    def draw(xi, n, consts, seed):
        return _draw_bits(pri.prior_sampler(kind, xi, k_u, n, 5.0, **fixed, **consts)(seed))

    fresh = [[draw(make_loading(coords), n, consts, s) for s in seeds] for n, consts in cases]
    calls = []
    for name in builders:  # the names priors calls them by (top_norm is profiles.top_norm)
        monkeypatch.setattr(pri, name, lambda *a, fn=getattr(pri, name): calls.append(fn) or fn(*a))
    warm = make_loading(coords)
    for _ in range(2):  # alternate the settings: a key missing an input would serve one's constants to the other
        for (n, consts), want in zip(cases, fresh):
            assert [draw(warm, n, consts, s) for s in seeds] == want
    # each setting's constants are built once, not once or twice per draw (48 draws here)
    assert 0 < len(calls) <= 2 * len(cases)


@given(
    kind=st.sampled_from(sorted(PRIOR_CASES)),
    seed=st.integers(0, 10**6),
    sigma_star=st.floats(0.5, 5.0),
    rows=st.integers(1, 12),
    cap_rows=st.integers(0, 6),
    cap_extra=st.integers(0, 39),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_stacked_rows_equal_single_draws(kind, seed, sigma_star, rows, cap_rows, cap_extra, data):
    # a stack of `rows` draws holds min(rows, cap // p) of them (at least one) and each row is, bit for bit,
    # the single draw at its seed, on either side of the entry cap (p = 40 here)
    coords, k_u, fixed, strategies = PRIOR_CASES[kind]
    consts = {key: data.draw(strategy, label=key) for key, strategy in strategies.items()}
    n = consts.pop("n")
    with pytest.MonkeyPatch.context() as mp:  # the sampler reads the cap when it is made
        mp.setattr(pri, "_STACK_ENTRIES", 40 * cap_rows + cap_extra)
        sampler = pri.prior_sampler(kind, make_loading(coords), k_u, n, sigma_star, **fixed, **consts)
    stack = sampler.stack(seed, rows)
    assert stack.valid.shape == stack.reason.shape == (min(rows, max(cap_rows, 1)),)
    assert stack.lead.shape[0] == stack.trail.shape[0] == stack.beta.shape[0] == stack.valid.size
    for i in range(stack.valid.size):
        assert _draw_bits(stack.row(i)) == _draw_bits(sampler(seed + i))


def _reason_rows():
    """(lead, trail, xi'lead passed, admissible, reason) per row of a stack on a flat loading of p = 6 with
    tau = 0.1, sigma_star = 2 and the sparsity cap 4: one row per reason of the validity battery."""
    lead = {"ok": 0.5, "degenerate_constraint": 0.5, "kappa_out_of_range": 0.001, "sparsity_cap": 0.1,
            "eigenvalue_window": math.sqrt(0.9 * (1 + 1e-9)), "noise_bound": 0.001, "constraint_residual": 0.5,
            "kappa_zero_degenerate": 0.5}
    trail = {"degenerate_constraint": [0.0], "kappa_out_of_range": [2.1, -2.0], "sparsity_cap": [0.1] * 5,
             "eigenvalue_window": [lead["eigenvalue_window"]], "noise_bound": [2.3, -2.0]}
    out = []
    for why, a in lead.items():
        t = np.zeros(5)
        vals = trail.get(why, [0.5])
        t[: len(vals)] = vals
        # the constraint row is handed twice its xi'lead, so kappa solves another equation than xi'beta = tau
        out.append((a, t, 0.5 * a * (2.0 if why == "constraint_residual" else 1.0), why != "kappa_zero_degenerate", why))
    return out


@given(order=st.permutations(range(8)), size=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_stack_rows_of_every_reason_equal_stacks_of_one(order, size):
    xi = make_loading(np.full(6, 0.5))
    picked = [_reason_rows()[i] for i in order[:size]]
    lead, trail, lead_dot, admissible, reasons = (np.array(col) for col in zip(*picked))

    def build(rows):
        return pri._coupled_draw(
            "nu2", xi, 4, lead[rows, None], trail[rows], 0.1, 2.0, lead_dot=lead_dot[rows], admissible=admissible[rows]
        )

    stack = build(slice(None))
    assert stack.reason.tolist() == reasons.tolist()
    for i in range(size):
        assert _draw_bits(stack.row(i)) == _draw_bits(build(slice(i, i + 1)).row(0))


def test_valid_rows_draw_no_seed_past_the_last_one_wanted():
    # a third of these nu1 draws are invalid: each stack asks for the valid draws still wanted, the stacks
    # cover consecutive seeds, and they end at the seed of the 30th valid draw
    sampler = pri.prior_sampler("nu1", make_loading(np.r_[np.ones(20), np.zeros(20)]), 10, 400, 5.0)
    valid_seeds = [s for s in range(100, 400) if sampler(s).valid][:30]
    asked, found = [], []

    def stacks(seed, wanted):
        asked.append((seed, wanted))
        return sampler.stack(seed, wanted)

    for stack, rows in pri.valid_rows(stacks, 100, 30):
        found += [asked[-1][0] + i for i in rows]
        asked[-1] += (stack.valid.size,)
    assert found == valid_seeds and len(asked) > 1
    assert [wanted for _, wanted, _ in asked] == [30 - sum(s < seed for s in valid_seeds) for seed, _, _ in asked]
    assert [seed for seed, _, _ in asked] == [100] + [seed + size for seed, _, size in asked[:-1]]
    assert asked[-1][0] + asked[-1][2] - 1 == valid_seeds[-1]
