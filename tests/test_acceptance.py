"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria marked DERIVED recompute their expected values from the
stated independent oracles (closed forms, brute-force quadrature,
Monte Carlo envelopes) before asserting.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from adaptest import inference as inf
from adaptest import lowdeg as ld
from adaptest import priors as pri
from adaptest import profiles as prof
from adaptest import scca
from adaptest.estimators import projection_direction, scaled_lasso, spiked_cov_estimate
from adaptest.harness import parse_config, run_experiment, rows_to_csv
from adaptest.model import ModelParams, generate_dataset, make_loading, stream
from oracles import debiased_ci, joint_covariance, plugin_ci, single


def _report(num, name, ok=True, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status}{' ' + extra if extra else ''}")


# --- criterion 1 -------------------------------------------------------------


def test_criterion_1_flat_nu1_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    while checked < 200:
        size = int(rng.integers(1, 10_001))
        scale = float(rng.uniform(0.1, 10.0))
        k_u = int(rng.integers(1, 201))
        zc, lc, nc = prof.flat_closed_form(size, scale, k_u)
        if abs(zc) < 1e-6 * scale**2:  # keep the root well conditioned
            continue
        xi = prof.regular_profile(size, scale, size)
        z, lam = prof.solve_zeta(xi, k_u)
        n1 = prof.nu1(xi, k_u)
        assert abs(z - zc) <= 1e-8 * max(abs(zc), 1e-8)
        assert abs(lam - lc) <= 1e-8 * max(lc, 1e-8)
        assert abs(n1 - nc) <= 1e-8 * abs(nc)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, "flat-loading nu1 oracle", extra=f"[{elapsed:.2f}s]")


# --- criterion 2 -------------------------------------------------------------


def test_criterion_2_endpoint_recovery():
    rng = np.random.default_rng(202)
    for trial in range(50):
        n = int(rng.integers(80, 200))
        p = int(rng.integers(20, 70))
        k_u = int(rng.integers(1, 8))
        beta = np.zeros(p)
        k = int(rng.integers(1, 5))
        beta[rng.choice(p, size=k, replace=False)] = rng.uniform(-2, 2, size=k)
        theta = ModelParams(beta=beta, sigma_cov=None, noise_sd=1.0)
        data = generate_dataset(theta, n, seed=1000 + trial)
        xi = make_loading(rng.standard_normal(p))
        fit = scaled_lasso(data)
        alpha = eta = float(rng.uniform(0.02, 0.2))
        a_comp = min(alpha, eta) / 4.0

        m0 = inf.mixed_ci(data, fit, xi, 0, k_u, alpha, eta)
        pi = plugin_ci(fit, xi.original(), k_u, n, a_comp)
        assert abs(m0.center - pi.center) <= 1e-12
        assert abs(m0.radius - pi.radius) <= 1e-12

        mp = inf.mixed_ci(data, fit, xi, p, k_u, alpha, eta)
        proj = projection_direction(data, xi.original(), 2.0)
        db = debiased_ci(data, fit, proj, xi.original(), k_u, a_comp)
        assert abs(mp.center - db.center) <= 1e-12
        assert abs(mp.radius - db.radius) <= 1e-12
    _report(2, "mixed interval endpoint recovery")


# --- criteria 3 and 4 --------------------------------------------------------

SIZE_POWER_CFG = """
kind = size_power
n = 300
p = 600
k_u = 5
k = 5
alpha = 0.05
eta = 0.05
loading = regular
loading_k = 5
t0 = 4.0
modes = mixed
master_seed = 303
threads = 1
"""


@pytest.fixture(scope="module")
def size_run():
    cfg = replace(parse_config(SIZE_POWER_CFG), reps=1000, tau_grid="")
    start = time.perf_counter()
    rows = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    return cfg, rows, elapsed


def test_criterion_3_size_control(size_run):
    cfg, rows, elapsed = size_run
    rate = next(r for r in rows if r.metric == "mean/reject/null/mixed")
    assert rate.value <= 0.08
    assert elapsed < 600.0
    _report(3, "mixed test size control", extra=f"[rate={rate.value:.4f}, {elapsed:.0f}s]")


def test_criterion_4_power_at_four_radii(size_run):
    cfg, rows, _ = size_run
    radii = [r.value for r in rows if r.metric == "radius/null/mixed" and r.replicate >= 0]
    tau = 4.0 * float(np.median(radii))
    cfg_alt = replace(cfg, reps=500, tau_grid=repr(tau), master_seed=304)
    rows_alt = run_experiment(cfg_alt)
    power = next(
        r for r in rows_alt if r.metric == f"mean/reject/alt/mixed/tau={repr(tau)}"
    )
    assert power.value >= 0.9
    _report(4, "power at four median radii", extra=f"[power={power.value:.3f}]")


# --- criterion 5 -------------------------------------------------------------


def test_criterion_5_prior_validity():
    p, k_u, n = 500, 32, 2000
    m1 = m2 = 10.0
    draws = 10_000
    xi = make_loading(np.concatenate((np.ones(200), np.zeros(p - 200))))
    tau_nu1 = 0.0125 * prof.nu1(xi, k_u) / math.sqrt(n)

    def check(d, cap):
        assert 0.0 < d.kappa <= 1.0
        assert d.sparsity <= cap
        assert abs(float(xi.coords @ d.beta) - d.tau) <= 1e-10 * max(abs(d.tau), 1.0)
        assert 1.0 / m1 <= d.eig_min <= d.eig_max <= m1
        assert 0.0 < d.noise_sd <= m2

    # each kind's draws at seeds 0..draws-1, read off its stacks (a row has the bits of its single draw)
    samplers = {
        "nu2": (pri.prior_sampler("nu2", xi, k_u, n, 5.0), k_u // 2),
        "nu1": (pri.prior_sampler("nu1", xi, k_u, n, 5.0, tau=tau_nu1), k_u // 2),
        "comp": (pri.prior_sampler("comp", xi, k_u, n, 5.0, degree=1), k_u),
    }
    counts = {}
    for kind, (sampler, cap) in samplers.items():
        seed = counts[kind] = 0
        while seed < draws:
            stack = sampler(seed, draws - seed)
            for i in np.flatnonzero(stack.valid):
                check(stack.row(i), cap)
            counts[kind] += int(stack.valid.sum())
            seed += stack.valid.size
    comp_rate = counts["comp"] / draws
    assert comp_rate >= 0.95
    _report(5, "prior validity", extra=f"[comp validity={comp_rate:.3f}]")


# --- criterion 6 -------------------------------------------------------------


def test_criterion_6_chi2_oracles():
    # (a) determinant machinery vs the rank-one closed form on prior pairs
    p, k_u, n = 60, 8, 50
    xi = make_loading(np.linspace(3.0, 0.05, p))
    ref = np.diag(np.concatenate(([25.0], np.ones(p))))
    for i in range(100):
        d1 = pri.sample_nu2_prior(xi, k_u, n, p, 5.0, seed=2 * i)
        d2 = pri.sample_nu2_prior(xi, k_u, n, p, 5.0, seed=2 * i + 1)
        general = pri.chi2_pair_integral(joint_covariance(d1), joint_covariance(d2), ref, n)
        closed = pri.chi2_pair_closed_form(d1, d2, n)
        assert abs(general - closed) <= 1e-10 * abs(closed)

    # (b) 3-variable brute-force quadrature on generic triples
    rng = stream(606, 0)
    grid = np.linspace(-6.0, 6.0, 60)
    step = grid[1] - grid[0]
    xs = np.column_stack([g.ravel() for g in np.meshgrid(grid, grid, grid, indexing="ij")])

    def density(cov):
        inv = np.linalg.inv(cov)
        det = np.linalg.det(cov)
        expo = -0.5 * np.einsum("ij,jk,ik->i", xs, inv, xs)
        return np.exp(expo) / math.sqrt((2 * math.pi) ** 3 * det)

    for trial in range(10):
        a = 0.12 * rng.standard_normal((3, 3))
        s1 = np.eye(3) + (a + a.T) / 2
        b = 0.12 * rng.standard_normal((3, 3))
        s2 = np.eye(3) + (b + b.T) / 2
        s0 = np.eye(3)
        brute = float(np.sum(density(s1) * density(s2) / density(s0)) * step**3)
        exact = pri.chi2_pair_integral(s1, s2, s0, 1)
        assert abs(brute - exact) <= 1e-3 * abs(exact)
    _report(6, "chi-square oracle agreement")


# --- criterion 7 -------------------------------------------------------------


def _exact_hypergeometric_mgf(p, k, base):
    """E[base^J] for J ~ Hypergeometric(p, k, k) in exact rational arithmetic."""
    num = sum(math.comb(k, j) * math.comb(p - k, k - j) * base**j for j in range(k + 1))
    return Fraction(num, math.comb(p, k))


def test_criterion_7_hypergeometric_mgf():
    small = pri.hypergeometric_mgf(10, 2, math.log(2) / math.log(10))
    assert abs(small - 64.0 / 45.0) <= 1e-12

    # The MGF tends to 1 when k^2 p^(c-1) -> 0.  At finite p it lies strictly
    # between 1 and Hoeffding's binomial MGF (1 + (k/p)(p^c - 1))^k, and its
    # excess over 1 shrinks along p = 1e5, ..., 1e10 with k = int(p^0.3).
    p = 10**5
    k = int(p**0.3)
    value = pri.hypergeometric_mgf(p, k, 0.2)

    # p^0.2 is the integer 10 or 100 here, so the exact value is rational
    oracle_err = {}
    for p_exact, base in ((10**5, 10), (10**10, 100)):
        k_exact = int(p_exact**0.3)
        exact = float(_exact_hypergeometric_mgf(p_exact, k_exact, base))
        oracle_err[p_exact] = abs(pri.hypergeometric_mgf(p_exact, k_exact, 0.2) - exact) / exact

    ladder = []
    for e in range(5, 11):
        p_e = 10**e
        k_e = int(p_e**0.3)
        hoeffding = (1.0 + (k_e / p_e) * (p_e**0.2 - 1.0)) ** k_e
        ladder.append((p_e, pri.hypergeometric_mgf(p_e, k_e, 0.2), hoeffding))
    outside = [(p_e, v, h) for p_e, v, h in ladder if not 1.0 < v <= h]
    excess = [v - 1.0 for _, v, _ in ladder]
    decreasing = all(a > b for a, b in zip(excess, excess[1:]))

    ok = max(oracle_err.values()) <= 1e-12 and not outside and decreasing
    _report(7, "hypergeometric MGF", ok=ok, extra=f"[exact value at p=1e5: {value:.6f}]")
    assert max(oracle_err.values()) <= 1e-12, f"relative error against the exact MGF: {oracle_err}"
    assert not outside, f"(p, value, Hoeffding bound) outside (1, bound]: {outside}"
    assert decreasing, f"MGF - 1 is not strictly decreasing in p: {excess}"


# --- criterion 8 -------------------------------------------------------------


def _normalized_hermite(vals, k):
    from numpy.polynomial import hermite_e

    coef = np.zeros(k + 1)
    coef[k] = 1.0
    return hermite_e.hermeval(vals, coef) / math.sqrt(math.factorial(k))


def test_criterion_8_hermite_identity():
    rng = np.random.default_rng(808)
    cases = 0
    while cases < 20:
        a = int(rng.integers(1, 3))
        b = int(rng.integers(1, 3))
        degree = int(rng.integers(1, 3))
        mu = np.zeros(a, dtype=int)
        nu = np.zeros(b, dtype=int)
        for _ in range(degree):
            mu[rng.integers(0, a)] += 1
            nu[rng.integers(0, b)] += 1
        if mu.sum() > 4 or mu.sum() != nu.sum():
            continue
        r = rng.uniform(-0.4, 0.4, size=a)
        c = rng.uniform(-0.4, 0.4, size=b)
        if np.linalg.norm(r) * np.linalg.norm(c) >= 0.95:
            continue
        formula = ld.hermite_moment(mu, nu, r, c)

        cov = np.block([[np.eye(a), np.outer(r, c)], [np.outer(c, r), np.eye(b)]])
        chol = np.linalg.cholesky(cov)
        total = 0.0
        total_sq = 0.0
        n_samples = 10_000_000
        chunk = 1_000_000
        mc_rng = np.random.default_rng(7_700_000 + 13 * cases)
        for _ in range(n_samples // chunk):
            z = mc_rng.standard_normal((chunk, a + b)) @ chol.T
            prod = np.ones(chunk)
            for j in range(a):
                if mu[j]:
                    prod *= _normalized_hermite(z[:, j], int(mu[j]))
            for j in range(b):
                if nu[j]:
                    prod *= _normalized_hermite(z[:, a + j], int(nu[j]))
            total += float(prod.sum())
            total_sq += float((prod**2).sum())
        mean = total / n_samples
        var = total_sq / n_samples - mean**2
        se = math.sqrt(max(var, 1e-30) / n_samples)
        assert abs(mean - formula) <= 3 * se
        cases += 1

    # exact vanishing off the balanced diagonal
    for _ in range(50):
        mu = rng.integers(0, 3, size=2)
        nu = rng.integers(0, 3, size=2)
        if mu.sum() == nu.sum():
            continue
        assert ld.hermite_moment(mu, nu, np.array([0.3, 0.1]), np.array([0.2, 0.4])) == 0.0
    _report(8, "Hermite rank-one identity vs Monte Carlo")


# --- criterion 9 -------------------------------------------------------------


def test_criterion_9_ld_sandwich():
    n, p = 2, 3
    xi = make_loading([1.0, 0.9, 0.8])

    sampler = pri.prior_sampler("comp", xi, 1, n, 1.0, degree=1, c8=0.4, c9=0.05, k_eff_override=2, s1_override=1)
    for instance in range(5):
        base = 50_000 * (instance + 1)
        draws = [stack.row(i) for stack, rows in pri.valid_rows(sampler, base, 40) for i in rows]
        vals = {deg: ld.ld_norm(draws, deg, n) for deg in (0, 1, 2)}
        assert vals[0] == 1.0
        assert vals[0] <= vals[1] + 1e-13 <= vals[2] + 2e-13
        est, se = pri.chi2_mixture_mc(sampler, n, 100, seed=base + 7_000)
        assert vals[2] <= 1.0 + est + 3 * se
    _report(9, "low-degree sandwich on tiny instances")


# --- criterion 10 ------------------------------------------------------------


def test_criterion_10_reduction_exactness():
    rows_out = 10_000
    params = scca.SccaParams(n=2 * rows_out, s=2, p1=10, p2=40, lam=0.0)
    inst = scca.gen_scca(params, "null", 1010)
    sigma_star = 1.0
    ds, problem, tau_red = scca.reduce_to_lt(inst, sigma_star, 0.1, 0.0, 1011)
    assert ds.n == rows_out
    beta0 = np.zeros(params.p1 + params.p2)
    beta0[0] = problem.t0 - tau_red
    v1 = ds.y - ds.x @ beta0
    z = np.concatenate((v1[:, None], ds.x), axis=1)
    emp = z.T @ z / rows_out
    target = np.eye(z.shape[1])
    target[0, 0] = sigma_star**2
    dev = float(np.max(np.abs(emp - target)))
    assert dev <= 5.0 / math.sqrt(rows_out)

    hand = 0.1 * 1.0 / (2.0 - 0.1**2 * 0.2**2) * 0.2**2 * 5 / math.sqrt(100)
    assert abs(scca.reduction_tau(0.1, 1.0, 0.2, 5, 100) - hand) <= 1e-12
    _report(10, "reduction null exactness", extra=f"[max cov dev={dev:.4f}]")


# --- criterion 11 ------------------------------------------------------------


def test_criterion_11_scca_statistic_ordering():
    start = time.perf_counter()
    n, s, p1, p2 = 4000, 2, 10, 40
    null_params = scca.SccaParams(n=n, s=s, p1=p1, p2=p2, lam=0.0)
    thresholds = scca.calibrate_thresholds(null_params, 2000, seed=1100, level=0.05)
    bounds = scca.boundary_table(n, s, p1, p2)
    lam = 0.5 * (bounds["scan"] + bounds["max_col"])
    alt_params = scca.SccaParams(n=n, s=s, p1=p1, p2=p2, lam=lam)
    hits = {"scan": 0, "max_col": 0}
    reps = 500
    for i in range(reps):
        r = single(scca.sample_cross_covariances(alt_params, "alt", 60_000 + i, [0]))
        rep = scca.stat_report(r, s, thresholds)
        hits["scan"] += int(rep.decisions["scan"])
        hits["max_col"] += int(rep.decisions["max_col"])
    scan_power = hits["scan"] / reps
    maxcol_power = hits["max_col"] / reps
    elapsed = time.perf_counter() - start
    assert scan_power >= maxcol_power + 0.2
    assert elapsed < 900.0
    _report(
        11,
        "scan vs max-col power ordering",
        extra=f"[scan={scan_power:.3f}, max_col={maxcol_power:.3f}, {elapsed:.0f}s]",
    )


# --- criterion 12 ------------------------------------------------------------


def test_criterion_12_spiked_estimator_rate():
    p, k_u, n = 8, 2, 2000
    v = np.zeros(p)
    v[:2] = 1.0 / math.sqrt(2)
    sigma = np.eye(p) + 0.5 * np.outer(v, v)
    theta = ModelParams(beta=np.zeros(p), sigma_cov=(np.arange(2), sigma[:2, :2]), noise_sd=1.0)
    bound = 3.0 * math.sqrt(k_u * math.log(p) / n)
    rate_hits = 0
    for seed in range(50):
        fit = spiked_cov_estimate(generate_dataset(theta, n, 12_000 + seed), k_u)
        if np.linalg.norm(fit.sigma_hat_spike - sigma, 2) <= bound:
            rate_hits += 1
        mask = np.ones((p, p), dtype=bool)
        idx = np.array(fit.b_hat, dtype=int)
        if idx.size:
            mask[np.ix_(idx, idx)] = False
        assert np.array_equal(fit.sigma_hat_spike[mask], np.eye(p)[mask])
    assert rate_hits >= 45
    _report(12, "spiked covariance rate", extra=f"[hits={rate_hits}/50]")


# --- criterion 13 ------------------------------------------------------------


def test_criterion_13_determinism_across_threads():
    cfg = parse_config(
        "kind = size_power\nn = 120\np = 80\nk_u = 4\nk = 2\nreps = 16\n"
        "loading = regular\nloading_k = 4\ntau_grid = 0.0,0.8\nmodes = mixed,plugin\n"
        "master_seed = 1313\n"
    )
    # and under nu2 prior nulls, whose trailing support needs a dense loading
    for case in (cfg, replace(cfg, null_source="nu2", loading_k=80)):
        tables = {}
        for threads in (1, 2, 8):
            rows = run_experiment(replace(case, threads=threads))
            tables[threads] = rows_to_csv(rows).encode()
        assert tables[1] == tables[2] == tables[8]
        again = rows_to_csv(run_experiment(replace(case, threads=2))).encode()
        assert again == tables[1]
    _report(13, "bit-identical tables across worker threads")
