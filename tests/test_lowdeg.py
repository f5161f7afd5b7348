import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptest import lowdeg as ld
from adaptest import priors as pri
from adaptest.cli import LowdegConfig, cmd_lowdeg
from adaptest.cli import main as cli_main
from adaptest.harness import build_loading, parse_config
from adaptest.model import csv_text, make_loading, stream


def tiny_comp_sampler(xi, seed, c8=0.4, c9=0.05):
    return pri.sample_comp_prior(
        xi, 1, 2, 1,
        c8=c8, c9=c9, seed=seed, sigma_star=1.0,
        k_eff_override=2, s1_override=1,
    )


def indices_up_to(width: int, degree: int):
    """All multi-indices over `width` slots with total degree <= degree."""
    for d in range(degree + 1):
        for slots in combinations_with_replacement(range(width), d):
            alpha = [0] * width
            for s in slots:
                alpha[s] += 1
            yield tuple(alpha)


def brute_force_ld_pair(draw1, draw2, degree: int, n: int) -> float:
    """LD(degree) of one pair by enumeration: per-row Hermite moments summed
    by degree, then the coefficients of (sum_d t[d] z^d)^n up to degree."""
    r1, c1 = draw1.rank_one_factors()
    r2, c2 = draw2.rank_one_factors()
    t = np.zeros(degree + 1)
    for alpha in indices_up_to(r1.size + c1.size, degree):
        mu, nu = alpha[: r1.size], alpha[r1.size :]
        t[sum(alpha)] += ld.hermite_moment(mu, nu, r1, c1) * ld.hermite_moment(mu, nu, r2, c2)
    total = np.zeros(degree + 1)
    total[0] = 1.0
    for _ in range(n):
        total = np.convolve(total, t)[: degree + 1]
    return float(total.sum())


@dataclass
class Factors:
    """A stand-in draw exposing only its rank-one coupling factors."""

    r: np.ndarray
    c: np.ndarray

    def rank_one_factors(self):
        return self.r, self.c


@st.composite
def factor_pairs(draw):
    """Two draws sharing widths 1-3; entries in [-1/2, 1/2] keep ||r|| ||c|| <= 3/4."""
    wu, wv = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    coord = st.floats(-0.5, 0.5, allow_subnormal=False)

    def vec(w):
        return np.array(draw(st.lists(coord, min_size=w, max_size=w)))

    return Factors(vec(wu), vec(wv)), Factors(vec(wu), vec(wv))


def valid_draws(xi, count, start=0):
    return list(islice(pri.valid_draws(lambda s: tiny_comp_sampler(xi, s), start), count))


def point_mass_draw(xi, sigma_star):
    """The degenerate draw at the reference alternative (beta = 0, Sigma = I)."""
    return pri.PriorDraw(
        kind="nu1", lead=np.zeros(0), trail=np.zeros(xi.p), kappa=0.0, tau=0.0, beta=np.zeros(xi.p),
        noise_sd=sigma_star, eig_min=1.0, eig_max=1.0, valid=True, reason="point_mass", sigma_star=sigma_star,
        sparsity=0, residual=0.0,
    )


class TestHermiteMoment:
    def test_linear_case(self):
        assert ld.hermite_moment([1], [1], np.array([0.3]), np.array([1.0])) == pytest.approx(0.3)

    def test_quadratic_isserlis(self):
        # E[(U^2-1)(V^2-1)]/2 = rho^2 for unit-variance pairs
        rho = 0.45
        assert ld.hermite_moment([2], [2], np.array([rho]), np.array([1.0])) == pytest.approx(rho**2)

    def test_mixed_index(self):
        v = ld.hermite_moment([1, 1], [2], np.array([0.2, 0.4]), np.array([0.5]))
        assert v == pytest.approx(math.sqrt(2) * 0.2 * 0.4 * 0.25, rel=1e-12)

    def test_degree_mismatch_vanishes(self):
        rng = stream(0, 0)
        for _ in range(50):
            a, b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            mu = rng.integers(0, 3, size=a)
            nu = rng.integers(0, 3, size=b)
            if mu.sum() == nu.sum():
                continue
            r = rng.standard_normal(a) * 0.2
            c = rng.standard_normal(b) * 0.2
            assert ld.hermite_moment(mu, nu, r, c) == 0.0

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(5)
        r = np.array([0.2, 0.4])
        c = np.array([0.5])
        cov = np.block([[np.eye(2), np.outer(r, c)], [np.outer(c, r), np.eye(1)]])
        chol = np.linalg.cholesky(cov)
        z = rng.standard_normal((1_000_000, 3)) @ chol.T
        h2 = (z[:, 2] ** 2 - 1) / math.sqrt(2)
        samples = z[:, 0] * z[:, 1] * h2
        se = float(np.std(samples)) / math.sqrt(len(samples))
        formula = ld.hermite_moment([1, 1], [2], r, c)
        assert abs(float(np.mean(samples)) - formula) <= 3 * se


class TestLdNorm:
    xi = make_loading([1.0, 0.9, 0.8])

    def test_degree_zero_is_one(self):
        draws = valid_draws(self.xi, 6)
        assert ld.ld_norm(draws, 0, 2) == 1.0

    def test_point_mass_is_one(self):
        draws = [point_mass_draw(self.xi, 1.0) for _ in range(4)]
        for deg in (0, 1, 2, 3):
            assert ld.ld_norm(draws, deg, 2) == 1.0

    def test_nondecreasing_in_degree_and_at_least_one(self):
        draws = valid_draws(self.xi, 20)
        vals = [ld.ld_norm(draws, d, 2) for d in range(5)]
        assert vals[0] == 1.0
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-13
        assert all(v >= 1.0 for v in vals)

    def test_converges_to_closed_form(self):
        draws = valid_draws(self.xi, 10)
        pairs = [(draws[i], draws[i + 1]) for i in range(0, 9, 2)]
        closed = float(np.mean([pri.chi2_pair_closed_form(a, b, 2) for a, b in pairs]))
        assert ld.ld_norm(draws, 8, 2) == pytest.approx(closed, rel=1e-9)

    def test_sign_alignment_per_index(self):
        d1, d2 = valid_draws(self.xi, 2)
        r1, c1 = d1.rank_one_factors()
        r2, c2 = d2.rank_one_factors()
        for alpha in indices_up_to(r1.size + c1.size, 3):
            mu, nu = alpha[: r1.size], alpha[r1.size :]
            f1 = ld.hermite_moment(mu, nu, r1, c1)
            f2 = ld.hermite_moment(mu, nu, r2, c2)
            assert f1 * f2 >= 0.0

    @given(pair=factor_pairs(), n=st.integers(1, 4), degree=st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_closed_form_matches_hermite_enumeration(self, pair, n, degree):
        a, b = pair
        fast = ld.ld_norms([pri.rank_one_overlap(a, b)], degree, n)[-1]
        slow = brute_force_ld_pair(a, b, degree, n)
        # relative to the series' absolute sum, which bounds |fast| and
        # stays the scale of the rounding when a negative overlap cancels
        x = pri.rank_one_overlap(a, b)
        scale = sum(math.comb(n + m - 1, m) * abs(x) ** m for m in range(degree // 2 + 1))
        assert abs(fast - slow) <= 1e-13 * scale

    @given(
        st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=30), st.integers(1, 2000), st.integers(0, 12)
    )
    @settings(max_examples=100, deadline=None)
    def test_ld_norms_sum_each_series_as_the_scalar_loop(self, overlaps, n, degree_max):
        # every degree's mean, bit for bit, over overlaps large enough that every term counts
        got = ld.ld_norms(overlaps, degree_max, n)
        assert got == [float(np.mean([series(x, d, n) for x in overlaps])) for d in range(degree_max + 1)]

    def test_odd_degree_adds_nothing(self):
        draws = valid_draws(self.xi, 8)
        for m in range(3):
            assert ld.ld_norm(draws, 2 * m + 1, 2) == ld.ld_norm(draws, 2 * m, 2)


def series(x: float, degree: int, n: int) -> float:
    """sum_{m <= degree/2} C(n+m-1, m) x^m for one pair, term by term in Python floats."""
    term = total = 1.0
    for m in range(1, degree // 2 + 1):
        term *= x * (n + m - 1) / m
        total += term
    return total


LOWDEG_CASES = {
    "criterion_9": "n = 2\np = 3\nk_u = 1\nk_eff = 2\ns1 = 1\nc8 = 0.4\nc9 = 0.05\ndegree_max = 4\npairs = 40\n"
    "loading_csv = {xi}\n",
    "paper_size": "n = 1000\np = 200\nk_u = 16\nk_eff = 48\ns1 = 4\nloading_k = 100\ndegree_max = 6\npairs = 200\n",
}


class TestLowdegCli:
    @pytest.mark.parametrize("case", sorted(LOWDEG_CASES))
    def test_table_is_the_per_degree_loop_on_the_same_draws(self, case, tmp_path):
        # the table takes each pair's overlap once, from the stacks; the per-degree loop on the row draws
        # (each pair's series and chi2_pair_closed_form in Python floats, and ld_norm) gives the same bytes
        (tmp_path / "xi.csv").write_text("xi\n1.0\n0.9\n0.8\n")
        cfg = parse_config(LOWDEG_CASES[case].format(xi=tmp_path / "xi.csv") + "master_seed = 3\n", LowdegConfig)
        _, _, tables = cmd_lowdeg(cfg)
        sampler = pri.prior_sampler(
            "comp", build_loading(cfg), cfg.k_u, cfg.n, cfg.sigma_star, degree=1, c8=cfg.c8, c9=cfg.c9,
            k_eff_override=cfg.k_eff, s1_override=cfg.s1,
        )
        stacks = pri.valid_rows(sampler.stack, cfg.master_seed, 2 * cfg.pairs)
        draws = [stack.row(i) for stack, rows in stacks for i in rows]
        pairs = list(pri.draw_pairs(draws))
        overlaps = [pri.rank_one_overlap(a, b) for a, b in pairs]
        chi2_ref = float(np.mean([pri.chi2_pair_closed_form(a, b, cfg.n) for a, b in pairs])) - 1.0
        rows = []
        for deg in range(cfg.degree_max + 1):
            value = float(np.mean([series(x, deg, cfg.n) for x in overlaps]))
            assert ld.ld_norm(draws, deg, cfg.n) == value
            rows.append((deg, value, chi2_ref, ld.ld_uniform_bound(cfg.n, cfg.p, max(deg, 1))))
        assert tables[".csv"] == csv_text("degree,ld,chi2_ref,log_uniform_bound", rows)
        assert len(pairs) == cfg.pairs and any(x != 0.0 for x in overlaps)

    def test_paper_size_instance(self, tmp_path):
        # the paper's sizes; at master_seed 1 some draw pairs' couplings
        # overlap (x > 0), so LD(2) > 1 and the series does real work
        cfg = tmp_path / "lowdeg.cfg"
        cfg.write_text(
            "n = 1000\np = 200\nk_u = 16\nk_eff = 48\ns1 = 4\nloading = regular\n"
            "loading_k = 100\ndegree_max = 4\npairs = 20\nmaster_seed = 1\n"
        )
        assert cli_main(["lowdeg", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        (csv,) = tmp_path.glob("lowdeg_*.csv")
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        lds = [float(r[1]) for r in rows]
        chi2_ref = float(rows[0][2])
        assert len(lds) == 5 and lds[0] == 1.0
        assert all(a <= b + 1e-13 * (d + 1) for d, (a, b) in enumerate(zip(lds, lds[1:])))
        assert all(v <= 1.0 + chi2_ref + 1e-12 for v in lds)
        assert chi2_ref > 0.0 and lds[2] > 1.0

    def test_stalled_sampling_is_a_numerical_failure(self, tmp_path, capsys):
        # c9 = 100 puts every kappa above 1, so no draw is valid
        (tmp_path / "xi.csv").write_text("xi\n1.0\n0.9\n0.8\n")
        cfg = tmp_path / "lowdeg.cfg"
        cfg.write_text(f"n = 2\np = 3\nk_u = 1\nk_eff = 2\nc9 = 100.0\nloading_csv = {tmp_path / 'xi.csv'}\n")
        assert cli_main(["lowdeg", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "rejection sampling" in capsys.readouterr().err
        assert not list(tmp_path.glob("lowdeg_*"))


class TestUniformBound:
    def test_hand_value(self):
        assert ld.ld_uniform_bound(1, 1, 1) == pytest.approx(math.log(9 * 6**4), rel=1e-12)

    def test_monotone_grid(self):
        vals = [
            ld.ld_uniform_bound(n, p, d)
            for n in (1, 2, 4)
            for p in (1, 3)
            for d in (1, 2)
        ]
        for n in (1, 2):
            assert ld.ld_uniform_bound(n + 1, 2, 2) > ld.ld_uniform_bound(n, 2, 2)
        assert ld.ld_uniform_bound(2, 3, 2) > ld.ld_uniform_bound(2, 2, 2)
        assert ld.ld_uniform_bound(2, 2, 3) > ld.ld_uniform_bound(2, 2, 2)
        assert all(np.isfinite(vals))

    def test_dominates_tiny_instances(self):
        xi = make_loading([1.0, 0.9, 0.8])
        draws = valid_draws(xi, 6)
        for deg in (1, 2):
            assert math.log(ld.ld_norm(draws, deg, 2)) <= ld.ld_uniform_bound(2, 3, deg)
