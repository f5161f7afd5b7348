import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptest.errors import MultiscaleConstraint
from adaptest.model import make_loading
from adaptest.profiles import (
    COMPUTATIONAL_GAP,
    EASY_L2,
    EASY_LINF,
    SPARSE_LOADING_L2_INFLATED,
    STATISTICALLY_IMPOSSIBLE,
    _log_phi,
    cutoff_prefixes,
    example_profiles,
    flat_closed_form,
    log_grid,
    multiscale_profile,
    nu1,
    nu2,
    phase_boundaries,
    rate_bounds,
    regime_and_cutoff,
    regular_phase,
    regular_profile,
    solve_zeta,
    subweibull_profile,
    top_norm,
    upper_objective,
)


class TestTopNorm:
    def test_hand_example(self):
        xi = make_loading([3.0, 2.0, 1.0])
        assert top_norm(xi, 2) == pytest.approx(math.sqrt(13), abs=1e-12)

    def test_zero_convention(self):
        assert top_norm(make_loading([1.0, 2.0]), 0) == 0.0

    def test_single_spike(self):
        xi = make_loading([0.0, 1.0, 0.0])
        for t in (1, 2.5, 10):
            assert top_norm(xi, t) == 1.0

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_nondecreasing_and_caps_at_l2(self, t):
        rng = np.random.default_rng(17)
        xi = make_loading(rng.standard_normal(20))
        assert top_norm(xi, t) <= top_norm(xi, t + 1) + 1e-15
        if t >= 20:
            assert top_norm(xi, t) == pytest.approx(float(np.linalg.norm(xi.coords)))


class TestSolveZeta:
    def test_flat_k2(self):
        xi = make_loading([1.0, 1.0, 1.0, 1.0])
        zeta, lam = solve_zeta(xi, 2)
        assert zeta == pytest.approx(2 * math.log(2), rel=1e-10)
        assert lam == pytest.approx(math.sqrt(2 * math.log(2)), rel=1e-10)

    def test_flat_k6_negative_root(self):
        xi = make_loading([1.0, 1.0, 1.0, 1.0])
        zeta, lam = solve_zeta(xi, 6)
        assert zeta == pytest.approx(2 * math.log(2 / 3), rel=1e-9)
        assert lam == 0.0

    def test_single_coordinate(self):
        xi = make_loading([1.0, 0.0, 0.0])
        zeta, lam = solve_zeta(xi, 2)
        assert abs(zeta) <= 1e-10
        assert lam <= 1e-5

    def test_phi_strictly_decreasing(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            xi = make_loading(rng.standard_normal(int(rng.integers(1, 12))) + 0.01)
            z1 = float(rng.uniform(-3, 3))
            z2 = z1 + float(rng.uniform(0.01, 2.0))
            assert _log_phi(xi, z1) > _log_phi(xi, z2)


class TestNuQuantities:
    def test_flat_nu1_k2(self):
        xi = make_loading([1.0, 1.0, 1.0, 1.0])
        lam = math.sqrt(2 * math.log(2))
        assert nu1(xi, 2) == pytest.approx(2 * lam + 1.0, rel=1e-9)

    def test_flat_nu1_k6(self):
        xi = make_loading([1.0, 1.0, 1.0, 1.0])
        assert nu1(xi, 6) == pytest.approx(2.0, rel=1e-12)
        assert nu2(xi, 6) == pytest.approx(2.0, rel=1e-12)

    def test_nu2_direct_sum(self):
        xi = make_loading([3.0, 2.0, 1.0, 0.0])
        assert nu2(xi, 2) == pytest.approx(math.sqrt(13), abs=1e-12)

    def test_nu1_scales_linearly(self):
        rng = np.random.default_rng(3)
        xi_raw = rng.standard_normal(30)
        for c in (0.1, 2.0, 7.5):
            a = nu1(make_loading(c * xi_raw), 5)
            b = c * nu1(make_loading(xi_raw), 5)
            assert a == pytest.approx(b, rel=1e-8)

    def test_flat_closed_form_grid(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 60:
            size = int(rng.integers(1, 2000))
            scale = float(rng.uniform(0.1, 5.0))
            k_u = int(rng.integers(1, 100))
            zc, lc, nc = flat_closed_form(size, scale, k_u)
            if abs(zc) < 1e-6 * scale**2:
                continue
            xi = regular_profile(size, scale, size)
            z, l = solve_zeta(xi, k_u)
            assert z == pytest.approx(zc, rel=1e-8, abs=1e-8)
            assert l == pytest.approx(lc, rel=1e-8, abs=1e-8)
            assert nu1(xi, k_u) == pytest.approx(nc, rel=1e-8)
            checked += 1


class TestRegimeAndCutoff:
    def test_ultra_sparse_example(self):
        xi = make_loading(np.concatenate((np.ones(100), np.zeros(10**4 - 100))))
        s = regime_and_cutoff(xi, 10, 10**6, 1)
        assert s.regime == "ultra_sparse"
        assert s.m_star == 922

    def test_moderately_sparse_example(self):
        xi = make_loading(np.concatenate((np.ones(100), np.zeros(10**4 - 100))))
        s = regime_and_cutoff(xi, 500, 10**6, 1)
        assert s.regime == "moderately_sparse"
        assert s.m_star == 10**4

    def test_k_eff_example(self):
        xi = make_loading(np.concatenate((np.ones(100), np.zeros(10**4 - 100))))
        s = regime_and_cutoff(xi, 10, 10**6, 1)
        assert s.k_eff == 10
        assert s.nu3 == pytest.approx(top_norm(xi, 10))

    def test_summary_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            xi = make_loading(rng.standard_normal(50))
            k_u = int(rng.integers(1, 20))
            s = regime_and_cutoff(xi, k_u, 5000, 2)
            assert s.lam >= 0.0
            assert s.nu1 >= top_norm(xi, s.j1) - 1e-9
            assert s.nu2 == pytest.approx(top_norm(xi, k_u))
            assert (s.nu3 <= s.nu2 + 1e-12) == (s.k_eff <= k_u)

    def test_profile_equation_solved_once(self, monkeypatch):
        from adaptest import profiles

        rng = np.random.default_rng(9)
        for _ in range(20):
            raw = rng.standard_normal(60) * (rng.random(60) < 0.5) + np.eye(60)[0]
            xi = make_loading(raw)
            k_u, n, p, degree = int(rng.integers(1, 30)), int(rng.integers(100, 10**5)), 60, int(rng.integers(1, 4))
            zeta, lam = solve_zeta(xi, k_u)
            m_star, regime = profiles.cutoff_and_regime(k_u, n, p)
            k_eff = profiles.effective_sparsity(k_u, n, p, degree)
            expect = profiles.ProfileSummary(
                zeta=zeta,
                lam=lam,
                j1=profiles.j1_index(xi, lam),
                nu1=nu1(xi, k_u),
                nu2=nu2(xi, k_u),
                k_eff=k_eff,
                nu3=top_norm(xi, k_eff),
                m_star=m_star,
                regime=regime,
            )
            calls = []
            monkeypatch.setattr(profiles, "solve_zeta", lambda *a: calls.append(a) or solve_zeta(*a))
            # a fresh loading: xi's memo already holds the root nu1 solved above
            got = regime_and_cutoff(make_loading(raw), k_u, n, degree)
            monkeypatch.undo()
            assert len(calls) == 1
            assert got == expect  # every field bit-identical to the separate solves


class TestRateBounds:
    def test_endpoints(self):
        xi = make_loading(np.linspace(3, 0.2, 10))
        n, p, k_u = 400, 10, 3
        obj = upper_objective(xi, k_u, n)
        lp = math.log(p)
        assert obj[0] == pytest.approx(abs(xi.coords[0]) * k_u * math.sqrt(lp / n))
        assert obj[p] == pytest.approx(float(np.linalg.norm(xi.coords)) * (1 / math.sqrt(n) + k_u * lp / n))

    def test_cutoff_prefixes_are_top_norm_and_next_magnitude(self):
        xi = make_loading([0.5, -3.0, 0.0, 2.0, -1.0])
        head, tail = cutoff_prefixes(xi)
        assert head.tolist() == [top_norm(xi, m) for m in range(6)]
        assert tail.tolist() == [3.0, 2.0, 1.0, 0.5, 0.0, 0.0]

    def test_log_grid_has_both_endpoints_and_at_most_size_cutoffs(self):
        assert log_grid(1000, 3) == [0, 1, 1000]
        for p, size in ((1, 5), (7, 4), (600, 32), (10**6, 40)):
            grid = log_grid(p, size)
            assert grid[0] == 0 and grid[-1] == p and len(grid) <= size and grid == sorted(set(grid))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal(25)
        n, k_u = 900, 4
        u1, l1 = rate_bounds(make_loading(raw), k_u, n)
        u2, l2 = rate_bounds(make_loading(raw[rng.permutation(25)]), k_u, n)
        assert u1 == pytest.approx(u2, rel=1e-12)
        assert l1 == pytest.approx(l2, rel=1e-12)

    def test_m_star_within_factor_three(self):
        # profile battery: flat, decaying, multiscale-like, random
        rng = np.random.default_rng(6)
        cases = [
            make_loading(np.concatenate((np.ones(8), np.zeros(192)))),
            make_loading(np.linspace(1, 0.01, 200)),
            make_loading(1.0 / np.sqrt(np.arange(1, 201))),
            make_loading(np.abs(rng.standard_normal(200))),
        ]
        for xi in cases:
            for (n, k_u) in ((5000, 3), (2000, 8), (50_000, 5)):
                s = regime_and_cutoff(xi, k_u, n, 1)
                obj = upper_objective(xi, k_u, n)
                assert obj[min(s.m_star, 200)] <= 3.0 * obj.min()

    def test_flat_ratio_window(self):
        # flat loadings with lambda = 0 (size <= k_u^2/4) in the ultra-sparse regime
        n, p = 10**6, 10**4
        for (size, k_u) in ((25, 10), (64, 40), (100, 30), (9, 6)):
            xi = regular_profile(size, 1.3, p)
            upper, lower = rate_bounds(xi, k_u, n)
            assert 0.01 <= lower / upper <= 1.0


class TestRegularPhase:
    def test_ultra_sparse_l2(self):
        label, tag = regular_phase(0.3, 0.2, 0.9)
        assert label == EASY_L2
        assert tag == "|xi|_2/sqrt(n)"

    def test_moderate_sparse_loading(self):
        label, tag = regular_phase(0.25, 0.3, 0.5)
        assert label == SPARSE_LOADING_L2_INFLATED
        assert tag == "|xi|_2 k_u log p/n"

    def test_gap_region(self):
        label, tag = regular_phase(0.4, 0.3, 0.5)
        assert label == COMPUTATIONAL_GAP
        assert isinstance(tag, tuple) and len(tag) == 2

    def test_linf_regions(self):
        assert regular_phase(0.9, 0.3, 0.9)[0] == EASY_LINF
        assert regular_phase(0.7, 0.3, 0.5)[0] == EASY_LINF

    def test_with_gamma_tau(self):
        label, _ = regular_phase(0.3, 0.2, 0.9, gamma_tau=0.05)
        assert label == STATISTICALLY_IMPOSSIBLE
        label, _ = regular_phase(0.3, 0.2, 0.9, gamma_tau=0.9)
        assert label == EASY_L2
        # between the curves in the moderately sparse gap region
        label, _ = regular_phase(0.4, 0.3, 0.5, gamma_tau=0.22)
        assert label == COMPUTATIONAL_GAP

    def test_labels_follow_the_region_conditions_and_both_curves(self):
        # over the 21^3 exponent grid with gamma_u <= gamma_n, at every gamma_tau in {i / 20}
        grid = [i / 20 for i in range(21)]
        for gx, gu, gn in ((gx, gu, gn) for gx in grid for gu in grid for gn in grid if gu <= gn):
            if gu <= gn / 2.0:
                free = EASY_L2 if gx <= 2.0 * gu else EASY_LINF
            else:
                free = SPARSE_LOADING_L2_INFLATED if gx <= gu else COMPUTATIONAL_GAP if gx < 2.0 * gu else EASY_LINF
            assert regular_phase(gx, gu, gn)[0] == free, (gx, gu, gn)
            stat, comp = phase_boundaries(gx, gu, gn)
            for gt in grid:
                label = regular_phase(gx, gu, gn, gamma_tau=gt)[0]
                if gt < stat:
                    assert label == STATISTICALLY_IMPOSSIBLE, (gx, gu, gn, gt)
                elif gt < comp:
                    assert label == COMPUTATIONAL_GAP, (gx, gu, gn, gt)
                else:
                    assert label == (EASY_LINF if free == COMPUTATIONAL_GAP else free), (gx, gu, gn, gt)


class TestPhaseBoundaries:
    def test_moderately_sparse_hand_values(self):
        # gamma_xi <= gamma_u: the statistical curve is the computational one, 0.3/2 + (0.5 - 0.8/2)
        assert phase_boundaries(0.3, 0.5, 0.8) == pytest.approx((0.25, 0.25), abs=1e-12)
        # gamma_xi >= 2 gamma_u: the statistical curve is gamma_u, and so is the capped computational one
        assert phase_boundaries(0.9, 0.45, 0.8) == (0.45, 0.45)
        # gamma_u < gamma_xi < 2 gamma_u at gamma_u = gamma_n: both curves are exactly gamma_u, and
        # gamma_tau on them is detectable
        assert phase_boundaries(0.15, 0.1, 0.1) == (0.1, 0.1)
        assert regular_phase(0.15, 0.1, 0.1, gamma_tau=0.1)[0] == EASY_LINF

    def test_statistical_curve_never_above_computational(self):
        # over the 21^3 exponent grid with gamma_u <= gamma_n, exactly: where gamma_u = gamma_n the two curves meet
        grid = [i / 20 for i in range(21)]
        bounds = {(gx, gu, gn): phase_boundaries(gx, gu, gn) for gx in grid for gu in grid for gn in grid if gu <= gn}
        assert len(bounds) == 21 * 21 * 22 // 2
        bad = {cell: (stat, comp) for cell, (stat, comp) in bounds.items() if stat > comp}
        assert not bad, bad


class TestExampleProfiles:
    def test_regular(self):
        xi = example_profiles("regular", {"K": 4, "a": 2.0, "p": 8})
        assert np.array_equal(xi.coords, [2, 2, 2, 2, 0, 0, 0, 0])

    def test_multiscale_blocks(self):
        xi = multiscale_profile(9, 2, 1.0, 60)
        sizes = [9, 36]
        assert xi.k_xi == sum(sizes)
        assert top_norm(xi, sum(sizes)) == pytest.approx(math.sqrt(2))
        assert np.allclose(np.unique(np.abs(xi.coords[: xi.k_xi]))[::-1], [1 / 3, 1 / 6])

    def test_multiscale_constraint(self):
        with pytest.raises(MultiscaleConstraint):
            multiscale_profile(9, 3, 1.0, 500)

    def test_subweibull_envelope(self):
        p = 10**5
        for seed in (0, 1, 2):
            xi = subweibull_profile(2.0, p, seed)
            top = abs(xi.coords[0])
            assert 0.5 * math.sqrt(math.log(p)) <= top <= 3.0 * math.sqrt(math.log(p))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            example_profiles("nope", {})
