import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from adaptest import scca
from adaptest.cli import SccaConfig, cmd_scca
from adaptest.cli import main as cli_main
from adaptest.errors import BudgetExceeded, NotPositiveDefinite, OddSampleSize
from adaptest.harness import parse_config
from adaptest.inference import mixed_test
from adaptest.model import stream
from oracles import single


class TestStatistics:
    def test_single_entry_matrix(self):
        r = np.zeros((3, 4))
        r[1, 2] = 1.0
        assert scca.scan_stat(r, 2) == pytest.approx(0.25)
        assert scca.entrywise_max(r) == 1.0
        assert scca.max_col(r, 2) == pytest.approx(0.5)

    def test_all_ones_global_sum(self):
        assert scca.global_sum(np.ones((2, 2))) == 1.0

    def test_scan_equals_entrywise_at_s1(self):
        rng = np.random.default_rng(0)
        r = rng.standard_normal((5, 7))
        assert scca.scan_stat(r, 1) == pytest.approx(scca.entrywise_max(r))

    def test_scan_budget(self):
        with pytest.raises(BudgetExceeded):
            scca.scan_stat(np.zeros((30, 30)), 10, comb_cap=1000)


class TestGeneration:
    def test_not_pd(self):
        for lam in (1.0, -1.0):
            with pytest.raises(NotPositiveDefinite):
                scca.gen_scca(scca.SccaParams(n=10, s=1, p1=2, p2=2, lam=lam), "alt", 0)

    def test_null_cross_covariance_envelope(self):
        params = scca.SccaParams(n=5000, s=2, p1=10, p2=40, lam=0.0)
        bad = 0
        for seed in range(20):
            inst = scca.gen_scca(params, "null", seed)
            r = inst.cross_covariance()
            if np.max(np.abs(r)) > 5 * math.sqrt(math.log(10 * 40) / 5000):
                bad += 1
        assert bad == 0

    def test_alt_on_support_mean(self):
        params = scca.SccaParams(n=40_000, s=2, p1=10, p2=40, lam=0.3)
        inst = scca.gen_scca(params, "alt", 3)
        r = inst.cross_covariance()
        sup1 = np.flatnonzero(inst.delta1)
        sup2 = np.flatnonzero(inst.delta2)
        on = float(r[np.ix_(sup1, sup2)].mean())
        se = 1.0 / math.sqrt(params.n * 4)
        assert abs(on - params.lam / params.s) <= 3 * se

    def test_scalar_correlation(self):
        params = scca.SccaParams(n=10_000, s=1, p1=1, p2=1, lam=0.3)
        inst = scca.gen_scca(params, "alt", 9)
        corr = float(np.corrcoef(inst.u1[:, 0], inst.u2[:, 0])[0, 1])
        assert abs(corr - 0.3) <= 3.0 / math.sqrt(params.n)

    def test_determinism(self):
        params = scca.SccaParams(n=100, s=2, p1=5, p2=6, lam=0.2)
        a = scca.gen_scca(params, "alt", 42)
        b = scca.gen_scca(params, "alt", 42)
        assert a.u1.tobytes() == b.u1.tobytes()
        assert a.u2.tobytes() == b.u2.tobytes()
        assert np.array_equal(a.delta1, b.delta1)


class TestThresholdsAndBoundaries:
    def test_boundary_arithmetic(self):
        b = scca.boundary_table(10**4, 4, 10, 100)
        assert b["scan"] == pytest.approx(math.sqrt(4 * math.log(100) / 10**4), rel=1e-12)
        assert b["scan"] == pytest.approx(0.042919, rel=1e-4)

    def test_boundary_ordering(self):
        for (n, s, p1, p2) in ((4000, 2, 10, 40), (10**4, 4, 20, 200), (10**5, 8, 50, 500)):
            b = scca.boundary_table(n, s, p1, p2)
            assert b["scan"] <= b["entrywise"] * (1 + 1e-12)
            assert b["scan"] <= b["max_col"] * (1 + 1e-12)
            assert b["entrywise"] / b["scan"] == pytest.approx(math.sqrt(s), rel=1e-12)
            assert b["max_col"] / b["scan"] == pytest.approx(math.sqrt(p1 / s), rel=1e-12)

    def test_threshold_uses_exact_scan_count(self):
        t = scca.thresholds(1000, 2, 6, 8, big_c=1.0)
        n_scan = math.comb(6, 2) * math.comb(8, 2)
        assert t["scan"] == pytest.approx(math.sqrt(math.log(n_scan) / (1000 * 4)), rel=1e-12)


class TestReduction:
    def test_tau_red_arithmetic(self):
        v = scca.reduction_tau(0.1, 1.0, 0.2, 5, 100)
        expect = 0.1 / (2 - 0.01 * 0.04) * 0.04 * 5 / 10
        assert v == pytest.approx(expect, abs=1e-12)
        assert v == pytest.approx(1.00020e-3, rel=1e-4)

    def test_odd_pair_count(self):
        params = scca.SccaParams(n=11, s=1, p1=2, p2=3, lam=0.0)
        inst = scca.gen_scca(params, "null", 0)
        with pytest.raises(OddSampleSize):
            scca.reduce_to_lt(inst, 1.0, 0.1, 0.0, 0)

    def test_null_moments(self):
        params = scca.SccaParams(n=20_000, s=2, p1=10, p2=40, lam=0.0)
        inst = scca.gen_scca(params, "null", 7)
        ds, problem, tau_red = scca.reduce_to_lt(inst, 1.0, 0.1, 0.0, 11)
        m = ds.n
        assert m == 10_000
        beta0 = np.zeros(50)
        beta0[0] = 0.0 - tau_red
        v1 = ds.y - ds.x @ beta0
        z = np.concatenate((v1[:, None], ds.x), axis=1)
        emp = z.T @ z / m
        assert np.max(np.abs(emp - np.eye(51))) <= 5.0 / math.sqrt(m)
        # third moments vanish for a centered Gaussian
        rng = np.random.default_rng(0)
        for _ in range(20):
            i, j, k = rng.integers(0, 51, size=3)
            third = float(np.mean(z[:, i] * z[:, j] * z[:, k]))
            assert abs(third) <= 6.0 / math.sqrt(m)
        # fourth moments: E z_i^2 z_j^2 = 1 + 2 delta_ij
        for _ in range(10):
            i, j = rng.integers(0, 51, size=2)
            fourth = float(np.mean(z[:, i] ** 2 * z[:, j] ** 2))
            assert abs(fourth - (3.0 if i == j else 1.0)) <= 30.0 / math.sqrt(m)

    def test_problem_fields(self):
        params = scca.SccaParams(n=200, s=3, p1=12, p2=20, lam=0.2)
        inst = scca.gen_scca(params, "alt", 1)
        ds, problem, tau_red = scca.reduce_to_lt(inst, 2.0, 0.3, 1.5, 4)
        assert problem.k_u == 12
        assert problem.xi.k_xi == 12
        assert problem.t0 == 1.5
        assert tau_red == pytest.approx(scca.reduction_tau(0.3, 2.0, 0.2, 3, 12))

    def test_determinism(self):
        params = scca.SccaParams(n=100, s=2, p1=5, p2=6, lam=0.1)
        inst = scca.gen_scca(params, "alt", 3)
        a, _, _ = scca.reduce_to_lt(inst, 1.0, 0.1, 0.0, 8)
        b, _, _ = scca.reduce_to_lt(inst, 1.0, 0.1, 0.0, 8)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_composed_with_mixed_test_reports_error(self):
        # hardness-transfer integration: the composed decision rule has a
        # well-defined total error at the pilot configuration (no pass/fail
        # claim on its value)
        params = scca.SccaParams(n=240, s=1, p1=6, p2=10, lam=0.25)
        errors = 0.0
        reps = 6
        for i in range(reps):
            for hyp, want_reject in (("null", False), ("alt", True)):
                inst = scca.gen_scca(params, hyp, 100 + i)
                ds, problem, _ = scca.reduce_to_lt(inst, 1.0, 0.2, 0.0, 200 + i)
                dec = mixed_test(ds, problem)
                scca_reject = not dec.reject  # decision inversion
                errors += float(scca_reject != want_reject)
        total_error = errors / reps
        assert 0.0 <= total_error <= 2.0
        assert np.isfinite(total_error)


class TestCalibration:
    def test_null_false_positive_rate(self):
        params = scca.SccaParams(n=2000, s=2, p1=8, p2=16, lam=0.0)
        thr = scca.calibrate_thresholds(params, 300, seed=0, level=0.05)
        fp = {k: 0 for k in scca.STATISTICS}
        reps = 300
        for i in range(reps):
            r = scca.gen_scca(params, "null", 10_000 + i).cross_covariance()
            rep = scca.stat_report(r, params.s, thr)
            for k in scca.STATISTICS:
                fp[k] += rep.decisions[k]
        for k, count in fp.items():
            rate = count / reps
            assert rate <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / reps)

    def test_sweeps_at_adjacent_master_seeds_share_no_draw(self, monkeypatch, tmp_path):
        sampler, drawn = scca.sample_cross_covariances, []

        def recorded(*args):
            stack = sampler(*args)
            drawn.extend(r.tobytes() for r in stack)
            return stack

        monkeypatch.setattr(scca, "sample_cross_covariances", recorded)
        cfg = tmp_path / "sweep.txt"
        cfg.write_text("mode = sweep\nn = 200\ns = 2\np1 = 4\np2 = 6\nlam_grid = 0.3\ncalib_reps = 30\nreps = 20\n")
        for seed in (1, 2):
            assert cli_main(["scca", "--config", str(cfg), "--seed", str(seed), "--out", str(tmp_path)]) == 0
        assert len(drawn) == 2 * (30 + 20)
        assert len(set(drawn)) == len(drawn)


def _scan_by_loop(r, s):
    """The row-set loop scan_stat replaces: one sort per row set."""
    best = -math.inf
    for rows in itertools.combinations(range(r.shape[0]), s):
        best = max(best, float(np.sort(r[list(rows)].sum(axis=0))[-s:].sum()))
    return best / (s * s)


def _scan_brute_force(r, s):
    """Max over every row set and column set of the s x s block mean."""
    p1, p2 = r.shape
    return max(
        float(r[np.ix_(rows, cols)].sum()) / (s * s)
        for rows in itertools.combinations(range(p1), s)
        for cols in itertools.combinations(range(p2), s)
    )


class TestSharedCrossCovariance:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_scan_matches_brute_force(self, s):
        rng = np.random.default_rng(s)
        for _ in range(4):
            r = rng.standard_normal((6, 7))
            got = scca.scan_stat(r, s)
            assert got == _scan_by_loop(r, s)
            assert got == pytest.approx(_scan_brute_force(r, s), rel=1e-12, abs=1e-15)

    def test_scan_budget_counts_row_sets_times_columns(self):
        # C(10, 5) * 200 = 50,400 column sums; C(10, 5) * C(200, 5) = 6.4e11 supports
        r = np.random.default_rng(11).standard_normal((10, 200))
        assert scca.scan_stat(r, 5) == _scan_by_loop(r, 5)
        with pytest.raises(BudgetExceeded):
            scca.scan_stat(r, 5, comb_cap=math.comb(10, 5) * 200 - 1)

    @pytest.mark.parametrize("s", [2, 9])
    def test_scan_blocks_match_one_block(self, s, monkeypatch):
        r = np.random.default_rng(7).standard_normal((11, 12))
        whole = scca.scan_stat(r, s)
        monkeypatch.setattr(scca, "_SCAN_BLOCK", 5 * r.shape[1])  # row sets in blocks of 5
        assert scca.scan_stat(r, s) == whole == _scan_by_loop(r, s)

    @pytest.mark.parametrize("hypothesis", ["null", "alt"])
    def test_stat_values_equal_public_statistics(self, hypothesis):
        params = scca.SccaParams(n=300, s=2, p1=6, p2=9, lam=0.4)
        for seed in range(5):
            r = scca.gen_scca(params, hypothesis, seed).cross_covariance()
            values = scca.stat_values(r, params.s)
            assert values == {
                "scan": scca.scan_stat(r, params.s),
                "entrywise": scca.entrywise_max(r),
                "max_col": scca.max_col(r, params.s),
                "max_row": scca.max_row(r, params.s),
                "global_sum": scca.global_sum(r),
            }

    def test_null_instance_is_the_raw_stream(self):
        params = scca.SccaParams(n=50, s=2, p1=4, p2=7, lam=0.3)
        inst = scca.gen_scca(params, "null", 13)
        z = stream(13, 0).standard_normal((params.n, params.p1 + params.p2))
        assert inst.u1.tobytes() == z[:, :4].tobytes()
        assert inst.u2.tobytes() == z[:, 4:].tobytes()
        assert inst.delta1 is None and inst.delta2 is None


def _gen_scca_normals(params, hypothesis, seed):
    """The n x (p1 + p2) standard normals gen_scca multiplies by its joint factor."""
    rng = stream(seed, 0)
    if hypothesis == "alt":
        rng.bit_generator.random_raw(2 * params.s)  # the planted supports' words
    return rng.standard_normal((params.n, params.p1 + params.p2))


@st.composite
def small_params(draw):
    p1, p2 = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    return scca.SccaParams(
        n=draw(st.integers(1, 60)),
        s=draw(st.integers(1, min(p1, p2))),
        p1=p1,
        p2=p2,
        lam=draw(st.floats(0.0, 0.99)),
    )


def _max_rel_diff(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestStackedScoring:
    @settings(max_examples=120, deadline=None)
    @given(
        small_params(),
        st.sampled_from(["null", "alt"]),
        st.integers(0, 2**32),
        st.sampled_from([0, scca.NULL_STREAMS, scca.ALT_STREAMS]),
        st.integers(2, 3).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, 3), st.integers(1, k - 1))),
    )
    def test_stacked_scoring_equals_the_per_draw_loop(self, params, hypothesis, seed, first, stacks):
        # stacks of at most k draws (fewer where p1 exceeds p2),
        # the last one partly full; each stack's row sets in blocks of p1 or more
        # (split wherever C(p1, s) exceeds the block), against each draw scored alone
        k, full, rest = stacks
        reps = k * full + rest
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scca, "_SCAN_BLOCK", k * params.p1 * params.p2)
            got = scca.stat_samples(params, hypothesis, seed, first, reps)
        for i in range(reps):
            r = single(scca.sample_cross_covariances(params, hypothesis, seed, [first + i]))
            want = {
                "scan": _scan_by_loop(r, params.s),
                "entrywise": float(r.max()),
                "max_col": float(r.sum(axis=0).max()) / params.s,
                "max_row": float(r.sum(axis=1).max()) / params.s,
                "global_sum": float(r.sum()) / r.size,
            }
            assert {key: got[key][i] for key in scca.STATISTICS} == want


def _one_draw_oracle(params, hypothesis, seed, index):
    """R_hat by the one-draw arithmetic, written out: planted vectors, Bartlett factor, normals, the rank-one
    root M = I - c d2 d2' of I - C'C, products."""
    n, p1, p2 = params.n, params.p1, params.p2
    if n <= p1:
        return scca.gen_scca(params, hypothesis, seed, index).cross_covariance()
    rng = stream(seed, index)
    d1 = d2 = None
    if hypothesis == "alt":
        d1, d2 = (d[0] for d in scca._planted(params, rng.bit_generator.random_raw((1, 2 * params.s))))
    a = np.diag(np.sqrt(rng.chisquare(n - np.arange(p1))))
    a[np.tri(p1, k=-1, dtype=bool)] = rng.standard_normal(p1 * (p1 - 1) // 2)
    g = rng.standard_normal((p1, p2))
    if d1 is None:
        return a @ g / n
    lam2_d1 = params.lam**2 * (d1 * d1).sum()
    c = lam2_d1 / (1.0 + math.sqrt(1.0 - lam2_d1 * (d2 * d2).sum()))
    u2 = g + (params.lam * (a.T @ d1[:, None]) - c * (g @ d2[:, None])) * d2  # A'C + G M at U1 = A'
    return a @ u2 / n


class TestStackedDraws:
    @settings(max_examples=150, deadline=None)
    @given(
        small_params(),
        st.sampled_from(["null", "alt"]),
        st.integers(0, 2**32),
        st.sampled_from([0, scca.NULL_STREAMS, scca.ALT_STREAMS]),
        st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, 2), st.integers(0, k - 1))),
    )
    @pytest.mark.parametrize("rows", ["n > p1", "n <= p1"])
    def test_stacked_draws_equal_one_at_a_time_draws(self, rows, params, hypothesis, seed, first, stacks):
        # stacks of k draws (k = 1 included), the last one full or part full, each matrix against the
        # stack of one and the one-draw oracle, bit for bit
        p1, p2 = params.p1, params.p2
        params = dataclasses.replace(params, n=params.n + p1 if rows == "n > p1" else params.n % p1 + 1)
        k, full, rest = stacks
        reps, width = k * full + rest, max(p1 * p1, p1 * p2)
        sampler, stacked = scca.sample_cross_covariances, []

        def recorded(*args):
            stacked.append(sampler(*args))
            return stacked[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scca, "_SCAN_BLOCK", k * width)
            mp.setattr(scca, "sample_cross_covariances", recorded)
            scca.stat_samples(params, hypothesis, seed, first, reps)
        assert [len(stack) for stack in stacked] == [k] * full + [rest] * (rest > 0)
        drawn = [r for stack in stacked for r in stack]
        for i, r in enumerate(drawn):
            assert r.shape == (p1, p2)
            assert r.tobytes() == single(scca.sample_cross_covariances(params, hypothesis, seed, [first + i])).tobytes()
            assert r.tobytes() == _one_draw_oracle(params, hypothesis, seed, first + i).tobytes()

    @pytest.mark.parametrize("hypothesis", ["null", "alt"])
    def test_every_stacked_array_stays_within_the_block(self, hypothesis, monkeypatch):
        # under either hypothesis the p1 x p2 matrices bound the stack: 65,536 // 400 = 163 draws
        params = scca.SccaParams(n=4000, s=2, p1=10, p2=40, lam=0.1)
        sampler, sizes = scca.sample_cross_covariances, []

        def recorded(*args):
            sizes.append(len(args[3]))
            return sampler(*args)

        monkeypatch.setattr(scca, "sample_cross_covariances", recorded)
        scca.stat_samples(params, hypothesis, 3, scca.ALT_STREAMS, 170)
        assert sizes == [163, 7]


# scca outputs at master_seed = 7: the sweep at the bench's lower_bound instance, stats under the
# alternative at n > p1 and under the null at n <= p1, and the row-drawing modes.
GOLDEN_SCCA_CASES = {
    "sweep": "mode = sweep\nn = 4000\ns = 2\np1 = 10\np2 = 40\ncalib_reps = 400\nreps = 200\nlam_grid = 0.1\n",
    "stats_alt": "mode = stats\nn = 300\ns = 2\np1 = 6\np2 = 9\nlam = 0.4\nhypothesis = alt\n",
    "stats_null_few_rows": "mode = stats\nn = 5\ns = 2\np1 = 6\np2 = 9\n",
    "generate": "mode = generate\nn = 40\ns = 2\np1 = 6\np2 = 9\nlam = 0.4\nhypothesis = alt\n",
    "reduce": "mode = reduce\nn = 40\ns = 2\np1 = 6\np2 = 9\nlam = 0.4\nhypothesis = alt\n",
}
GOLDEN_SCCA_SHA256 = {
    "sweep": "84b04b34d39579471c1591de48428f988ac2f7ae276cb9ab4498eb1e12ceb58b",
    "stats_alt": "a330f22ef5162932e9baedf89f506a149aef5bc273fb30d4fcc0089582ada10e",
    "stats_null_few_rows": "d55e733638151783b481adc28bafa12ed3aa9245ea55a7acdd6cd1e4d60b420b",
    "generate": "b70eded23b716765a045bd9bee95bff59fae23c990170ac10dd0f178922fbba6",
    "reduce": "a3ea819bb79aff931faa254dced4c4ec8da782e956899564956d3094fc1a1157",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SCCA_SHA256))
def test_golden_scca_tables(case):
    # Pinned with numpy 2.4 on OpenBLAS: every table, in suffix order, of one scca run
    cfg = parse_config(GOLDEN_SCCA_CASES[case] + "master_seed = 7\n", SccaConfig)
    _, _, tables = cmd_scca(cfg)
    text = "".join(tables[k] for k in sorted(tables))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SCCA_SHA256[case]


class TestExactLawSampler:
    @settings(max_examples=150, deadline=None)
    @given(small_params(), st.sampled_from(["null", "alt"]), st.integers(0, 2**32))
    def test_factor_formula_is_gen_scca_algebra(self, params, hypothesis, seed):
        # A = U1' and G = E from gen_scca's own normals reproduce its R_hat
        inst = scca.gen_scca(params, hypothesis, seed)
        z = _gen_scca_normals(params, hypothesis, seed)
        got = scca._cross_from_factor(params, z[:, : params.p1].T, z[:, params.p1 :], inst.delta1, inst.delta2)
        assert got.shape == (params.p1, params.p2)
        assert _max_rel_diff(got, inst.cross_covariance()) <= 1e-12

    @pytest.mark.parametrize("hypothesis", ["null", "alt"])
    def test_statistics_have_gen_scca_law(self, hypothesis):
        # small n, where a wrong chi-square degree of freedom or a missing
        # B factor moves these laws well beyond the KS noise at 2,000 draws
        params = scca.SccaParams(n=12, s=2, p1=4, p2=6, lam=0.8)
        draws = 2000
        ours = [
            scca.stat_values(single(scca.sample_cross_covariances(params, hypothesis, i, [0])), 2) for i in range(draws)
        ]
        rows = [
            scca.stat_values(scca.gen_scca(params, hypothesis, 50_000 + i).cross_covariance(), 2) for i in range(draws)
        ]
        for k in scca.STATISTICS:
            pvalue = ks_2samp([v[k] for v in ours], [v[k] for v in rows]).pvalue
            assert pvalue >= 0.01, (k, pvalue)

    @settings(max_examples=150, deadline=None)
    @given(small_params(), st.lists(st.integers(0, 2**64 - 1), min_size=14, max_size=14))
    def test_second_block_is_a_symmetric_root(self, params, words):
        # at U1 = [I; 0] and E = [0; I] the second block is [C; M]: the cross block C = lam d1 d2' and a symmetric
        # M with M M = I - C'C, so (U1, U2) has covariance [[I, C], [C', I]]
        p1, p2 = params.p1, params.p2
        d1, d2 = (d[0] for d in scca._planted(params, np.array([words[: 2 * params.s]], dtype=np.uint64)))
        block = scca._second_block(params, np.eye(p1 + p2, p1), np.eye(p1 + p2, p2, -p1), d1, d2)
        c, m = block[:p1], block[p1:]
        assert np.array_equal(c, np.outer(params.lam * d1, d2))
        assert np.array_equal(m, m.T)
        assert np.abs(m @ m - (np.eye(p2) - c.T @ c)).max() <= 1e-12

    def test_entries_have_the_alternative_moments(self, monkeypatch):
        # under the alternative R_ab has mean C_ab and variance (1 + C_ab^2) / n for C = lam d1 d2', at any n;
        # standardized, each draw's mean entry averages 0 and its mean square 1, within 4 se over the draws
        params = scca.SccaParams(n=50, s=2, p1=4, p2=6, lam=0.8)
        planted_by, planted = scca._planted, []  # the stack's (d1, d2), recorded as the sampler decodes them
        monkeypatch.setattr(scca, "_planted", lambda *args: planted.append(planted_by(*args)) or planted[-1])
        stacked = scca.sample_cross_covariances(params, "alt", 2026, range(20_000))
        monkeypatch.undo()
        insts = [scca.gen_scca(params, "alt", 2027, i) for i in range(3000)]
        rows = (
            np.array([inst.cross_covariance() for inst in insts]),
            np.array([inst.delta1 for inst in insts]),
            np.array([inst.delta2 for inst in insts]),
        )
        for r, d1, d2 in ((stacked, *planted[0]), rows):
            c = params.lam * d1[:, :, None] * d2[:, None, :]
            z = (r - c) / np.sqrt((1.0 + c * c) / params.n)
            for moment, want in ((z.mean(axis=(1, 2)), 0.0), ((z * z).mean(axis=(1, 2)), 1.0)):
                assert abs(moment.mean() - want) <= 4 * moment.std(ddof=1) / math.sqrt(len(moment))

    @settings(max_examples=100, deadline=None)
    @given(
        small_params().filter(lambda params: params.n <= params.p1),
        st.sampled_from(["null", "alt"]),
        st.integers(0, 2**32),
        st.sampled_from([0, scca.NULL_STREAMS, scca.ALT_STREAMS]),
        st.integers(0, 999),
    )
    def test_few_rows_are_gen_scca_cross_covariance(self, params, hypothesis, seed, base, i):
        # n <= p1 has no Bartlett factor: the sampler returns gen_scca's own R_hat, bit for bit
        index = base + i if base else 0
        want = scca.gen_scca(params, hypothesis, seed, index).cross_covariance()
        assert np.array_equal(single(scca.sample_cross_covariances(params, hypothesis, seed, [index])), want)

    @pytest.mark.parametrize("hypothesis", ["null", "alt"])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_few_rows_take_the_raw_rows(self, hypothesis, n):
        # n <= p1 has no Bartlett factor: the sampler draws gen_scca's rows
        params = scca.SccaParams(n=n, s=2, p1=5, p2=7, lam=0.6)
        for seed in range(5):
            want = scca.gen_scca(params, hypothesis, seed).cross_covariance()
            assert _max_rel_diff(single(scca.sample_cross_covariances(params, hypothesis, seed, [0])), want) <= 1e-12

    @pytest.mark.parametrize("hypothesis", ["null", "alt"])
    def test_deterministic_per_seed(self, hypothesis):
        params = scca.SccaParams(n=300, s=2, p1=6, p2=9, lam=0.4)
        a = single(scca.sample_cross_covariances(params, hypothesis, 21, [0]))
        assert a.tobytes() == single(scca.sample_cross_covariances(params, hypothesis, 21, [0])).tobytes()
        assert a.tobytes() != single(scca.sample_cross_covariances(params, hypothesis, 22, [0])).tobytes()

    def test_plants_gen_scca_support(self, monkeypatch):
        params = scca.SccaParams(n=300, s=3, p1=8, p2=12, lam=0.4)
        support, planted = scca._planted, []

        def recorded(params, words):
            stacks = support(params, words)
            planted.extend(d[0] for d in stacks)
            return stacks

        monkeypatch.setattr(scca, "_planted", recorded)
        for seed in range(5):
            planted.clear()
            single(scca.sample_cross_covariances(params, "alt", seed, [0]))
            inst = scca.gen_scca(params, "alt", seed)
            assert len(planted) == 4
            assert np.array_equal(planted[0], inst.delta1) and np.array_equal(planted[1], inst.delta2)
            assert np.array_equal(planted[0], planted[2]) and np.array_equal(planted[1], planted[3])

    def test_same_checks_as_gen_scca(self):
        with pytest.raises(NotPositiveDefinite):
            single(scca.sample_cross_covariances(scca.SccaParams(n=10, s=1, p1=2, p2=2, lam=1.0), "alt", 0, [0]))
        with pytest.raises(ValueError):
            single(scca.sample_cross_covariances(scca.SccaParams(n=10, s=1, p1=2, p2=2, lam=0.1), "planted", 0, [0]))
