import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adaptest.errors import AllZeroLoading, CholeskyFailure, NotPositiveDefinite
from adaptest import model
from adaptest.estimators import CoordinateDataset
from adaptest.scca import ALT_STREAMS, NULL_STREAMS
from oracles import h_inv, h_map
from adaptest.model import (
    Dataset,
    ModelParams,
    dataset_from_csv,
    dataset_to_csv,
    generate_dataset,
    make_loading,
    stream,
    streams,
    uniform_subsets,
)


def random_theta(rng, p, m1=10.0, m2=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eigs = rng.uniform(1.0 / m1, m1, size=p)
    sigma = (q * eigs) @ q.T
    sigma = (sigma + sigma.T) / 2
    beta = np.zeros(p)
    k = rng.integers(1, p + 1)
    beta[rng.choice(p, size=k, replace=False)] = rng.standard_normal(k)
    return ModelParams(beta=beta, sigma_cov=(np.arange(p), sigma), noise_sd=float(rng.uniform(0.1, m2)))


# every finite float, with the edge values drawn often: signed zeros, the
# smallest subnormal, a mid subnormal and the largest finite value
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.7976931348623157e308])
FINITE_FLOAT = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))

# table cells of every type a CSV table is given, the float edge values among them
CSV_FLOATS = st.one_of(EDGE_FLOATS, st.sampled_from([math.nan, math.inf, -math.inf, 1e16, 1e-5]), st.floats())
CSV_CELLS = st.one_of(
    CSV_FLOATS,
    st.integers(),
    st.booleans(),
    st.text(),
    st.none(),
    CSV_FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.tuples(CSV_FLOATS, st.integers()),
    arrays(np.float64, st.integers(0, 3), elements=CSV_FLOATS),
    st.dictionaries(st.text(), CSV_FLOATS, max_size=3),
)


@st.composite
def datasets(draw):
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    x = draw(arrays(np.float64, (n, p), elements=FINITE_FLOAT))
    return Dataset(x=x, y=draw(arrays(np.float64, n, elements=FINITE_FLOAT)))


def assert_same_values(a: np.ndarray, b: np.ndarray):
    # equal as values, and the sign of every zero kept
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestMakeLoading:
    def test_sorting_by_magnitude(self):
        lv = make_loading([0.2, -3.0, 1.0])
        assert np.array_equal(lv.coords, [-3.0, 1.0, 0.2])
        assert np.array_equal(lv.perm, [1, 2, 0])
        assert lv.k_xi == 3

    def test_already_sorted(self):
        lv = make_loading([1.0, 0.0, 0.0])
        assert np.array_equal(lv.coords, [1.0, 0.0, 0.0])
        assert lv.k_xi == 1

    def test_stable_ties(self):
        lv = make_loading([1.0, -1.0, 1.0])
        assert np.array_equal(lv.coords, [1.0, -1.0, 1.0])
        assert np.array_equal(lv.perm, [0, 1, 2])
        assert lv.k_xi == 3

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroLoading):
            make_loading(np.zeros(5))

    def test_original_and_split_partition(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal(12)
        lv = make_loading(raw)
        assert np.array_equal(lv.original(), raw)
        for m in (0, 3, 12):
            head, tail = lv.split(m)
            assert np.array_equal(head + tail, raw)
            assert np.count_nonzero(head) <= m


class TestHMap:
    def test_hand_example_p1(self):
        theta = h_map(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert theta.beta == pytest.approx([1.0])
        idx, block = theta.sigma_cov
        assert np.array_equal(idx, [0]) and block[0, 0] == pytest.approx(1.0)
        assert theta.noise_sd == pytest.approx(1.0)

    def test_block_diagonal(self):
        p, s = 4, 0.7
        sz = np.diag(np.concatenate(([s**2], np.ones(p))))
        theta = h_map(sz)
        assert np.allclose(theta.beta, 0.0)
        assert np.array_equal(theta.sigma_cov[0], np.arange(p)) and np.allclose(theta.sigma_cov[1], np.eye(p))
        assert theta.noise_sd == pytest.approx(s)

    def test_h_inv_hand_example(self):
        theta = ModelParams(beta=np.array([1.0]), sigma_cov=(np.array([0]), np.array([[1.0]])), noise_sd=1.0)
        assert np.allclose(h_inv(theta), [[2.0, 1.0], [1.0, 1.0]])

    def test_h_inv_of_an_unstored_identity(self):
        beta = np.array([0.5, 0.0, -2.0])
        explicit = h_inv(ModelParams(beta=beta, sigma_cov=(np.arange(3), np.eye(3)), noise_sd=0.7))
        assert np.array_equal(h_inv(ModelParams(beta=beta, sigma_cov=None, noise_sd=0.7)), explicit)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            theta = random_theta(rng, int(rng.integers(1, 8)))
            back = h_map(h_inv(theta))
            assert np.max(np.abs(back.beta - theta.beta)) < 1e-12
            assert np.array_equal(back.sigma_cov[0], theta.sigma_cov[0])
            assert np.max(np.abs(back.sigma_cov[1] - theta.sigma_cov[1])) < 1e-12
            assert abs(back.noise_sd - theta.noise_sd) < 1e-12

    def test_bad_schur_raises(self):
        sz = np.array([[0.5, 1.0], [1.0, 1.0]])  # Schur = 0.5 - 1 < 0
        with pytest.raises(NotPositiveDefinite):
            h_map(sz)


class TestDesignFactor:
    def test_unstored_identity_has_an_empty_block(self):
        theta = ModelParams(beta=np.ones(4), sigma_cov=None, noise_sd=1.0)
        idx, low = theta.design_factor
        assert idx.size == 0 and low.shape == (0, 0)
        assert np.array_equal(generate_dataset(theta, 20, seed=3).x, stream(3, 0).standard_normal((20, 4)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 2**32))
    def test_block_factor_is_the_dense_factor(self, p, seed):
        # Sigma = I outside S x S: its Cholesky factor is I outside S x S and chol(Sigma_SS) inside
        rng = stream(seed, 0)
        idx = np.sort(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False))
        a = rng.standard_normal((idx.size, idx.size))
        sigma = np.eye(p)
        sigma[np.ix_(idx, idx)] = np.eye(idx.size) + a @ a.T
        block = ModelParams(beta=np.zeros(p), sigma_cov=(idx, sigma[np.ix_(idx, idx)]), noise_sd=1.0)
        assert np.array_equal(block.design_factor[0], idx)
        embedded = np.eye(p)
        embedded[np.ix_(idx, idx)] = block.design_factor[1]
        assert np.allclose(embedded, np.linalg.cholesky(sigma), rtol=0.0, atol=1e-12)
        assert np.allclose(generate_dataset(block, 7, seed).x, stream(seed, 0).standard_normal((7, p)) @ embedded.T,
                           rtol=0.0, atol=1e-12)
        assert np.array_equal(h_inv(block)[1:, 1:], sigma)


class TestGenerateDataset:
    def test_determinism(self):
        theta = ModelParams(beta=np.zeros(6), sigma_cov=None, noise_sd=1.0)
        a = generate_dataset(theta, 50, seed=123)
        b = generate_dataset(theta, 50, seed=123)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_noiseless_limit(self):
        rng = np.random.default_rng(1)
        beta = rng.standard_normal(5)
        theta = ModelParams(beta=beta, sigma_cov=None, noise_sd=1e-12)
        ds = generate_dataset(theta, 200, seed=9)
        assert np.max(np.abs(ds.y - ds.x @ beta)) <= 1e-10

    def test_sample_cov_envelope(self):
        p, n = 20, 5000
        theta = ModelParams(beta=np.zeros(p), sigma_cov=None, noise_sd=1.0)
        ds = generate_dataset(theta, n, seed=2)
        emp = ds.x.T @ ds.x / n
        assert np.max(np.abs(emp - np.eye(p))) <= 5.0 / math.sqrt(n)

    def test_operator_norm_envelope(self):
        # moderate spectrum: the factor-10 envelope absorbs lambda_max here
        p, n = 20, 10_000
        rng = np.random.default_rng(3)
        theta = random_theta(rng, p, m1=3.0)
        ds = generate_dataset(theta, n, seed=4)
        emp = ds.x.T @ ds.x / n
        assert np.linalg.norm(emp - theta.sigma_cov[1], 2) <= 10.0 * math.sqrt(p / n)

    def test_cholesky_failure(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        theta = ModelParams(beta=np.zeros(2), sigma_cov=(np.arange(2), bad), noise_sd=1.0)
        with pytest.raises(CholeskyFailure):
            generate_dataset(theta, 5, seed=0)

    def test_stream_key_is_scheduling_independent(self):
        a = stream(11, 3).standard_normal(8)
        b = stream(11, 3).standard_normal(8)
        c = stream(11, 4).standard_normal(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSerialization:
    def test_dataset_csv_round_trip(self):
        theta = ModelParams(beta=np.ones(3) / 3, sigma_cov=None, noise_sd=0.5)
        ds = generate_dataset(theta, 17, seed=5)
        buf = io.StringIO()
        dataset_to_csv(ds, buf)
        buf.seek(0)
        back = dataset_from_csv(buf)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.y, ds.y)

    @given(ds=datasets())
    @settings(max_examples=200, deadline=None)
    def test_dataset_csv_round_trip_any_finite_float(self, ds):
        buf = io.StringIO()
        dataset_to_csv(ds, buf)
        buf.seek(0)
        back = dataset_from_csv(buf)
        assert_same_values(back.x, ds.x)
        assert_same_values(back.y, ds.y)

    @given(st.lists(st.lists(CSV_CELLS, max_size=6), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_csv_text_is_the_csv_cell_join(self, rows):
        # csv_text writes a float, int or str cell by str(), without csv_cell's dispatch: the same text
        want = "".join(["h\n"] + [",".join(map(model.csv_cell, row)) + "\n" for row in rows])
        assert model.csv_text("h", rows) == want


class TestProblemInvariants:
    def test_budget_window(self):
        xi = make_loading([1.0, 0.0])
        with pytest.raises(ValueError):
            model.TestProblem(xi=xi, t0=0.0, k_u=1, alpha=0.6, eta=0.5)
        with pytest.raises(ValueError):
            model.TestProblem(xi=xi, t0=0.0, k_u=0, alpha=0.05, eta=0.05)

    def test_dataset_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((3, 2)), y=np.zeros(4))


MASK64 = (1 << 64) - 1


def philox_reference(seed: int, index: int) -> np.random.Generator:
    # the key as an explicit uint64 array: a plain list with one word at or above 2^63 and one
    # below goes through float64 in numpy (Philox(key=[2**64 - 5, 0]) gets the key [0, 0])
    return np.random.Generator(np.random.Philox(key=np.array([seed & MASK64, index & MASK64], dtype=np.uint64)))


def stream_bits(rng: np.random.Generator) -> list:
    """What a draw reads from a generator: raw words, normals, gammas, a choice without replacement,
    chi-squares with an array of degrees of freedom, and the state left behind."""
    out = [
        rng.bit_generator.random_raw(5).tobytes(),
        rng.standard_normal(37).tobytes(),
        rng.standard_gamma(2.5, 11).tobytes(),
        rng.choice(200, size=7, replace=False).tobytes(),
        rng.chisquare(4000.0 - np.arange(10)).tobytes(),
        rng.standard_normal((3, 5)).tobytes(),
    ]
    return out + [repr(rng.bit_generator.state)]


class TestStream:
    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.integers(-(2**70), -1), st.just(2**64 - 1), st.integers(0, 2**64 - 1)),
        st.one_of(
            st.integers(0, 10**6).map(lambda i: NULL_STREAMS + i),
            st.integers(0, 10**6).map(lambda i: ALT_STREAMS + i),
            st.integers(0, 2**64 - 1),
            st.just(2**64 - 1),
        ),
    )
    def test_stream_is_philox_under_the_masked_key(self, seed, index):
        assert repr(stream(seed, index).bit_generator.state) == repr(philox_reference(seed, index).bit_generator.state)
        assert stream_bits(stream(seed, index)) == stream_bits(philox_reference(seed, index))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(-(2**70), 2**70), st.just(2**64 - 1)), min_size=1, max_size=5),
        st.integers(0, 2**64 - 1),
        st.lists(st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 10**6).map(lambda i: ALT_STREAMS + i)), min_size=5),
    )
    def test_streams_give_each_seed_its_stream(self, seeds, index, indices):
        # each generator streams yields has, from the state on, the bits of a fresh stream(seed, index),
        # whatever the one before it read; a key (seed, i) gets stream(seed, i), whatever index says
        for seed, rng in zip(seeds, streams(seeds, index)):
            assert repr(rng.bit_generator.state) == repr(stream(seed, index).bit_generator.state)
            assert stream_bits(rng) == stream_bits(stream(seed, index))
        keys = list(zip(seeds, indices))
        for (seed, i), rng in zip(keys, streams(keys, index)):
            assert repr(rng.bit_generator.state) == repr(stream(seed, i).bit_generator.state)
            assert stream_bits(rng) == stream_bits(stream(seed, i))

    def test_negative_seeds_have_their_own_keys(self):
        # -1 and -5 are the keys 2^64 - 1 and 2^64 - 5, not the key of seed 0
        draws = {s: stream(s, 0).standard_normal(4).tobytes() for s in (0, -1, -5, 2**64 - 5)}
        assert draws[-5] == draws[2**64 - 5]
        assert len({draws[0], draws[-1], draws[-5]}) == 3

    def test_fork_continues_the_same_bits_and_leaves_the_original(self):
        theta = ModelParams(beta=np.array([1.0, 0.0, -0.5, 0.0]), sigma_cov=None, noise_sd=1.0)
        data = CoordinateDataset(theta, 30, seed=9)
        before = repr(data.source.rng.bit_generator.state)
        fork = data.fork()
        assert fork.source.rng is not data.source.rng
        assert repr(fork.source.rng.bit_generator.state) == before
        ahead = stream_bits(fork.source.rng)
        assert repr(data.source.rng.bit_generator.state) == before
        assert stream_bits(data.source.rng) == ahead


def subset_words(ranks, n: int) -> list[int]:
    """The least 64-bit words whose multiply-shift ranks against n, n - 1, ... are ranks."""
    return [-(-r * 2**64 // (n - i)) for i, r in enumerate(ranks)]


def ranks_of(picks) -> list[int]:
    """Pick i's rank: how many indices below it were not picked before it."""
    return [p - sum(q < p for q in picks[:i]) for i, p in enumerate(picks)]


words64 = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 1, 2**63, 2**64 - 1]))


class TestUniformSubsets:
    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 8) for k in range(1, min(n, 3) + 1)])
    def test_rank_tuples_give_each_ordered_tuple_once(self, n, k):
        ranks = list(itertools.product(*(range(n - i) for i in range(k))))
        words = np.array([subset_words(r, n) for r in ranks], dtype=np.uint64)
        picks = [tuple(row) for row in uniform_subsets(words, n).tolist()]
        assert sorted(picks) == sorted(itertools.permutations(range(n), k))
        assert [tuple(ranks_of(p)) for p in picks] == ranks

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.integers(1, 50), st.integers(1, 2**32 - 1), st.just(2**32 - 1)),
        st.lists(st.lists(words64, min_size=6, max_size=6), min_size=1, max_size=4),
        st.integers(1, 6),
    )
    def test_ranks_are_the_high_words_of_python_products(self, n, rows, k):
        k = min(k, n)
        words = np.array([row[:k] for row in rows], dtype=np.uint64)
        for row, picks in zip(words.tolist(), uniform_subsets(words, n).tolist()):
            assert len(set(picks)) == k and all(0 <= p < n for p in picks)
            assert ranks_of(picks) == [(w * (n - i)) >> 64 for i, w in enumerate(row)]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 1000), st.lists(st.lists(words64, min_size=3, max_size=3), min_size=1, max_size=9))
    def test_stacked_row_equals_a_stack_of_one(self, n, rows):
        words = np.array(rows, dtype=np.uint64)
        stacked = uniform_subsets(words, n)
        for j in range(len(rows)):
            assert uniform_subsets(words[j : j + 1], n).tobytes() == stacked[j : j + 1].tobytes()

    @pytest.mark.parametrize("n, k", [(2**32, 1), (2**40, 2), (2, 3)])
    def test_refuses_words_it_cannot_rank_exactly(self, n, k):
        with pytest.raises(ValueError):
            uniform_subsets(np.zeros((1, k), dtype=np.uint64), n)
