"""Core data model: loading vectors, model points and datasets (each its own lazily formed Gram).

The observation model is Y = X beta + eps with Gaussian rows
X_i ~ N(0, Sigma) and eps ~ N(0, sigma^2 I).  A model point is
theta = (beta, Sigma, sigma); the parameter space bounds the spectrum of
Sigma to [1/M1, M1] and the noise level to (0, M2].
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroLoading, CholeskyFailure

_MASK64 = (1 << 64) - 1

M1 = 10.0  # eigenvalues of Sigma lie in [1/M1, M1]
M2 = 10.0  # the noise level lies in (0, M2]


def stream(master_seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based generator for logical stream (master_seed, index): Philox at counter 0 under
    the key (master_seed mod 2^64, index mod 2^64).

    Parallel schedulers may hand replicates to workers in any order; the
    stream key alone fixes the bits each replicate consumes.  The key is
    handed to Philox as its seed sequence's state, so no OS entropy is read
    and no SeedSequence hashed (Philox(key=...) pays for both, and folds a
    key with one word at or above 2^63 and one below through float64).
    """
    key = np.array([int(master_seed) & _MASK64, int(index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key()(key)))


def streams(keys, index: int = 0):
    """stream(seed, index) for each seed of keys, or stream(seed, i) for each key (seed, i), at under half its
    cost: one generator whose Philox is reset to each key at counter 0, so a caller is done with each first."""
    bits = np.random.Philox(_philox_key()(np.zeros(2, dtype=np.uint64)))
    rng, state = np.random.Generator(bits), bits.state
    for key in keys:
        seed, i = key if isinstance(key, tuple) else (key, index)
        state["state"]["key"] = np.array([int(seed) & _MASK64, int(i) & _MASK64], dtype=np.uint64)
        bits.state = state
        yield rng


def uniform_subsets(words: np.ndarray, n: int) -> np.ndarray:
    """Row j: k distinct indices in 0..n-1 from words[j], k raw 64-bit words (k = words.shape[1] <= n < 2^32).
    Pick i is the r_i-th smallest index not yet picked, r_i = floor(w_i (n - i) / 2^64) the multiply-shift rank
    (Lemire, ACM TOMACS 2019) formed exactly from 32-bit halves: a bijection from rank tuples onto ordered
    k-tuples.  For uniform words each r_i is uniform on 0..n-i-1 to within a relative n/2^64, so every k-subset
    is equally likely to within a factor (1 +- n/2^64)^k.  A row's picks depend on its own words alone."""
    k, half = words.shape[1], np.uint64(32)
    if not k <= n < 1 << 32:
        raise ValueError(f"need k = {k} <= n = {n} < 2^32")
    m = np.arange(n, n - k, -1, dtype=np.uint64)
    picks = (((words >> half) * m + ((words & np.uint64(_MASK64 >> 32)) * m >> half)) >> half).astype(np.intp)
    for i in range(k - 2, -1, -1):  # picks i + 1.. rank what pick i leaves: each at or past it moves up one
        picks[:, i + 1 :] += picks[:, i + 1 :] >= picks[:, i : i + 1]
    return picks


@functools.cache
def _philox_key():
    """The ISeedSequence whose state is a given Philox key, defined on first use so that importing
    this module leaves numpy.random unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return PhiloxKey


def sign(x):
    """Sign with the convention sign(0) = +1."""
    return np.where(np.asarray(x, dtype=float) < 0.0, -1.0, 1.0)


@dataclass(frozen=True)
class LoadingVector:
    """Loading of the linear functional, stored magnitude-sorted.

    coords holds the entries sorted by decreasing absolute value with
    stable ties; perm maps sorted position -> original index (0-based);
    k_xi counts the nonzero entries; memo holds what `memoised` computes
    once per loading: the profile-equation root per k_u, the constants of
    the prior samplers and the mixed test's cutoff splits and cutoff plan.
    """

    coords: np.ndarray
    perm: np.ndarray
    k_xi: int
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memoised(self, fn, *args):
        """fn(self, *args), computed once and kept in memo, arrays read-only."""
        key = (fn, *args)
        if key not in self.memo:
            value = fn(self, *args)
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            self.memo[key] = value
        return self.memo[key]

    @property
    def p(self) -> int:
        return self.coords.size

    def original(self) -> np.ndarray:
        """Entries in original coordinate order."""
        out = np.empty_like(self.coords)
        out[self.perm] = self.coords
        return out

    def split(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Split into the top-m magnitude part and the remainder.

        Both pieces are returned in original coordinate order; they sum
        to the original vector exactly.
        """
        m = int(m)
        head = np.zeros(self.p)
        tail = np.zeros(self.p)
        head[self.perm[:m]] = self.coords[:m]
        tail[self.perm[m:]] = self.coords[m:]
        return head, tail


def make_loading(raw) -> LoadingVector:
    """Sort a raw loading by decreasing magnitude, recording the permutation.

    Ties keep original order (stable sort) for reproducibility.
    """
    raw = np.asarray(raw, dtype=float).ravel()
    if raw.size == 0 or not np.any(raw != 0.0):
        raise AllZeroLoading("loading vector must have a nonzero entry")
    perm = np.argsort(-np.abs(raw), kind="stable")
    coords = raw[perm]
    return LoadingVector(coords=coords, perm=perm, k_xi=int(np.count_nonzero(raw)))


@dataclass(frozen=True)
class ModelParams:
    """One model point theta = (beta, Sigma, sigma); sigma_cov is None for Sigma = I, or a block
    (S, Sigma_SS) with Sigma = I outside S x S.  The regularity bounds are the constants M1 and M2."""

    beta: np.ndarray
    sigma_cov: tuple[np.ndarray, np.ndarray] | None
    noise_sd: float

    @property
    def p(self) -> int:
        return self.beta.size

    @functools.cached_property
    def design_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, L) with L the lower Cholesky factor of Sigma_SS, computed once per model point;
        Sigma's factor is I outside S x S and L inside.  S is empty for the identity (None)."""
        idx, block = self.sigma_cov or (np.zeros(0, dtype=int), np.zeros((0, 0)))
        try:
            return idx, np.linalg.cholesky(block)
        except np.linalg.LinAlgError as exc:
            raise CholeskyFailure("covariance is not numerically positive definite") from exc


class Dataset:
    """n rows (x, y), read by the solvers only through its Gram G = X'X/n: column j formed on first
    read as its own product X'X_j / n, so its bits never depend on the columns formed before or beside
    it; diag, xty = X'y/n and yty = y'y/n on first read.  seed keys the shuffle of its halves
    (`inference.split_half`); memo holds the fits and halves computed on it."""

    def __init__(self, x: np.ndarray, y: np.ndarray, seed: int = 0):
        if x.shape[0] != y.shape[0]:
            raise ValueError("row counts of x and y disagree")
        self.x, self.y, self.seed, (self.n, self.p) = x, y, seed, x.shape
        self.memo, self.columns = {}, {}  # columns: j -> column j, once formed

    def fork(self) -> "Dataset":
        """Rows never change, so a row dataset is its own fork (`estimators.CoordinateDataset.fork`)."""
        return self

    @functools.cached_property
    def diag(self) -> np.ndarray:
        return np.einsum("ij,ij->j", self.x, self.x) / self.n

    @functools.cached_property
    def xty(self) -> np.ndarray:
        return self.x.T @ self.y / self.n

    @functools.cached_property
    def yty(self) -> float:
        return float(self.y @ self.y) / self.n

    def cols(self, idx) -> np.ndarray:
        """Columns idx of the Gram matrix, as a p x len(idx) array."""
        idx = np.asarray(idx, dtype=int).tolist()
        for j in idx:
            if j not in self.columns:
                self.columns[j] = self._column(j)
        return np.array([self.columns[j] for j in idx]).reshape(len(idx), self.p).T

    def _column(self, j: int) -> np.ndarray:
        return self.x.T @ self.x[:, j] / self.n


@dataclass(frozen=True)
class TestProblem:
    xi: LoadingVector
    t0: float
    k_u: int
    alpha: float
    eta: float

    def __post_init__(self):
        if self.k_u < 1:
            raise ValueError("k_u must be at least 1")
        if not 0.0 < self.alpha + self.eta < 1.0:
            raise ValueError("alpha + eta must lie in (0, 1)")


def generate_dataset(theta: ModelParams, n: int, seed: int) -> Dataset:
    """Draw n rows X_i ~ N(0, Sigma) and Y = X beta + N(0, sigma^2 I).

    Bit-reproducible for fixed (seed, n, p): the design is drawn first,
    then the noise, from a single counter-based stream, and seed is the
    dataset's own.  X = Z L' with Z standard and L theta's cached
    design_factor, so only the columns in its block S are mixed (none for
    an identity design).  `simulate` draws every dataset as its Gram
    (`estimators.CoordinateDataset`); the tests use rows as the oracle.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = stream(seed, 0)
    x = rng.standard_normal((n, theta.p))
    idx, factor = theta.design_factor
    x[:, idx] = x[:, idx] @ factor.T
    eps = theta.noise_sd * rng.standard_normal(n)
    return Dataset(x=x, y=x @ theta.beta + eps, seed=seed)


# ---------------------------------------------------------------------------
# Serialization: CSV tables (one header row, round-trip floats).


def csv_cell(v) -> str:
    """The one cell rule of every CSV table: a float is its round-trip repr,
    None is empty, a mapping is its key:value pairs and a list, tuple or
    array its items, both joined by ';', and anything else is str(v)."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if v is None:
        return ""
    if isinstance(v, dict):
        return ";".join(f"{k}:{csv_cell(x)}" for k, x in v.items())
    if isinstance(v, (list, tuple, np.ndarray)):
        return ";".join(map(csv_cell, v))
    return str(v)


def csv_text(header: str, rows) -> str:
    """A table as CSV text: the comma-separated header line, then one line per row of values, each cell written
    by `csv_cell` (a cell of type exactly float, int or str by str(), the same text without the dispatch)."""
    return "".join([header, "\n"] + [
        ",".join([str(v) if type(v) in (float, int, str) else csv_cell(v) for v in row]) + "\n" for row in rows
    ])


def dataset_to_csv(ds: Dataset, fh: io.TextIOBase) -> None:
    header = ",".join(["y"] + [f"x{j + 1}" for j in range(ds.p)])
    fh.write(csv_text(header, np.column_stack((ds.y, ds.x)).tolist()))


def _csv_body(fh: io.TextIOBase, what: str) -> np.ndarray:
    """The numbers under a CSV's header line.  A row whose width differs
    from the header's, a cell that is not a finite number or a file without
    rows is a ValueError."""
    width = len(fh.readline().split(","))
    rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{what} CSV has no rows")
    if any(len(row) != width for row in rows):
        raise ValueError(f"ragged {what} CSV")
    body = np.array([[float(v) for v in row] for row in rows])
    if not np.isfinite(body).all():
        raise ValueError(f"{what} CSV has a non-finite cell")
    return body


def dataset_from_csv(fh: io.TextIOBase, seed: int = 0) -> Dataset:
    data = _csv_body(fh, "dataset")
    return Dataset(x=data[:, 1:].copy(), y=data[:, 0].copy(), seed=seed)
