"""Sparse CCA detection instances, cross-covariance test statistics, and
the pairwise reduction to linear-functional testing.

An instance is n paired Gaussian rows (U1, U2); under the alternative a
hidden s x s block of the cross-covariance C carries the value lambda / s,
and U2 = U1 C + E M with M the rank-one symmetric square root of I - C'C.
Five statistics of the sample cross-covariance R_hat = U1'U2 / n are
implemented with their thresholds and detection-boundary formulas.  They
take R_hat alone, so for n > p1 sample_cross_covariances draws a stack of
them from their exact law (a Bartlett factor of the Wishart U1'U1) in
about p1 (p1 + 1) / 2 + p1 p2 normals each, read from each draw's own
stream (`model.streams`), then decodes every planted support and forms
every factor and product per stack, by batched mat-vecs and one batched
product, never a p2 x p2 array; for n <= p1 each is gen_scca's own R_hat.  Every statistic works on the last
two axes: stat_values scores one matrix or a stack.  stat_samples, the
one draw-and-score loop of null calibration and the power sweep, draws
and scores in stacks.  The reduction consumes rows two at a time and outputs a
regression sample whose null maps to a point alternative of the linear
test (decision inversion: use one minus the linear test's decision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import BudgetExceeded, NotPositiveDefinite, OddSampleSize
from .model import Dataset, TestProblem, stream, streams, uniform_subsets
from .profiles import regular_profile

STATISTICS = ("scan", "entrywise", "max_col", "max_row", "global_sum")


@dataclass(frozen=True)
class SccaParams:
    n: int
    s: int
    p1: int
    p2: int
    lam: float

    def __post_init__(self):
        if not (1 <= self.s <= min(self.p1, self.p2)):
            raise ValueError("need 1 <= s <= min(p1, p2)")


@dataclass(frozen=True)
class SccaInstance:
    params: SccaParams
    u1: np.ndarray
    u2: np.ndarray
    delta1: np.ndarray | None = None
    delta2: np.ndarray | None = None

    @property
    def rows(self) -> int:
        return self.u1.shape[0]

    def cross_covariance(self) -> np.ndarray:
        return self.u1.T @ self.u2 / self.rows


@dataclass(frozen=True)
class StatReport:
    values: dict
    thresholds: dict
    decisions: dict


def _plants(params: SccaParams, hypothesis: str) -> bool:
    """Check hypothesis and lam; True for the alternative, whose draws plant (d1, d2)."""
    if hypothesis not in ("null", "alt"):
        raise ValueError("hypothesis must be 'null' or 'alt'")
    if not -1.0 < params.lam < 1.0:
        raise NotPositiveDefinite("cross-correlation lambda must lie in (-1, 1)")
    return hypothesis == "alt"


def _planted(params: SccaParams, words: np.ndarray) -> tuple:
    """The stacks of planted (d1, d2): row j has flat s^{-1/2} entries on the uniform s-subsets of 0..p1-1 and
    0..p2-1 that the first and last s of words[j], 2 s raw words of its draw's stream, pick (`uniform_subsets`)."""
    s, out = params.s, []
    for p, part in ((params.p1, words[:, :s]), (params.p2, words[:, s:])):
        out.append(np.zeros((len(words), p)))
        np.put_along_axis(out[-1], uniform_subsets(part, p), 1.0 / math.sqrt(s), axis=1)
    return tuple(out)


def _second_block(params: SccaParams, u1: np.ndarray, e: np.ndarray, d1, d2) -> np.ndarray:
    """U2 = U1 C + E M for C = lam d1 d2' and M = I - c d2 d2', the symmetric square root of I - C'C, so that iid
    standard normal rows of (U1, E) give rows of (U1, U2) with covariance [[I, C], [C', I]].  M M = I - (2 c -
    c^2 |d2|^2) d2 d2' and C'C = lam^2 |d1|^2 d2 d2', so c = lam^2 |d1|^2 / (1 + sqrt(1 - lam^2 |d1|^2 |d2|^2)),
    the root written without cancellation.  By mat-vecs, with no p2 x p2 array, for each draw of a stack (the
    last two axes of u1 and e, the last axis of d1 and d2, hold one draw); d1 = None is the null, U2 = E."""
    if d1 is None:
        return e
    lam2_d1 = params.lam**2 * (d1 * d1).sum(axis=-1)
    c = (lam2_d1 / (1.0 + np.sqrt(1.0 - lam2_d1 * (d2 * d2).sum(axis=-1))))[..., None, None]
    return e + (params.lam * (u1 @ d1[..., :, None]) - c * (e @ d2[..., :, None])) * d2[..., None, :]


def gen_scca(params: SccaParams, hypothesis: str, seed: int, index: int = 0) -> SccaInstance:
    """Sample an instance on stream(seed, index): n rows of (U1, E), the stream's p1 + p2 standard normals each.

    Null: U2 = E.  Alternative: planted directions delta1, delta2 drawn
    uniformly by the stream's first 2 s raw words (`_planted`), cross block
    C = lambda delta1 delta2' and U2 = U1 C + E M (`_second_block`).
    """
    rng = stream(seed, index)
    d1 = d2 = None
    if _plants(params, hypothesis):
        d1, d2 = (d[0] for d in _planted(params, rng.bit_generator.random_raw((1, 2 * params.s))))
    z = rng.standard_normal((params.n, params.p1 + params.p2))
    u1 = z[:, : params.p1]
    u2 = _second_block(params, u1, z[:, params.p1 :], d1, d2)
    return SccaInstance(params=params, u1=u1, u2=u2, delta1=d1, delta2=d2)


def _cross_from_factor(params: SccaParams, a: np.ndarray, g: np.ndarray, d1, d2) -> np.ndarray:
    """R_hat = A (G + (lam A'd1 - c G d2) d2') / n from a factor A of U1'U1 = A A' and G, for each draw of a stack:
    gen_scca's U1'U2 = U1'U1 C + U1'E M, and given U1, U1'E has the law of A G for standard normal G."""
    return a @ _second_block(params, np.swapaxes(a, -1, -2), g, d1, d2) / params.n


# Stream indices under one master seed: the `stats` draw is index 0, null
# calibration draw i is NULL_STREAMS + i and sweep alternative i is
# ALT_STREAMS + i, so no two draws of a run, or of two master seeds, share
# a Philox key.
NULL_STREAMS, ALT_STREAMS = 1 << 32, 2 << 32


def sample_cross_covariances(params: SccaParams, hypothesis: str, seed: int, indices) -> np.ndarray:
    """The stack of R_hat, draw j with exactly the law of gen_scca(params, hypothesis, seed,
    indices[j]).cross_covariance().

    Draw j's numbers come from stream(seed, indices[j]): the 2 s raw words of
    the planted d1, d2 first, as gen_scca reads them, so a seed and index
    plant the same support.  For n > p1 the factor A of U1'U1 ~
    Wishart_p1(n, I) is Bartlett's: lower triangular with A_ii^2 ~
    chi2(n - i + 1) (i = 1..p1) and standard normals below the diagonal,
    row by row, then the p1 x p2 normals of G, by one call: p1 (p1 + 1) / 2 + p1 p2
    draws in all instead of n (p1 + p2).  The stack's factors and products are then
    formed at once, with no p2 x p2 array.  For n <= p1, R_hat is gen_scca's own.
    """
    n, p1, p2, m = params.n, params.p1, params.p2, len(indices)
    if n <= p1:
        return np.array([gen_scca(params, hypothesis, seed, i).cross_covariance() for i in indices]).reshape(m, p1, p2)
    chi, normals = np.empty((m, p1)), np.empty((m, p1 * (p1 - 1) // 2 + p1 * p2))
    plants, words = _plants(params, hypothesis), np.empty((m, 2 * params.s), dtype=np.uint64)
    df = n - np.arange(p1)
    for j, rng in enumerate(streams((seed, i) for i in indices)):
        if plants:
            words[j] = rng.bit_generator.random_raw(2 * params.s)
        chi[j] = rng.chisquare(df)
        rng.standard_normal(out=normals[j])
    a = np.zeros((m, p1, p1))
    a[:, np.eye(p1, dtype=bool)] = np.sqrt(chi)
    a[:, np.tri(p1, k=-1, dtype=bool)] = normals[:, : -p1 * p2]  # strict lower triangle, row by row
    g = normals[:, -p1 * p2 :].reshape(m, p1, p2)
    return _cross_from_factor(params, a, g, *(_planted(params, words) if plants else (None, None)))


# --- test statistics ---------------------------------------------------------

_SCAN_BLOCK = 1 << 16  # entries of a stack of draws or a block of its column sums, read at each call


def scan_stat(r: np.ndarray, s: int, comb_cap: int = 10_000_000):
    """Max averaged s x s submatrix of R_hat, or of each matrix in a stack, exact over all supports.

    For a fixed row set the optimal column set is the top-s column sums,
    so the work, C(p1, s) row sets of p2 column sums, must fit the cap
    (not the C(p1, s) * C(p2, s) supports searched).  Row sets are taken
    in blocks, each one array operation over the stack's column sums.
    """
    p1, p2 = r.shape[-2:]
    if math.comb(p1, s) * p2 > comb_cap:
        raise BudgetExceeded("scan enumeration exceeds the configured cap")
    row_sets = combinations(range(p1), s)
    block, row_set = max(1, _SCAN_BLOCK // (r.size // p1)), np.dtype((np.intp, s))
    best = np.full(r.shape[:-2], -math.inf)
    while (rows := np.fromiter(islice(row_sets, block), dtype=row_set)).size:
        colsums = r[..., rows, :].sum(axis=-2)
        best = np.maximum(best, np.sort(colsums, axis=-1)[..., -s:].sum(axis=-1).max(axis=-1))
    return best / (s * s)


def entrywise_max(r: np.ndarray):
    return r.max(axis=(-2, -1))


def max_col(r: np.ndarray, s: int):
    return r.sum(axis=-2).max(axis=-1) / s


def max_row(r: np.ndarray, s: int):
    return r.sum(axis=-1).max(axis=-1) / s


def global_sum(r: np.ndarray):
    return r.sum(axis=(-2, -1)) / (r.shape[-2] * r.shape[-1])


def log_n_scan(p1: int, p2: int, s: int) -> float:
    return (
        math.lgamma(p1 + 1)
        - math.lgamma(s + 1)
        - math.lgamma(p1 - s + 1)
        + math.lgamma(p2 + 1)
        - math.lgamma(s + 1)
        - math.lgamma(p2 - s + 1)
    )


def thresholds(n: int, s: int, p1: int, p2: int, big_c: float = 1.0) -> dict:
    """Rejection thresholds at a common multiplier big_c.

    n is the number of rows entering R_hat.  The scan threshold uses the
    exact log candidate count; the entrywise and global-sum thresholds
    follow the null fluctuation scales of those statistics.
    """
    return {
        "scan": big_c * math.sqrt(log_n_scan(p1, p2, s) / (n * s * s)),
        "entrywise": big_c * math.sqrt(math.log(p1 * p2) / n),
        "max_col": big_c * math.sqrt(p1 * math.log(p2) / (n * s * s)),
        "max_row": big_c * math.sqrt(p2 * math.log(p1) / (n * s * s)),
        "global_sum": big_c * math.sqrt(1.0 / (n * p1 * p2)),
    }


def boundary_table(n: int, s: int, p1: int, p2: int) -> dict:
    """Detection-boundary values of lambda for each statistic, constant 1."""
    return {
        "scan": math.sqrt(s * math.log(p2) / n),
        "entrywise": s * math.sqrt(math.log(p2) / n),
        "max_col": math.sqrt(p1 * math.log(p2) / n),
        "max_row": math.sqrt(p2 * math.log(p1) / n),
        "global_sum": math.sqrt(p1 * p2 / (n * s * s)),
    }


def stat_values(r: np.ndarray, s: int) -> dict:
    """The five statistics of R_hat, or of each matrix in a stack r (..., p1, p2)."""
    return {
        "scan": scan_stat(r, s),
        "entrywise": entrywise_max(r),
        "max_col": max_col(r, s),
        "max_row": max_row(r, s),
        "global_sum": global_sum(r),
    }


def stat_report(r: np.ndarray, s: int, thresh: dict) -> StatReport:
    values = stat_values(r, s)
    return StatReport(
        values=values,
        thresholds=dict(thresh),
        decisions={k: values[k] > thresh[k] for k in values},
    )


# --- reduction to linear-functional testing ----------------------------------


def reduction_tau(c10: float, sigma_star: float, rho: float, k_star: int, p6: int) -> float:
    """Exact induced functional value of the mapped alternative."""
    return c10 * sigma_star / (2.0 - c10**2 * rho**2) * rho**2 * k_star / math.sqrt(p6)


def reduce_to_lt(
    inst: SccaInstance,
    sigma_star: float,
    c10: float,
    t0: float,
    seed: int,
    alpha: float = 0.05,
    eta: float = 0.05,
) -> tuple[Dataset, TestProblem, float]:
    """Map an SCCA instance to a linear-test sample, consuming row pairs.

    Each output row uses two input rows (U1, U2) and (U1', U2'):
    the response is sigma_star * mean-normalized sum of U1', the design
    stacks -c10 U1 + sqrt(1 - c10^2) V_fresh with (U2 + U2')/sqrt(2),
    and the response is re-anchored by beta0 = (t0 - tau_red) e1 so the
    SCCA null lands exactly on a linear-test alternative point (and the
    SCCA alternative inside the linear-test null class).  Callers must
    invert the linear test's decision.
    """
    if not 0.0 < c10 < 1.0:
        raise ValueError("need 0 < c10 < 1")
    if inst.rows % 2 != 0:
        raise OddSampleSize("reduction consumes rows two at a time")
    rng = stream(seed, 0)
    p6, p7 = inst.params.p1, inst.params.p2
    s = inst.params.s
    u1, u2 = inst.u1[0::2], inst.u2[0::2]
    u1p, u2p = inst.u1[1::2], inst.u2[1::2]
    m = u1.shape[0]

    w1 = u1p.sum(axis=1) / math.sqrt(p6)
    v_star = rng.standard_normal((m, p6))
    v1 = sigma_star * w1
    v2 = -c10 * u1 + math.sqrt(1.0 - c10**2) * v_star
    v3 = (u2 + u2p) / math.sqrt(2.0)

    tau_red = reduction_tau(c10, sigma_star, inst.params.lam, s, p6)
    x = np.concatenate((v2, v3), axis=1)
    beta0 = np.zeros(p6 + p7)
    beta0[0] = t0 - tau_red
    y = v1 + x @ beta0

    xi = regular_profile(p6, 1.0, p6 + p7)
    problem = TestProblem(xi=xi, t0=t0, k_u=4 * s, alpha=alpha, eta=eta)
    return Dataset(x=x, y=y), problem, tau_red


def stat_samples(params: SccaParams, hypothesis: str, seed: int, first: int, reps: int) -> dict:
    """Each statistic's values over reps draws of R_hat, draw i on stream(seed, first + i), drawn and scored in
    stacks; a stack's arrays (its p1 x p1 factors and p1 x p2 matrices, under either hypothesis) hold at most
    _SCAN_BLOCK entries."""
    samples = {k: np.empty(reps) for k in STATISTICS}
    per = max(1, _SCAN_BLOCK // (params.p1 * max(params.p1, params.p2)))
    for start in range(0, reps, per):
        stop = min(start + per, reps)
        stack = sample_cross_covariances(params, hypothesis, seed, range(first + start, first + stop))
        for k, v in stat_values(stack, params.s).items():
            samples[k][start:stop] = v
    return samples


def calibrate_thresholds(
    params: SccaParams,
    reps: int,
    seed: int,
    level: float = 0.05,
) -> dict:
    """Null Monte Carlo thresholds: per-statistic empirical (1 - level)
    quantile over reps null draws, draw i on stream(seed, NULL_STREAMS + i)."""
    samples = stat_samples(params, "null", seed, NULL_STREAMS, reps)
    return {k: float(np.quantile(v, 1.0 - level, method="higher")) for k, v in samples.items()}
