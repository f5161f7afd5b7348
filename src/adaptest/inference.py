"""Confidence intervals and the inverted adaptive tests.

Five interval constructions share one vocabulary: plug-in (bias bound
through the l1 error of the lasso), debiased (residual correction along
the inf-norm constrained direction), their Minkowski mixture split at a
magnitude cutoff m, and the data-split variants for known or spiked
design covariance.  Every interval carries an error-budget ledger; its
nominal level is one minus the total budget.  Every interval reads data
only through a memoised `Gram`: the debiased one on the dataset's, the
data-split ones on half 2's.  Radius constants are fixed; sigma_floor
(for the lasso fits) is the only value a caller sets.

`run_single_test` runs any of the `TEST_MODES` on a dataset; the modes
share one memoised lasso fit per dataset (on half 1 when data-split).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import OddSampleSize
from .estimators import (
    Gram,
    ProjectionResult,
    ScaledLassoFit,
    projection_direction,
    scaled_lasso,
    spiked_cov_estimate,
)
from .model import Dataset, LoadingVector, TestProblem, stream
from .profiles import cutoff_and_regime, top_norm


# Radius constants: the feasibility and bias constants need only be "large
# enough"; the plug-in constant follows the convention c_pi = 1.1 * c_beta.
C_BETA = 4.0
C_XI = 2.0
C_PI = 1.1 * C_BETA


@dataclass(frozen=True)
class ConfidenceInterval:
    center: float
    radius: float
    level: float
    budget: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.radius < 0.0:
            raise ValueError("radius must be nonnegative")

    def __add__(self, other: "ConfidenceInterval") -> "ConfidenceInterval":
        """Minkowski sum: centers and radii add, error budgets add."""
        merged = dict(self.budget)
        for k, v in other.budget.items():
            key = k
            while key in merged:
                key += "'"
            merged[key] = v
        return ConfidenceInterval(
            center=self.center + other.center,
            radius=self.radius + other.radius,
            level=1.0 - sum(merged.values()),
            budget=merged,
        )

    def covers(self, value: float) -> bool:
        return abs(value - self.center) <= self.radius


@dataclass(frozen=True)
class TestDecision:
    reject: bool
    interval: ConfidenceInterval
    m_used: int


def plugin_ci(
    fit: ScaledLassoFit,
    xi_vec: np.ndarray,
    k_u: int,
    n: int,
    p: int,
    alpha: float,
) -> ConfidenceInterval:
    """Interval centered at xi'beta_hat with the l1-bias radius.

    The radius C_pi * sigma_hat * ||xi||_inf * k_u * sqrt(log p / n) has
    no quantile term: the whole alpha budget pays for the estimator
    error event.
    """
    xi_inf = float(np.max(np.abs(xi_vec))) if xi_vec.size else 0.0
    radius = C_PI * fit.sigma_hat * xi_inf * k_u * math.sqrt(math.log(p) / n)
    return ConfidenceInterval(
        center=float(xi_vec @ fit.beta_hat),
        radius=radius,
        level=1.0 - alpha,
        budget={"plugin": alpha},
    )


def _corrected_center(gram: Gram, beta_hat: np.ndarray, xi_vec: np.ndarray, direction: np.ndarray) -> float:
    """xi'beta_hat + d'X'(Y - X beta_hat)/n along direction d, read from the
    Gram as X'Y/n - G[:, S] beta_hat_S on the support S of beta_hat."""
    s = np.flatnonzero(beta_hat)
    return float(xi_vec @ beta_hat) + float(direction @ (gram.xty - gram.cols(s) @ beta_hat[s]))


def debiased_ci(
    data: Dataset,
    fit: ScaledLassoFit,
    proj: ProjectionResult,
    xi_vec: np.ndarray,
    k_u: int,
    alpha: float,
) -> ConfidenceInterval:
    """Residual-corrected interval along the projection direction.

    Center: the corrected center along u_hat on the dataset's Gram.  Radius:
    1.1 sigma_hat [ sqrt(u'Su/n) z_{1-alpha/8} + c_beta C_xi ||xi||_2 k_u log p / n ].
    An infeasible projection degrades gracefully to u_hat = 0.
    """
    n, p = data.n, data.p
    center = _corrected_center(Gram.of(data), fit.beta_hat, xi_vec, proj.u_hat)
    norm2 = float(np.linalg.norm(xi_vec))
    radius = 1.1 * fit.sigma_hat * (
        math.sqrt(max(proj.objective, 0.0) / n) * float(ndtri(1.0 - alpha / 8.0))
        + C_BETA * C_XI * norm2 * k_u * math.log(p) / n
    )
    return ConfidenceInterval(
        center=center,
        radius=radius,
        level=1.0 - alpha,
        budget={"debiased": alpha},
    )


def mixed_ci(
    data: Dataset,
    fit: ScaledLassoFit,
    xi: LoadingVector,
    m: int,
    k_u: int,
    alpha: float,
    eta: float,
) -> ConfidenceInterval:
    """Minkowski sum of a debiased interval on the top-m coordinates of
    xi and a plug-in interval on the rest, each at level 1 - alpha'/4
    with alpha' = min(alpha, eta).

    m = 0 and m = p recover the plug-in and debiased intervals exactly.
    """
    if not 0 <= m <= xi.p:
        raise ValueError("cutoff m out of range")
    n, p = data.n, data.p
    a_comp = min(alpha, eta) / 4.0
    head, tail = xi.split(m)
    proj = projection_direction(data, head, C_XI, n)
    ci_db = debiased_ci(data, fit, proj, head, k_u, a_comp)
    ci_pi = plugin_ci(fit, tail, k_u, n, p, a_comp)
    return ci_db + ci_pi


def mixed_test(
    data: Dataset,
    problem: TestProblem,
    sigma_floor: float = 0.0,
    scan_all_m: bool = False,
) -> TestDecision:
    """Invert the mixed interval at the rate-optimal cutoff m_star.

    With scan_all_m the cutoff minimizes the realized radius over a
    log-spaced grid of at most 32 cutoffs (endpoints included) instead of the
    profile cutoff m_star.
    """
    xi, k_u = problem.xi, problem.k_u
    fit = scaled_lasso(data, sigma_floor=sigma_floor)

    if scan_all_m:
        scan = ((m, mixed_ci(data, fit, xi, m, k_u, problem.alpha, problem.eta)) for m in _log_grid(data.p, 32))
        m_used, interval = min(scan, key=lambda pair: pair[1].radius)  # the first of equal radii
    else:
        m_used, _ = cutoff_and_regime(k_u, data.n, data.p)
        interval = mixed_ci(data, fit, xi, m_used, k_u, problem.alpha, problem.eta)
    return TestDecision(reject=not interval.covers(problem.t0), interval=interval, m_used=m_used)


TEST_MODES = ("mixed", "plugin", "debiased", "known_sigma", "spiked")


def run_single_test(
    mode: str,
    data: Dataset,
    problem: TestProblem,
    seed: int,
    scan_all_m: bool = False,
    sigma_floor: float = 0.0,
) -> TestDecision:
    """Invert the interval of one of the TEST_MODES on one dataset.

    mixed is `mixed_test`; plugin and debiased are the two intervals it
    mixes, each at level 1 - alpha; known_sigma uses the identity design
    covariance and spiked the exhaustive estimator, both on the halves
    split_half(data, seed).
    """
    if mode == "mixed":
        return mixed_test(data, problem, sigma_floor, scan_all_m)
    xi_vec, k_u, alpha = problem.xi.original(), problem.k_u, problem.alpha
    if mode == "plugin":
        ci = plugin_ci(scaled_lasso(data, sigma_floor=sigma_floor), xi_vec, k_u, data.n, data.p, alpha)
    elif mode == "debiased":
        fit = scaled_lasso(data, sigma_floor=sigma_floor)
        ci = debiased_ci(data, fit, projection_direction(data, xi_vec, C_XI, data.n), xi_vec, k_u, alpha)
    elif mode == "known_sigma":
        ci = known_sigma_ci(data, np.ones(data.p), xi_vec, alpha, seed, sigma_floor)
    elif mode == "spiked":
        ci = spiked_ci(data, problem.xi, k_u, alpha, seed, sigma_floor)
    else:
        raise ValueError(f"unknown test mode {mode!r}: expected one of {', '.join(TEST_MODES)}")
    return TestDecision(reject=not ci.covers(problem.t0), interval=ci, m_used=0 if mode == "plugin" else data.p)


def _log_grid(p: int, size: int) -> list[int]:
    """At most `size` distinct cutoffs in 0..p, log-spaced with both endpoints."""
    pts = {0, p}
    for t in np.geomspace(1, max(p, 1), num=max(size - 2, 1)):
        pts.add(int(round(t)))
    return sorted(pts)


def split_half(data: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic random halves: parity positions of a seeded shuffle.

    Memoised on the dataset by seed, so every caller gets the same two
    halves, and with them each half's memoised Gram.
    """
    halves = data.memo.get(("split_half", seed))
    if halves is None:
        if data.n % 2 != 0:
            raise OddSampleSize("data splitting needs an even sample count")
        order = stream(seed, 1).permutation(data.n)
        first, second = order[0::2], order[1::2]
        halves = data.memo.setdefault(
            ("split_half", seed),
            (Dataset(x=data.x[first], y=data.y[first]), Dataset(x=data.x[second], y=data.y[second])),
        )
    return halves


def _split_half_center(data: Dataset, seed: int, sigma_floor: float, xi_vec: np.ndarray, direction):
    """(fit, center): the lasso fit on half 1 of split_half(data, seed), and the
    corrected center on half 2's Gram along direction(half1)."""
    half1, half2 = split_half(data, seed)
    fit = scaled_lasso(half1, sigma_floor=sigma_floor)
    return fit, _corrected_center(Gram.of(half2), fit.beta_hat, xi_vec, direction(half1))


def known_sigma_ci(
    data: Dataset,
    sigma0_diag: np.ndarray,
    xi_vec: np.ndarray,
    alpha: float,
    seed: int,
    sigma_floor: float = 0.0,
) -> ConfidenceInterval:
    """Data-split debiased interval using the known diagonal covariance Sigma0.

    sigma0_diag is the diagonal of Sigma0, length p (the paper's known
    covariance is diagonal).  The correction on half 2 runs along the oracle
    direction Sigma0^{-1} xi, so the radius needs no k_u term:
    1.1 (c2 + c3) ||xi||_2 sigma_hat / sqrt(n2) with c2 = c3 = 1.
    """
    fit, center = _split_half_center(data, seed, sigma_floor, xi_vec, lambda _: xi_vec / sigma0_diag)
    radius = 2.2 * float(np.linalg.norm(xi_vec)) * fit.sigma_hat / math.sqrt(data.n // 2)
    return ConfidenceInterval(center=center, radius=radius, level=1.0 - alpha, budget={"known_sigma": alpha})


def spiked_ci(
    data: Dataset,
    xi: LoadingVector,
    k_u: int,
    alpha: float,
    seed: int,
    sigma_floor: float = 0.0,
) -> ConfidenceInterval:
    """Data-split debiased interval with the spiked precision estimate.

    The spiked estimator runs on half 1 beside the lasso, and the correction
    on half 2 runs along omega_hat xi.  The radius keeps the parametric term
    plus a top-k_u tail term:
    sigma_hat [ ||xi||_2 / sqrt(n) + H(k_u) k_u log p / n ].
    """
    xi_vec = xi.original()
    fit, center = _split_half_center(
        data, seed, sigma_floor, xi_vec, lambda half1: spiked_cov_estimate(half1, k_u).omega_hat @ xi_vec
    )
    radius = fit.sigma_hat * (
        float(np.linalg.norm(xi_vec)) / math.sqrt(data.n) + top_norm(xi, k_u) * k_u * math.log(data.p) / data.n
    )
    return ConfidenceInterval(center=center, radius=radius, level=1.0 - alpha, budget={"spiked": alpha})
