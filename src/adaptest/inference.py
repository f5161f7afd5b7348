"""Confidence intervals and the inverted adaptive tests.

Five interval constructions share one vocabulary: plug-in (bias bound
through the l1 error of the lasso), debiased (residual correction along
the inf-norm constrained direction), their Minkowski mixture split at a
magnitude cutoff m, and the data-split variants for known or spiked
design covariance.  Every interval carries an error-budget ledger; its
nominal level is one minus the total budget.  Everything computed on one
dataset reads its memoised `Gram`, never the full X'X/n.
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
    SpikedCovFit,
    projection_direction,
    scaled_lasso,
)
from .model import Dataset, LoadingVector, TestProblem, stream
from .profiles import cutoff_and_regime, top_norm


@dataclass(frozen=True)
class Constants:
    """Tuning constants for interval radii.

    The feasibility and bias constants are only required to be "large
    enough"; defaults follow the convention c_pi = 1.1 * c_beta.  The
    data-split constants (c2, c3) and the spiked-radius constants are
    calibration knobs, defaulting to 1.
    """

    c_beta: float = 4.0
    c_xi: float = 2.0
    c_pi: float | None = None
    c2: float = 1.0
    c3: float = 1.0
    c_spike: float = 1.0
    c_spike_tail: float = 1.0
    sigma_floor: float = 0.0

    @property
    def plugin_constant(self) -> float:
        return 1.1 * self.c_beta if self.c_pi is None else self.c_pi


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
    t0: float


def z_quantile(q: float) -> float:
    """Standard normal quantile (scipy's rational approximation of ndtri)."""
    return float(ndtri(q))


def plugin_ci(
    fit: ScaledLassoFit,
    xi_vec: np.ndarray,
    k_u: int,
    n: int,
    p: int,
    alpha: float,
    constants: Constants = Constants(),
) -> ConfidenceInterval:
    """Interval centered at xi'beta_hat with the l1-bias radius.

    The radius C_pi * sigma_hat * ||xi||_inf * k_u * sqrt(log p / n) has
    no quantile term: the whole alpha budget pays for the estimator
    error event.
    """
    xi_inf = float(np.max(np.abs(xi_vec))) if xi_vec.size else 0.0
    radius = constants.plugin_constant * fit.sigma_hat * xi_inf * k_u * math.sqrt(math.log(p) / n)
    return ConfidenceInterval(
        center=float(xi_vec @ fit.beta_hat),
        radius=radius,
        level=1.0 - alpha,
        budget={"plugin": alpha},
    )


def debiased_ci(
    data: Dataset,
    fit: ScaledLassoFit,
    proj: ProjectionResult,
    xi_vec: np.ndarray,
    k_u: int,
    alpha: float,
    constants: Constants = Constants(),
) -> ConfidenceInterval:
    """Residual-corrected interval along the projection direction.

    Center: xi'beta_hat + u_hat' X'(Y - X beta_hat)/n, read from the Gram as
    X'Y/n - G[:, S] beta_hat_S on the support S of beta_hat.  Radius:
    1.1 sigma_hat [ sqrt(u'Su/n) z_{1-alpha/8} + c_beta C_xi ||xi||_2 k_u log p / n ].
    An infeasible projection degrades gracefully to u_hat = 0.
    """
    n, p = data.n, data.p
    gram, s = Gram.of(data), np.flatnonzero(fit.beta_hat)
    center = float(xi_vec @ fit.beta_hat) + float(proj.u_hat @ (gram.xty - gram.cols(s) @ fit.beta_hat[s]))
    norm2 = float(np.linalg.norm(xi_vec))
    radius = 1.1 * fit.sigma_hat * (
        math.sqrt(max(proj.objective, 0.0) / n) * z_quantile(1.0 - alpha / 8.0)
        + constants.c_beta * constants.c_xi * norm2 * k_u * math.log(p) / n
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
    constants: Constants = Constants(),
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
    proj = projection_direction(data, _as_loading(head, xi, m), constants.c_xi, n)
    ci_db = debiased_ci(data, fit, proj, head, k_u, a_comp, constants)
    ci_pi = plugin_ci(fit, tail, k_u, n, p, a_comp, constants)
    return ci_db + ci_pi


def _as_loading(vec: np.ndarray, xi: LoadingVector, m: int) -> LoadingVector:
    """View the split piece as a LoadingVector without re-sorting.

    The top-m piece in original coordinates is already magnitude-sorted
    by xi's permutation, so reuse it; an all-zero piece keeps the parent
    ordering (its norms are all zero anyway).
    """
    return LoadingVector(
        coords=np.concatenate((xi.coords[:m], np.zeros(xi.p - m))),
        perm=xi.perm,
        k_xi=int(np.count_nonzero(vec)),
    )


def mixed_test(
    data: Dataset,
    problem: TestProblem,
    constants: Constants = Constants(),
    scan_all_m: bool = False,
) -> TestDecision:
    """Invert the mixed interval at the rate-optimal cutoff m_star.

    With scan_all_m the cutoff minimizes the realized radius over a
    log-spaced grid of at most 32 cutoffs (endpoints included) instead of the
    profile cutoff m_star.
    """
    xi, k_u = problem.xi, problem.k_u
    fit = scaled_lasso(data, sigma_floor=constants.sigma_floor)

    if scan_all_m:
        best = None
        for m in _log_grid(data.p, 32):
            ci = mixed_ci(data, fit, xi, m, k_u, problem.alpha, problem.eta, constants)
            if best is None or ci.radius < best[1].radius:
                best = (m, ci)
        m_used, interval = best
    else:
        m_used, _ = cutoff_and_regime(k_u, data.n, data.p)
        interval = mixed_ci(data, fit, xi, m_used, k_u, problem.alpha, problem.eta, constants)
    return TestDecision(
        reject=not interval.covers(problem.t0),
        interval=interval,
        m_used=m_used,
        t0=problem.t0,
    )


def _log_grid(p: int, size: int) -> list[int]:
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


def known_sigma_ci(
    data: Dataset,
    sigma0_diag: np.ndarray,
    xi_vec: np.ndarray,
    k_u: int,
    alpha: float,
    seed: int,
    constants: Constants = Constants(),
) -> ConfidenceInterval:
    """Data-split debiased interval using the known diagonal covariance Sigma0.

    sigma0_diag is the diagonal of Sigma0, length p (the paper's known
    covariance is diagonal).  The lasso runs on half 1; the bias correction
    uses half 2 with the oracle direction Sigma0^{-1} xi, so the radius
    needs no k_u term:
    1.1 (c2 + c3) ||xi||_2 sigma_hat / sqrt(n2).
    """
    half1, half2 = split_half(data, seed)
    fit = scaled_lasso(half1, sigma_floor=constants.sigma_floor)
    n2 = half2.n
    resid = half2.y - half2.x @ fit.beta_hat
    direction = xi_vec / sigma0_diag
    center = float(xi_vec @ fit.beta_hat) + float(direction @ (half2.x.T @ resid)) / n2
    radius = 1.1 * (constants.c2 + constants.c3) * float(np.linalg.norm(xi_vec)) * fit.sigma_hat / math.sqrt(n2)
    return ConfidenceInterval(center=center, radius=radius, level=1.0 - alpha, budget={"known_sigma": alpha})


def spiked_ci(
    data: Dataset,
    spiked_fit: SpikedCovFit,
    xi: LoadingVector,
    k_u: int,
    alpha: float,
    seed: int,
    constants: Constants = Constants(),
) -> ConfidenceInterval:
    """Data-split debiased interval with the spiked precision estimate.

    spiked_fit must come from half 1 of split_half(data, seed).  The
    radius keeps the parametric term plus a top-k_u tail term:
    sigma_hat [ C ||xi||_2 / sqrt(n) + C' H(k_u) k_u log p / n ].
    """
    half1, half2 = split_half(data, seed)
    fit = scaled_lasso(half1, sigma_floor=constants.sigma_floor)
    n2, p = half2.n, data.p
    xi_vec = xi.original()
    resid = half2.y - half2.x @ fit.beta_hat
    center = float(xi_vec @ fit.beta_hat) + float((spiked_fit.omega_hat @ xi_vec) @ (half2.x.T @ resid)) / n2
    radius = fit.sigma_hat * (
        constants.c_spike * float(np.linalg.norm(xi_vec)) / math.sqrt(data.n)
        + constants.c_spike_tail * top_norm(xi, k_u) * k_u * math.log(p) / data.n
    )
    return ConfidenceInterval(center=center, radius=radius, level=1.0 - alpha, budget={"spiked": alpha})
