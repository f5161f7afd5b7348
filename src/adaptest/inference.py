"""Confidence intervals and the inverted adaptive tests.

Three interval constructions share one vocabulary: mixed (a debiased part on the top-m
coordinates plus a plug-in part on the rest), whose ends m = 0 and m = p are the plug-in
interval (bias bound through the l1 error of the lasso) and the debiased one (residual
correction along the inf-norm constrained direction), and the data-split variants for
known or spiked design covariance.  Every interval carries an error-budget ledger; its
nominal level is one minus the total budget.  Every interval reads data only through its
Gram (`model.Dataset`): the mixed one the dataset's, the data-split ones half
2's.  Radius constants are fixed, each in one expression (`_plugin_radius`,
`_debiased_radius`) that `radius_floors` shares; no caller sets a radius value, and
the lasso's sigma_hat is the one it estimates.

`run_single_test` runs any of the `TEST_MODES` on a dataset; the modes
share one memoised lasso fit per dataset (on half 1 of its own
`split_half` when data-split), so an unconverged fit logs its WARNING
once (`estimators.scaled_lasso`); the mixed test reads its loading's plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import OddSampleSize
from .estimators import CoordinateDataset, ScaledLassoFit, projection_direction, scaled_lasso
from .estimators import residual_mean_square, spiked_cov_estimate
from .model import Dataset, LoadingVector, TestProblem, stream
from .profiles import cutoff_and_regime, cutoff_prefixes, log_grid, top_norm


# Radius constants: the feasibility and bias constants need only be "large
# enough"; the plug-in constant follows the convention c_pi = 1.1 * c_beta.
C_BETA = 4.0
C_XI = 2.0
C_PI = 1.1 * C_BETA


@dataclass(frozen=True)
class ConfidenceInterval:
    center: float
    radius: float
    budget: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.radius >= 0.0:
            raise ValueError("radius must be nonnegative")

    @property
    def level(self) -> float:
        return 1.0 - sum(self.budget.values())

    def covers(self, value: float) -> bool:
        return abs(value - self.center) <= self.radius


@dataclass(frozen=True)
class TestDecision:
    reject: bool
    interval: ConfidenceInterval
    m_used: int


def _plugin_radius(sigma_hat, xi_inf, k_u: int, n: int, p: int):
    """C_pi sigma_hat ||xi||_inf k_u sqrt(log p / n), elementwise in sigma_hat and ||xi||_inf."""
    return C_PI * sigma_hat * xi_inf * k_u * math.sqrt(math.log(p) / n)


def _debiased_radius(sigma_hat, norm2, k_u: int, n: int, p: int, usu: float = 0.0, alpha: float | None = None):
    """1.1 sigma_hat [sqrt(u'Su/n) z_{1-alpha/8} + C_beta C_xi ||xi||_2 k_u log p / n], z by AS241
    (`statistics.NormalDist`), elementwise in sigma_hat and ||xi||_2.  The z term is read only where
    u'Su > 0, as it is exactly 0 elsewhere; the default u'Su = 0 is a floor."""
    bias = C_BETA * C_XI * norm2 * k_u * math.log(p) / n
    if usu > 0.0:
        q = 1.0 - alpha / 8.0  # rounds to 1 at alpha <= 2^-51, where z is inf
        bias = math.sqrt(usu / n) * (NormalDist().inv_cdf(q) if q < 1.0 else math.inf) + bias
    return 1.1 * sigma_hat * bias


def _corrected_center(data: Dataset, beta_hat: np.ndarray, xi_vec: np.ndarray, direction: np.ndarray) -> float:
    """xi'beta_hat + d'X'(Y - X beta_hat)/n along direction d, read from the
    Gram as X'Y/n - G[:, S] beta_hat_S on the support S of beta_hat."""
    s = beta_hat.nonzero()[0]
    return float(xi_vec @ beta_hat) + float(direction @ (data.xty - data.cols(s) @ beta_hat[s]))


def _interval(data: Dataset, fit: ScaledLassoFit, xi: LoadingVector, m: int, k_u: int,
              debiased: float | None = None, plugin: float | None = None) -> ConfidenceInterval:
    """A debiased part on the top-m coordinates of xi (head) at level 1 - debiased and a plug-in part on the
    rest (tail) at level 1 - plugin: the head's corrected center along its projection direction plus
    tail'beta_hat, the parts' radii summed, and a budget of the levels given, debiased first.  A part
    with no level must be empty (m = 0 or m = p), where it adds exactly 0 to the center and the radius."""
    if not 0 <= m <= xi.p:
        raise ValueError("cutoff m out of range")
    if m > 0 and debiased is None or m < xi.p and plugin is None:
        raise ValueError(f"a nonempty part of the interval at cutoff m = {m} has no level")
    head, tail, head_l2, tail_inf = xi.memoised(_split_norms, m)
    proj = projection_direction(data, head, C_XI)
    return ConfidenceInterval(
        center=_corrected_center(data, fit.beta_hat, head, proj.u_hat) + float(tail @ fit.beta_hat),
        radius=_debiased_radius(fit.sigma_hat, head_l2, k_u, data.n, data.p, proj.objective, debiased)
        + _plugin_radius(fit.sigma_hat, tail_inf, k_u, data.n, data.p),
        budget={part: a for part, a in (("debiased", debiased), ("plugin", plugin)) if a is not None},
    )


def mixed_ci(
    data: Dataset, fit: ScaledLassoFit, xi: LoadingVector, m: int, k_u: int, alpha: float, eta: float
) -> ConfidenceInterval:
    """The interval at cutoff m with both parts at level 1 - alpha'/4, alpha' = min(alpha, eta): at
    m = 0 the plug-in interval, at m = p the debiased one."""
    a_comp = min(alpha, eta) / 4.0
    return _interval(data, fit, xi, m, k_u, debiased=a_comp, plugin=a_comp)


def _split_norms(xi: LoadingVector, m: int) -> tuple:
    """(head, tail, ||head||_2, ||tail||_inf) of `LoadingVector.split` at cutoff m: once per loading (`memoised`)."""
    head, tail = xi.split(m)
    return head, tail, float(np.linalg.norm(head)), float(np.max(np.abs(tail)))


def radius_floors(xi: LoadingVector, grid, k_u: int, n: int) -> np.ndarray:
    """Each grid cutoff's `mixed_ci` radius at u'Su = 0 and sigma_hat = 1: times sigma_hat, a floor for it."""
    head, tail = (prefix[grid] for prefix in cutoff_prefixes(xi))
    return _debiased_radius(1.0, head, k_u, n, xi.p) + _plugin_radius(1.0, tail, k_u, n, xi.p)


def _cutoff_plan(xi: LoadingVector, k_u: int, n: int, scan_all_m: bool) -> tuple[tuple, np.ndarray]:
    """Cutoffs, (m_star,) or with scan_all_m `log_grid(p, 32)` up to the first one >= k_xi (past it every
    interval repeats), and the least unit `radius_floors` from each on: once per loading (`memoised`)."""
    grid = log_grid(xi.p, 32) if scan_all_m else [cutoff_and_regime(k_u, n, xi.p)[0]]
    grid = grid[: int(np.searchsorted(grid, xi.k_xi)) + 1]
    rest = np.minimum.accumulate(radius_floors(xi, grid, k_u, n)[::-1])[::-1]
    return tuple(grid), rest


def mixed_test(
    data: Dataset,
    problem: TestProblem,
    scan_all_m: bool = False,
) -> TestDecision:
    """Invert the mixed interval at the rate-optimal cutoff m_star.

    With scan_all_m the cutoff minimizes the realized radius over a
    log-spaced grid of at most 32 cutoffs (endpoints included) instead of the
    profile cutoff m_star.  One loop runs the loading's `_cutoff_plan` in
    ascending m and stops once sigma_hat times the `radius_floors` of all
    cutoffs left exceeds the best radius: bit-identical to the exhaustive
    scan.  Everything after the fit reads `data.fork()`.
    """
    xi, k_u = problem.xi, problem.k_u
    fit = scaled_lasso(data)
    data = data.fork()

    grid, rest = xi.memoised(_cutoff_plan, k_u, data.n, scan_all_m)
    m_used, interval = grid[0], mixed_ci(data, fit, xi, grid[0], k_u, problem.alpha, problem.eta)
    for m, floor in zip(grid[1:], rest[1:]):
        if floor * fit.sigma_hat > interval.radius * (1.0 + 1e-9):  # the margin absorbs rounding
            break
        ci = mixed_ci(data, fit, xi, m, k_u, problem.alpha, problem.eta)
        if ci.radius < interval.radius:  # the first of equal radii
            m_used, interval = m, ci
    return TestDecision(reject=not interval.covers(problem.t0), interval=interval, m_used=m_used)


TEST_MODES = ("mixed", "plugin", "debiased", "known_sigma", "spiked")


def run_single_test(
    mode: str,
    data: Dataset,
    problem: TestProblem,
    scan_all_m: bool = False,
) -> TestDecision:
    """Invert the interval of one of the TEST_MODES on one dataset.

    mixed is `mixed_test`; plugin and debiased are its interval at m = 0
    and m = p, the one part at level 1 - alpha; known_sigma uses the identity design
    covariance and spiked the exhaustive estimator, both on the dataset's
    own halves `split_half(data)`.  Each mode fits (or reuses) the one memoised
    lasso and reads everything else on a fork taken after it, so on a
    `CoordinateDataset` its result does not depend on the modes run before it.
    """
    if mode == "mixed":
        return mixed_test(data, problem, scan_all_m)
    k_u, alpha, m_used = problem.k_u, problem.alpha, data.p
    if mode in ("plugin", "debiased"):
        fit, m_used = scaled_lasso(data), 0 if mode == "plugin" else problem.xi.p
        ci = _interval(data.fork(), fit, problem.xi, m_used, k_u, **{mode: alpha})
    elif mode == "known_sigma":
        ci = known_sigma_ci(data, np.ones(data.p), problem.xi.original(), alpha)
    elif mode == "spiked":
        ci = spiked_ci(data, problem.xi, k_u, alpha)
    else:
        raise ValueError(f"unknown test mode {mode!r}: expected one of {', '.join(TEST_MODES)}")
    return TestDecision(reject=not ci.covers(problem.t0), interval=ci, m_used=m_used)


def split_half(data: Dataset) -> tuple[Dataset, Dataset]:
    """The dataset's own random halves: parity positions of a shuffle keyed by its seed.

    Memoised on the dataset, so every caller gets the same two halves, and
    with them each half's Gram columns.  A `CoordinateDataset` has no rows
    to split: its halves are two independent n/2-row draws from its own
    seed, which with iid rows have the law of a seeded split.
    """
    halves = data.memo.get("split_half")
    if halves is None:
        if data.n % 2 != 0:
            raise OddSampleSize("data splitting needs an even sample count")
        if isinstance(data, CoordinateDataset):
            halves = tuple(CoordinateDataset(data.theta, data.n // 2, data.seed, 2 * data.index + i) for i in (1, 2))
        else:
            order = stream(data.seed, 1).permutation(data.n)
            first, second = order[0::2], order[1::2]
            halves = (Dataset(x=data.x[first], y=data.y[first]), Dataset(x=data.x[second], y=data.y[second]))
        halves = data.memo.setdefault("split_half", halves)
    return halves


def _split_half_center(data: Dataset, xi_vec: np.ndarray, direction):
    """(fit, center, half2): the lasso fit on half 1 of the dataset's own split_half(data), the
    corrected center on half 2's Gram along direction(half1), both read on forks, and half 2's fork."""
    half1, half2 = split_half(data)
    fit, half2 = scaled_lasso(half1), half2.fork()
    return fit, _corrected_center(half2, fit.beta_hat, xi_vec, direction(half1.fork())), half2


def known_sigma_ci(
    data: Dataset,
    sigma0_diag: np.ndarray,
    xi_vec: np.ndarray,
    alpha: float,
) -> ConfidenceInterval:
    """Data-split debiased interval using the known diagonal covariance Sigma0.

    sigma0_diag is the diagonal of Sigma0, length p (the paper's known
    covariance is diagonal).  The correction on half 2 runs along the oracle
    direction a = Sigma0^{-1} xi.  Given half 1 and d = beta_hat - beta, it
    averages n2 iid terms of variance (a'Sigma a)(sigma^2 + d'Sigma d) + (a'Sigma d)^2
    under Gaussian rows, so the radius is the z_{1-alpha/2} multiple of
    sqrt((xi' Sigma0^{-1} xi RSS2 + (center - xi'beta_hat)^2) / n2), where RSS2 is
    half 2's residual mean square at beta_hat, read from its Gram
    (`estimators.residual_mean_square`), and z comes from `statistics.NormalDist`.
    """
    fit, center, half2 = _split_half_center(data, xi_vec, lambda _: xi_vec / sigma0_diag)
    rss2 = residual_mean_square(half2, fit.beta_hat)
    spread = float(xi_vec @ (xi_vec / sigma0_diag)) * rss2 + (center - float(xi_vec @ fit.beta_hat)) ** 2
    radius = NormalDist().inv_cdf(1.0 - alpha / 2.0) * math.sqrt(spread / half2.n)
    return ConfidenceInterval(center=center, radius=radius, budget={"known_sigma": alpha})


def spiked_ci(
    data: Dataset,
    xi: LoadingVector,
    k_u: int,
    alpha: float,
) -> ConfidenceInterval:
    """Data-split debiased interval with the spiked precision estimate.

    The spiked estimator runs on half 1 beside the lasso, and the correction
    on half 2 runs along omega_hat xi.  The radius keeps the parametric term
    plus a top-k_u tail term:
    sigma_hat [ ||xi||_2 / sqrt(n) + H(k_u) k_u log p / n ].
    """
    xi_vec = xi.original()
    fit, center, _ = _split_half_center(data, xi_vec, lambda half1: spiked_cov_estimate(half1, k_u).omega_hat @ xi_vec)
    radius = fit.sigma_hat * (
        float(np.linalg.norm(xi_vec)) / math.sqrt(data.n) + top_norm(xi, k_u) * k_u * math.log(data.p) / data.n
    )
    return ConfidenceInterval(center=center, radius=radius, budget={"spiked": alpha})
