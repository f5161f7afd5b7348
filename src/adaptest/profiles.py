"""Rate functionals of a loading vector.

Everything here is a deterministic function of the sorted magnitude
profile: the top-t norm H(t), the root zeta of the profile equation and
its threshold lambda = sqrt(zeta_+), the index j1, the quantities nu1,
nu2, nu3 and the effective sparsity k_eff, the rate-optimal cutoff
m_star, and the closed-form example profiles (flat, multiscale,
sub-Weibull).  All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, MultiscaleConstraint
from .model import LoadingVector, make_loading, stream

ULTRA_SPARSE = "ultra_sparse"
MODERATELY_SPARSE = "moderately_sparse"


@dataclass(frozen=True)
class ProfileSummary:
    zeta: float
    lam: float
    j1: int
    nu1: float
    nu2: float
    k_eff: int
    nu3: float
    m_star: int
    regime: str


def top_norm(xi: LoadingVector, t: float) -> float:
    """H(t): l2 norm of the ceil(t) largest-magnitude coordinates; H(0) = 0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    m = min(int(math.ceil(t)), xi.p)
    if m == 0:
        return 0.0
    return float(np.sqrt(np.sum(xi.coords[:m] ** 2)))


def _log_phi(xi: LoadingVector, zeta: float) -> float:
    """log of the profile ratio sum|xi_j| e^{-zeta/xi_j^2} / sqrt(sum xi_j^2 e^{-zeta/xi_j^2}).

    Evaluated over the nonzero coordinates only, in log space with a
    max-shift so that huge |zeta| neither overflows nor collapses to 0/0.
    """
    x = np.abs(xi.coords[: xi.k_xi])
    expo = -zeta / x**2
    la = np.log(x) + expo
    lb = 2.0 * np.log(x) + expo
    ma, mb = la.max(), lb.max()
    return (ma + math.log(np.sum(np.exp(la - ma)))) - 0.5 * (
        mb + math.log(np.sum(np.exp(lb - mb)))
    )


def solve_zeta(xi: LoadingVector, k_u: int) -> tuple[float, float]:
    """Root of the profile equation phi(zeta) = k_u / 2, and lambda = sqrt(zeta_+).

    phi is continuous and strictly decreasing with range (0, inf), so a
    sign-changing bracket always exists; we grow one by doubling and then
    bisect.  Tolerance is 1e-12 relative against |zeta| or 1.
    """
    if k_u < 1:
        raise ValueError("k_u must be at least 1")
    target = math.log(k_u / 2.0)
    a1 = abs(float(xi.coords[0]))
    lo, hi = -(a1**2), a1**2

    # phi decreasing: want phi(lo) >= target >= phi(hi)
    grow = 0
    while _log_phi(xi, lo) < target:
        lo *= 2.0
        grow += 1
        if grow > 200:
            raise BracketFailure("could not bracket the root from below")
    grow = 0
    while _log_phi(xi, hi) > target:
        hi *= 2.0
        grow += 1
        if grow > 200:
            raise BracketFailure("could not bracket the root from above")

    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if _log_phi(xi, mid) >= target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, abs(mid)):
            break
    zeta = 0.5 * (lo + hi)
    lam = math.sqrt(max(zeta, 0.0))
    return zeta, lam


def profile_root(xi: LoadingVector, k_u: int) -> tuple[float, float]:
    """solve_zeta(xi, k_u), solved once per loading and k_u (`LoadingVector.memoised`)."""
    return xi.memoised(solve_zeta, k_u)


def j1_index(xi: LoadingVector, lam: float) -> int:
    """Largest index j with |xi_j| >= lambda (1-based count; 0 if none)."""
    return int(np.sum(np.abs(xi.coords) >= lam))


def nu1(xi: LoadingVector, k_u: int) -> float:
    """lambda * k_u plus the l2 mass surviving the e^{-lambda^2/xi_j^2} damping."""
    return _nu1_at(xi, k_u, profile_root(xi, k_u)[1])


def _nu1_at(xi: LoadingVector, k_u: int, lam: float) -> float:
    x = np.abs(xi.coords[: xi.k_xi])
    lb = 2.0 * np.log(x) - lam**2 / x**2
    mb = lb.max()
    return lam * k_u + math.exp(0.5 * (mb + math.log(np.sum(np.exp(lb - mb)))))


def nu2(xi: LoadingVector, k_u: int) -> float:
    return top_norm(xi, k_u)


def effective_sparsity(k_u: int, n: int, p: int, degree: int) -> int:
    lp = math.log(p)
    return int(math.floor(min(n / lp, k_u**2 / (degree * lp))))


def cutoff_and_regime(k_u: int, n: int, p: int) -> tuple[int, str]:
    """Rate-optimal cutoff m_star and regime: ceil(k_u^2 log p) if ultra-sparse,
    k_u <= sqrt(n)/log p (boundary included), else ceil(n / log p); capped at p."""
    if n < 2 or p < 2 or k_u < 1:
        raise ValueError("need n, p >= 2, k_u >= 1")
    lp = math.log(p)
    if k_u <= math.sqrt(n) / lp:
        return min(int(math.ceil(k_u**2 * lp)), p), ULTRA_SPARSE
    return min(int(math.ceil(n / lp)), p), MODERATELY_SPARSE


def regime_and_cutoff(xi: LoadingVector, k_u: int, n: int, degree: int) -> ProfileSummary:
    """All profile quantities for a concrete (xi, k_u, n, degree), at the loading's dimension p."""
    if degree < 1:
        raise ValueError("need degree >= 1")
    m_star, regime = cutoff_and_regime(k_u, n, xi.p)
    zeta, lam = profile_root(xi, k_u)
    k_eff = effective_sparsity(k_u, n, xi.p, degree)
    return ProfileSummary(
        zeta=zeta,
        lam=lam,
        j1=j1_index(xi, lam),
        nu1=_nu1_at(xi, k_u, lam),
        nu2=nu2(xi, k_u),
        k_eff=k_eff,
        nu3=top_norm(xi, k_eff),
        m_star=m_star,
        regime=regime,
    )


def cutoff_prefixes(xi: LoadingVector) -> tuple[np.ndarray, np.ndarray]:
    """(H(m), |xi_{m+1}|) for every cutoff m in 0..p, by prefix sums: the norm of the top m
    coordinates and the largest magnitude past them, 0 at m = p."""
    return np.sqrt(np.concatenate(([0.0], np.cumsum(xi.coords**2)))), np.append(np.abs(xi.coords), 0.0)


def log_grid(p: int, size: int) -> list[int]:
    """At most `size` distinct cutoffs in 0..p, log-spaced with both endpoints."""
    pts = {0, p}
    for t in np.geomspace(1, max(p, 1), num=max(size - 2, 1)):
        pts.add(int(round(t)))
    return sorted(pts)


def upper_objective(xi: LoadingVector, k_u: int, n: int) -> np.ndarray:
    """The cutoff objective H(m)(1/sqrt(n) + k_u log p / n) + |xi_{m+1}| k_u sqrt(log p / n)
    for every m in 0..p, p the loading's dimension (`cutoff_prefixes`)."""
    lp = math.log(xi.p)
    h, tail = cutoff_prefixes(xi)
    return h * (1.0 / math.sqrt(n) + k_u * lp / n) + tail * k_u * math.sqrt(lp / n)


def rate_bounds(xi: LoadingVector, k_u: int, n: int) -> tuple[float, float]:
    """(upper, lower) separation-rate expressions with constant 1, p the loading's dimension.

    upper minimizes the cutoff objective by a linear scan (smallest
    optimal m); lower is max(nu1/sqrt(n), nu2 * k_u log p / n).
    """
    obj = upper_objective(xi, k_u, n)
    upper = float(obj.min())
    lower = max(nu1(xi, k_u) / math.sqrt(n), nu2(xi, k_u) * k_u * math.log(xi.p) / n)
    return upper, lower


# --- phase diagram for flat-on-support ("regular") loadings -----------------

EASY_L2 = "easy_l2"
EASY_LINF = "easy_linf"
SPARSE_LOADING_L2_INFLATED = "sparse_loading_l2_inflated"
COMPUTATIONAL_GAP = "computational_gap"
STATISTICALLY_IMPOSSIBLE = "statistically_impossible"

RATE_TAGS = {
    EASY_L2: "|xi|_2/sqrt(n)",
    EASY_LINF: "|xi|_inf k_u sqrt(log p/n)",
    SPARSE_LOADING_L2_INFLATED: "|xi|_2 k_u log p/n",
    COMPUTATIONAL_GAP: (
        "|xi|_inf [k_u^{3/2} log p/n + sqrt(k_xi/n)]",
        "|xi|_inf sqrt(n/log p ^ k_xi) k_u log p/n",
    ),
}


def _region(gamma_xi: float, gamma_u: float, gamma_n: float) -> tuple[str, float, float]:
    """(label, statistical, computational) at one cell: its gamma_tau-free region label and both
    gamma_tau boundary exponents, one branch per region."""
    if gamma_u <= gamma_n / 2.0:  # ultra-sparse: the two curves coincide
        if gamma_xi <= 2.0 * gamma_u:
            return EASY_L2, gamma_xi / 2.0, gamma_xi / 2.0
        return EASY_LINF, gamma_u, gamma_u
    comp = min(min(gamma_xi / 2.0, gamma_n / 2.0) + (gamma_u - gamma_n / 2.0), gamma_u)
    if gamma_xi <= gamma_u:
        return SPARSE_LOADING_L2_INFLATED, comp, comp
    if gamma_xi < 2.0 * gamma_u:  # gamma_u - (gamma_n - gamma_u) / 2 is exactly gamma_u at gamma_u = gamma_n
        return COMPUTATIONAL_GAP, max(gamma_xi / 2.0, gamma_u - (gamma_n - gamma_u) / 2.0), comp
    return EASY_LINF, gamma_u, comp


def phase_boundaries(gamma_xi: float, gamma_u: float, gamma_n: float) -> tuple[float, float]:
    """(statistical, computational) gamma_tau boundary exponents at gamma_xi.

    Exponents parameterize k_xi = p^{gamma_xi}, k_u = p^{gamma_u},
    n = p^{gamma_n}, and the rescaled shift sqrt(n) tau = |xi|_inf p^{gamma_tau}.
    The statistical exponent is at most the computational one wherever gamma_u <= gamma_n.  Where
    gamma_u > gamma_n (k_u > n, outside the paper's regime) the curves can cross: on the 21^3 grid of
    exponents in steps of 0.05, 948 of those 4,410 cells put the statistical one above, e.g.
    phase_boundaries(0.15, 0.1, 0.0) == (0.15000000000000002, 0.1).
    """
    return _region(gamma_xi, gamma_u, gamma_n)[1:]


def regular_phase(
    gamma_xi: float,
    gamma_u: float,
    gamma_n: float,
    gamma_tau: float | None = None,
):
    """Region label and rate tag for a flat-on-support loading.

    Without gamma_tau the label describes which separation-rate formula
    applies to the (loading sparsity, regime) cell.  With gamma_tau the
    label additionally resolves detectability of that alternative:
    below the statistical curve -> statistically_impossible; between the
    two curves -> computational_gap.  Where the curves cross (only where
    gamma_u > gamma_n, see `phase_boundaries`) no gamma_tau lies between
    them, so there computational_gap is never returned.
    """
    for g in (gamma_xi, gamma_u, gamma_n):
        if not 0.0 <= g <= 1.0:
            raise ValueError("exponents must lie in [0, 1]")
    label, stat, comp = _region(gamma_xi, gamma_u, gamma_n)
    if gamma_tau is None:
        return label, RATE_TAGS[label]
    if gamma_tau < stat:
        return STATISTICALLY_IMPOSSIBLE, RATE_TAGS[EASY_L2 if gamma_u <= gamma_n / 2.0 else SPARSE_LOADING_L2_INFLATED]
    if gamma_tau < comp:
        return COMPUTATIONAL_GAP, RATE_TAGS[COMPUTATIONAL_GAP]
    return (EASY_LINF if label == COMPUTATIONAL_GAP else label), RATE_TAGS[label]


# --- named example profiles -------------------------------------------------


def flat_closed_form(size: int, scale: float, k_u: int) -> tuple[float, float, float]:
    """(zeta, lambda, nu1) for a flat profile with `size` entries of |scale|.

    The profile equation collapses to sqrt(size) e^{-zeta/(2 scale^2)} = k_u/2,
    so zeta = 2 scale^2 log(2 sqrt(size)/k_u); when that is negative the
    threshold is zero and nu1 is the full l2 norm.
    """
    zeta = 2.0 * scale**2 * math.log(2.0 * math.sqrt(size) / k_u)
    if zeta <= 0.0:
        return zeta, 0.0, scale * math.sqrt(size)
    lam = math.sqrt(zeta)
    return zeta, lam, lam * k_u + scale * k_u / 2.0


def regular_profile(size: int, scale: float, p: int) -> LoadingVector:
    raw = np.zeros(p)
    raw[:size] = scale
    return make_loading(raw)


def multiscale_profile(k_u: int, blocks: int, scale: float, p: int) -> LoadingVector:
    """Equal-energy blocks of sizes ceil(k_u l^2), l = 1..blocks; needs blocks^3 <= k_u."""
    if blocks**3 > k_u:
        raise MultiscaleConstraint(f"blocks^3 = {blocks ** 3} exceeds k_u = {k_u}")
    sizes = [int(math.ceil(k_u * (l**2))) for l in range(1, blocks + 1)]
    total = sum(sizes)
    if total > p:
        raise MultiscaleConstraint(f"profile needs {total} coordinates but p = {p}")
    raw = np.zeros(p)
    pos = 0
    for m in sizes:
        raw[pos : pos + m] = scale / math.sqrt(m)
        pos += m
    return make_loading(raw)


def subweibull_profile(q: float, p: int, seed: int) -> LoadingVector:
    """i.i.d. |W| with two-sided sub-Weibull tail exponent q, sorted.

    W = |Z|^{2/q} for standard normal Z has P(W >= t) = P(|Z| >= t^{q/2})
    which is exp(-t^q/2) up to constants; q = 2 recovers absolute
    Gaussians.
    """
    if q <= 0:
        raise ValueError("tail exponent must be positive")
    z = stream(seed, 0).standard_normal(p)
    return make_loading(np.abs(z) ** (2.0 / q))


def example_profiles(kind: str, params: dict, seed: int = 0) -> LoadingVector:
    """Construct one of the named profiles: regular, multiscale, subweibull."""
    if kind == "regular":
        return regular_profile(int(params["K"]), float(params["a"]), int(params["p"]))
    if kind == "multiscale":
        return multiscale_profile(
            int(params["k_u"]),
            int(params["L"]),
            float(params["a"]),
            int(params["p"]),
        )
    if kind == "subweibull":
        return subweibull_profile(float(params["q"]), int(params["p"]), seed)
    raise ValueError(f"unknown profile kind {kind!r}")
