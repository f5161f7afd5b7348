"""Hermite-expansion machinery for low-degree likelihood-ratio norms.

Works in the normalized Hermite basis (h_k = He_k / sqrt(k!)), where the
moment of a product h_mu(U) h_nu(V) under a rank-one cross-covariance
Cov(U, V) = r c' is zero unless |mu| = |nu| = m, and otherwise equals
m!/sqrt(mu! nu!) r^mu c^nu.  The degree-D likelihood-ratio norm of a
prior mixture against the product reference measure is then a finite sum
over multi-indices, evaluated exactly for desk-scale instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .errors import SizeBudget
from .priors import PriorDraw


@dataclass(frozen=True)
class RankOneGaussian:
    """Centered Gaussian (U, V) with identity marginals and Cov(U, V) = r c'."""

    r: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if np.linalg.norm(self.r) * np.linalg.norm(self.c) >= 1.0:
            raise ValueError("need ||r|| ||c|| < 1 for a positive definite joint")


def hermite_moment(mu, nu, r, c=None) -> float:
    """E[h_mu(U) h_nu(V)] under the rank-one model.

    Accepts either a RankOneGaussian as third argument or the pair of
    factor vectors (r, c).  Factorials run in log space; the sign is
    carried separately so odd powers of negative factors survive.
    """
    if isinstance(r, RankOneGaussian):
        r, c = r.r, r.c
    mu = np.asarray(mu, dtype=int)
    nu = np.asarray(nu, dtype=int)
    m = int(mu.sum())
    if m != int(nu.sum()):
        return 0.0
    if m == 0:
        return 1.0
    r = np.asarray(r, dtype=float)
    c = np.asarray(c, dtype=float)
    base = np.concatenate((r[mu > 0], c[nu > 0]))
    expo = np.concatenate((mu[mu > 0], nu[nu > 0]))
    if np.any(base == 0.0):
        return 0.0
    sgn = -1.0 if (np.sum(expo[base < 0.0]) % 2) else 1.0
    log_mag = (
        math.lgamma(m + 1)
        - 0.5 * (sum(math.lgamma(a + 1) for a in mu) + sum(math.lgamma(a + 1) for a in nu))
        + float(np.sum(expo * np.log(np.abs(base))))
    )
    return sgn * math.exp(log_mag)


def _indices_up_to(width: int, degree: int):
    """All multi-indices over `width` slots with total degree <= degree,
    streamed in lexicographic order of the slot-multiset encoding."""
    for d in range(degree + 1):
        for slots in combinations_with_replacement(range(width), d):
            alpha = [0] * width
            for s in slots:
                alpha[s] += 1
            yield tuple(alpha)


def _count_indices(width: int, degree: int) -> int:
    return sum(math.comb(width + d - 1, d) for d in range(degree + 1))


def ld_pair_value(draw1: PriorDraw, draw2: PriorDraw, degree: int, n: int) -> float:
    """sum_{|alpha| <= degree} E_1[H_alpha] E_2[H_alpha] for one draw pair.

    Multi-indices factor across the n i.i.d. rows; within a row the
    moment splits into the (y, leading-block) part against the trailing
    block through each draw's rank-one factors.
    """
    r1, c1 = draw1.rank_one_factors()
    r2, c2 = draw2.rank_one_factors()
    width_u, width_v = r1.size, c1.size
    row_width = width_u + width_v

    # per-row sums by degree: t[d] = sum over row indices of degree d
    t = np.zeros(degree + 1)
    for alpha in _indices_up_to(row_width, degree):
        mu, nu = alpha[:width_u], alpha[width_u:]
        f1 = hermite_moment(mu, nu, r1, c1)
        if f1 == 0.0:
            continue
        f2 = hermite_moment(mu, nu, r2, c2)
        if f2 == 0.0:
            continue
        t[sum(alpha)] += f1 * f2

    # combine rows: coefficient extraction of (sum_d t[d] x^d)^n up to degree
    total = np.zeros(degree + 1)
    total[0] = 1.0
    for _ in range(n):
        conv = np.zeros(degree + 1)
        for d1 in range(degree + 1):
            if total[d1] == 0.0:
                continue
            for d2 in range(degree + 1 - d1):
                conv[d1 + d2] += total[d1] * t[d2]
        total = conv
    return float(total.sum())


def ld_norm(
    prior_draws,
    degree: int,
    n: int,
    *,
    index_cap: int = 10_000_000,
) -> float:
    """Estimate LD(degree): average of ld_pair_value over consecutive pairs.

    Draws must be rescaled to unit diagonal (their joint covariance has
    sigma_star on the y entry; the rank-one factors normalize it away).
    Raises SizeBudget if the multi-index enumeration would be too large.
    """
    draws = list(prior_draws)
    if len(draws) < 2:
        raise ValueError("need at least two draws")
    p = draws[0].p
    if _count_indices(n * (p + 1), degree) > index_cap:
        raise SizeBudget("multi-index enumeration exceeds the configured cap")
    pairs = [(draws[i], draws[i + 1]) for i in range(0, len(draws) - 1, 2)]
    return float(np.mean([ld_pair_value(a, b, degree, n) for a, b in pairs]))


def ld_uniform_bound(n: int, p: int, degree: int) -> float:
    """log of the uniform bound 9 (6 n p D)^{4 D} on the squared projected norm."""
    if n < 1 or p < 1 or degree < 1:
        raise ValueError("arguments must be positive")
    return math.log(9.0) + 4.0 * degree * math.log(6.0 * n * p * degree)
