"""Low-degree likelihood-ratio norms of the rank-one coupled priors.

In the normalized Hermite basis (h_k = He_k / sqrt(k!)) the degree-D norm
LD(D) of a prior mixture against the product reference is, for each draw
pair with Cov(U, V) = r1 c1' and r2 c2', the sum of products of moments
over n-row multi-indices of degree <= D.  It has a closed form:

1. moment identity: E[h_mu(U) h_nu(V)] = m!/sqrt(mu! nu!) r^mu c^nu when
   |mu| = |nu| = m, and 0 otherwise;
2. multinomial collapse: summed over |mu| = |nu| = m, the product of two
   draws' moments is x^m with x = (r1'r2)(c1'c2);
3. n-row series: one row contributes degree 2m with weight x^m, so the n
   i.i.d. rows give sum_{m <= D/2} C(n+m-1, m) x^m, the first D/2 + 1
   terms of the chi-square pair integral (1 - x)^(-n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .priors import PriorDraw, rank_one_overlap


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


def ld_pair_value(draw1: PriorDraw, draw2: PriorDraw, degree: int, n: int) -> float:
    """sum_{|alpha| <= degree} E_1[H_alpha] E_2[H_alpha] for one draw pair:
    sum_{m <= degree/2} C(n+m-1, m) x^m with x the rank-one overlap, summed
    in floats so no large binomial is formed."""
    x = rank_one_overlap(draw1, draw2)
    term = total = 1.0
    for m in range(1, degree // 2 + 1):
        term *= x * (n + m - 1) / m
        total += term
    return total


def ld_norm(prior_draws, degree: int, n: int) -> float:
    """Estimate LD(degree): average of ld_pair_value over consecutive pairs.

    Draws must be rescaled to unit diagonal (their joint covariance has
    sigma_star on the y entry; the rank-one factors normalize it away).
    """
    draws = list(prior_draws)
    if len(draws) < 2:
        raise ValueError("need at least two draws")
    pairs = [(draws[i], draws[i + 1]) for i in range(0, len(draws) - 1, 2)]
    return float(np.mean([ld_pair_value(a, b, degree, n) for a, b in pairs]))


def ld_uniform_bound(n: int, p: int, degree: int) -> float:
    """log of the uniform bound 9 (6 n p D)^{4 D} on the squared projected norm."""
    if n < 1 or p < 1 or degree < 1:
        raise ValueError("arguments must be positive")
    return math.log(9.0) + 4.0 * degree * math.log(6.0 * n * p * degree)
