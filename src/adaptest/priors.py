"""Least-favorable prior samplers and chi-square divergence oracles.

Three samplers produce null-constrained model points built from sparse
rank-one couplings in the joint covariance of (y, x):

* the covariance-perturbation prior (kind "nu2"): a fixed unit vector on
  the leading block coupled to a random sparse vector on the rest;
* the identity-design prior (kind "nu1"): random-sparsity signal with
  per-coordinate Bernoulli rates calibrated to the magnitude profile;
* the computational prior (kind "comp"): the same coupling mechanism
  with block sizes tied to the effective sparsity k_eff.

Each draw enforces the null constraint xi'beta = tau exactly through the
scalar kappa and records analytic validity checks (sparsity cap,
eigenvalue window, noise bound).  The chi-square machinery evaluates
pairwise Gaussian integrals in closed determinant form plus Monte Carlo
mixture estimates, with the hypergeometric MGF as the exact yardstick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergentIntegral, RegimeViolation
from .model import JointCovariance, ModelParams, sign, stream
from .model import LoadingVector
from .profiles import effective_sparsity, j1_index, profile_root, top_norm

DEFAULT_C1 = 0.05
DEFAULT_C4 = 0.1
DEFAULT_C5 = 0.5
DEFAULT_C8 = 0.05


def default_c2(c1: float = DEFAULT_C1) -> float:
    """Largest c2 keeping kappa <= 1 via the bound kappa <= 9 sqrt(5) c2 / (2 c1^2)."""
    return 2.0 * c1**2 / (9.0 * math.sqrt(5.0))


def default_c9(c8: float = DEFAULT_C8) -> float:
    """Calibrated at the pilot configuration so that kappa <= 1 whenever the
    sparse coupling is nonempty; see the validity-rate tests."""
    return c8**2 / 150.0


@dataclass
class PriorDraw:
    """One sampled null parameter with its analytic validity evidence."""

    kind: str
    delta1: np.ndarray | None
    delta2: np.ndarray | None
    kappa: float
    tau: float
    beta: np.ndarray
    noise_sd: float
    eig_min: float
    eig_max: float
    valid: bool
    reason: str
    sigma_star: float
    p: int
    split: int  # leading-block width of the coupling (0 for identity design)
    m1: float = 10.0
    m2: float = 10.0

    @property
    def sparsity(self) -> int:
        return int(np.count_nonzero(self.beta))

    def constraint_residual(self, xi: LoadingVector) -> float:
        return float(xi.coords @ self.beta) - self.tau

    @cached_property
    def theta(self) -> ModelParams:
        """Materialize (beta, Sigma, sigma); Sigma is dense p x p."""
        return ModelParams(
            beta=self.beta,
            sigma_cov=self._sigma(),
            noise_sd=self.noise_sd,
            m1=self.m1,
            m2=self.m2,
        )

    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, b) with Cov(leading x-block, trailing x-block) = a b' and
        Cov(y, trailing x-block) = kappa b; nu1 has no leading block."""
        if self.kind == "nu1":
            return np.zeros(0), np.asarray(self.delta1)
        if self.kind == "nu2":  # the leading block carries the fixed unit vector delta1
            return np.asarray(self.delta1), np.asarray(self.delta2)
        return np.asarray(self.delta2), np.asarray(self.delta1)

    def _sigma(self) -> np.ndarray:
        s = np.eye(self.p)
        lead, trail = self._blocks()
        s[: self.split, self.split :] = np.outer(lead, trail)
        s[self.split :, : self.split] = s[: self.split, self.split :].T
        return s

    def joint_covariance(self) -> JointCovariance:
        """Covariance of (y, x) for this draw (y listed first)."""
        sz = np.zeros((self.p + 1, self.p + 1))
        sz[0, 0] = self.sigma_star**2
        sz[1:, 1:] = self._sigma()
        sz[0, 1 + self.split :] = sz[1 + self.split :, 0] = self.kappa * self._blocks()[1]
        return JointCovariance(sigma_z=sz)

    def rank_one_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(r, c) with Cov(U, V) = r c' after rescaling y by sigma_star.

        U stacks (y / sigma_star, leading x-block) and V is the trailing
        x-block; for the identity-design prior U is the scalar y alone.
        """
        lead, trail = self._blocks()
        return np.concatenate(([self.kappa / self.sigma_star], lead)), trail


def point_mass_draw(xi: LoadingVector, sigma_star: float) -> PriorDraw:
    """The degenerate draw at the reference alternative (beta = 0, Sigma = I)."""
    return PriorDraw(
        kind="nu1",
        delta1=np.zeros(xi.p),
        delta2=None,
        kappa=0.0,
        tau=0.0,
        beta=np.zeros(xi.p),
        noise_sd=sigma_star,
        eig_min=1.0,
        eig_max=1.0,
        valid=True,
        reason="point_mass",
        sigma_star=sigma_star,
        p=xi.p,
        split=0,
    )


def _finish_validity(draw: PriorDraw, xi: LoadingVector, cap: int) -> PriorDraw:
    if not draw.valid:
        return draw
    resid = abs(draw.constraint_residual(xi))
    if not (0.0 < draw.kappa <= 1.0):
        draw.valid, draw.reason = False, "kappa_out_of_range"
    elif draw.sparsity > cap:
        draw.valid, draw.reason = False, "sparsity_cap"
    elif not (1.0 / draw.m1 <= draw.eig_min and draw.eig_max <= draw.m1):
        draw.valid, draw.reason = False, "eigenvalue_window"
    elif not (0.0 < draw.noise_sd <= draw.m2):
        draw.valid, draw.reason = False, "noise_bound"
    elif resid > 1e-10 * max(abs(draw.tau), 1.0):
        draw.valid, draw.reason = False, "constraint_residual"
    return draw


def _coupled_draw(kind, lead, trail, lead_dot, trail_dot, tau, sigma_star) -> PriorDraw:
    """The draw with Cov(leading, trailing x-block) = lead trail' and
    Cov(y, trailing x-block) = kappa trail, where kappa solves xi'beta = tau.

    lead_dot and trail_dot are xi's inner products with lead and trail;
    beta = kappa (-|trail|^2 lead, trail) / (1 - |lead|^2 |trail|^2).
    """
    lsq = float(lead @ lead)
    tsq = float(trail @ trail)
    denom = 1.0 - tsq * lsq
    coeff = (-tsq * lead_dot + trail_dot) / denom
    if coeff <= 1e-14:
        kappa = math.nan
        valid, reason = False, "degenerate_constraint"
    else:
        kappa = tau / coeff
        valid, reason = True, "ok"

    split = lead.size
    beta = np.zeros(split + trail.size)
    if valid:
        beta[:split] = -(kappa * tsq / denom) * lead
        beta[split:] = (kappa / denom) * trail
    cross = math.sqrt(lsq * tsq)
    var = sigma_star**2 - ((kappa**2 * tsq / denom) if valid else 0.0)
    delta1, delta2 = (lead, trail) if kind == "nu2" else (trail, lead)  # see PriorDraw._blocks
    return PriorDraw(
        kind=kind,
        delta1=delta1,
        delta2=delta2,
        kappa=kappa,
        tau=tau,
        beta=beta,
        noise_sd=math.sqrt(var) if var > 0 else 0.0,
        eig_min=1.0 - cross,
        eig_max=1.0 + cross,
        valid=valid,
        reason=reason,
        sigma_star=sigma_star,
        p=beta.size,
        split=split,
    )


def sample_nu2_prior(
    xi: LoadingVector,
    k_u: int,
    n: int,
    p: int,
    sigma_star: float,
    c1: float = DEFAULT_C1,
    c2: float | None = None,
    seed: int = 0,
) -> PriorDraw:
    """Covariance-perturbation prior targeting tau = c2 nu2 k_u log p / n.

    delta1 is the fixed unit vector along the top-p1 loading block; delta2
    picks a uniform size-p1 support in the complement with entries
    c1 sign(xi) sqrt(log p / n); kappa solves the null constraint.
    """
    if k_u < 4:
        raise RegimeViolation("nu2 prior needs k_u >= 4")
    if c2 is None:
        c2 = default_c2(c1)
    p1 = k_u // 4
    p2 = p - p1
    if p2 < p1:
        raise RegimeViolation("nu2 prior needs p - floor(k_u/4) >= floor(k_u/4)")
    rng = stream(seed, 0)
    coords = xi.coords

    h_p1 = top_norm(xi, p1)
    delta1 = -coords[:p1] / h_p1
    support = np.sort(rng.choice(p2, size=p1, replace=False))
    delta2 = np.zeros(p2)
    mag = c1 * math.sqrt(math.log(p) / n)
    delta2[support] = mag * sign(coords[p1 + support])

    tau = c2 * top_norm(xi, k_u) * k_u * math.log(p) / n
    # xi'delta1 = -h_p1 exactly in real arithmetic, as delta1 = -xi_{1..p1} / h_p1
    draw = _coupled_draw("nu2", delta1, delta2, -h_p1, float(coords[p1:] @ delta2), tau, sigma_star)
    return _finish_validity(draw, xi, k_u // 2)


def nu1_weights(xi: LoadingVector, k_u: int, c4: float = DEFAULT_C4) -> tuple[np.ndarray, np.ndarray, float]:
    """(q, gamma, lambda) for the identity-design prior.

    q_j = c4 |xi_j| e^{-lambda^2/xi_j^2} / sqrt(sum xi_i^2 e^{-lambda^2/xi_i^2})
    over the support, gamma_j = sign(xi_j) for j <= j1 and lambda/xi_j after.
    """
    _, lam = profile_root(xi, k_u)
    k = xi.k_xi
    x = xi.coords[:k]
    ax = np.abs(x)
    damp = np.exp(-(lam**2) / ax**2)
    denom = math.sqrt(float(np.sum(x**2 * damp)))
    q = np.clip(c4 * ax * damp / denom, 0.0, 1.0)
    j1 = j1_index(xi, lam)
    gamma = np.where(np.arange(k) < j1, sign(x), lam / x)
    return q, gamma, lam


def sample_nu1_prior(
    xi: LoadingVector,
    k_u: int,
    n: int,
    tau: float,
    c4: float = DEFAULT_C4,
    c5: float = DEFAULT_C5,
    seed: int = 0,
    sigma_star: float = 5.0,
) -> PriorDraw:
    """Identity-design random-sparsity prior targeting xi'beta = tau.

    kappa = tau / (xi'delta) when delta lands in the admissible set
    (enough signal, sparsity within k_u/2, bounded length); otherwise
    kappa = 0 and the draw is flagged degenerate.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    rng = stream(seed, 0)
    q, gamma, _ = nu1_weights(xi, k_u, c4)
    k = xi.k_xi
    bern = rng.random(k) < q
    delta = np.zeros(xi.p)
    delta[:k] = (c5 / math.sqrt(n)) * bern * gamma

    xi_dot = float(xi.coords @ delta)
    d_norm2 = float(delta @ delta)
    in_set = (
        xi_dot >= tau
        and np.count_nonzero(delta) <= k_u / 2
        and d_norm2 <= xi_dot**2 * sigma_star**2 / (2.0 * tau**2)
    )
    kappa = tau / xi_dot if in_set else 0.0
    beta = kappa * delta
    var = sigma_star**2 - kappa**2 * d_norm2
    draw = PriorDraw(
        kind="nu1",
        delta1=delta,
        delta2=None,
        kappa=kappa,
        tau=tau,
        beta=beta,
        noise_sd=math.sqrt(var) if var > 0 else 0.0,
        eig_min=1.0,
        eig_max=1.0,
        valid=in_set,
        reason="ok" if in_set else "kappa_zero_degenerate",
        sigma_star=sigma_star,
        p=xi.p,
        split=0,
    )
    return _finish_validity(draw, xi, k_u // 2)


def comp_prior_weights(xi: LoadingVector, k_u: int, k_eff: int) -> np.ndarray:
    """Bernoulli rates q_j over the leading k_eff block; zero outside
    the middle band (k_u, k_eff]."""
    coords = xi.coords[:k_eff]
    band = np.zeros(k_eff, dtype=bool)
    band[k_u:] = True
    mass = math.sqrt(float(np.sum(coords[band] ** 2)))
    p5 = k_eff - k_u
    q = np.zeros(k_eff)
    if mass > 0:
        q[band] = np.abs(coords[band]) / (8.0 * mass) * (k_u / math.sqrt(p5))
    return np.clip(q, 0.0, 1.0)


def sample_comp_prior(
    xi: LoadingVector,
    k_u: int,
    n: int,
    p: int,
    degree: int,
    c8: float = DEFAULT_C8,
    seed: int = 0,
    c9: float | None = None,
    sigma_star: float = 5.0,
    k_eff_override: int | None = None,
    s1_override: int | None = None,
    allow_tiny: bool = False,
) -> PriorDraw:
    """Computational prior targeting tau = c9 nu3 k_u log p / n.

    delta2 lives on the band (k_u, k_eff] with Bernoulli support and
    entries -(sqrt(p5)/k_u) sign(xi_j); delta1 picks a uniform support of
    size floor(k_u/4) beyond k_eff with entries c8 sign(xi) sqrt(log p/n).
    The override knobs exist for desk-scale instances where the
    asymptotic regime condition cannot hold; defaults enforce it.
    """
    k_eff = effective_sparsity(k_u, n, p, degree) if k_eff_override is None else int(k_eff_override)
    if not allow_tiny and not 8 <= 2 * k_u < k_eff:
        raise RegimeViolation(f"need 8 <= 2 k_u < k_eff, got k_u={k_u}, k_eff={k_eff}")
    if not k_u < k_eff < p:
        raise RegimeViolation(f"need k_u < k_eff < p, got k_u={k_u}, k_eff={k_eff}, p={p}")
    if c9 is None:
        c9 = default_c9(c8)
    rng = stream(seed, 0)
    coords = xi.coords
    p3, p4, p5 = k_eff, p - k_eff, k_eff - k_u
    s1 = (k_u // 4) if s1_override is None else int(s1_override)
    if not 1 <= s1 <= p4:
        raise RegimeViolation(f"delta1 support size {s1} out of range for p4={p4}")

    support = np.sort(rng.choice(p4, size=s1, replace=False))
    delta1 = np.zeros(p4)
    delta1[support] = c8 * math.sqrt(math.log(p) / n) * sign(coords[p3 + support])

    q = comp_prior_weights(xi, k_u, k_eff)
    bern = rng.random(p3) < q
    delta2 = -(math.sqrt(p5) / k_u) * sign(coords[:p3]) * bern

    tau = c9 * top_norm(xi, k_eff) * k_u * math.log(p) / n
    lead_dot, trail_dot = float(coords[:p3] @ delta2), float(coords[p3:] @ delta1)
    draw = _coupled_draw("comp", delta2, delta1, lead_dot, trail_dot, tau, sigma_star)
    return _finish_validity(draw, xi, k_u)


# --- chi-square machinery ----------------------------------------------------


def _as_matrix(sz) -> np.ndarray:
    return sz.sigma_z if isinstance(sz, JointCovariance) else np.asarray(sz, dtype=float)


def chi2_pair_integral(sz1, sz2, sz0, n: int) -> float:
    """Pairwise Gaussian integral (int g1 g2 / g0)^n in determinant form.

    Equals det(I - S0^{-1}(S1 - S0) S0^{-1}(S2 - S0))^{-n/2}.  Divergence
    of the underlying integral is detected through the quadratic form
    S1^{-1} + S2^{-1} - S0^{-1}, which must be positive definite.
    """
    s0, s1, s2 = _as_matrix(sz0), _as_matrix(sz1), _as_matrix(sz2)
    quad = np.linalg.inv(s1) + np.linalg.inv(s2) - np.linalg.inv(s0)
    if np.linalg.eigvalsh((quad + quad.T) / 2.0)[0] <= 0.0:
        raise DivergentIntegral("pairwise integral does not converge")
    m = np.eye(s0.shape[0]) - np.linalg.solve(s0, s1 - s0) @ np.linalg.solve(s0, s2 - s0)
    det_sign, logdet = np.linalg.slogdet(m)
    if det_sign <= 0.0:
        raise DivergentIntegral("determinant argument is not positive")
    return math.exp(-0.5 * n * logdet)


def rank_one_overlap(draw1: PriorDraw, draw2: PriorDraw) -> float:
    """x = (r1'r2)(c1'c2) from the two draws' rank-one coupling factors."""
    r1, c1 = draw1.rank_one_factors()
    r2, c2 = draw2.rank_one_factors()
    return float(r1 @ r2) * float(c1 @ c2)


def chi2_pair_closed_form(draw1: PriorDraw, draw2: PriorDraw, n: int) -> float:
    """Rank-one closed form [1 - x]^{-n} in the rank-one overlap x."""
    x = rank_one_overlap(draw1, draw2)
    if x >= 1.0:
        raise DivergentIntegral("rank-one overlap too large")
    return (1.0 - x) ** (-n)


def _closed_form_applies(draw1: PriorDraw, draw2: PriorDraw, s0: np.ndarray) -> bool:
    """Whether chi2_pair_closed_form gives the pair's integral against s0: both
    draws couple the same blocks, both joint covariances are positive definite
    (|r||c| < 1), and s0 is the product reference diag(sigma_star^2, I_p)."""
    if (draw1.kind, draw1.split, draw1.p, draw1.sigma_star) != (draw2.kind, draw2.split, draw2.p, draw2.sigma_star):
        return False
    for d in (draw1, draw2):
        r, c = d.rank_one_factors()
        if not float(r @ r) * float(c @ c) < 1.0:
            return False
    return np.array_equal(s0, np.diag(np.r_[draw1.sigma_star**2, np.ones(draw1.p)]))


def chi2_mixture_mc(
    prior_sampler,
    theta_star: JointCovariance,
    n: int,
    reps: int,
    seed: int,
    valid_only: bool = False,
) -> tuple[float, float]:
    """Monte Carlo chi-square estimate: mean of pair integrals minus one.

    prior_sampler(seed) -> PriorDraw.  With valid_only, invalid draws are
    rejected and redrawn, at most 50 tries per draw (the restricted-prior
    convention).  Returns (estimate, standard error).

    Positive definite rank-one pairs of one kind against the product
    reference diag(sigma_star^2, I_p) take the O(p) closed form
    chi2_pair_closed_form; every other pair takes the dense determinant
    form chi2_pair_integral, the general path and the closed form's test
    oracle.  Per pair the two agree to a few units in 1e-14 relative.
    """
    if reps < 100:
        raise ValueError("need at least 100 pair replicates")
    s0 = _as_matrix(theta_star)
    values = np.empty(reps)
    counter = 0

    def next_draw():
        nonlocal counter
        for _ in range(50):
            d = prior_sampler(seed + counter)
            counter += 1
            if not valid_only or d.valid:
                return d
        raise RegimeViolation("rejection sampling failed to find a valid draw")

    for i in range(reps):
        d1 = next_draw()
        d2 = next_draw()
        if _closed_form_applies(d1, d2, s0):
            values[i] = chi2_pair_closed_form(d1, d2, n)
        else:
            values[i] = chi2_pair_integral(d1.joint_covariance(), d2.joint_covariance(), s0, n)
    est = float(np.mean(values)) - 1.0
    se = float(np.std(values, ddof=1) / math.sqrt(reps))
    return est, se


def hypergeometric_mgf(p: int, k: int, c: float) -> float:
    """Exact E[exp(c log(p) J)] for J ~ Hypergeometric(p, k, k).

    The pmf is built in the log domain without forming any binomial
    coefficient: log pmf(0) = sum_{i<k} log1p(-k/(p-i)), then each step
    multiplies by pmf(j+1)/pmf(j) = (k-j)^2 / ((j+1)(p-2k+j+1)), and the
    k+1 terms are summed with compensated summation.  No quantity of size
    p log p appears, so the accuracy does not decay with p.  Against exact
    rational arithmetic the relative error is below 1e-15 where the value
    is near 1 (k^2 p^(c-1) <= 1, p up to 1e10, k up to 999); it grows with
    k and with the log of the value, and stayed below 1e-12 for k <= 600
    and values up to 1e300.  By Hoeffding's comparison of sampling
    without and with replacement (JASA 1963), the value never exceeds the
    binomial MGF (1 + (k/p)(p^c - 1))^k.  A value beyond the float range
    is returned as inf, a vacuous bound.
    """
    if k > p / 2:
        raise ValueError("need k <= p/2")
    log_base = c * math.log(p)
    log_term = math.fsum(math.log1p(-k / (p - i)) for i in range(k))
    try:
        terms = [math.exp(log_term)]
        for j in range(k):
            log_term += log_base + math.log((k - j) ** 2 / ((j + 1) * (p - 2 * k + j + 1)))
            terms.append(math.exp(log_term))
        return math.fsum(terms)
    except OverflowError:  # every term is positive, so the sum overflows too
        return math.inf
