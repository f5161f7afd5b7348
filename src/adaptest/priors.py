"""Least-favorable priors: `prior_sampler` picks a kind's sampler, `valid_draws`
keeps its valid draws, `PriorDraw.model_point` turns one into a model point, and
`draw_pairs` pairs them for the chi-square oracles below and `lowdeg`.

Three samplers produce null-constrained draws built from sparse rank-one
couplings in the joint covariance of (y, x):

* the covariance-perturbation prior (kind "nu2"): a fixed unit vector on
  the leading block coupled to a random sparse vector on the rest;
* the identity-design prior (kind "nu1"): random-sparsity signal with
  per-coordinate Bernoulli rates calibrated to the magnitude profile;
* the computational prior (kind "comp"): the same coupling mechanism
  with block sizes tied to the effective sparsity k_eff.

Each sampler reads the dimension p off its loading, `xi.p` (`sample_nu2_prior` also takes a `p`, and
raises ValueError unless it equals xi.p).  Draws come in stacks of at most _STACK_ENTRIES entries per
(rows, p) array, one row per seed, and a single draw is row 0 of a stack of one: each seed runs only its
stream's RNG calls, and each stack its supports' decoding and the coupling arithmetic, which enforces the
null constraint xi'beta = tau exactly through the scalar kappa and records analytic validity checks
(sparsity cap, eigenvalue window, noise bound).  Pairs of draws are scored in the O(p) rank-one closed form
against the reference point beta = 0, Sigma = I, noise sigma_star; the dense determinant form, on (p+1) x
(p+1) joint covariance arrays with y first, is its oracle, and the hypergeometric MGF the exact yardstick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .errors import DivergentIntegral, RegimeViolation
from .model import M1, M2, LoadingVector, ModelParams, sign, streams, uniform_subsets
from .profiles import effective_sparsity, j1_index, nu1, profile_root, top_norm

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


_STACK_ENTRIES = 1 << 17  # a stack's (rows, p) arrays hold at most this many entries each, or one row


@dataclass(frozen=True)
class PriorDraw:
    """One sampled null parameter with its analytic validity evidence, or a stack of them.

    The draw couples the leading x-block (width split) to the trailing
    one: Cov(leading, trailing x-block) = lead trail' and Cov(y, trailing
    x-block) = kappa trail.  The identity-design prior has an empty lead.
    A stack holds the draws at consecutive seeds: each field of _PER_ROW has
    a leading row axis, kind, tau and sigma_star are shared, and row(i) is a draw.
    """

    kind: str
    lead: np.ndarray
    trail: np.ndarray
    kappa: float
    tau: float
    beta: np.ndarray
    noise_sd: float
    eig_min: float
    eig_max: float
    valid: bool
    reason: str
    sigma_star: float
    sparsity: int  # nonzero entries of beta
    residual: float  # xi'beta - tau on the loading it was drawn for

    @property
    def split(self) -> int:
        return self.lead.shape[-1]

    @property
    def p(self) -> int:
        return self.lead.shape[-1] + self.trail.shape[-1]

    def row(self, i: int) -> PriorDraw:
        """Draw i of a stack, holding Python scalars and its own copies of the arrays."""
        return replace(self, **{f: v.copy() if v.ndim else v.item() for f in _PER_ROW for v in [getattr(self, f)[i]]})

    def coupled_block(self, cols=slice(None)) -> np.ndarray:
        """I + lead t' + t lead' with t = trail[cols]: Sigma on the leading block and those trailing coordinates."""
        t = self.trail[cols]
        block = np.eye(self.split + t.size)
        block[: self.split, self.split :] = np.outer(self.lead, t)
        block[self.split :, : self.split] = block[: self.split, self.split :].T
        return block

    def model_point(self, xi: LoadingVector, t0: float) -> ModelParams:
        """This draw, shifted on xi's largest coordinate to xi'beta = t0, in original coordinates.  An
        identity-design draw (split 0) gets sigma_cov None, a coupled one the block (S, Sigma_SS) of
        its lead block and trail support."""
        beta_s = self.beta.copy()
        beta_s[0] += (t0 - self.tau) / float(xi.coords[0])
        sigma = None
        if self.split:
            cols = np.flatnonzero(self.trail)
            idx = xi.perm[np.concatenate((np.arange(self.split), self.split + cols))]
            order = np.argsort(idx)
            sigma = (idx[order], self.coupled_block(cols)[np.ix_(order, order)])
        return ModelParams(beta=beta_s[np.argsort(xi.perm)], sigma_cov=sigma, noise_sd=self.noise_sd)

    def rank_one_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(r, c) with Cov(U, V) = r c' after rescaling y by sigma_star, one row per draw of a stack.

        U stacks (y / sigma_star, leading x-block) and V is the trailing
        x-block; for the identity-design prior U is the scalar y alone.
        """
        if self.lead.ndim == 1:
            return np.concatenate(([self.kappa / self.sigma_star], self.lead)), self.trail
        return np.column_stack((self.kappa / self.sigma_star, self.lead)), self.trail


_PER_ROW = tuple(f for f in PriorDraw.__dataclass_fields__ if f not in ("kind", "tau", "sigma_star"))


def _dots(a: np.ndarray, b: np.ndarray):
    """a_i'b_i per row i (a 1-D a or b is every row's; both 1-D give a float), each by its own 1-D BLAS dot:
    a blocked product sums in another order, and a row's bits would depend on its stack."""
    if a.ndim == b.ndim == 1:
        return float(a @ b)
    return np.array([x.dot(y) for x, y in zip(*(v if v.ndim == 2 else repeat(v) for v in (a, b)))])


def _coupled_draw(kind, xi, cap, lead, trail, tau, sigma_star, lead_dot=None, admissible=True) -> PriorDraw:
    """The stack of draws with Cov(leading, trailing x-block) = lead trail' and Cov(y, trailing x-block) =
    kappa trail, one per row of trail (a 1-D lead is every row's), where kappa solves xi'beta = tau, and
    beta = kappa (-|trail|^2 lead, trail) / (1 - |lead|^2 |trail|^2); lead_dot is xi'lead (computed when
    None).  A row's reason is the first check it fails, and a row outside the sampler's admissible set
    (a bool per row) gets kappa = 0.  Squares are Python float powers: x ** 2 is not always x * x."""
    split = lead.shape[-1]
    lead_dot = _dots(lead, xi.coords[:split]) if lead_dot is None else lead_dot
    lsq, tsq = _dots(lead, lead), _dots(trail, trail)
    denom = 1.0 - tsq * lsq
    coeff = (-tsq * lead_dot + _dots(trail, xi.coords[split:])) / denom
    kappa = np.where(admissible, tau / np.where(coeff > 1e-14, coeff, math.nan), 0.0)
    k0 = np.where(np.isnan(kappa), 0.0, kappa)  # an unsolved kappa, and kappa = 0, give beta = 0
    beta = np.empty((trail.shape[0], split + trail.shape[1]))
    np.multiply(-(k0 * tsq / denom)[:, None], lead, out=beta[:, :split])
    np.multiply((k0 / denom)[:, None], trail, out=beta[:, split:])
    var = sigma_star**2 - np.array([k**2 for k in k0.tolist()]) * tsq / denom
    cross = np.sqrt(lsq * tsq)
    eig_min, eig_max = 1.0 - cross, 1.0 + cross
    noise_sd = np.sqrt(np.where(var > 0, var, 0.0))
    sparsity, residual = (beta != 0).sum(axis=1), _dots(beta, xi.coords) - tau
    checks = {
        "kappa_zero_degenerate": np.asarray(admissible),
        "degenerate_constraint": ~(coeff <= 1e-14),
        "kappa_out_of_range": (0.0 < kappa) & (kappa <= 1.0),
        "sparsity_cap": sparsity <= cap,
        "eigenvalue_window": (1.0 / M1 <= eig_min) & (eig_max <= M1),
        "noise_bound": (0.0 < noise_sd) & (noise_sd <= M2),
        "constraint_residual": ~(np.abs(residual) > 1e-10 * max(abs(tau), 1.0)),
    }
    reason = np.full(kappa.shape, "ok", dtype=f"<U{max(map(len, checks))}")
    for why, ok in reversed(checks.items()):
        reason[~ok] = why
    return PriorDraw(
        kind=kind, lead=np.broadcast_to(lead, (trail.shape[0], split)), trail=trail, kappa=kappa, tau=tau,
        beta=beta, noise_sd=noise_sd, eig_min=eig_min, eig_max=eig_max, valid=reason == "ok", reason=reason,
        sigma_star=sigma_star, sparsity=sparsity, residual=residual,
    )


def prior_sampler(kind: str, xi: LoadingVector, k_u: int, n: int, sigma_star: float, **consts):
    """seed -> PriorDraw of the prior `kind` (nu2, nu1 or comp) at this problem, in dimension xi.p; consts
    are the sampler's keyword constants.  The sampler is looked up by name at each call, so a rebinding
    of the module attribute (a tracer or a test spy) sees every draw.  Its attribute stack(seed, rows) is the
    stack of the draws at seed, seed + 1, ...: rows of them, or fewer (one at least) if rows x p > _STACK_ENTRIES."""
    if kind == "nu2":
        sampler = lambda seed: sample_nu2_prior(xi, k_u, n, xi.p, sigma_star, seed=seed, **consts)
    elif kind == "nu1":
        sampler = lambda seed: sample_nu1_prior(xi, k_u, n, seed=seed, sigma_star=sigma_star, **consts)
    elif kind == "comp":
        sampler = lambda seed: sample_comp_prior(xi, k_u, n, seed=seed, sigma_star=sigma_star, **consts)
    else:
        raise ValueError(f"unknown prior kind {kind!r}")
    build, most = {"nu2": _nu2_stack, "nu1": _nu1_stack, "comp": _comp_stack}[kind], max(1, _STACK_ENTRIES // xi.p)
    sampler.stack = lambda seed, rows: build(xi, k_u, n, sigma_star, range(seed, seed + min(rows, most)), **consts)
    return sampler


def valid_draws(sampler, seed: int):
    """The valid draws of sampler(seed), sampler(seed + 1), ... in order: valid_rows, each draw a stack of one."""
    return (draw for draw, rows in valid_rows(lambda s, _: sampler(s), seed, math.inf) if rows)


def valid_rows(stacks, seed: int, wanted: float):
    """(stack, its valid rows) for stacks(seed, wanted), then stacks of the seeds that follow, each asked for the
    valid draws still wanted, until `wanted` are found, so no later seed is drawn (a single draw is a stack of
    one).  RegimeViolation, naming their most frequent reason, at the 50th invalid draw in a row."""
    misses: list[str] = []
    while wanted > 0:
        stack = stacks(seed, wanted)
        checked = list(zip(np.atleast_1d(stack.valid).tolist(), np.atleast_1d(stack.reason).tolist()))
        seed, rows = seed + len(checked), []
        for i, (ok, why) in enumerate(checked):
            misses = [] if ok else [*misses, why]
            if len(misses) == 50:
                why = max(misses, key=misses.count)
                raise RegimeViolation(
                    f"rejection sampling found no valid draw: 50 invalid in a row, {misses.count(why)} {why}"
                )
            rows += [i] if ok else []
        wanted -= len(rows)
        yield stack, rows


def draw_pairs(draws):
    """Consecutive disjoint pairs (d0, d1), (d2, d3), ... of draws, taken lazily as valid_draws never ends."""
    it = iter(draws)
    return zip(it, it)


def sample_nu2_prior(
    xi: LoadingVector, k_u: int, n: int, p: int, sigma_star: float, c1: float = DEFAULT_C1, c2: float | None = None,
    seed: int = 0,
) -> PriorDraw:
    """Covariance-perturbation prior targeting tau = c2 nu2 k_u log p / n.

    lead is the fixed unit vector along the top-p1 loading block; trail
    picks a uniform size-p1 support in the complement with entries
    c1 sign(xi) sqrt(log p / n); kappa solves the null constraint.  p must be xi.p.
    """
    if p != xi.p:
        raise ValueError(f"p = {p} but the loading has p = {xi.p}")
    return _nu2_stack(xi, k_u, n, sigma_star, [seed], c1, c2).row(0)


def _nu2_stack(xi: LoadingVector, k_u: int, n: int, sigma_star: float, seeds, c1=DEFAULT_C1, c2=None) -> PriorDraw:
    """The stack of sample_nu2_prior's draws at seeds, each seed's trail support picked by p1 raw words of its
    stream, all rows' at once (`model.uniform_subsets`)."""
    lead, h_p1, entries, tau = xi.memoised(_nu2_constants, k_u, n, c1, c2)
    words = np.array([rng.bit_generator.random_raw(lead.size) for rng in streams(seeds)])
    support = uniform_subsets(words, entries.size)
    trail = np.zeros((len(seeds), entries.size))
    np.put_along_axis(trail, support, entries[support], axis=1)
    # xi'lead = -h_p1 exactly in real arithmetic, as lead = -xi_{1..p1} / h_p1
    return _coupled_draw("nu2", xi, k_u // 2, lead, trail, tau, sigma_star, lead_dot=-h_p1)


def _nu2_constants(xi: LoadingVector, k_u: int, n: int, c1: float, c2: float | None) -> tuple:
    """(lead, H(p1), the trail entry at every complement coordinate, tau) of sample_nu2_prior."""
    if k_u < 4:
        raise RegimeViolation("nu2 prior needs k_u >= 4")
    p1 = k_u // 4
    if xi.p - p1 < p1:
        raise RegimeViolation("nu2 prior needs p - floor(k_u/4) >= floor(k_u/4)")
    c2 = default_c2(c1) if c2 is None else c2
    h_p1 = top_norm(xi, p1)
    tau = c2 * top_norm(xi, k_u) * k_u * math.log(xi.p) / n
    return -xi.coords[:p1] / h_p1, h_p1, c1 * math.sqrt(math.log(xi.p) / n) * sign(xi.coords[p1:]), tau


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
    xi: LoadingVector, k_u: int, n: int, tau: float | None = None, c4: float = DEFAULT_C4, c5: float = DEFAULT_C5,
    seed: int = 0, sigma_star: float = 5.0,
) -> PriorDraw:
    """Identity-design random-sparsity prior targeting xi'beta = tau.

    tau = None means the default (c4 c5 / 4) nu1(xi) / sqrt(n).  kappa =
    tau / (xi'delta) when delta lands in the admissible set (enough
    signal, sparsity within k_u/2, bounded length); otherwise kappa = 0
    and the draw is flagged degenerate.
    """
    return _nu1_stack(xi, k_u, n, sigma_star, [seed], tau, c4, c5).row(0)


def _nu1_stack(xi: LoadingVector, k_u: int, n: int, sigma_star: float, seeds, tau=None, c4=DEFAULT_C4, c5=DEFAULT_C5):
    """The stack of sample_nu1_prior's draws at seeds."""
    if tau is None:
        tau = (c4 * c5 / 4.0) * xi.memoised(nu1, k_u) / math.sqrt(n)
    if tau <= 0:
        raise ValueError("tau must be positive")
    q, gamma, _ = xi.memoised(nu1_weights, k_u, c4)
    k = xi.k_xi
    delta = np.zeros((len(seeds), xi.p))
    delta[:, :k] = (c5 / math.sqrt(n)) * np.array([rng.random(k) < q for rng in streams(seeds)]) * gamma
    xi_dot = _dots(delta, xi.coords)
    in_set = (xi_dot >= tau) & ((delta != 0).sum(axis=1) <= k_u / 2)
    in_set &= _dots(delta, delta) <= np.array([x**2 for x in xi_dot.tolist()]) * sigma_star**2 / (2.0 * tau**2)
    # with an empty lead, kappa = tau / (xi'delta) and beta = kappa delta exactly
    return _coupled_draw("nu1", xi, k_u // 2, np.zeros(0), delta, tau, sigma_star, admissible=in_set)


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
    xi: LoadingVector, k_u: int, n: int, degree: int, c8: float = DEFAULT_C8, seed: int = 0, c9: float | None = None,
    sigma_star: float = 5.0, k_eff_override: int | None = None, s1_override: int | None = None,
) -> PriorDraw:
    """Computational prior targeting tau = c9 nu3 k_u log p / n, p = xi.p.

    lead lives on the band (k_u, k_eff] with Bernoulli support and
    entries -(sqrt(p5)/k_u) sign(xi_j); trail picks a uniform support of
    size floor(k_u/4) beyond k_eff with entries c8 sign(xi) sqrt(log p/n).
    The override knobs exist for desk-scale instances where the
    asymptotic regime condition cannot hold, so that condition is checked
    only when k_eff follows from degree.
    """
    return _comp_stack(xi, k_u, n, sigma_star, [seed], degree, c8, c9, k_eff_override, s1_override).row(0)


def _comp_stack(xi, k_u, n, sigma_star, seeds, degree, c8=DEFAULT_C8, c9=None, k_eff_override=None, s1_override=None):
    """The stack of sample_comp_prior's draws at seeds: each seed's stream gives the s1 raw words that pick its
    trail support (`model.uniform_subsets`, all rows' at once), then the uniforms of its lead's heads."""
    s1, entries, q, lead_at, tau = xi.memoised(_comp_constants, k_u, n, degree, c8, c9, k_eff_override, s1_override)
    reads = [(rng.bit_generator.random_raw(s1), rng.random(q.size) < q) for rng in streams(seeds)]
    words, heads = map(np.array, zip(*reads))
    support = uniform_subsets(words, entries.size)
    trail = np.zeros((len(seeds), entries.size))
    np.put_along_axis(trail, support, entries[support], axis=1)
    return _coupled_draw("comp", xi, k_u, lead_at * heads, trail, tau, sigma_star)


def _comp_constants(xi: LoadingVector, k_u, n, degree, c8, c9, k_eff_override, s1_override) -> tuple:
    """(s1, the trail entry past k_eff, q, the lead entry before it, tau) of sample_comp_prior."""
    p = xi.p
    k_eff = effective_sparsity(k_u, n, p, degree) if k_eff_override is None else int(k_eff_override)
    if k_eff_override is None and not 8 <= 2 * k_u < k_eff:
        raise RegimeViolation(f"need 8 <= 2 k_u < k_eff, got k_u={k_u}, k_eff={k_eff}")
    if not k_u < k_eff < p:
        raise RegimeViolation(f"need k_u < k_eff < p, got k_u={k_u}, k_eff={k_eff}, p={p}")
    s1 = (k_u // 4) if s1_override is None else int(s1_override)
    if not 1 <= s1 <= p - k_eff:
        raise RegimeViolation(f"trail support size s1 = {s1} out of range for p4={p - k_eff}")
    c9 = default_c9(c8) if c9 is None else c9
    tau = c9 * top_norm(xi, k_eff) * k_u * math.log(p) / n
    entries = c8 * math.sqrt(math.log(p) / n) * sign(xi.coords[k_eff:p])
    lead_entries = -(math.sqrt(k_eff - k_u) / k_u) * sign(xi.coords[:k_eff])
    return s1, entries, comp_prior_weights(xi, k_u, k_eff), lead_entries, tau


# --- chi-square machinery ----------------------------------------------------


def chi2_pair_integral(sz1, sz2, sz0, n: int) -> float:
    """Pairwise Gaussian integral (int g1 g2 / g0)^n of joint covariance arrays S1 = sz1, S2 = sz2, S0 = sz0.

    Equals det(I - S0^{-1}(S1 - S0) S0^{-1}(S2 - S0))^{-n/2}.  Divergence
    of the underlying integral is detected through the quadratic form
    S1^{-1} + S2^{-1} - S0^{-1}, which must be positive definite.
    """
    quad = np.linalg.inv(sz1) + np.linalg.inv(sz2) - np.linalg.inv(sz0)
    if np.linalg.eigvalsh((quad + quad.T) / 2.0)[0] <= 0.0:
        raise DivergentIntegral("pairwise integral does not converge")
    m = np.eye(sz0.shape[0]) - np.linalg.solve(sz0, sz1 - sz0) @ np.linalg.solve(sz0, sz2 - sz0)
    det_sign, logdet = np.linalg.slogdet(m)
    if det_sign <= 0.0:
        raise DivergentIntegral("determinant argument is not positive")
    return math.exp(-0.5 * n * logdet)


def rank_one_overlap(draw1: PriorDraw, draw2: PriorDraw) -> float:
    """x = (r1'r2)(c1'c2) from the two draws' rank-one coupling factors."""
    return _overlap(*draw1.rank_one_factors(), *draw2.rank_one_factors())


def _overlap(r1, c1, r2, c2) -> float:
    return float(r1 @ r2) * float(c1 @ c2)


def chi2_pair_closed_form(draw1: PriorDraw, draw2: PriorDraw, n: int) -> float:
    """Rank-one closed form [1 - x]^{-n} in the rank-one overlap x."""
    return closed_form(rank_one_overlap(draw1, draw2), n)


def closed_form(x: float, n: int) -> float:
    if x >= 1.0:
        raise DivergentIntegral("rank-one overlap too large")
    return (1.0 - x) ** (-n)


def pair_overlaps(sampler, seed: int, pairs: int) -> list[float]:
    """The overlaps x of `pairs` draw_pairs of the valid draws from seed on, read off valid_rows' stacks (sampler.stack,
    or stacks of one draw), each by rank_one_overlap's two dot products on the stack's rows, so with its bits."""
    stacks = valid_rows(getattr(sampler, "stack", lambda s, _: sampler(s)), seed, 2 * pairs)
    factors = (
        (r[i], c[i]) for stack, rows in stacks for r, c in [map(np.atleast_2d, stack.rank_one_factors())] for i in rows
    )
    return [_overlap(*f1, *f2) for f1, f2 in draw_pairs(factors)]


def chi2_mixture_mc(prior_sampler, n: int, reps: int, seed: int) -> tuple[float, float]:
    """Monte Carlo chi-square divergence of the prior mixture from the reference point beta = 0, Sigma = I,
    noise sigma_star: (estimate, se) of the mean of chi2_pair_closed_form's [1 - x]^{-n}, minus one, over the
    pair_overlaps of reps pairs from seed on.  No pair needs the dense oracle chi2_pair_integral: a valid draw
    has noise_sd > 0, exactly when |r||c| < 1, so by Cauchy-Schwarz every pair of valid draws has x < 1."""
    if reps < 100:
        raise ValueError("need at least 100 pair replicates")
    values = np.array([closed_form(x, n) for x in pair_overlaps(prior_sampler, seed, reps)])
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
