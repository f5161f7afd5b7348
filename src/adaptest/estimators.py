"""Point estimators: scaled lasso, sample covariance, the inf-norm
constrained debiasing direction, and the exhaustive sparse signed-spiked
covariance estimator.  Each reads any dataset of `model` only through its Gram.

The lasso and the direction program share one coordinate-descent core on
the Gram's columns, formed on first touch: a KKT check picks a working set
(the nonzero coordinates and the violators), solved exactly where its
predicted signs hold and else swept in ascending index order, so results are
deterministic.  The scaled-lasso fit is memoised on its dataset, and its
sigma_hat is the one it estimates: a zero residual raises.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

from .errors import BudgetExceeded, DegenerateData, ZeroResidualDegenerate
from .model import Dataset

_log = logging.getLogger("adaptest")
LASSO_ROUNDS = 500  # the scaled lasso's cap on alternation rounds


@dataclass(frozen=True)
class ScaledLassoFit:
    beta_hat: np.ndarray
    sigma_hat: float
    iterations: int
    converged: bool
    objectives: tuple = field(default=(), repr=False)


@dataclass(frozen=True)
class ProjectionResult:
    u_hat: np.ndarray
    feasible: bool
    objective: float


@dataclass(frozen=True)
class SpikedCovFit:
    sigma_hat_spike: np.ndarray
    omega_hat: np.ndarray
    b_hat: tuple
    fell_back_identity: bool


def sample_cov(data: Dataset) -> np.ndarray:
    """n^{-1} X'X from every column of the dataset's Gram, symmetrized so the result is bitwise symmetric."""
    g = data.cols(range(data.p))
    return (g + g.T) / 2.0


def _signed_solve(gram_ws: np.ndarray, lin: np.ndarray, pen: np.ndarray, signs: np.ndarray):
    """The working-set point with v_A = G[A, A]^{-1} (lin_A - pen_A s_A) on A = {s != 0} and 0 off A,
    or None unless that solve is finite and keeps the signs s (a singular G[A, A] raises LinAlgError)."""
    a = signs.nonzero()[0]
    sol = np.linalg.solve(gram_ws[a][:, a], lin[a] - pen[a] * signs[a])
    out = np.zeros(signs.size)
    out[a] = sol
    return out if all(0.0 < x < math.inf for x in (sol * signs[a]).tolist()) else None


def _unbounded(cols: np.ndarray, lin: np.ndarray, pen: np.ndarray) -> bool:
    """Whether d = e_a - e_b for two bitwise-equal columns a, b of cols = G[:, A] certifies the program
    unbounded below: G[:, A] d == 0 exactly and |lin_A' d| > pen_A' |d|, so it falls without bound along d."""
    equal = {}
    for i, col in enumerate(cols.T):
        equal.setdefault(col.tobytes(), []).append(i)
    return any(abs(lin[a] - lin[b]) > pen[a] + pen[b] for same in equal.values() for a, b in combinations(same, 2))


def _cd_quadratic_l1(
    gram: Dataset,
    lin: np.ndarray,
    pen: np.ndarray,
    beta0: np.ndarray,
    kkt_tol: float,
    max_passes: int,
) -> tuple[np.ndarray, bool, int]:
    """Minimize  v' G v / 2 - lin' v + sum_j pen_j |v_j|  by working-set steps.

    A round stops if the KKT violation over all coordinates is at most kkt_tol, else predicts the
    working set's signs s: sign(v_j), or sign((lin - Gv)_j) at v_j = 0.  The exact step (Osborne,
    Presnell & Turlach 2000) solves G[A, A] v_A = lin_A - pen_A s_A on A = {s != 0}, taken if finite
    and sign-keeping, and tried only if |A| <= gram.n: rank G <= n makes a larger G[A, A] singular,
    though a float solve may not raise on it.  Else the set is swept in ascending order until no
    scaled step exceeds kkt_tol / 100, and solved again once two sweeps in a row end on equal signs;
    a singular G[A, A] leaves it to the sweeps unless two equal columns certify the program unbounded
    below (`_unbounded`), which returns unconverged at once, and no (set, signs) is solved twice.
    Each solve and each sweep is one pass, so max_passes bounds cycling steps.  Returns (v,
    converged, passes).  Coordinates with G_jj = 0 are held where they start; only G's diagonal and
    working-set columns are read.
    """
    movable = gram.diag > 0.0
    v = beta0.copy()
    nz = v.nonzero()[0]
    g = gram.cols(nz) @ v[nz]
    passes, tried = 0, set()
    while True:
        r = lin - g
        viol = np.abs(r) - pen  # where v_j = 0; where not, |r_j - pen_j sign(v_j)|
        viol[nz] = np.abs(r[nz] - pen[nz] * np.sign(v[nz]))
        viol[~movable] = 0.0
        if viol.max(initial=0.0) <= kkt_tol:
            return v, True, passes
        if passes >= max_passes:
            return v, False, passes
        ws = (movable & ((v != 0.0) | (viol > kkt_tol))).nonzero()[0]
        ws_cols = gram.cols(ws)
        block = ws_cols[ws].T  # row i is column ws[i] on the working set
        g_ws = g[ws]
        v_old = v[ws]
        v_ws = v_old.tolist()
        lin_ws, pen_ws, d_ws = lin[ws].tolist(), pen[ws].tolist(), gram.diag[ws].tolist()
        signs, last = np.sign(np.where(v_old != 0.0, v_old, r[ws])), None  # signs to solve on, None to sweep
        while passes < max_passes:
            passes += 1
            key = None if signs is None or np.count_nonzero(signs) > gram.n else (ws.tobytes(), signs.tobytes())
            if key is not None and key not in tried:
                tried.add(key)
                try:
                    exact = _signed_solve(block.T, lin[ws], pen[ws], signs)
                except np.linalg.LinAlgError:  # a singular G[A, A]: stop at once if certified unbounded, else sweep
                    if _unbounded(ws_cols, lin[ws], pen[ws]):
                        return v, False, passes
                    continue
                if exact is not None:
                    v_ws = exact
                    break
                continue
            step_max = 0.0
            for i, d_i in enumerate(d_ws):
                z = lin_ws[i] - float(g_ws[i]) + d_i * v_ws[i]
                t = pen_ws[i]
                new = (z - t if z > t else z + t if z < -t else 0.0) / d_i
                step = new - v_ws[i]
                if step != 0.0:
                    g_ws += block[i] * step
                    v_ws[i] = new
                    step_max = max(step_max, abs(step) * math.sqrt(d_i))
            if step_max <= 1e-2 * kkt_tol:
                break
            now = np.sign(v_ws)
            signs, last = (now if np.array_equal(now, last) else None), now
        v_new = np.array(v_ws)
        g += ws_cols @ (v_new - v_old)
        v[ws] = v_new
        nz = v.nonzero()[0]


def _fixed_point_on_support(g: Dataset, beta: np.ndarray, pen0: np.ndarray, tol: float):
    """The scaled-lasso fixed point on beta's support and signs, and else the next signs to try.

    With support S, signs s, A = G[S, S], c = X'y/n on S and
    d = A^{-1}(pen0_S * s), the lasso at penalty sigma * pen0 with that
    support and those signs is beta_S(sigma) = A^{-1} c - sigma d, whose
    residual ||Y - X beta||^2 / n is y'y/n - c'A^{-1}c + sigma^2 d'Ad.  So
    sigma*^2 = (y'y/n - c'A^{-1}c) / (1 - d'Ad).  Returns ((beta*, sigma*),
    None) if that point keeps the signs s and every coordinate outside S
    meets |X_j'(Y - X beta*)/n| <= sigma* pen0_j + tol (its certificate).
    Else (None, signs): s without the coordinates whose sign flipped, plus
    each violator outside S with its gradient's sign; or (None, None) if
    A is singular, num <= 0 or den <= 0.  It reads only the Gram columns of S.
    """
    nz = beta.nonzero()[0]
    s = np.sign(beta[nz])
    cols = g.cols(nz)
    try:
        sol = np.linalg.solve(cols[nz], np.column_stack((g.xty[nz], pen0[nz] * s)))
    except np.linalg.LinAlgError:
        return None, None
    num = g.yty - float(g.xty[nz] @ sol[:, 0])
    den = 1.0 - float(pen0[nz] * s @ sol[:, 1])
    if num <= 0.0 or den <= 0.0:
        return None, None
    sigma = math.sqrt(num / den)
    beta_s = sol[:, 0] - sigma * sol[:, 1]
    kept = beta_s * s > 0.0
    grad = g.xty - cols @ beta_s
    grad[nz] = 0.0
    viol = np.abs(grad) > sigma * pen0 + tol
    out = np.zeros_like(beta)
    if kept.all() and not viol.any():
        out[nz] = beta_s
        return (out, sigma), None
    out[nz[kept]], out[viol] = s[kept], np.sign(grad[viol])
    return None, out


def residual_mean_square(data: Dataset, beta: np.ndarray) -> float:
    """||Y - X beta||^2 / n from the Gram: y'y/n - 2 beta'X'y/n + beta_S' G[S, S] beta_S on beta's support S."""
    nz = beta.nonzero()[0]
    return max(data.yty - 2.0 * float(data.xty @ beta) + float(beta[nz] @ (data.cols(nz)[nz] @ beta[nz])), 0.0)


def scaled_lasso(data: Dataset) -> ScaledLassoFit:
    """Joint estimate of (beta, sigma): the scaled lasso's fixed point.

    For fixed sigma the beta-step is a lasso with per-column weights
    ||X_j||_2 / sqrt(n) and penalty level sigma * sqrt(2.01 log p / n);
    the sigma-step is the exact minimizer ||Y - X beta||_2 / sqrt(n).
    On a support and signs the lasso is affine in sigma, so the fixed point
    of the two steps there has a closed form (`_fixed_point_on_support`),
    taken when its KKT certificate holds; the sigma-step from it returns
    sigma to rounding, and the fit depends only on that support and signs.
    A search tries it first, on the coordinate-descent core's first working
    set at (0, sqrt(y'y/n)) with the signs of X'y/n, then on the signs each
    failed certificate names.  It gives up when a prediction repeats, the
    closed form has no point (a singular block, num <= 0 or den <= 0) or
    LASSO_ROUNDS tries fail; then rounds alternate the two steps from
    (0, sqrt(y'y/n)), each beta-step followed by the closed form on its
    support and signs.  Stops when sigma changes by less than 1e-8 (relative) or
    after LASSO_ROUNDS rounds; converged is False if that never happened or if any
    beta-step ran out of its budget of 2000 coordinate-descent passes, and then
    the fit logs a WARNING on the adaptest logger, once, when it is computed.
    A zero residual, at y'y = 0 or in a round, leaves sigma_hat undefined and
    raises ZeroResidualDegenerate.

    Memoised on the dataset; the fit's beta_hat is read-only.
    """
    if "scaled_lasso" in data.memo:
        return data.memo["scaled_lasso"]
    n, p = data.n, data.p
    if n < 2:
        raise DegenerateData("need at least two samples")
    lam0 = math.sqrt(2.01 * math.log(p) / n)
    weights = np.sqrt(data.diag)
    if np.any(weights == 0.0):
        raise DegenerateData("columns of X must not be identically zero")

    beta, pen0 = np.zeros(p), lam0 * weights
    sigma = math.sqrt(data.yty)
    if sigma == 0.0:
        raise ZeroResidualDegenerate("zero residual: sigma_hat is undefined")
    kkt_tol = 1e-10 * max(1.0, sigma)
    # the search: predicted signs, from the CD core's first working set at (0, sigma) on (see the docstring)
    signs, fixed, seen = np.sign(data.xty) * (np.abs(data.xty) - sigma * lam0 * weights > kkt_tol), None, set()
    while signs is not None and len(seen) < LASSO_ROUNDS and signs.tobytes() not in seen:
        seen.add(signs.tobytes())
        fixed, signs = _fixed_point_on_support(data, signs, pen0, kkt_tol)
    objectives = []
    converged = False
    inner_ok = True
    it = 0
    for it in range(1, LASSO_ROUNDS + 1):
        if fixed is None:
            kkt_tol = 1e-10 * max(1.0, sigma)
            beta, ok, _ = _cd_quadratic_l1(data, data.xty, sigma * lam0 * weights, beta, kkt_tol, max_passes=2000)
            inner_ok = inner_ok and ok
            fixed = _fixed_point_on_support(data, beta, pen0, kkt_tol)[0]
        if fixed is not None:
            (beta, sigma), fixed = fixed, None
        res2 = residual_mean_square(data, beta)
        sigma_new = math.sqrt(res2)
        if sigma_new == 0.0:
            raise ZeroResidualDegenerate("zero residual: sigma_hat is undefined")
        objectives.append(res2 / (2.0 * sigma_new) + sigma_new / 2.0 + lam0 * float(weights @ np.abs(beta)))
        done = abs(sigma_new / sigma - 1.0) < 1e-8
        sigma = sigma_new
        if done:
            converged = True
            break
    beta.setflags(write=False)
    fit = ScaledLassoFit(beta_hat=beta, sigma_hat=sigma, iterations=it,
                         converged=converged and inner_ok, objectives=tuple(objectives))
    if not fit.converged:
        _log.warning("the scaled lasso on %d x %d data did not converge in %d rounds", n, p, it)
    return data.memo.setdefault("scaled_lasso", fit)


def projection_direction(
    data: Dataset,
    xi_vec: np.ndarray,
    c_xi: float,
) -> ProjectionResult:
    """Solve  min u' S u  s.t.  ||S u - xi||_inf <= C_xi ||xi||_2 sqrt(log p / n).

    S is the dataset's Gram, n its sample count and xi_vec the loading in original coordinates.
    Solved through the equivalent l1-penalized quadratic
    min_v v'Sv/2 - xi'v + r ||v||_1, whose stationary points satisfy the
    constrained problem's KKT system.  The constraint is then checked on
    a fresh product S u; if it fails (a coordinate with S_jj = 0 and
    |xi_j| > r can never meet it) or the budget of 5000 coordinate-descent
    passes runs out, the zero-direction fallback is returned with
    feasible = False and a WARNING on the adaptest logger.  When r >= ||xi||_inf,
    u = 0 is instead the exact optimum: feasible, objective 0, no pass, no WARNING.
    """
    p = xi_vec.size
    norm2 = float(np.linalg.norm(xi_vec))
    radius = c_xi * norm2 * math.sqrt(math.log(p) / data.n)
    tol = 1e-9 * max(norm2, 1.0)
    v, ok, _ = _cd_quadratic_l1(data, xi_vec, np.full(p, radius), np.zeros(p), kkt_tol=tol, max_passes=5000)
    nz = v.nonzero()[0]
    s_v = data.cols(nz) @ v[nz]
    if not ok or np.max(np.abs(s_v - xi_vec)) > radius * (1.0 + 1e-8) + tol:
        _log.warning("no feasible projection direction (radius %.3g, converged %s): falling back to u = 0", radius, ok)
        return ProjectionResult(u_hat=np.zeros(p), feasible=False, objective=0.0)
    return ProjectionResult(u_hat=v, feasible=True, objective=float(v[nz] @ s_v[nz]))


# --- exhaustive sparse signed-spiked covariance estimation -------------------


def gamma_block(a: np.ndarray, b_set) -> np.ndarray:
    """Identity outside b_set x b_set; the principal submatrix of `a` inside."""
    p = a.shape[0]
    out = np.eye(p)
    idx = np.fromiter(b_set, dtype=int, count=len(b_set))
    if idx.size:
        out[np.ix_(idx, idx)] = a[np.ix_(idx, idx)]
    return out


_SCAN_BLOCK = 1 << 16  # block entries the D-screen gathers at once


def spiked_cov_estimate(
    data: Dataset,
    k_u: int,
    gamma_star: float = 3.0,
    *,
    comb_cap: int = 5_000_000,
) -> SpikedCovFit:
    """Exhaustive-search estimator for identity-plus-sparse-spike covariance.

    Candidate supports B with |B| <= k_u are screened, in ascending
    (|B|, lexicographic) order, by requiring every D in the complement
    with |D| <= k_u to look like pure identity noise: the D-block must be
    near I in operator norm and the D x B cross block must be small.
    The D are walked in ascending (|D|, lexicographic) order and tested in
    stacks of blocks, one stacked eigvalsh (and svd) per stack, and a
    candidate's walk stops at its first failing D.  comb_cap bounds the D
    blocks counted over all candidates, each walk up to and including
    that first failing block.
    The first survivor B is kept and the estimate is identity outside
    B x B.  Eigenvalues of the kept block must stay inside
    [1/20, 20] (m1 = 10) so the inverse is well defined; if no candidate
    survives, the identity is returned with fell_back_identity = True.
    """
    if data.n < 2:
        raise DegenerateData("need at least two samples")
    n = data.n
    p = data.p
    s = sample_cov(data)
    logp = math.log(p)

    checked = 0
    for bsz in range(0, k_u + 1):
        for b_set in combinations(range(p), bsz):
            idx = np.array(b_set, dtype=int)
            gb_norm = 1.0
            if bsz:
                ev = np.linalg.eigvalsh(s[np.ix_(idx, idx)])
                if ev[0] < 1.0 / 20.0 or ev[-1] > 20.0:
                    continue
                gb_norm = max(float(np.max(np.abs(ev))), 1.0)
            comp = [j for j in range(p) if j not in b_set]
            ok = True
            for d in range(1, min(k_u, p - bsz) + 1):
                root_d = math.sqrt(d / n)
                root_log = math.sqrt(gamma_star * d * logp / n)
                diag_bound = 2.0 * (root_d + root_log) + (root_d + root_log) * (root_d + root_log)
                cross_bound = math.sqrt(gb_norm) * (root_d + math.sqrt(bsz / n) + root_log)
                walk = combinations(comp, d)
                # a block gathers d x (d + |B|) entries; a stack stops at the block that would exceed comb_cap
                block = max(1, _SCAN_BLOCK // (d * (d + bsz)))
                while ok and (rows := np.fromiter(islice(walk, min(block, comb_cap + 1 - checked)), (np.intp, d))).size:
                    diag = s[rows[:, :, None], rows[:, None, :]] - np.eye(d)
                    fail = np.max(np.abs(np.linalg.eigvalsh(diag)), axis=1) > diag_bound
                    if bsz:
                        fail |= np.linalg.svd(s[rows[:, :, None], idx], compute_uv=False)[:, 0] > cross_bound
                    ok = not fail.any()
                    checked += fail.size if ok else int(fail.argmax()) + 1
                    if checked > comb_cap:
                        raise BudgetExceeded(f"enumeration exceeded cap {comb_cap}")
            if ok:
                omega = np.eye(p)
                if bsz:
                    omega[np.ix_(idx, idx)] = np.linalg.inv(s[np.ix_(idx, idx)])
                return SpikedCovFit(
                    sigma_hat_spike=gamma_block(s, b_set), omega_hat=omega, b_hat=b_set, fell_back_identity=False
                )
    return SpikedCovFit(sigma_hat_spike=np.eye(p), omega_hat=np.eye(p), b_hat=(), fell_back_identity=True)
