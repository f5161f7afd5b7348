"""Point estimators: scaled lasso, sample covariance, the inf-norm
constrained debiasing direction, and the exhaustive sparse signed-spiked
covariance estimator.

The lasso and the direction program share one coordinate-descent core on
a dataset's `Gram` (columns formed on first touch): a vectorized KKT check
picks a working set (the nonzero coordinates and the violators), and only
that set is swept, in ascending index order, so results are deterministic.
The scaled-lasso fit is memoised on its dataset, like the `Gram`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, ZeroResidualDegenerate
from .model import Dataset


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
    radius: float
    objective: float


@dataclass(frozen=True)
class SpikedCovFit:
    sigma_hat_spike: np.ndarray
    omega_hat: np.ndarray
    b_hat: tuple
    fell_back_identity: bool


def sample_cov(data: Dataset) -> np.ndarray:
    """n^{-1} X'X, symmetrized so the result is bitwise symmetric."""
    g = data.x.T @ data.x / data.n
    return (g + g.T) / 2.0


class Gram:
    """n^{-1} X'X of one dataset, column j formed on first read as its own
    product X'X_j / n, so its bits never depend on the columns formed before
    or beside it.  diag comes from the column norms; xty = X'y/n, yty = y'y/n."""

    def __init__(self, data: Dataset):
        self.x, self.n = data.x, data.n
        self.diag = np.einsum("ij,ij->j", data.x, data.x) / data.n
        self.xty, self.yty = data.x.T @ data.y / data.n, float(data.y @ data.y) / data.n
        self.columns: dict[int, np.ndarray] = {}  # j -> column j, once formed

    @classmethod
    def of(cls, src) -> "Gram":
        """src itself, the Gram memoised on a Dataset, or a dense symmetric matrix behind this interface."""
        if isinstance(src, Dataset):
            return src.memo.get("gram") or src.memo.setdefault("gram", cls(src))
        if isinstance(src, Gram):
            return src
        gram = cls.__new__(cls)
        gram.diag, gram.columns = np.diag(src), dict(enumerate(np.asarray(src).T))
        return gram

    def cols(self, idx) -> np.ndarray:
        """Columns idx of the Gram matrix, as a p x len(idx) array."""
        idx = np.asarray(idx, dtype=int).tolist()
        for j in idx:
            if j not in self.columns:
                self.columns[j] = self.x.T @ self.x[:, j] / self.n
        return np.array([self.columns[j] for j in idx]).reshape(len(idx), self.diag.size).T


def _cd_quadratic_l1(
    gram: "Gram | np.ndarray",
    lin: np.ndarray,
    pen: np.ndarray,
    beta0: np.ndarray,
    kkt_tol: float,
    max_passes: int,
) -> tuple[np.ndarray, bool, int]:
    """Minimize  v' G v / 2 - lin' v + sum_j pen_j |v_j|  by coordinate descent.

    Each round stops if the KKT violation, checked over all coordinates
    at once, is at most kkt_tol; otherwise it sweeps the working set
    (nonzero coordinates and violators) on its principal submatrix until
    no scaled step exceeds kkt_tol / 100, then updates the full gradient
    once.  Each sweep is one pass.  Returns (v, converged, passes).
    Coordinates with G_jj = 0 are held where they start.  G is anything
    `Gram.of` accepts; only its diagonal and working-set columns are read.
    """
    gram = Gram.of(gram)
    movable = gram.diag > 0.0
    v = beta0.copy()
    nz = np.flatnonzero(v)
    g = gram.cols(nz) @ v[nz]
    passes = 0
    while True:
        r = lin - g
        viol = np.where(v != 0.0, np.abs(r - pen * np.sign(v)), np.abs(r) - pen)
        viol[~movable] = 0.0
        if np.max(viol, initial=0.0) <= kkt_tol:
            return v, True, passes
        if passes >= max_passes:
            return v, False, passes
        ws = np.flatnonzero(movable & ((v != 0.0) | (viol > kkt_tol)))
        ws_cols = gram.cols(ws)
        block = ws_cols[ws].T  # row i is column ws[i] on the working set
        g_ws = g[ws]
        v_old = v[ws]
        v_ws = v_old.tolist()
        lin_ws, pen_ws, d_ws = lin[ws].tolist(), pen[ws].tolist(), gram.diag[ws].tolist()
        while passes < max_passes:
            passes += 1
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
        v_new = np.array(v_ws)
        g += ws_cols @ (v_new - v_old)
        v[ws] = v_new


def _fixed_point_on_support(g: Gram, beta: np.ndarray, pen0: np.ndarray, tol: float):
    """The scaled-lasso fixed point on beta's support and signs, or None.

    With support S, signs s, A = G[S, S], c = X'y/n on S and
    d = A^{-1}(pen0_S * s), the lasso at penalty sigma * pen0 with that
    support and those signs is beta_S(sigma) = A^{-1} c - sigma d, whose
    residual ||Y - X beta||^2 / n is y'y/n - c'A^{-1}c + sigma^2 d'Ad.  So
    sigma*^2 = (y'y/n - c'A^{-1}c) / (1 - d'Ad).  (beta*, sigma*) is
    returned only if it keeps the signs s and every coordinate outside S
    meets |X_j'(Y - X beta*)/n| <= sigma* pen0_j + tol; it reads only the
    Gram columns of S.
    """
    nz = np.flatnonzero(beta)
    s = np.sign(beta[nz])
    cols = g.cols(nz)
    try:
        sol = np.linalg.solve(cols[nz], np.column_stack((g.xty[nz], pen0[nz] * s)))
    except np.linalg.LinAlgError:
        return None
    num = g.yty - float(g.xty[nz] @ sol[:, 0])
    den = 1.0 - float(pen0[nz] * s @ sol[:, 1])
    if num <= 0.0 or den <= 0.0:
        return None
    sigma = math.sqrt(num / den)
    beta_s = sol[:, 0] - sigma * sol[:, 1]
    if np.any(beta_s * s <= 0.0):
        return None
    grad = g.xty - cols @ beta_s
    grad[nz] = 0.0
    if np.any(np.abs(grad) > sigma * pen0 + tol):
        return None
    out = np.zeros_like(beta)
    out[nz] = beta_s
    return out, sigma


def scaled_lasso(data: Dataset, *, sigma_floor: float = 0.0) -> ScaledLassoFit:
    """Joint estimate of (beta, sigma): the scaled lasso's fixed point.

    For fixed sigma the beta-step is a lasso with per-column weights
    ||X_j||_2 / sqrt(n) and penalty level sigma * sqrt(2.01 log p / n);
    the sigma-step is the exact minimizer ||Y - X beta||_2 / sqrt(n).
    After each beta-step the fixed point of the two steps is solved in
    closed form on that step's support and signs, where the lasso is
    affine in sigma (`_fixed_point_on_support`), and taken when its KKT
    certificate holds; the sigma-step from it then returns sigma to
    rounding.  Otherwise the rounds alternate the two steps from the
    new sigma.  Stops when sigma changes by less than 1e-8 (relative) or
    after 500 rounds; converged is False if that never happened or if any
    beta-step ran out of its budget of 2000 coordinate-descent passes.

    Memoised on the dataset by sigma_floor; the fit's beta_hat is read-only.
    """
    key = ("scaled_lasso", sigma_floor)
    if key in data.memo:
        return data.memo[key]
    n, p = data.n, data.p
    if n < 2:
        raise ValueError("need at least two samples")
    lam0 = math.sqrt(2.01 * math.log(p) / n)
    g = Gram.of(data)
    weights = np.sqrt(g.diag)
    if np.any(weights == 0.0):
        raise ValueError("columns of X must not be identically zero")

    beta = np.zeros(p)
    sigma = math.sqrt(g.yty)
    objectives = []
    converged = False
    inner_ok = True
    it = 0
    for it in range(1, 501):
        if sigma <= 0.0:
            break
        kkt_tol = 1e-10 * max(1.0, sigma)
        beta, ok, _ = _cd_quadratic_l1(g, g.xty, sigma * lam0 * weights, beta, kkt_tol=kkt_tol, max_passes=2000)
        inner_ok = inner_ok and ok
        fixed = _fixed_point_on_support(g, beta, lam0 * weights, kkt_tol)
        if fixed is not None:
            beta, sigma = fixed
        nz = np.flatnonzero(beta)  # beta is sparse: form beta' G beta on its support
        res2 = max(g.yty - 2.0 * float(g.xty @ beta) + float(beta[nz] @ (g.cols(nz)[nz] @ beta[nz])), 0.0)
        sigma_new = math.sqrt(res2)
        objectives.append(
            res2 / (2.0 * sigma_new) + sigma_new / 2.0 + lam0 * float(weights @ np.abs(beta))
            if sigma_new > 0.0
            else math.inf
        )
        if sigma_new == 0.0:
            sigma = 0.0
            break
        done = abs(sigma_new / sigma - 1.0) < 1e-8
        sigma = sigma_new
        if done:
            converged = True
            break
    if sigma == 0.0:
        if sigma_floor > 0.0:
            sigma = sigma_floor
            converged = True
        else:
            raise ZeroResidualDegenerate("zero residual: sigma_hat is undefined")
    beta.setflags(write=False)
    return data.memo.setdefault(key, ScaledLassoFit(
        beta_hat=beta,
        sigma_hat=max(sigma, sigma_floor),
        iterations=it,
        converged=converged and inner_ok,
        objectives=tuple(objectives),
    ))


def projection_direction(
    src: "Dataset | Gram | np.ndarray",
    xi_vec: np.ndarray,
    c_xi: float,
    n: int,
) -> ProjectionResult:
    """Solve  min u' S u  s.t.  ||S u - xi||_inf <= C_xi ||xi||_2 sqrt(log p / n).

    S is `Gram.of(src)` and xi_vec the loading in original coordinates.
    Solved through the equivalent l1-penalized quadratic
    min_v v'Sv/2 - xi'v + r ||v||_1, whose stationary points satisfy the
    constrained problem's KKT system.  The constraint is then checked on
    a fresh product S u; if it fails (a coordinate with S_jj = 0 and
    |xi_j| > r can never meet it) or the budget of 5000 coordinate-descent
    passes runs out, the zero-direction fallback is returned with
    feasible = False.
    """
    p, gram = xi_vec.size, Gram.of(src)
    norm2 = float(np.linalg.norm(xi_vec))
    radius = c_xi * norm2 * math.sqrt(math.log(p) / n)
    tol = 1e-9 * max(norm2, 1.0)
    v, ok, _ = _cd_quadratic_l1(
        gram,
        xi_vec,
        np.full(p, radius),
        np.zeros(p),
        kkt_tol=tol,
        max_passes=5000,
    )
    nz = np.flatnonzero(v)
    s_v = gram.cols(nz) @ v[nz]
    if not ok or np.max(np.abs(s_v - xi_vec)) > radius * (1.0 + 1e-8) + tol:
        return ProjectionResult(u_hat=np.zeros(p), feasible=False, radius=radius, objective=0.0)
    return ProjectionResult(
        u_hat=v,
        feasible=True,
        radius=radius,
        objective=float(v[nz] @ s_v[nz]),
    )


# --- exhaustive sparse signed-spiked covariance estimation -------------------


def gamma_block(a: np.ndarray, b_set) -> np.ndarray:
    """Identity outside b_set x b_set; the principal submatrix of `a` inside."""
    p = a.shape[0]
    out = np.eye(p)
    idx = np.fromiter(b_set, dtype=int, count=len(b_set))
    if idx.size:
        out[np.ix_(idx, idx)] = a[np.ix_(idx, idx)]
    return out


def _opnorm_sym(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


def _opnorm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _diag_bound(d: int, n: int, logp: float, gamma_star: float) -> float:
    s = math.sqrt(d / n) + math.sqrt(gamma_star * d * logp / n)
    return 2.0 * s + s * s


def _cross_bound(d: int, bsz: int, n: int, logp: float, gamma_star: float, gb_norm: float) -> float:
    return math.sqrt(gb_norm) * (
        math.sqrt(d / n) + math.sqrt(bsz / n) + math.sqrt(gamma_star * d * logp / n)
    )


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
    The first survivor B is kept and the estimate is identity outside
    B x B.  Eigenvalues of the kept block must stay inside
    [1/20, 20] (m1 = 10) so the inverse is well defined; if no candidate
    survives, the identity is returned with fell_back_identity = True.
    """
    if data.n < 2:
        raise ValueError("need at least two samples")
    n = data.n
    p = data.p
    s = sample_cov(data)
    logp = math.log(p)

    checked = 0

    def d_subsets(b_set: tuple):
        # lazily, so comb_cap is checked before a large enumeration is held
        comp = [j for j in range(p) if j not in b_set]
        sizes = range(1, min(k_u, len(comp)) + 1)
        return itertools.chain.from_iterable(itertools.combinations(comp, d) for d in sizes)

    eye = np.eye(p)
    for bsz in range(0, k_u + 1):
        for b_set in itertools.combinations(range(p), bsz):
            idx = np.array(b_set, dtype=int)
            gb_norm = 1.0
            if bsz:
                ev = np.linalg.eigvalsh(s[np.ix_(idx, idx)])
                if ev[0] < 1.0 / 20.0 or ev[-1] > 20.0:
                    continue
                gb_norm = max(float(np.max(np.abs(ev))), 1.0)
            ok = True
            for d_set in d_subsets(b_set):
                checked += 1
                if checked > comb_cap:
                    raise BudgetExceeded(f"enumeration exceeded cap {comb_cap}")
                didx = np.array(d_set, dtype=int)
                block = s[np.ix_(didx, didx)] - eye[np.ix_(didx, didx)]
                if _opnorm_sym(block) > _diag_bound(len(d_set), n, logp, gamma_star):
                    ok = False
                    break
                if bsz and _opnorm(s[np.ix_(didx, idx)]) > _cross_bound(
                    len(d_set), bsz, n, logp, gamma_star, gb_norm
                ):
                    ok = False
                    break
            if ok:
                omega = np.eye(p)
                if bsz:
                    omega[np.ix_(idx, idx)] = np.linalg.inv(s[np.ix_(idx, idx)])
                return SpikedCovFit(
                    sigma_hat_spike=gamma_block(s, b_set),
                    omega_hat=omega,
                    b_hat=b_set,
                    fell_back_identity=False,
                )
    return SpikedCovFit(
        sigma_hat_spike=np.eye(p),
        omega_hat=np.eye(p),
        b_hat=(),
        fell_back_identity=True,
    )
