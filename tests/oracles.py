"""Dense oracles the tests check the library against: the map between a model point
theta = (beta, Sigma, sigma) and the (p+1) x (p+1) covariance of (y, x), y first, a
prior draw's joint covariance in that form, and the plug-in and debiased intervals
written out, which the library builds only as the mixed interval at m = 0 and m = p."""

import math
from statistics import NormalDist

import numpy as np

from adaptest.errors import NotPositiveDefinite
from adaptest.inference import C_BETA, C_PI, C_XI, ConfidenceInterval
from adaptest.model import ModelParams


def h_map(sigma_z: np.ndarray) -> ModelParams:
    """Recover theta = (beta, Sigma, sigma) from the joint covariance of (y, x), y first.

    beta = Sigma_xx^{-1} Sigma_xy, Sigma = Sigma_xx as the full block
    (0..p-1, Sigma_xx), and sigma^2 is the Schur complement of the x-block.
    """
    xx = sigma_z[1:, 1:]
    xy = sigma_z[1:, 0]
    beta = np.linalg.solve(xx, xy)
    schur = float(sigma_z[0, 0]) - float(xy @ beta)
    if schur <= 0.0:
        raise NotPositiveDefinite(f"Schur complement {schur!r} is not positive")
    return ModelParams(beta=beta, sigma_cov=(np.arange(xy.size), xx.copy()), noise_sd=float(np.sqrt(schur)))


def h_inv(theta: ModelParams) -> np.ndarray:
    """Joint covariance of (y, x), y first, induced by theta: Sigma is I with theta's block
    (S, Sigma_SS) embedded, or I itself for sigma_cov None."""
    idx, block = theta.sigma_cov or ([], [])
    sz = np.eye(theta.p + 1)
    sz[1:, 1:][np.ix_(idx, idx)] = block
    sb = sz[1:, 1:] @ theta.beta
    sz[0, 1:] = sz[1:, 0] = sb
    sz[0, 0] = float(theta.beta @ sb) + theta.noise_sd**2
    return sz


def joint_covariance(draw) -> np.ndarray:
    """(p+1) x (p+1) covariance of (y, x) for a `priors.PriorDraw`, y first."""
    sz = np.zeros((draw.p + 1, draw.p + 1))
    sz[0, 0] = draw.sigma_star**2
    sz[1:, 1:] = draw.coupled_block()
    sz[0, 1 + draw.split :] = sz[1 + draw.split :, 0] = draw.kappa * draw.trail
    return sz


def plugin_ci(fit, xi_vec: np.ndarray, k_u: int, n: int, alpha: float) -> ConfidenceInterval:
    """xi'beta_hat +- C_pi sigma_hat ||xi||_inf k_u sqrt(log p / n), p = xi_vec.size: no quantile
    term, as the whole alpha budget pays for the estimator error event."""
    radius = C_PI * fit.sigma_hat * float(np.max(np.abs(xi_vec))) * k_u * math.sqrt(math.log(xi_vec.size) / n)
    return ConfidenceInterval(center=float(xi_vec @ fit.beta_hat), radius=radius, budget={"plugin": alpha})


def debiased_ci(data, fit, proj, xi_vec: np.ndarray, k_u: int, alpha: float) -> ConfidenceInterval:
    """Center xi'beta_hat + u'X'(Y - X beta_hat)/n along proj.u_hat, read from the dataset's Gram
    as u'(X'Y/n - G[:, S] beta_hat_S) on the support S of beta_hat; radius 1.1 sigma_hat
    [sqrt(u'Su/n) z_{1-alpha/8} + C_beta C_xi ||xi||_2 k_u log p / n] at u'Su = proj.objective."""
    n, p, beta = data.n, data.p, fit.beta_hat
    s = beta.nonzero()[0]
    center = float(xi_vec @ beta) + float(proj.u_hat @ (data.xty - data.cols(s) @ beta[s]))
    q = 1.0 - alpha / 8.0
    z = NormalDist().inv_cdf(q) if q < 1.0 else math.inf
    bias = C_BETA * C_XI * float(np.linalg.norm(xi_vec)) * k_u * math.log(p) / n
    radius = 1.1 * fit.sigma_hat * (math.sqrt(max(proj.objective, 0.0) / n) * z + bias)
    return ConfidenceInterval(center=center, radius=radius, budget={"debiased": alpha})
