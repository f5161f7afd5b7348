"""Dense oracles the tests check the library against: the map between a model point
theta = (beta, Sigma, sigma) and the (p+1) x (p+1) covariance of (y, x), y first, and a
prior draw's joint covariance in that form."""

import numpy as np

from adaptest.errors import NotPositiveDefinite
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
