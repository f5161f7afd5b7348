"""Exception types shared across the package."""


class AdaptestError(Exception):
    """Base class for all package-specific errors."""


class AllZeroLoading(AdaptestError):
    """Raised when a loading vector has no nonzero coordinate."""


class NotPositiveDefinite(AdaptestError):
    """A matrix that must be positive definite is not."""


class CholeskyFailure(AdaptestError):
    """A design covariance block has no Cholesky factor: it is not numerically positive definite."""


class BracketFailure(AdaptestError):
    """Root bracketing did not succeed within the doubling budget."""


class MultiscaleConstraint(AdaptestError):
    """Multiscale profile parameters violate the block-count constraint."""


class ZeroResidualDegenerate(AdaptestError):
    """Scaled-lasso residual is exactly zero, so the noise scale is undefined."""


class BudgetExceeded(AdaptestError):
    """Subset enumeration exceeded the configured combination cap."""


class OddSampleSize(AdaptestError):
    """An even row count is required: at least 4 to split, so that each half has two rows."""


class DegenerateData(AdaptestError, ValueError):
    """An estimator cannot fit its data: fewer than two rows, or an all-zero column of X."""


class RegimeViolation(AdaptestError):
    """Sampler parameters fall outside the required sparsity regime."""


class DivergentIntegral(AdaptestError):
    """The pairwise Gaussian integral does not converge."""


class ConfigError(AdaptestError):
    """Invalid or unparsable experiment configuration."""
