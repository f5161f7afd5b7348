"""Exception types shared across the package."""


class AdaptestError(Exception):
    """Base class for all package-specific errors."""


class AllZeroLoading(AdaptestError):
    """Raised when a loading vector has no nonzero coordinate."""


class NotPositiveDefinite(AdaptestError):
    """A matrix that must be positive definite is not."""


class CholeskyFailure(AdaptestError):
    """Cholesky failed even after the jitter retry."""


class BracketFailure(AdaptestError):
    """Root bracketing did not succeed within the doubling budget."""


class MultiscaleConstraint(AdaptestError):
    """Multiscale profile parameters violate the block-count constraint."""


class ZeroResidualDegenerate(AdaptestError):
    """Scaled-lasso residual is exactly zero, so the noise scale is undefined."""


class BudgetExceeded(AdaptestError):
    """Subset enumeration exceeded the configured combination cap."""


class OddSampleSize(AdaptestError):
    """An even sample count is required for the data split."""


class RegimeViolation(AdaptestError):
    """Sampler parameters fall outside the required sparsity regime."""


class DivergentIntegral(AdaptestError):
    """The pairwise Gaussian integral does not converge."""


class NotPD(AdaptestError):
    """Joint covariance of the paired-sample model is not positive definite."""


class OddPairCount(AdaptestError):
    """Pairwise reduction needs an even number of input rows."""


class ScanBudgetExceeded(AdaptestError):
    """Exhaustive scan would enumerate too many submatrices."""


class ConfigError(AdaptestError):
    """Invalid or unparsable experiment configuration."""
