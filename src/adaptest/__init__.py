"""Adaptive testing of linear functionals in sparse Gaussian regression.

A numpy toolbox covering the full pipeline: loading-profile rate
functionals, scaled-lasso and debiasing estimators, mixed confidence
intervals and tests, least-favorable prior samplers with chi-square
oracles, Hermite low-degree norms, sparse-CCA statistics and the
reduction, plus a Monte Carlo experiment harness and batch CLI.
"""

from .model import (
    Dataset,
    LoadingVector,
    ModelParams,
    TestProblem,
    generate_dataset,
    make_loading,
    stream,
)
from .profiles import (
    ProfileSummary,
    example_profiles,
    rate_bounds,
    regime_and_cutoff,
    regular_phase,
    solve_zeta,
    top_norm,
)
from .estimators import (
    ProjectionResult,
    ScaledLassoFit,
    SpikedCovFit,
    projection_direction,
    sample_cov,
    scaled_lasso,
    spiked_cov_estimate,
)
from .inference import (
    ConfidenceInterval,
    TestDecision,
    known_sigma_ci,
    mixed_ci,
    mixed_test,
    spiked_ci,
    split_half,
)
from .priors import (
    PriorDraw,
    chi2_mixture_mc,
    chi2_pair_closed_form,
    chi2_pair_integral,
    hypergeometric_mgf,
    sample_comp_prior,
    sample_nu1_prior,
    sample_nu2_prior,
)
from .lowdeg import hermite_moment, ld_norm, ld_uniform_bound
from .scca import (
    SccaInstance,
    SccaParams,
    boundary_table,
    gen_scca,
    reduce_to_lt,
    sample_cross_covariance,
    thresholds,
)

__version__ = "0.1.0"
