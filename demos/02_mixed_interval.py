"""The mixed confidence interval and its endpoints.

Fits the scaled lasso, builds the debiasing direction, and shows how the
mixed interval interpolates between the plug-in interval (cutoff m = 0)
and the fully debiased interval (m = p), with the profile cutoff m*
landing near the radius minimum.
"""

import numpy as np

from adaptest import (
    TestProblem,
    ModelParams,
    generate_dataset,
    make_loading,
    mixed_ci,
    mixed_test,
    scaled_lasso,
)
from adaptest.harness import m_cutoff_grid
from adaptest.profiles import regime_and_cutoff

n, p, k_u = 300, 200, 5
beta = np.zeros(p)
beta[:5] = 0.9
theta = ModelParams(beta=beta, sigma_cov=None, noise_sd=1.0)
data = generate_dataset(theta, n, seed=21)

xi = make_loading(np.concatenate((np.linspace(2.0, 0.8, 10), 0.05 * np.ones(p - 10))))
target = float(xi.original() @ beta)
fit = scaled_lasso(data)
print(f"scaled lasso: sigma_hat={fit.sigma_hat:.4f}, support={np.flatnonzero(fit.beta_hat)}")

print("\nradius across cutoffs (debiased head + plug-in tail):")
for m in m_cutoff_grid(p, 10):
    ci = mixed_ci(data, fit, xi, m, k_u, 0.05, 0.05)
    marker = " covers" if ci.covers(target) else " MISSES"
    print(f"  m={m:4d}  center={ci.center:+.4f}  radius={ci.radius:.4f}{marker}")

summary = regime_and_cutoff(xi, k_u, n, 1)
print(f"\nprofile cutoff m* = {summary.m_star} ({summary.regime})")

problem = TestProblem(xi=xi, t0=target, k_u=k_u, alpha=0.05, eta=0.05)
dec = mixed_test(data, problem)
print(f"mixed test at t0 = truth: reject={dec.reject} (radius {dec.interval.radius:.4f})")
dec_far = mixed_test(data, TestProblem(xi=xi, t0=target + 6 * dec.interval.radius, k_u=k_u, alpha=0.05, eta=0.05))
print(f"mixed test at a far t0:   reject={dec_far.reject}")
print(f"budget ledger: {dec.interval.budget} -> level {dec.interval.level}")
