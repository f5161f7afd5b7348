"""Least-favorable priors and the chi-square yardstick.

Samples the three null priors, verifies draw-by-draw validity (exact
null constraint, sparsity cap, eigenvalue window), and compares the
Monte Carlo chi-square divergence of the covariance-perturbation prior
against the exact hypergeometric MGF bound.
"""

import math

from adaptest.priors import chi2_mixture_mc, hypergeometric_mgf, prior_sampler
from adaptest.profiles import nu1 as nu1_value, regular_profile

p, k_u, n = 400, 16, 1200
sigma_star = 5.0
xi = regular_profile(150, 1.0, p)
tau1 = 0.0125 * nu1_value(xi, k_u) / math.sqrt(n)
samplers = {
    "nu2": prior_sampler("nu2", xi, k_u, n, sigma_star),
    "nu1": prior_sampler("nu1", xi, k_u, n, sigma_star, tau=tau1),
    "comp": prior_sampler("comp", xi, k_u, n, sigma_star, degree=1),
}

print("=== one draw from each prior ===")
d2 = samplers["nu2"](1)
print(f"nu2:  kappa={d2.kappa:.5f} sparsity={d2.sparsity} eigs=[{d2.eig_min:.4f},{d2.eig_max:.4f}] "
      f"residual={d2.residual:.1e} valid={d2.valid}")
d1 = samplers["nu1"](1)
print(f"nu1:  kappa={d1.kappa:.5f} sparsity={d1.sparsity} Sigma=I "
      f"residual={d1.residual:.1e} valid={d1.valid}")
dc = samplers["comp"](1)
print(f"comp: kappa={dc.kappa:.5f} sparsity={dc.sparsity} eigs=[{dc.eig_min:.4f},{dc.eig_max:.4f}] "
      f"valid={dc.valid}")

print("\n=== validity rates over 2000 draws ===")
for name, sampler in samplers.items():
    valid = sum(sampler(s).valid for s in range(2000))
    print(f"  {name}: {valid / 2000:.3f}")

print("\n=== chi-square of the nu2 mixture vs the hypergeometric bound ===")
est, se = chi2_mixture_mc(samplers["nu2"], n, 200, seed=9)
c1 = 0.05
c3 = 2.0 * (1.0 / sigma_star**2 + 1.0)
bound = hypergeometric_mgf(p - k_u // 4, k_u // 4, c3 * c1**2) - 1.0
print(f"  MC estimate: {est:.6f} +- {se:.6f}")
print(f"  exact overlap-MGF bound: {bound:.6f}  (estimate below bound: {est <= bound + 3 * se})")
