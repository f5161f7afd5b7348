"""Loading profiles and their separation-rate functionals.

Walks through the quantities that drive everything else: the top-t norm
H(t), the profile-equation root (zeta, lambda), nu1/nu2/nu3, the
effective sparsity, the rate-optimal cutoff m*, and the phase regions
for flat-on-support loadings.
"""

import numpy as np

from adaptest import make_loading, rate_bounds, regime_and_cutoff, regular_phase, top_norm
from adaptest.profiles import flat_closed_form, multiscale_profile, subweibull_profile

n, p, k_u, degree = 100_000, 5_000, 12, 2

print("=== three loading shapes, one pipeline ===")
profiles = {
    "flat sparse (40 ones)": make_loading(np.concatenate((np.ones(40), np.zeros(p - 40)))),
    "multiscale (equal-energy blocks)": multiscale_profile(k_u=27, blocks=3, scale=1.0, p=p),
    "sub-Weibull draw (q=2)": subweibull_profile(q=2.0, p=p, seed=7),
}
for name, xi in profiles.items():
    s = regime_and_cutoff(xi, k_u, n, degree)
    upper, lower = rate_bounds(xi, k_u, n)
    print(f"\n{name}")
    print(f"  regime={s.regime}  m*={s.m_star}  k_eff={s.k_eff}")
    print(f"  lambda={s.lam:.4f}  j1={s.j1}  nu1={s.nu1:.4f}  nu2={s.nu2:.4f}  nu3={s.nu3:.4f}")
    print(f"  rate upper={upper:.5f}  lower={lower:.5f}  (constant-1 expressions)")
    print(f"  H(t) curve: t=1:{top_norm(xi, 1):.3f} t=k_u:{top_norm(xi, k_u):.3f} t=p:{top_norm(xi, p):.3f}")

print("\n=== flat closed form vs the bisection solver ===")
xi = make_loading(np.concatenate((2.0 * np.ones(100), np.zeros(p - 100))))
s = regime_and_cutoff(xi, 10, n, degree)
zc, lc, nc = flat_closed_form(100, 2.0, 10)
print(f"solver:      zeta={s.zeta:.10f} lambda={s.lam:.10f} nu1={s.nu1:.10f}")
print(f"closed form: zeta={zc:.10f} lambda={lc:.10f} nu1={nc:.10f}")

print("\n=== phase regions for flat-on-support loadings ===")
for gxi, gu, gn in [(0.3, 0.2, 0.9), (0.25, 0.3, 0.5), (0.4, 0.3, 0.5), (0.7, 0.3, 0.5)]:
    label, tag = regular_phase(gxi, gu, gn)
    print(f"  gamma_xi={gxi} gamma_u={gu} gamma_n={gn}: {label}  rate {tag}")
