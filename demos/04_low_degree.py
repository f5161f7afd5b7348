"""Low-degree likelihood-ratio norms of a computational-prior mixture.

Builds a tiny computational-prior mixture and evaluates LD(D) for
increasing degree D in closed form: per draw pair, the first D/2 + 1
terms of the chi-square series (1 - x)^(-n) in the rank-one overlap
x = (r1'r2)(c1'c2).  It shows the sandwich 1 <= LD(D) <= 1 + chi^2
tightening as D grows, together with the uniform log-bound, and then the
ingredients of the closed form: the rank-one Hermite moments, which
vanish unless degree-balanced and whose degree-1 products sum to x.
"""

import numpy as np

from adaptest import make_loading
from adaptest.lowdeg import hermite_moment, ld_norm, ld_uniform_bound
from adaptest.priors import chi2_pair_closed_form, pair_overlaps, prior_sampler, valid_rows

n, p = 2, 3
xi = make_loading([1.0, 0.9, 0.8])
# (seed, rows) -> the stack of the draws at seed, seed + 1, ...; the first 60 valid draws are rows of such stacks
sampler = prior_sampler("comp", xi, 1, n, 1.0, degree=1, c8=0.4, c9=0.05, k_eff_override=2, s1_override=1)
draws = [stack.row(i) for stack, rows in valid_rows(sampler, 0, 60) for i in rows]

pairs = list(zip(draws[::2], draws[1::2]))
chi2 = float(np.mean([chi2_pair_closed_form(a, b, n) for a, b in pairs])) - 1.0
print(f"reference 1 + chi^2 over {len(pairs)} pairs: {1 + chi2:.10f}")
print(f"{'D':>3} {'LD(D)':>14} {'log uniform bound':>20}")
for deg in range(7):
    val = ld_norm(draws, deg, n)
    print(f"{deg:>3} {val:>14.10f} {ld_uniform_bound(n, p, max(deg, 1)):>20.2f}")

print("\nrank-one Hermite moments of one draw pair (degree-balanced only):")
r1, c1 = draws[0].rank_one_factors()
for mu, nu in (((1, 0, 0), (1,)), ((0, 1, 0), (1,)), ((2, 0, 0), (2,)), ((1, 1, 0), (2,))):
    print(f"  mu={mu} nu={nu}: {hermite_moment(mu, nu, r1, c1):+.6e}")
print("any unbalanced pair vanishes exactly:",
      hermite_moment((1, 0, 0), (2,), r1, c1) == 0.0)
r2, c2 = draws[1].rank_one_factors()
deg1 = 0.0
for mu in np.eye(r1.size, dtype=int):
    for nu in np.eye(c1.size, dtype=int):
        deg1 += hermite_moment(mu, nu, r1, c1) * hermite_moment(mu, nu, r2, c2)
print(f"degree-1 moment products of the first pair sum to {deg1:+.6e};"
      f" the overlap x is {pair_overlaps(sampler, 0, 1)[0]:+.6e}")
