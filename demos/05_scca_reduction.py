"""Sparse CCA detection and the pairwise reduction to linear testing.

Calibrates the five cross-covariance statistics on null Monte Carlo,
contrasts their power at a signal strength between the scan and
max-column boundaries (both from R_hat drawn from its exact law), then
maps an SCCA instance's rows into a regression sample and runs the mixed
test on it (with the decision inversion).
"""

import numpy as np

from adaptest import gen_scca, mixed_test, reduce_to_lt, sample_cross_covariance
from adaptest.scca import SccaParams, boundary_table, calibrate_thresholds, stat_report

n, s, p1, p2 = 4000, 2, 10, 40
null_params = SccaParams(n=n, s=s, p1=p1, p2=p2, lam=0.0)
bounds = boundary_table(n, s, p1, p2)
print("detection boundaries (constant 1):")
for k, v in bounds.items():
    print(f"  {k:>11}: {v:.5f}")

thresholds = calibrate_thresholds(null_params, 500, seed=0, level=0.05)
lam = 0.5 * (bounds["scan"] + bounds["max_col"])
print(f"\nplanted cross-correlation lambda = {lam:.5f} (between scan and max-col boundaries)")

hits = {k: 0 for k in thresholds}
reps = 200
for i in range(reps):
    r_hat = sample_cross_covariance(SccaParams(n=n, s=s, p1=p1, p2=p2, lam=lam), "alt", 1000 + i)
    rep = stat_report(r_hat, s, thresholds)
    for k in thresholds:
        hits[k] += int(rep.decisions[k])
print("calibrated power over", reps, "replicates:")
for k in ("scan", "entrywise", "max_col", "max_row", "global_sum"):
    print(f"  {k:>11}: {hits[k] / reps:.3f}")

print("\n=== reduction to a regression testing problem ===")
inst_null = gen_scca(SccaParams(n=800, s=2, p1=8, p2=16, lam=0.25), "null", 5)
inst_alt = gen_scca(SccaParams(n=800, s=2, p1=8, p2=16, lam=0.25), "alt", 5)
for name, inst in (("SCCA null", inst_null), ("SCCA alt", inst_alt)):
    ds, problem, tau_red = reduce_to_lt(inst, sigma_star=1.0, c10=0.2, t0=0.0, seed=11)
    dec = mixed_test(ds, problem)
    print(f"  {name}: mapped {inst.rows} rows -> {ds.n} samples, tau_red={tau_red:.5f}; "
          f"linear test rejects={dec.reject} -> SCCA decision={'alt' if not dec.reject else 'null'}")
print(
    "(the reduction swaps hypotheses; it transfers hardness, not power: at this scale\n"
    " tau_red sits far inside the mixed radius, so the composed rule never says null)"
)
