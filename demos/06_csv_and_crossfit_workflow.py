"""End-to-end file workflow: export a sample to CSV, learn nuisances by
cross-fitting, and compare with externally supplied predictions.

Mirrors what the command-line tool does, entirely through the library so
each step is visible. The built-in learners are a damped-Newton logistic
model for the probabilities and cell-based weighted empirical quantiles
and truncated means for the outcome surfaces.
"""

import os
import tempfile

import numpy as np

import strata_bounds as sb
from strata_bounds.nuisance import CellSpec, LearnerSpec, crossfit

workdir = tempfile.mkdtemp(prefix="strata_bounds_demo_")
data_path = os.path.join(workdir, "sample.csv")

config = sb.DgpConfig(n=3000, shares=(0.5, 0.0, 0.5), base_seed=11,
                      replications=1)
table = sb.dgp_sample(config, 0)
table.to_csv(data_path)
print(f"wrote {data_path} ({table.n} rows)")

back = sb.ObservationTable.from_csv(data_path)
report = sb.validate(back)
print(f"validation: {'ok' if report.ok else report.messages}")

# cross-fitted built-in learners; the first covariate is the discrete
# monotonicity shifter, the second is binned at its training quantiles
spec = LearnerSpec(cells=CellSpec(discrete_cols=(0,), n_bins=4),
                   folds=5, seed=1, propensity_known=0.5)
fitted = crossfit(back, spec)
print(f"cross-fitted bundle: provenance={fitted.provenance}, "
      f"clamped={fitted.n_clamped} rows")

oracle = sb.oracle_nuisances(config)(table)
corr = np.corrcoef(fitted.s1, oracle.s1)[0, 1]
print(f"fitted vs true treated-arm selection probability: corr = {corr:.3f}")

cfg = sb.EstimationConfig()
print("\nestimates with cross-fitted nuisances:")
for name, est in (("switch", sb.estimate_switch(back, fitted, cfg)),
                  ("smooth h=0.05",
                   sb.estimate_smooth(back, fitted, sb.GFamily(h=0.05), cfg))):
    print(f"  {name:<14} [{est.lower:+.4f}, {est.upper:+.4f}]"
          f"  effect CI [{est.ci_effect[0]:+.4f}, {est.ci_effect[1]:+.4f}]")

print("\nestimates with the true surfaces, for reference:")
est = sb.estimate_switch(table, oracle, cfg,
                         support=sb.oracle_support(config, table))
print(f"  {'switch':<14} [{est.lower:+.4f}, {est.upper:+.4f}]")
print(f"  true sharp set [{sb.oracle_target(config).lower:+.4f},"
      f" {sb.oracle_target(config).upper:+.4f}]")

# externally supplied predictions: per-row probabilities plus surface
# grids over the quantile level, row-aligned with the data file
nuis_path = os.path.join(workdir, "nuisances.csv")
rows = np.arange(table.n)
levels = np.round(np.linspace(0.02, 0.98, 49), 6)
cols = {"m": oracle.m, "s0": oracle.s0, "s1": oracle.s1}
for u in levels:
    uu = np.full(table.n, u)
    for d in (0, 1):
        cols[f"q_{d}_u{u}"] = oracle.quantile(rows, d, uu)
        for j in (0, 1):
            cols[f"b_{j}_{d}_u{u}"] = oracle.trunc_mean(rows, j, d, uu)
with open(nuis_path, "w") as fh:
    fh.write(",".join(cols) + "\n")
    for i in range(table.n):
        fh.write(",".join(repr(float(cols[c][i])) for c in cols) + "\n")
print(f"\nwrote {nuis_path} with surface grids at {len(levels)} levels")

external = sb.load_external_nuisances(nuis_path, back,
                                      provenance="external_oracle")
est = sb.estimate_switch(back, external, cfg)
print(f"  switch with external nuisances: [{est.lower:+.4f}, {est.upper:+.4f}]")
print("  (matches the true-surface run up to grid interpolation)")
