"""All estimation strategies on one draw with a large indifference region.

A third of this sample sits exactly at the selection-indifference point,
where the sharp bound is an irregular functional. The four strategies
handle it differently: evaluate straight through the point-identified
limit, drop the band, switch moments inside a shrinking band, or smooth
the whole functional. Intervals are reported for the identified set and
for the effect itself (the latter via a width-adaptive critical value).
The known-propensity moments (``inefficient``) read the oracle's true
propensity; an estimated one is refused. A subgroup bound is the same
estimator run on the group's rows.
"""

import numpy as np

import strata_bounds as sb

config = sb.DgpConfig(n=2000, shares=(1 / 3, 1 / 3, 1 / 3), base_seed=42,
                      replications=1)
table = sb.dgp_sample(config, 0)
bundle = sb.oracle_nuisances(config)(table)
support = sb.oracle_support(config, table)
target = sb.oracle_target(config)
cfg = sb.EstimationConfig()

print(f"true effect (equals the sharp lower end here): {target.target:.4f}")
print(f"sharp identified set: [{target.lower:.4f}, {target.upper:.4f}]")
print(f"indifferent share of the sample: "
      f"{float((bundle.labels() == 0).mean()):.3f}")
print()

runs = [
    ("sharp", sb.estimate_sharp(table, bundle, cfg, support)),
    ("trim (drop)", sb.estimate_trim(table, bundle, cfg, variant="drop",
                                     support=support)),
    ("trim (retain)", sb.estimate_trim(table, bundle, cfg, variant="retain",
                                       support=support)),
    ("switch", sb.estimate_switch(table, bundle, cfg, support=support)),
    ("inefficient", sb.estimate_sharp(
        table, bundle, sb.EstimationConfig(inefficient=True), support)),
]
for h in (0.05, 0.01, 1e-9):
    runs.append((f"smooth h={h:g}",
                 sb.estimate_smooth(table, bundle, sb.GFamily(h=h), cfg)))

hdr = (f"{'method':<15} {'lower':>8} {'upper':>8} {'se_l':>7} {'se_u':>7}"
       f" {'effect CI':>20}")
print(hdr)
print("-" * len(hdr))
for name, est in runs:
    ci = f"[{est.ci_effect[0]:.3f}, {est.ci_effect[1]:.3f}]"
    print(f"{name:<15} {est.lower:>8.4f} {est.upper:>8.4f}"
          f" {est.se_lower:>7.4f} {est.se_upper:>7.4f} {ci:>20}")

print()
print("Note the drop-variant trim: removing the indifferent third shifts")
print("the estimand, so its lower end overshoots the target. The smoothed")
print("estimates widen outward as h grows, by construction never narrowing")
print("the estimated set.")

print()
print("=== subgroup bounds by the monotonicity covariate ===")
for gval in np.unique(table.x[:, 0]):
    rows = table.x[:, 0] == gval
    sub = table.select(rows)
    est = sb.estimate_sharp(sub, bundle.select(rows), cfg,
                            sb.oracle_support(config, sub))
    print(f"group x1 = {gval:+.0f}: [{est.lower:+.4f}, {est.upper:+.4f}]"
          f"  (n = {est.n_effective})")
