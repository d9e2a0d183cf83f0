"""The full pipeline: surface -> preparation -> iteration -> invariant curves.

For each surviving omega the composed transform chain conjugates the original
map to the rotation by mu_omega on {xi eta = omega}; the residual of that
conjugacy is measured pointwise against the original composed map, making
the check independent of the chain algebra.
"""

import numpy as np

from crownkam.runner import FIXTURES, RunConfig, run_pipeline

cfg = RunConfig.from_dict(dict(FIXTURES["cubic"]))
state, record, curves = run_pipeline(cfg)

print(f"status: {record['status']}, branch: {state.branch}")
print("eps per round:   ", " -> ".join(f"{e:.3e}" for e in record["eps_measured"]))
print("skew per round:  ", " -> ".join(f"{e:.3e}" for e in record["skew_measured"]))
logs = np.log(np.array(record["eps_measured"]))
print("log-eps ratios:  ", ", ".join(f"{r:.2f}" for r in logs[1:] / logs[:-1]),
      " (superlinear > 1)")

surv = record["surviving_measure"] / record["window_measure"]
print(f"\nsurviving parameter fraction: {surv:.4f}")
for row in state.sieve_rows:
    print(f"  round {row['nu']}: excluded measure {row['excluded_measure']:.3e} "
          f"(delta = {row['delta']:.3f})")

print(f"\ninvariant curves ({len(curves)} surviving omega):")
print(f"{'omega':>14}  {'mu_omega':>12}  {'conjugacy':>10}  {'rho-equiv':>10}")
for c in curves[:10]:
    print(f"{c.omega:>14.5e}  {c.mu_omega:>12.8f}  "
          f"{c.conjugacy_residual:>10.2e}  {c.rho_equivariance_residual:>10.2e}")
