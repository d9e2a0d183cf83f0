"""Anatomy of one iteration step, with every measured quantity against its
bound: truncate -> sigma -> cohomological solve -> conjugate -> rescale.

The instance is an involution-closed pair built by conjugating the exact
model rotation by a random rho-commuting near-identity map.
"""

import numpy as np

from crownkam import StepGeometry, main_step, skew_term
from crownkam.involution import synthesize_pair
from crownkam.kamstep import divisor_minimum
from crownkam.series import CoeffSeries, CrownSeries
from crownkam.transforms import chain_realness_defect

D = 12
lam = 2 * np.arccos(1 / (2 * 0.77))
alpha = CoeffSeries(np.array([lam, 1.0]), real=True)

rng = np.random.default_rng(7)
c1 = rng.standard_normal((D + 1, D + 1)) * 3e-4
c2 = rng.standard_normal((D + 1, D + 1)) * 3e-4
for c in (c1, c2):
    for m in range(D + 1):
        for n in range(D + 1):
            if m + n > D or m + n < 2:
                c[m, n] = 0.0
t = synthesize_pair(alpha, (CrownSeries(c1, D), CrownSeries(c2, D)))

r, rp = 0.14, 0.105
beta = r * r / 8
omegas = tuple(np.linspace(-0.6 * rp * rp, 0.6 * rp * rp, 5))
g0 = StepGeometry(r, rp, beta, eps=1.0, delta=1.0, omega_samples=omegas)
eps = 10 * max(g0.sup_norm(t.p, beta, r), g0.sup_norm(t.q, beta, r))
ge = StepGeometry(r, rp, beta, eps=eps, delta=1.0, omega_samples=omegas)
dmin = divisor_minimum(alpha, ge, ge.K_cut(D) + 1, ge.beta_tilde)
geom = StepGeometry(r, rp, beta, eps=eps, delta=0.9 * dmin, omega_samples=omegas)

print(f"instance: eps = {eps:.3e}, skew = {g0.sup_norm(skew_term(t), beta, r):.3e}")
print(f"geometry: r = {r} -> {rp}, beta = {beta:.4g}, "
      f"K = {geom.K_formula:.0f} (cut at {geom.K_cut(D)}), delta = {geom.delta:.3f}\n")

t_plus, chain, report = main_step(t, geom)

print(f"{'quantity':<28}{'measured':>12}  {'bound':>12}")
for name in (
    "p_norm_in", "sigma_f_norm", "u_norm", "skew_in", "cohomo1", "cohomo2",
    "crossing_cohomo", "skew_uv", "p_plus_norm", "skew_plus",
    "alpha_diff_k0", "theta_pow1_dev",
):
    e = report.entries[name]
    flag = "" if e.get("pass", True) else "   (desk-scale: reported only)"
    print(f"{name:<28}{e['measured']:>12.3e}  {e['bound']:>12.3e}{flag}")

print()
for name, entry in report.practical.items():
    if isinstance(entry, dict):
        print(f"practical {name}: {entry['measured']:.3e} <= {entry['bound']:.3e}"
              f"  -> {'ok' if entry['pass'] else 'FAIL'}")
print(f"eps after step: {report.practical['eps_out']:.3e}")
print(f"transform chain: {[link.label for link in chain]}, "
      f"realness defect (0 when rho-commuting): {chain_realness_defect(chain):.1e}")
