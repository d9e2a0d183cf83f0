"""Finite-order normalization: resonant bookkeeping and the prepared pair.

Degree by degree, rho-commuting polynomial conjugations remove every
non-resonant monomial of the perturbation; what survives below order 2N+2
sits on the resonant ladder (xi eta)^k eta and is absorbed into a real
rotation exponent by a product-preserving scaling, leaving

    alpha-check(z) = lambda + z^s + ...,  perturbation of order >= 2N+2.
"""

import numpy as np

from crownkam import diagonalize, prenormalize, radius_search
from crownkam.moserwebster import surface_from_config

M = surface_from_config(
    {"gamma": 0.77, "degree": 12,
     "f_monomials": [[3, 0, 0.08, 0.0], [2, 1, 0.05, 0.02], [4, 0, 0.03, 0.01]]}
)
frame, pair = diagonalize(M)
N = 2

print("== Poincare-Dulac elimination ==")
prep, chain, report = prenormalize(pair, N)
for entry in report["poincare_dulac"]["per_degree"]:
    print(
        f"  degree {entry['degree']}: eliminated {entry['eliminated']:2d} monomials, "
        f"min divisor {entry['min_divisor']:.3f}"
    )
print(f"  non-resonant residue below order {2 * N + 2}: {report['nonresonant_scan']:.2e}")

print("\n== real form and nondegeneracy ==")
nd = report["nondegeneracy"]
print(f"  s = {nd['s']},  resonant coefficient c_s = {nd['c_s']:+.6f}")
print(f"  radial rescale t = {nd['rescale']:.4f}, eta-flip = {nd['flip']}")
alpha = np.real(prep.alpha.coeffs)
print(f"  prepared exponent: alpha(z) = {alpha[0]:.6f} + {alpha[1]:.3f} z"
      + (f" {alpha[2]:+.3f} z^2 + ..." if len(alpha) > 2 else ""))
print(f"  perturbation order: {prep.p.order(tol=1e-11)} (>= 2N+2 = {2 * N + 2})")

print("\n== radius search ==")
res = radius_search(prep)
print(f"  r_* = {res.r_star},  A = {res.A:.4e},  branch = {res.branch}")
if res.skew:
    print(f"  skew {res.skew['measured']:.3e} vs threshold A^(3/2)/3 = {res.skew['bound']:.3e}")
if res.trial:
    c = res.trial["contraction"]
    print(f"  trial step: ||p+|| = {c['measured']:.3e} <= A^1.15 = {c['bound']:.3e}")
for name, entry in res.alpha_conditions.items():
    print(f"  {name}: {entry['measured']:.3e} vs {entry['bound']:.3e} "
          f"({'pass' if entry['pass'] else 'FAIL'})")
