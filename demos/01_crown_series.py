"""Crown-series arithmetic: the truncated ring, the decomposition, the norms.

Every bivariate series f(xi, eta) splits uniquely along the powers of the
product z = xi*eta:

    f = f_00(z) + sum_l f_l0(z) xi^l + sum_j f_0j(z) eta^j.

The weighted norm sums sup-values of the coefficient functions over a disk
|z - omega| <= beta around the hyperbola parameter omega, weighted by
r^(l+j).  This script walks through the basic objects.
"""

import numpy as np

from crownkam import CoeffSeries, CrownNormParams, CrownSeries
from crownkam.series import multiply

D = 8
xi = CrownSeries.xi(D)
eta = CrownSeries.eta(D)

print("== the crown decomposition ==")
f = multiply(xi, xi) + multiply(multiply(xi, eta), eta) * 0.5  # xi^2 + 0.5 (xi eta) eta
for l, j, h in f.crown_decompose():
    if np.any(h.coeffs != 0):
        print(f"  entry (l={l}, j={j}): coefficient series {h.coeffs[:3].real}")

print("\n== norms ==")
np_ = CrownNormParams(omega=0.004, beta=0.0006, radius=0.1)
print(f"  ||xi||            = {xi.crown_norm(np_):.6f}   (= r)")
print(f"  ||xi eta||        = {multiply(xi, eta).crown_norm(np_):.6f}   (= |omega| + beta)")
print(f"  ||f||             = {f.crown_norm(np_):.6f}")
fg = multiply(f, f)
print(f"  ||f^2|| <= ||f||^2: {fg.crown_norm(np_):.3e} <= {f.crown_norm(np_) ** 2:.3e}")

print("\n== rotation factors cancel exactly in the ring ==")
alpha = CoeffSeries(np.array([1.7, 1.0]), real=True)  # alpha(z) = 1.7 + z
from crownkam.series import rotation_factor

rot = rotation_factor(alpha, 0.5, D)
rot_inv = rotation_factor(alpha, -0.5, D)
prod = multiply(rot, rot_inv)
print(f"  max |e^(i a/2) e^(-i a/2) - 1| coefficient: {(prod - 1.0).max_abs_coeff():.2e}")
