"""From a perturbed Bishop quadric to its pair of holomorphic involutions.

The surface z2 = |z1|^2 + gamma (z1^2 + conj(z1)^2) + f complexifies to a
surface over (z1, w1); the deck transformation of the first projection is a
holomorphic involution.  In diagonalizing coordinates it takes the swapped
rotation form (e^{i lam/2} eta + p, e^{-i lam/2} xi + q).
"""

import numpy as np

from crownkam import BishopSurface, CrownNormParams, diagonalize, reconstruct_surface
from crownkam.moserwebster import deck_transformation, hyperbola_image, surface_from_config
from crownkam.series import CrownSeries, substitute_pair

gamma = 0.77
M = surface_from_config(
    {"gamma": gamma, "degree": 12,
     "f_monomials": [[3, 0, 0.08, 0.0], [2, 1, 0.05, 0.02]]}
)

print(f"== deck transformation of the gamma = {gamma} surface ==")
deck = deck_transformation(M)
F = M.height()
resid = (F.substitute(deck[0], deck[1]) - F).max_abs_coeff()
print(f"  defining identity F o tau = F  residual: {resid:.2e}")
twice = substitute_pair(deck, deck)
inv_resid = max(
    (twice[0] - CrownSeries.xi(12)).max_abs_coeff(),
    (twice[1] - CrownSeries.eta(12)).max_abs_coeff(),
)
print(f"  involution tau o tau = Id      residual: {inv_resid:.2e}")

print("\n== diagonalization ==")
frame, pair = diagonalize(M)
print(f"  lambda = {frame.lam:.8f}  (e^(i lam/2) + e^(-i lam/2) = 1/gamma = {1 / gamma:.6f})")
np_ = CrownNormParams(0.002, 0.0003, 0.1)
print(f"  involution residual of the pair: {pair.involution_residual(np_):.2e}")
print(f"  perturbation size 10 max(||p||, ||q||): {pair.measured_eps(np_):.3e}")

print("\n== round trip: unperturbed quadric reconstructs exactly ==")
M0 = BishopSurface(gamma, CrownSeries.zero(12))
frame0, pair0 = diagonalize(M0)
S = reconstruct_surface(pair0, frame0)
err = np.max(np.abs(S.coeffs - M0.quadric().coeffs))
print(f"  coefficientwise error vs Q_gamma: {err:.2e}")

print("\n== sampling the hyperbola images on the surface ==")
rows = hyperbola_image([], omegas=[0.003], R=0.1, n_pts=3, surface=M, frame=frame)
for row in rows[:6]:
    tag = "real branch" if row["is_real_branch"] else "           "
    print(
        f"  {tag}  z1 = {row['re_z1']:+.5f}{row['im_z1']:+.5f}i   "
        f"z2 = {row['re_z2']:+.2e}{row['im_z2']:+.2e}i"
    )
