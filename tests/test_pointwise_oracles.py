"""Pointwise oracles: series-computed objects versus direct complex
arithmetic at sample points.

The truncated-ring constructions (substitution, series exponentials and
reciprocals, fourth roots) are checked here against plain evaluation: at a
point inside the domain both routes must agree up to the truncation tail,
which is orders of magnitude below the asserted tolerances at the chosen
point sizes.
"""

import numpy as np

from crownkam.involution import compose_sigma, synthesize_pair
from crownkam.kamstep import (
    StepGeometry,
    conjugate_step,
    divisor_minimum,
    solve_cohomological,
    theta_scaling,
)
from crownkam.series import CoeffSeries, CrownSeries

LAM = 2 * np.arccos(1 / (2 * 0.77))
D = 12


def build_instance(seed=131, scale=3e-4):
    rng = np.random.default_rng(seed)

    def rand_u():
        c = rng.standard_normal((D + 1, D + 1)) * scale
        for m in range(D + 1):
            for n in range(D + 1):
                if m + n > D or m + n < 2:
                    c[m, n] = 0.0
        return CrownSeries(c, D)

    alpha = CoeffSeries(np.array([LAM, 1.0]), real=True)
    return synthesize_pair(alpha, (rand_u(), rand_u()))


def geometry_for(t):
    r, rp = 0.14, 0.105
    beta = r * r / 8
    omegas = tuple(np.linspace(-0.6 * rp * rp, 0.6 * rp * rp, 5))
    g0 = StepGeometry(r, rp, beta, eps=1.0, delta=1.0, omega_samples=omegas)
    eps = 10 * max(g0.sup_norm(t.p, beta, r), g0.sup_norm(t.q, beta, r))
    ge = StepGeometry(r, rp, beta, eps=eps, delta=1.0, omega_samples=omegas)
    dmin = divisor_minimum(t.alpha, ge, ge.K_cut(D) + 1, ge.beta_tilde)
    return StepGeometry(r, rp, beta, eps=eps, delta=0.9 * dmin, omega_samples=omegas)


POINTS = [
    (0.03 + 0.01j, 0.02 - 0.015j),
    (-0.04 + 0.0j, 0.05 + 0.0j),
    (0.01 - 0.03j, -0.02 - 0.01j),
]


def tau_pointwise(t, x, y):
    """tau1 at a point through scalar evaluation of alpha only."""
    a = complex(t.alpha.eval(x * y))
    return (
        np.exp(0.5j * a) * y + complex(t.p.eval(x, y)),
        np.exp(-0.5j * a) * x + complex(t.q.eval(x, y)),
    )


def test_sigma_matches_pointwise_composition():
    t = build_instance()
    sigma = compose_sigma(t)
    S = sigma.components()
    for x, y in POINTS:
        a = complex(t.alpha.eval(x * y))
        # tau2 then tau1, all scalar arithmetic
        x2 = np.exp(-0.5j * a) * y + complex(t.p.conj().eval(x, y))
        y2 = np.exp(0.5j * a) * x + complex(t.q.conj().eval(x, y))
        want = tau_pointwise(t, x2, y2)
        got = (complex(S[0].eval(x, y)), complex(S[1].eval(x, y)))
        assert abs(got[0] - want[0]) < 1e-12
        assert abs(got[1] - want[1]) < 1e-12


def test_cohomological_coefficients_match_scalar_formula():
    # u_20 and v_03 recomputed at sample z-points with scalar arithmetic:
    # the series route exercises exp, conj and reciprocal at once
    t = build_instance()
    geom = geometry_for(t)
    sigma = compose_sigma(t)
    u, v = solve_cohomological(t, sigma, geom.K_cut(t.trunc_total))
    f20 = sigma.f.crown_coefficient(2, 0)
    g03 = sigma.g.crown_coefficient(0, 3)
    u20 = u.crown_coefficient(2, 0)
    v03 = v.crown_coefficient(0, 3)
    for z in (0.004, -0.003, 0.008):
        a = complex(t.alpha.eval(z))
        fz = complex(f20.eval(z))
        fbz = complex(f20.conj().eval(z))
        want_u = (fz - np.exp(3j * a) * fbz) / (2 * (np.exp(2j * a) - np.exp(1j * a)))
        assert abs(complex(u20.eval(z)) - want_u) < 1e-12 * max(1, abs(want_u))
        gz = complex(g03.eval(z))
        gbz = complex(g03.conj().eval(z))
        want_v = (gz - np.exp(-4j * a) * gbz) / (2 * (np.exp(-3j * a) - np.exp(-1j * a)))
        assert abs(complex(v03.eval(z)) - want_v) < 1e-12 * max(1, abs(want_v))


def test_theta_matches_scalar_fourth_root():
    t = build_instance()
    geom = geometry_for(t)
    uv = solve_cohomological(t, compose_sigma(t), geom.K_cut(t.trunc_total))
    inter = conjugate_step(t, uv)
    out, link = theta_scaling(inter, geom.s)
    for z in (0.004, -0.006, 0.002):
        a = complex(t.alpha.eval(z))
        A = complex(inter.A.eval(z))
        # at real z the conjugate series evaluates to conj(A(z))
        rad = (np.exp(0.5j * a) + A) * (np.exp(-0.5j * a) + np.conj(A))
        want = rad ** 0.25
        got = complex(link.theta.eval(z))
        assert abs(got - want) < 1e-10 * max(1, abs(want))
        # the scalar route for alpha_+ as well
        want_alpha = a - 1j * (
            np.exp(-0.5j * a) * A - np.exp(0.5j * a) * np.conj(A)
        )
        got_alpha = complex(out.alpha.eval(z))
        assert abs(got_alpha - want_alpha.real) < 1e-9


def test_conjugation_matches_pointwise():
    # phi^-1 o tau o phi evaluated two ways: through the composed series and
    # through pointwise evaluation with a numerically inverted phi
    t = build_instance()
    geom = geometry_for(t)
    uv = solve_cohomological(t, compose_sigma(t), geom.K_cut(t.trunc_total))
    inter = conjugate_step(t, uv)
    phi = inter.phi
    for x, y in POINTS:
        X, Y = phi.apply_point(x, y)
        TX, TY = tau_pointwise(t, X, Y)
        back = (phi.inverse[0].eval(TX, TY), phi.inverse[1].eval(TX, TY))
        assert abs(complex(inter.T[0].eval(x, y)) - back[0]) < 1e-10
        assert abs(complex(inter.T[1].eval(x, y)) - back[1]) < 1e-10
