"""Tests for the involution-pair calculus and its structural residuals."""

import numpy as np
import pytest

from crownkam.involution import InvolutionPair, compose_sigma, skew_term, synthesize_pair
from crownkam.series import (
    CoeffSeries,
    CrownNormParams,
    CrownSeries,
    identity_pair,
    multiply,
    rotation_factor,
    substitute_pair,
)

from composition_helpers import (
    reversibility_residual,
    sigma_first_order_residual,
    skew_operator_L,
    structural_residuals,
)

LAM = 2 * np.pi * 0.381966  # far from low-order resonances


def model_pair(D, lam=LAM, slope=1.0):
    alpha = CoeffSeries(np.array([lam, slope]), real=True)
    return InvolutionPair(alpha, CrownSeries.zero(D), CrownSeries.zero(D))


def random_real_U(rng, D, scale, min_order=2):
    def one():
        c = rng.standard_normal((D + 1, D + 1)) * scale
        for m in range(D + 1):
            for n in range(D + 1):
                if m + n > D or m + n < min_order:
                    c[m, n] = 0.0
        return CrownSeries(c, D)

    return (one(), one())


def small_skew_U(rng, D, scale):
    """U = (xi a(xi eta), eta b(xi eta)) makes eta*u + xi*v a function of xi eta,
    which keeps the skew term of the conjugated pair second order."""
    ka = D // 2
    a = CoeffSeries(np.concatenate([[0.0], rng.standard_normal(ka)]) * scale, real=True)
    b = CoeffSeries(np.concatenate([[0.0], rng.standard_normal(ka)]) * scale, real=True)
    return (
        multiply(CrownSeries.from_z_series(a, D), CrownSeries.xi(D)),
        multiply(CrownSeries.from_z_series(b, D), CrownSeries.eta(D)),
    )


NP = CrownNormParams(0.003, 0.0004, 0.12)


# ---------------------------------------------------------------------------
# tau2
# ---------------------------------------------------------------------------


def test_tau2_linear_map():
    t = model_pair(6)
    c1, c2 = t.tau2_components()
    rot_m = rotation_factor(t.alpha, -0.5, 6)
    rot_p = rotation_factor(t.alpha, 0.5, 6)
    assert np.max(np.abs((c1 - multiply(rot_m, CrownSeries.eta(6))).coeffs)) == 0.0
    assert np.max(np.abs((c2 - multiply(rot_p, CrownSeries.xi(6))).coeffs)) == 0.0


def test_tau2_conjugates_coefficients():
    D = 6
    alpha = CoeffSeries(np.array([LAM]), real=True)
    p = CrownSeries.monomial(2, 0, D, 1j)
    t = InvolutionPair(alpha, p, CrownSeries.zero(D))
    c1, _ = t.tau2_components()
    assert complex(c1.coeffs[2, 0]) == -1j


def test_tau2_twice_is_identity_on_data():
    # tau2 = rho o tau1 o rho, so rho-conjugating tau2's series gives back
    # tau1's, bit for bit
    rng = np.random.default_rng(3)
    D = 8
    t = synthesize_pair(model_pair(D).alpha, random_real_U(rng, D, 1e-3))
    for c2, c1 in zip(t.tau2_components(), t.components()):
        np.testing.assert_array_equal(c2.conj().coeffs, c1.coeffs)


def test_tau2_is_involution_for_perturbed_pair():
    rng = np.random.default_rng(5)
    D = 8
    t = synthesize_pair(model_pair(D).alpha, random_real_U(rng, D, 1e-3))
    T2 = t.tau2_components()
    TT = substitute_pair(T2, T2)
    xi, eta = identity_pair(D)
    assert (TT[0] - xi).crown_norm(NP) + (TT[1] - eta).crown_norm(NP) <= 1e-9


# ---------------------------------------------------------------------------
# sigma
# ---------------------------------------------------------------------------


def test_sigma_of_linear_pair_is_rotation():
    t = model_pair(8)
    sigma = compose_sigma(t)
    assert np.abs(sigma.f.coeffs).sum() < 1e-14
    assert np.abs(sigma.g.coeffs).sum() < 1e-14


def test_sigma_reversibility_residual():
    rng = np.random.default_rng(7)
    D = 8
    t = synthesize_pair(model_pair(D).alpha, random_real_U(rng, D, 1e-3))
    sigma = compose_sigma(t)
    assert reversibility_residual(sigma, NP) <= 1e-9


def test_sigma_first_order_oracle():
    # The expansion error of sigma's perturbation is quadratic in the pair
    # size: scaling the generator down by 4 shrinks the residual ~16x.  The
    # verbatim eps^{31/16}/80 constant belongs to the asymptotic regime
    # (beta ~ eps^{1/32}) and is reported, not asserted, at desk scale.
    rng = np.random.default_rng(9)
    D = 10
    U = random_real_U(rng, D, 2e-4)
    t_big = synthesize_pair(model_pair(D).alpha, U)
    t_small = synthesize_pair(model_pair(D).alpha, (U[0] * 0.25, U[1] * 0.25))
    res_big, bound_big = sigma_first_order_residual(t_big, NP)
    res_small, _ = sigma_first_order_residual(t_small, NP)
    assert bound_big > 0.0
    assert res_big <= t_big.measured_eps(NP) ** 1.5
    assert res_small <= res_big / 8.0


def test_sigma_perturbation_quarter_eps():
    # ||f||, ||g|| < eps/4 whenever ||p||, ||q|| < eps/10
    rng = np.random.default_rng(11)
    D = 10
    for scale in (1e-3, 1e-4):
        t = synthesize_pair(model_pair(D).alpha, random_real_U(rng, D, scale))
        eps = t.measured_eps(NP)
        sigma = compose_sigma(t)
        assert sigma.f.crown_norm(NP) < eps / 4
        assert sigma.g.crown_norm(NP) < eps / 4


# ---------------------------------------------------------------------------
# skew terms
# ---------------------------------------------------------------------------


def test_skew_of_zero_perturbation():
    t = model_pair(6)
    assert np.abs(skew_term(t).coeffs).sum() == 0.0


def test_skew_exact_cancellation():
    # p = eta, q = -e^{-i lam} xi cancels: the two skew contributions are
    # xi*eta*(e^{-i lam/2} - e^{-i lam/2}).
    D = 6
    alpha = CoeffSeries(np.array([LAM]), real=True)
    p = CrownSeries.eta(D)
    q = CrownSeries.xi(D) * (-np.exp(-1j * LAM))
    t = InvolutionPair(alpha, p, q)
    assert skew_term(t).max_abs_coeff() < 1e-15


def test_skew_matches_termwise_assembly():
    rng = np.random.default_rng(13)
    D = 8
    t = synthesize_pair(model_pair(D).alpha, random_real_U(rng, D, 1e-3))
    got = skew_term(t)
    # independent assembly: conjugate route through the crown entries
    rot_p = rotation_factor(t.alpha, 0.5, D)
    rot_m = rotation_factor(t.alpha, -0.5, D)
    want = multiply(rot_p, multiply(CrownSeries.eta(D), t.q)) + multiply(
        rot_m, multiply(CrownSeries.xi(D), t.p)
    )
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-15


def test_skew_norm_rho_invariant():
    rng = np.random.default_rng(15)
    D = 8
    t = synthesize_pair(model_pair(D).alpha, random_real_U(rng, D, 1e-3))
    s = skew_term(t)
    assert s.conj().crown_norm(NP) == pytest.approx(s.crown_norm(NP), rel=1e-12)


def test_L_operator_trivialities():
    D = 5
    h = CoeffSeries(np.array([0.7, 0.2]), real=True)
    z = CrownSeries.zero(D)
    assert np.abs(skew_operator_L(h, z, z).coeffs).sum() == 0.0
    one = CrownSeries.monomial(0, 0, D, 1.0)
    got = skew_operator_L(CoeffSeries.zero(0), one, one)
    want = CrownSeries.xi(D) + CrownSeries.eta(D)
    np.testing.assert_allclose(got.coeffs, want.coeffs, atol=1e-15)


def test_L_kills_alpha_prime_error_pair():
    # L_{alpha/2} annihilates the first-order rotation-error pair
    # ( -(i/2) e^{i a/2} a' W eta,  (i/2) e^{-i a/2} a' W xi ) identically.
    rng = np.random.default_rng(17)
    D = 10
    alpha = CoeffSeries(np.array([LAM, 1.0, -0.3]), real=True)
    W = CrownSeries.from_z_series(
        CoeffSeries(np.array([0.0, 0.4, 0.1]) + 0j), D
    )  # any function of xi*eta
    aprime = CrownSeries.from_z_series(alpha.derivative().truncate(D // 2), D)
    rot_p = rotation_factor(alpha, 0.5, D)
    rot_m = rotation_factor(alpha, -0.5, D)
    first = multiply(multiply(rot_p, aprime * (-0.5j)), multiply(W, CrownSeries.eta(D)))
    second = multiply(multiply(rot_m, aprime * (0.5j)), multiply(W, CrownSeries.xi(D)))
    half = CoeffSeries(alpha.coeffs * 0.5, real=True)
    out = skew_operator_L(half, first, second)
    assert out.max_abs_coeff() < 1e-16


# ---------------------------------------------------------------------------
# structural residual report
# ---------------------------------------------------------------------------


def test_residuals_linear_pair_all_zero():
    t = model_pair(8)
    rep = structural_residuals(t, NP)
    assert rep["involution_residual"] < 1e-12
    assert rep["reversibility_residual"] < 1e-12
    assert rep["skew_norm"] == 0.0
    for key in ("coeff_res_pq", "coeff_res_f", "coeff_res_g"):
        measured, _ = rep[key]
        assert measured < 1e-12


def test_residuals_involution_closed_quadratic():
    rng = np.random.default_rng(19)
    D = 8
    t = synthesize_pair(model_pair(D).alpha, random_real_U(rng, D, 1e-4))
    rep = structural_residuals(t, NP)
    assert rep["involution_residual"] <= 1e-10
    assert rep["reversibility_residual"] <= 1e-10


def test_residuals_desk_instance_coefficient_bound():
    # small-skew desk instance at measured eps ~ 5e-5.  The z-multiplied
    # identity holds at its verbatim constant r*eps^{31/16}/80; the
    # (xi eta)-divided variant pays a 1/|omega| factor the asymptotic
    # constant does not budget for, so it is held to the practical
    # exponent eps^{1.8} with the same shape.
    rng = np.random.default_rng(21)
    D = 12
    t = synthesize_pair(model_pair(D).alpha, small_skew_U(rng, D, 0.01))
    rep = structural_residuals(t, NP)
    eps = rep["measured_eps"]
    assert 1e-5 <= eps <= 1e-3
    measured_z, bound_z = rep["coeff_identity_pq_z"]
    assert measured_z <= bound_z
    measured, _ = rep["coeff_res_pq"]
    assert measured <= eps**1.8 / (60 * NP.radius)
    for _, measured_l, bound_l in rep["coeff_identity_ladder"]:
        assert measured_l <= bound_l
