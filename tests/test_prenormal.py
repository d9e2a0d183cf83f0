"""Tests for the finite-order normalization and radius search."""

import numpy as np
import pytest

from crownkam.involution import InvolutionPair, synthesize_pair
from crownkam.prenormal import (
    apply_radial_rescale,
    detect_nondegeneracy,
    nonresonant_scan,
    poincare_dulac,
    prenormalize,
    radius_search,
    realform_scaling,
)
from crownkam.series import (
    CoeffSeries,
    CrownNormParams,
    CrownSeries,
    SeriesError,
    multiply,
    substitute_pair,
)
from crownkam.sieve import build_schedule, smallness_lhs

LAM = 2 * np.arccos(1 / (2 * 0.77))  # gamma = 0.77: far from low resonances


def const_pair(D, lam=LAM, p=None, q=None):
    alpha = CoeffSeries(np.array([lam]), real=True)
    return InvolutionPair(
        alpha,
        p if p is not None else CrownSeries.zero(D),
        q if q is not None else CrownSeries.zero(D),
    )


def resonant_pair(D, ctilde, lam=LAM):
    """Exact normal-form pair ((e^{i lam/2}+C) eta, (e^{i lam/2}+C)^{-1} xi)."""
    lam_series = CoeffSeries(
        np.concatenate([[np.exp(0.5j * lam)], np.asarray(ctilde, dtype=complex)])
    )
    p_res = CoeffSeries(np.concatenate([[0.0], np.asarray(ctilde, dtype=complex)]))
    q_res = lam_series.reciprocal() - np.exp(-0.5j * lam)
    p = multiply(CrownSeries.from_z_series(p_res, D), CrownSeries.eta(D))
    q = multiply(CrownSeries.from_z_series(q_res, D), CrownSeries.xi(D))
    return const_pair(D, lam=lam, p=p, q=q)


# ---------------------------------------------------------------------------
# Poincare-Dulac
# ---------------------------------------------------------------------------


def test_pd_linear_pair_untouched():
    t = const_pair(10)
    out, chain, report = poincare_dulac(t, N=2)
    assert chain == []
    assert out.p.coeff_1norm() == 0.0
    assert all(d["eliminated"] == 0 for d in report["per_degree"])


def test_pd_eliminates_single_monomial():
    # p = xi^3 is non-resonant; it must vanish from the output and the
    # correcting transform must commute with rho (real coefficients)
    D = 10
    t = synthesize_pair(
        CoeffSeries(np.array([LAM]), real=True),
        (CrownSeries.zero(D), CrownSeries.zero(D)),
    )
    p = CrownSeries.monomial(3, 0, D, 0.01)
    # build an exact involution carrying that p-jet: conjugating the model by
    # the PD-shaped generator reproduces the monomial at lowest order, so
    # instead insert it directly and symmetrize q by the involution identity
    lam = LAM
    q = CrownSeries.monomial(0, 3, D, -0.01 * np.exp(-1j * lam * (0 - 3 - 1) / 2))
    # involution constraint: q_lj = -delta^{j-l-1} p_jl with delta = e^{i lam/2}
    q = CrownSeries.monomial(0, 3, D, -0.01 * np.exp(0.5j * lam * (0 - 3 - 1)))
    t = InvolutionPair(t.alpha, p, q)
    out, chain, report = poincare_dulac(t, N=2)
    assert abs(out.p.coeffs[3, 0]) < 1e-13
    assert len(chain) >= 1
    for link in chain:
        assert link.is_real(1e-12)
    # conjugation consistency: chain applied to the original reproduces out
    T = t.components()
    for link in chain:
        T = substitute_pair(link.inverse, substitute_pair(T, link.forward))
    assert (T[0] - out.components()[0]).max_abs_coeff() < 1e-13


def test_pd_resonant_coefficient_survives():
    # p = c (xi eta) eta is resonant: it stays, and lands in the resonant
    # coefficient series at z^1
    D = 10
    c = 0.007
    t = resonant_pair(D, [c])
    out, chain, report = poincare_dulac(t, N=3)
    assert out.p.coeffs[1, 2] == pytest.approx(c, rel=1e-12)
    res = CoeffSeries.from_json(report["resonant_coefficients"])
    assert complex(res.coeffs[1]) == pytest.approx(c, rel=1e-12)


def test_pd_full_scan_on_generic_involution():
    rng = np.random.default_rng(51)
    D = 12
    N = 2
    alpha = CoeffSeries(np.array([LAM]), real=True)

    def rand_u():
        c = rng.standard_normal((D + 1, D + 1)) * 2e-3
        for m in range(D + 1):
            for n in range(D + 1):
                if m + n > D or m + n < 2:
                    c[m, n] = 0.0
        return CrownSeries(c, D)

    t = synthesize_pair(alpha, (rand_u(), rand_u()))
    out, chain, report = poincare_dulac(t, N)
    assert nonresonant_scan(out, 2 * N + 2) < 1e-11
    np_ = CrownNormParams(0.002, 0.0003, 0.1)
    assert out.involution_residual(np_) < 1e-9


def test_pd_rejects_resonant_lambda():
    # gamma = 1 gives lam = 2 pi / 3: e^{3 i lam} = 1 exactly
    t = const_pair(8, lam=2 * np.pi / 3, p=CrownSeries.monomial(2, 0, 8, 0.01))
    with pytest.raises(SeriesError):
        poincare_dulac(t, N=2)


# ---------------------------------------------------------------------------
# real-form scaling
# ---------------------------------------------------------------------------


def test_realform_trivial():
    t = const_pair(10)
    out, link, report = realform_scaling(t, N=2)
    assert np.allclose(link.theta.coeffs, np.eye(1, link.theta.trunc_z + 1, 0)[0])
    assert out.alpha.coeffs[0] == pytest.approx(LAM)
    assert float(np.max(np.abs(out.alpha.coeffs[1:]))) < 1e-14


def test_realform_linear_resonant_coefficient():
    # C(z) = c z with real c: the new exponent's z-coefficient is
    # -i(e^{-i lam/2} c - e^{i lam/2} c) = -2 c sin(lam/2)
    D = 10
    c = 0.004
    lam = LAM
    t = resonant_pair(D, [c])
    out, link, report = realform_scaling(t, N=2)
    assert float(out.alpha.coeffs[1].real) == pytest.approx(-2 * c * np.sin(lam / 2), rel=1e-6)
    assert report["alpha_imag_defect"] <= 1e-12


def test_realform_scaling_preserves_product():
    D = 10
    c = 0.01
    t = resonant_pair(D, [c * (1 + 0.3j)])
    out, link, report = realform_scaling(t, N=2)
    fwd = link.forward_pair(D)
    prod = multiply(fwd[0], fwd[1])
    want = multiply(CrownSeries.xi(D), CrownSeries.eta(D))
    assert (prod - want).max_abs_coeff() < 1e-13


def test_realform_pushes_tail_to_high_order():
    D = 12
    c = 0.01
    t = resonant_pair(D, [c, 0.3 * c])
    out, link, report = realform_scaling(t, N=2)
    assert report["perturbation_order"] >= 2 * 2 + 2


# ---------------------------------------------------------------------------
# nondegeneracy detection and rescale
# ---------------------------------------------------------------------------


def test_detect_simple():
    h = CoeffSeries(np.array([0.0, 0.0, 1.0, 0.5]))
    assert detect_nondegeneracy(h) == (2, 1.0)


def test_detect_degenerate():
    assert detect_nondegeneracy(CoeffSeries(np.array([0.3]))) == "degenerate"
    assert detect_nondegeneracy(CoeffSeries(np.zeros(5))) == "degenerate"


def test_detect_thresholding():
    h = CoeffSeries(np.array([0.0, 1e-18, 0.3]))
    s, resc = detect_nondegeneracy(h, degeneracy_tol=1e-12)
    assert s == 2
    assert resc == pytest.approx(0.3 ** (-1 / 4))


def test_radial_rescale_normalizes_coefficient():
    D = 10
    alpha = CoeffSeries(np.array([LAM, -0.25, 0.1]), real=True)
    t = InvolutionPair(alpha, CrownSeries.zero(D), CrownSeries.zero(D))
    s, resc = detect_nondegeneracy(CoeffSeries(np.concatenate([[0], alpha.coeffs[1:]])))
    assert s == 1
    out, link = apply_radial_rescale(t, resc, flip=True)
    assert float(out.alpha.coeffs[1].real) == pytest.approx(1.0, rel=1e-12)
    assert float(out.alpha.coeffs[0].real) == pytest.approx(LAM + 2 * np.pi)
    # the rescale keeps the pair an involution
    np_ = CrownNormParams(0.001, 0.0002, 0.08)
    assert out.involution_residual(np_) < 1e-12


# ---------------------------------------------------------------------------
# radius search
# ---------------------------------------------------------------------------


def prepared_fixture(D=12, scale=1.0):
    alpha = CoeffSeries(np.array([LAM, 1.0]), real=True)
    p = CrownSeries.monomial(4, 2, D, 0.4 * scale)  # order 6 = 2N+2 for N = 2
    q = CrownSeries.monomial(2, 4, D, -0.4 * scale * np.exp(0.5j * LAM * (2 - 4 - 1)))
    return InvolutionPair(alpha, p, q, 1)


def test_radius_zero_perturbation_case1():
    t = InvolutionPair(
        CoeffSeries(np.array([LAM, 1.0]), real=True),
        CrownSeries.zero(10),
        CrownSeries.zero(10),
    )
    res = radius_search(t)
    assert res.branch == "case1"
    assert res.A == 0.0
    assert res.eps0 == 0.0


def test_radius_A_scaling_slope():
    # order-(2N+2) monomial perturbation: A scales by 2^-(2N+2) per halving
    t = prepared_fixture()
    A1 = 10 * max(t.p.full_norm(0.2), t.q.full_norm(0.2))
    A2 = 10 * max(t.p.full_norm(0.1), t.q.full_norm(0.1))
    assert A1 / A2 == pytest.approx(2 ** 6, rel=1e-12)


def test_radius_search_practical_contracts():
    t = prepared_fixture()
    res = radius_search(t)
    assert res.branch in ("case1", "case2")
    assert res.trial is not None
    assert res.trial["p_plus"] <= res.trial["target"]
    assert res.A < 1.0


def test_radius_search_case2_on_large_skew():
    # a pair whose skew term is O(eps): generic involution from conjugation
    rng = np.random.default_rng(53)
    D = 12
    alpha = CoeffSeries(np.array([LAM, 1.0]), real=True)

    def rand_u():
        c = rng.standard_normal((D + 1, D + 1)) * 1e-3
        for m in range(D + 1):
            for n in range(D + 1):
                if m + n > D or m + n < 6:
                    c[m, n] = 0.0
        return CrownSeries(c, D)

    t = synthesize_pair(alpha, (rand_u(), rand_u()))
    res = radius_search(t)
    assert res.branch == "case2"
    assert res.skew_measured >= res.skew_threshold


def test_smallness_inequality_fails_at_every_double():
    # the verbatim radius inequality cannot hold at any double-precision
    # perturbation size, radius or twist order up to 4
    As = np.logspace(-308, 0, 309)
    rs = np.geomspace(1e-7, 0.24, 50)
    for s in range(1, 5):
        assert min(smallness_lhs(s, 0.75 * r, A ** (49 / 50)) for A in As for r in rs) > 1.0


def test_radius_search_reports_the_schedule_inequality():
    # rigorous_lhs is the schedule's feasibility_lhs at eps0 = A^{49/50},
    # r0 = (3/4) r_*: the first factor reads |ln eps0|, not |ln A|
    t = prepared_fixture()
    res = radius_search(t)
    sch = build_schedule(t.s_order, 0.75 * res.r_star, res.A ** (49 / 50), 1)
    assert res.rigorous_lhs == sch.feasibility_lhs
    assert res.rigorous_feasible is sch.feasible_rigorous is False


def test_full_prenormalize_pipeline():
    from crownkam.moserwebster import diagonalize, surface_from_config

    M = surface_from_config(
        {
            "gamma": 0.77,
            "degree": 12,
            "f_monomials": [[3, 0, 0.08, 0.0], [2, 1, 0.05, 0.02], [4, 0, 0.03, 0.01]],
        }
    )
    _, pair = diagonalize(M)
    prep, chain, report = prenormalize(pair, N=2)
    nd = report["nondegeneracy"]
    assert nd != "degenerate"
    assert nd["s"] == 1
    assert float(prep.alpha.coeffs[1].real) == pytest.approx(1.0, rel=1e-10)
    assert report["nonresonant_scan"] < 1e-11
    assert prep.p.order(tol=1e-11) >= 6
    # every chain link commutes with rho
    for link in chain:
        assert link.is_real(1e-9)
    res = radius_search(prep)
    assert res.branch == "case1"
    assert res.rigorous_feasible is False  # desk scale: verbatim bound infeasible
