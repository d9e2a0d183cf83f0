"""Tests for the surface <-> involution-pair bridge."""

import numpy as np
import pytest

from crownkam.moserwebster import (
    BishopSurface,
    deck_transformation,
    diagonalize,
    frame_for,
    hyperbola_image,
    invert_map,
    reconstruct_surface,
    surface_from_config,
)
from crownkam.runner import FIXTURES
from crownkam.series import CoeffSeries, CrownSeries, SeriesError, multiply, substitute_pair
from crownkam.transforms import RadialLink, ScalingLink

from composition_helpers import count_compositions


def quadric_surface(gamma, D=8):
    return BishopSurface(gamma, CrownSeries.zero(D))


def cubic_surface(gamma, c=0.05, D=8):
    return surface_from_config(
        {"gamma": gamma, "degree": D, "f_monomials": [[3, 0, c, 0.0], [2, 1, 0.4 * c, 0.0]]}
    )


# ---------------------------------------------------------------------------
# deck transformation
# ---------------------------------------------------------------------------


def test_deck_linear_part_gamma_one():
    M = quadric_surface(1.0)
    deck = deck_transformation(M)
    # phi1(z1, w1) = -z1 - w1 exactly
    want = CrownSeries.xi(8) * (-1.0) + CrownSeries.eta(8) * (-1.0)
    assert np.max(np.abs(deck[1].coeffs - want.coeffs)) < 1e-15


@pytest.mark.parametrize("gamma", [0.6, 0.75, 1.0, 1.7, 3.2])
def test_quadric_deck_identity_exact(gamma):
    # Q_gamma(z1, -gamma^-1 z1 - w1) = Q_gamma(z1, w1) exactly
    M = quadric_surface(gamma)
    Q = M.quadric()
    D = M.trunc_total
    phi_lin = CrownSeries.xi(D) * (-1.0 / gamma) + CrownSeries.eta(D) * (-1.0)
    composed = Q.substitute(CrownSeries.xi(D), phi_lin)
    assert np.max(np.abs(composed.coeffs - Q.coeffs)) <= 1e-14 * max(
        1.0, Q.max_abs_coeff()
    )


def test_deck_defining_identity_perturbed():
    # gamma = 1, f = z1^3 + conj: residual of F o tau = F below 1e-12 at D = 8
    M = cubic_surface(1.0, c=0.05)
    F = M.height()
    deck = deck_transformation(M)
    resid = F.substitute(deck[0], deck[1]) - F
    assert resid.max_abs_coeff() <= 1e-12


@pytest.mark.parametrize("gamma", [0.6, 0.9, 1.3])
def test_deck_is_involution(gamma):
    M = cubic_surface(gamma, c=0.03)
    deck = deck_transformation(M)
    twice = substitute_pair(deck, deck)
    xi = CrownSeries.xi(M.trunc_total)
    eta = CrownSeries.eta(M.trunc_total)
    resid = max((twice[0] - xi).max_abs_coeff(), (twice[1] - eta).max_abs_coeff())
    assert resid <= 1e-10


def test_deck_identity_five_cubics():
    rng = np.random.default_rng(31)
    for _ in range(5):
        gamma = float(rng.uniform(0.55, 2.5))
        c = float(rng.uniform(-0.05, 0.05))
        M = cubic_surface(gamma, c=c)
        F = M.height()
        deck = deck_transformation(M)
        resid = (F.substitute(deck[0], deck[1]) - F).max_abs_coeff()
        assert resid <= 1e-11


def scaled_cubic_fixture(a, D):
    surface = FIXTURES["cubic"]["surface"]
    monomials = [[k, l, a * re, a * im] for k, l, re, im in surface["f_monomials"]]
    return surface_from_config(dict(surface, degree=D, f_monomials=monomials))


@pytest.mark.parametrize("D", [12, 24, 36])
def test_deck_composes_five_times_at_every_degree(monkeypatch, D):
    # the critical point is one reversion and one pass of its equation, so
    # the count does not grow with D
    calls = count_compositions(monkeypatch)
    deck_transformation(scaled_cubic_fixture(1, D))
    assert len(calls) == 5


def test_deck_critical_point_check_at_the_edge_of_the_fixture_scale():
    # the cubic fixture scaled by 16 still passes the critical-point check at
    # D = 12 (the reversion's column alone leaves a residual above it), and
    # scaled by 8 still fails it at D = 24
    M = scaled_cubic_fixture(16, 12)
    F = M.height()
    deck = deck_transformation(M)
    assert (F.substitute(*deck) - F).max_abs_coeff() <= 1e-6
    with pytest.raises(SeriesError, match="critical-point residual"):
        deck_transformation(scaled_cubic_fixture(8, 24))


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------


def test_lambda_gamma_one():
    frame = frame_for(1.0)
    assert frame.lam == pytest.approx(2 * np.pi / 3, rel=1e-14)
    assert frame.root == pytest.approx((1 + 1j * np.sqrt(3)) / 2, abs=1e-14)


def test_lambda_gamma_five_eighths():
    frame = frame_for(5 / 8)
    assert np.cos(frame.lam / 2) == pytest.approx(4 / 5, rel=1e-14)


@pytest.mark.parametrize("gamma", [0.51, 0.75, 1.0, 2.0, 10.0])
def test_roots_product_and_sum(gamma):
    frame = frame_for(gamma)
    d = frame.root
    assert abs(d * np.conj(d) - 1.0) <= 1e-14
    assert abs((d + 1.0 / d) - 1.0 / gamma) <= 1e-14


def test_diagonalize_quadric_has_zero_perturbation():
    frame, pair = diagonalize(quadric_surface(1.0))
    assert pair.p.max_abs_coeff() < 1e-14
    assert pair.q.max_abs_coeff() < 1e-14


def test_diagonalize_rejects_elliptic():
    with pytest.raises(SeriesError):
        frame_for(0.4)


def test_diagonalize_perturbed_is_involution():
    _, pair = diagonalize(cubic_surface(0.8, c=0.04))
    from crownkam.series import CrownNormParams

    np_ = CrownNormParams(0.002, 0.0003, 0.1)
    assert pair.involution_residual(np_) <= 1e-10
    assert pair.p.order(tol=1e-13) >= 2
    assert pair.q.order(tol=1e-13) >= 2


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_reconstruct_quadric_roundtrip():
    for gamma in (0.7, 1.0, 1.9):
        M = quadric_surface(gamma)
        frame, pair = diagonalize(M)
        S = reconstruct_surface(pair, frame)
        want = M.quadric()
        assert np.max(np.abs(S.coeffs - want.coeffs)) <= 1e-10


def test_reconstruct_phi_conjugation_equivariance():
    # phi o rho = rho' o phi where rho'(z, w) = (conj w, conj z): with
    # phi2 = conj-series of phi1 this is coefficientwise exact.
    _, pair = diagonalize(cubic_surface(1.0, c=0.04))
    T = pair.components()
    xi = CrownSeries.xi(pair.trunc_total)
    phi1 = xi + T[0]
    phi2 = phi1.conj()
    assert np.max(np.abs(phi2.conj().coeffs - phi1.coeffs)) < 1e-15


def test_reconstruct_invariants_of_tau():
    # phi1 and Phi are tau1-invariant by construction
    _, pair = diagonalize(cubic_surface(0.9, c=0.03))
    T = pair.components()
    D = pair.trunc_total
    xi = CrownSeries.xi(D)
    phi1 = xi + T[0]
    Phi = multiply(T[0], xi)
    phi1_tau = phi1.substitute(T[0], T[1])
    Phi_tau = Phi.substitute(T[0], T[1])
    assert (phi1_tau - phi1).max_abs_coeff() <= 1e-12
    assert (Phi_tau - Phi).max_abs_coeff() <= 1e-12


def test_invert_map_roundtrip():
    rng = np.random.default_rng(5)
    D = 8
    c1 = rng.standard_normal((D + 1, D + 1)) * 0.05
    c2 = rng.standard_normal((D + 1, D + 1)) * 0.05
    for c in (c1, c2):
        c[0, 0] = 0.0
        c[1, 0] = 0.0
        c[0, 1] = 0.0
    F = (
        CrownSeries.xi(D) * 1.1 + CrownSeries.eta(D) * 0.3 + CrownSeries(c1, D),
        CrownSeries.xi(D) * -0.2 + CrownSeries.eta(D) * 0.9 + CrownSeries(c2, D),
    )
    G = invert_map(F)
    FG = substitute_pair(F, G)
    assert (FG[0] - CrownSeries.xi(D)).max_abs_coeff() < 1e-11
    assert (FG[1] - CrownSeries.eta(D)).max_abs_coeff() < 1e-11


# ---------------------------------------------------------------------------
# hyperbola sampling
# ---------------------------------------------------------------------------


def test_hyperbola_linear_pair_constant_z2():
    # the quadric's height in the frame is c xi eta, c = |a|^2 (1 - 4 gamma^2) / gamma
    M = quadric_surface(1.0)
    frame, _ = diagonalize(M)
    omega = 0.004
    rows = hyperbola_image([], [omega], R=0.1, n_pts=7, surface=M, frame=frame)
    want = abs(frame.a) ** 2 * (1.0 - 4.0 * frame.gamma**2) / frame.gamma * omega
    for row in rows:
        z2 = complex(row["re_z2"], row["im_z2"])
        assert abs(z2 - want) < 1e-12


def test_hyperbola_real_branch_flags():
    # through the surface embedding, real-branch points land on the real
    # trace of M, where the height is real-valued (rho-equivariance)
    M = cubic_surface(1.0, c=0.02)
    frame, _ = diagonalize(M)
    for omega in (0.003, -0.002):
        rows = hyperbola_image([], [omega], R=0.1, n_pts=5, surface=M, frame=frame)
        real_rows = [r for r in rows if r["is_real_branch"]]
        assert len(real_rows) >= 2
        for r in real_rows:
            assert abs(r["im_z2"]) < 1e-10


@pytest.mark.parametrize("chained", [False, True])
def test_hyperbola_list_is_the_one_omega_calls_concatenated(chained):
    # one chain pass over every curve gives the rows of the one-omega calls, bit for bit
    M = cubic_surface(1.0, c=0.02)
    frame, _ = diagonalize(M)
    chain = [ScalingLink(CoeffSeries(np.array([1.0, 0.3]), real=True)),
             RadialLink(0.8, flip=True)] if chained else []
    kw = {"R": 0.1, "n_pts": 5, "surface": M, "frame": frame}
    omegas = [0.003, -0.002, 0.0004, -0.0081]
    rows = hyperbola_image(chain, omegas, **kw)
    singles = [r for w in omegas for r in hyperbola_image(chain, [w], **kw)]
    assert repr(rows) == repr(singles)
    assert [r["omega"] for r in rows[::22]] == omegas
    assert hyperbola_image(chain, [], **kw) == []


@pytest.mark.parametrize("bad", [0.0, -0.0, 0.0101, -0.0101, 0.5, float("nan")])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_hyperbola_list_rejects_every_bad_omega(bad, where):
    M = quadric_surface(1.0)
    frame, _ = diagonalize(M)
    omegas = [0.003, -0.002]
    omegas.insert(where, bad)
    for n_pts in (3, 0):
        with pytest.raises(SeriesError):
            hyperbola_image([], omegas, R=0.1, n_pts=n_pts, surface=M, frame=frame)


def test_hyperbola_empty_and_range_checks():
    M = quadric_surface(1.0)
    frame, _ = diagonalize(M)
    assert hyperbola_image([], [0.004], R=0.1, n_pts=0, surface=M, frame=frame) == []
    with pytest.raises(SeriesError):
        hyperbola_image([], [0.02], R=0.1, n_pts=3, surface=M, frame=frame)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_surface_config_symmetrizes():
    M = surface_from_config(
        {"gamma": 0.8, "degree": 6, "f_monomials": [[3, 0, 0.1, 0.05]]}
    )
    assert M.f.coeffs[3, 0] == pytest.approx(0.1 + 0.05j)
    assert M.f.coeffs[0, 3] == pytest.approx(0.1 - 0.05j)


def test_surface_config_rejects_low_order():
    with pytest.raises(SeriesError):
        surface_from_config({"gamma": 0.8, "degree": 6, "f_monomials": [[1, 1, 0.1, 0]]})


@pytest.mark.parametrize("mono", [[13, 0, 0.1, 0.0], [-1, 4, 0.1, 0.0], [7, 6, 0.1, 0.0]])
def test_surface_config_rejects_monomials_outside_the_degree(mono):
    # an index above the degree used to end in an IndexError, a negative one
    # wrapped to the far end of the array, and k + l > degree was dropped
    with pytest.raises(SeriesError, match=r"f_monomials entry \[.*k \+ l <= 12"):
        surface_from_config({"gamma": 0.8, "degree": 12, "f_monomials": [[3, 0, 0.1, 0], mono]})


def test_surface_rejects_elliptic_gamma():
    with pytest.raises(SeriesError):
        quadric_surface(0.3)
