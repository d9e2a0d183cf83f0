"""Tests for the truncated series ring, crown decomposition and crown norms."""

import numpy as np
import pytest

import crownkam.series as series
from crownkam.series import (
    CoeffSeries,
    CrownNormParams,
    CrownSeries,
    SeriesError,
    identity_pair,
    invert_near_identity,
    multiply,
    principal_part,
    rotation_factor,
    scaling_pair,
    substitute_pair,
)
from crownkam.transforms import ScalingLink

from composition_helpers import compose_rotated


def random_crown(rng, D, scale=1.0, min_order=0):
    c = (rng.standard_normal((D + 1, D + 1)) + 1j * rng.standard_normal((D + 1, D + 1))) * scale
    for m in range(D + 1):
        for n in range(D + 1):
            if m + n > D or m + n < min_order:
                c[m, n] = 0.0
    return CrownSeries(c, D)


def direct_poly_multiply(f: CrownSeries, g: CrownSeries) -> np.ndarray:
    """Oracle: plain 2-d convolution of coefficient arrays, then truncation."""
    D = f.trunc_total
    big = np.zeros((2 * D + 1, 2 * D + 1), dtype=np.complex128)
    for m in range(D + 1):
        for n in range(D + 1):
            a = f.coeffs[m, n]
            if a != 0.0:
                big[m : m + D + 1, n : n + D + 1] += a * g.coeffs
    out = big[: D + 1, : D + 1].copy()
    for m in range(D + 1):
        for n in range(D + 1):
            if m + n > D:
                out[m, n] = 0.0
    return out


def crown_formula_multiply(f: CrownSeries, g: CrownSeries) -> CrownSeries:
    """Oracle: product assembled from the crown coefficient formulas.

    (fg)_00 = f_00 g_00 + sum_{k>=1} (f_k0 g_0k + f_0k g_k0) z^k
    (fg)_l0 = sum_{a+b=l} f_a0 g_b0
              + sum_{k>=1} (f_{l+k,0} g_0k + f_0k g_{l+k,0}) z^k
    and mirrored for (fg)_0j.  (Each xi-power split is counted once.)
    """
    D = f.trunc_total

    def fc(l, j, which):
        return (f if which == 0 else g).crown_coefficient(l, j).truncate(D)

    entries = []
    h = fc(0, 0, 0) * fc(0, 0, 1)
    for k in range(1, D + 1):
        zk = CoeffSeries(np.eye(D + 1, dtype=np.complex128)[k])
        h = h + zk * (fc(k, 0, 0) * fc(0, k, 1) + fc(0, k, 0) * fc(k, 0, 1))
    entries.append((0, 0, h.truncate(D // 2)))
    for l in range(1, D + 1):
        hl = CoeffSeries.zero(D)
        for a in range(l + 1):
            hl = hl + fc(a, 0, 0) * fc(l - a, 0, 1)
        for k in range(1, D + 1):
            zk = CoeffSeries(np.eye(D + 1, dtype=np.complex128)[k])
            if l + k <= D:
                hl = hl + zk * (fc(l + k, 0, 0) * fc(0, k, 1) + fc(0, k, 0) * fc(l + k, 0, 1))
        entries.append((l, 0, hl.truncate((D - l) // 2)))
        hj = CoeffSeries.zero(D)
        for a in range(l + 1):
            hj = hj + fc(0, a, 0) * fc(0, l - a, 1)
        for k in range(1, D + 1):
            zk = CoeffSeries(np.eye(D + 1, dtype=np.complex128)[k])
            if l + k <= D:
                hj = hj + zk * (fc(0, l + k, 0) * fc(k, 0, 1) + fc(k, 0, 0) * fc(0, l + k, 1))
        entries.append((0, l, hj.truncate((D - l) // 2)))
    return CrownSeries.crown_reassemble(entries, D)


# ---------------------------------------------------------------------------
# crown decomposition
# ---------------------------------------------------------------------------


def test_decompose_xi_eta_is_z():
    D = 6
    f = multiply(CrownSeries.xi(D), CrownSeries.eta(D))
    entries = [(l, j, h) for l, j, h in f.crown_decompose() if np.any(h.coeffs != 0)]
    assert len(entries) == 1
    l, j, h = entries[0]
    assert (l, j) == (0, 0)
    assert h.coeffs[0] == 0 and h.coeffs[1] == 1.0


def test_decompose_direct_regrouping():
    # xi^2 (1 + xi eta) regroups into the single crown entry (2, 0) with 1 + z
    D = 6
    f = CrownSeries.monomial(2, 0, D) + CrownSeries.monomial(3, 1, D)
    h = f.crown_coefficient(2, 0)
    assert h.coeffs[0] == 1.0 and h.coeffs[1] == 1.0
    others = [
        (l, j)
        for l, j, g in f.crown_decompose()
        if (l, j) != (2, 0) and np.any(g.coeffs != 0)
    ]
    assert others == []


def test_decompose_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = random_crown(rng, 6)
        back = CrownSeries.crown_reassemble(f.crown_decompose(), 6)
        np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=0, atol=1e-15)


def test_decompose_indices_all_lj_zero():
    rng = np.random.default_rng(8)
    f = random_crown(rng, 5)
    for l, j, _ in f.crown_decompose():
        assert l * j == 0


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_multiply_xi_eta():
    D = 4
    prod = multiply(CrownSeries.xi(D), CrownSeries.eta(D))
    expect = np.zeros((D + 1, D + 1), dtype=np.complex128)
    expect[1, 1] = 1.0
    np.testing.assert_array_equal(prod.coeffs, expect)


def test_multiply_one_plus_xi_times_one_plus_eta():
    D = 4
    f = CrownSeries.constant(1.0, D) + CrownSeries.xi(D)
    g = CrownSeries.constant(1.0, D) + CrownSeries.eta(D)
    prod = multiply(f, g)
    assert prod.coeffs[0, 0] == 1.0
    assert prod.coeffs[1, 0] == 1.0
    assert prod.coeffs[0, 1] == 1.0
    assert prod.coeffs[1, 1] == 1.0
    assert np.count_nonzero(prod.coeffs) == 4


def test_multiply_matches_direct_convolution():
    rng = np.random.default_rng(11)
    for _ in range(25):
        D = int(rng.integers(2, 11))
        f = random_crown(rng, D)
        g = random_crown(rng, D)
        got = multiply(f, g).coeffs
        want = direct_poly_multiply(f, g)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_multiply_matches_crown_formulas():
    rng = np.random.default_rng(12)
    for _ in range(10):
        D = int(rng.integers(2, 9))
        f = random_crown(rng, D)
        g = random_crown(rng, D)
        got = multiply(f, g).coeffs
        want = crown_formula_multiply(f, g).coeffs
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_multiply_rejects_mismatched_truncation():
    with pytest.raises(SeriesError):
        multiply(CrownSeries.xi(3), CrownSeries.xi(4))


def test_norm_submultiplicative_random():
    rng = np.random.default_rng(13)
    hits = 0
    while hits < 100:
        D = int(rng.integers(2, 7))
        f = random_crown(rng, D)
        g = random_crown(rng, D)
        r = float(rng.uniform(0.05, 0.24))
        beta = float(rng.uniform(0.0, 0.3)) * r**2
        lim = r**2 - beta
        if lim <= 1e-6:
            continue
        omega = float(rng.uniform(-0.9, 0.9)) * lim
        np_ = CrownNormParams(omega, beta, r)
        lhs = multiply(f, g).crown_norm(np_)
        rhs = f.crown_norm(np_) * g.crown_norm(np_)
        assert lhs <= rhs * (1 + 1e-12) + 1e-12
        hits += 1


# ---------------------------------------------------------------------------
# crown norm
# ---------------------------------------------------------------------------


def test_norm_of_xi_is_r():
    D = 5
    np_ = CrownNormParams(0.003, 0.0005, 0.1)
    assert CrownSeries.xi(D).crown_norm(np_) == pytest.approx(0.1, rel=1e-14)


def test_norm_of_xieta_is_abs_omega_plus_beta():
    D = 5
    f = multiply(CrownSeries.xi(D), CrownSeries.eta(D))
    np_ = CrownNormParams(0.004, 0.0008, 0.12)
    assert f.crown_norm(np_) == pytest.approx(0.004 + 0.0008, rel=1e-12)


def test_norm_worked_example():
    # xi^2 + (xi eta) eta: crown entries (2,0) -> 1 and (0,1) -> z, so the
    # norm formula gives 1*r^2 + (|omega| + beta)*r.
    D = 6
    f = CrownSeries.monomial(2, 0, D) + CrownSeries.monomial(1, 2, D)
    # the formula value at (0.01, 0.001, 0.1) is 0.01 + 0.011*0.1 = 0.0111,
    # but that omega sits outside the nonempty-crown window |omega| < r^2-beta,
    # so it is checked componentwise here and the full norm at a valid radius.
    h20 = f.crown_coefficient(2, 0)
    h01 = f.crown_coefficient(0, 1)
    by_hand = h20.disk_max(0.01, 0.001) * 0.1**2 + h01.disk_max(0.01, 0.001) * 0.1
    assert by_hand == pytest.approx(0.0111, rel=1e-12)
    np_ = CrownNormParams(0.01, 0.001, 0.12)
    assert f.crown_norm(np_) == pytest.approx(0.12**2 + 0.011 * 0.12, rel=1e-12)
    with pytest.raises(SeriesError):
        f.crown_norm(CrownNormParams(0.01, 0.001, 0.1))


def test_norm_rejects_empty_crown():
    f = CrownSeries.xi(3)
    with pytest.raises(SeriesError):
        f.crown_norm(CrownNormParams(0.0099, 0.0002, 0.1))
    with pytest.raises(SeriesError):
        CrownNormParams(0.0099, 0.0002, 0.1)


def test_norm_monotonicity():
    # ||f||_{omega,beta',r'} <= ||f||_{omega,beta,r} for r'<=r, beta'<=beta,
    # r'^2 - beta' <= r^2 - beta
    rng = np.random.default_rng(17)
    for _ in range(100):
        D = int(rng.integers(2, 7))
        f = random_crown(rng, D)
        r = float(rng.uniform(0.08, 0.24))
        beta = float(rng.uniform(0.1, 0.4)) * r**2
        rp = r * float(rng.uniform(0.6, 1.0))
        betap = beta * float(rng.uniform(0.2, 1.0))
        if rp**2 - betap > r**2 - beta:
            betap = rp**2 - (r**2 - beta)
            if betap < 0:
                continue
        lim = rp**2 - betap
        if lim <= 1e-8:
            continue
        omega = float(rng.uniform(-0.9, 0.9)) * lim
        n_small = f.crown_norm(CrownNormParams(omega, betap, rp))
        n_big = f.crown_norm(CrownNormParams(omega, beta, r))
        assert n_small <= n_big * (1 + 1e-12) + 1e-12


def test_norm_conjugation_and_swap_symmetry():
    rng = np.random.default_rng(19)
    for _ in range(100):
        D = int(rng.integers(2, 7))
        f = random_crown(rng, D)
        r = float(rng.uniform(0.05, 0.2))
        beta = 0.2 * r**2
        omega = float(rng.uniform(-0.5, 0.5)) * (r**2 - beta)
        np_ = CrownNormParams(omega, beta, r)
        n0 = f.crown_norm(np_)
        assert f.swap().crown_norm(np_) == pytest.approx(n0, rel=1e-12, abs=1e-15)
        assert f.conj().crown_norm(np_) == pytest.approx(n0, rel=1e-12, abs=1e-15)


def test_coefficient_bound():
    # |f_lj|_{omega,beta} <= ||f|| r^-(l+j)
    rng = np.random.default_rng(23)
    for _ in range(30):
        D = 6
        f = random_crown(rng, D)
        np_ = CrownNormParams(0.002, 0.0004, 0.09)
        total = f.crown_norm(np_)
        for l, j, h in f.crown_decompose():
            m = h.disk_max(np_.omega, np_.beta, np_.boundary_samples)
            assert m <= total * np_.radius ** -(l + j) * (1 + 1e-12) + 1e-15


def test_norm_equals_per_entry_disk_max_sum():
    # the one-pass norm keeps the per-entry sums bit for bit, beta = 0 included
    rng = np.random.default_rng(31)
    for D in (0, 1, 6, 13):
        f = random_crown(rng, D)
        for beta in (0.0, 0.0004):
            np_ = CrownNormParams(0.002, beta, 0.09, 48)
            want = 0.0
            for l, j, h in f.crown_decompose():
                m = h.disk_max(np_.omega, np_.beta, np_.boundary_samples)
                if m != 0.0:
                    want += m * np_.radius ** np.arange(D + 1)[l + j]
            assert f.crown_norm(np_) == want


def test_conjugate_involutive():
    rng = np.random.default_rng(29)
    f = random_crown(rng, 6)
    np.testing.assert_array_equal(f.conj().conj().coeffs, f.coeffs)


# ---------------------------------------------------------------------------
# exp, log and powers
# ---------------------------------------------------------------------------


def test_exp_of_zero_is_one():
    e = CoeffSeries.zero(5).exp()
    assert e.coeffs[0] == 1.0
    assert np.count_nonzero(e.coeffs) == 1


def test_exp_of_constant():
    lam = 0.7 + 0.0j
    b = 0.43
    e = CoeffSeries.constant(lam, 4).exp(1j * b)
    assert complex(e.coeffs[0]) == pytest.approx(np.exp(1j * b * lam), rel=1e-14)
    assert np.count_nonzero(e.coeffs) == 1


def test_exp_inverse_pairing():
    rng = np.random.default_rng(31)
    f = CoeffSeries((rng.standard_normal(7) + 1j * rng.standard_normal(7)) * 0.3)
    a = 0.9 - 0.2j
    prod = f.exp(a) * f.exp(-a)
    assert np.max(np.abs(prod.coeffs - CoeffSeries.constant(1.0, 6).coeffs)) < 1e-12


def test_exp_overflow_guard():
    with pytest.raises(SeriesError, match="overflow guard"):
        CoeffSeries.constant(60.0, 3).exp()


def unit_series(rng, D):
    """1.3 - 0.4j plus 0.3 N(0,1)_C 2^-k above the constant, as a series in
    z (degree D) and in xi, eta (total degree D, 2^-(m+n))."""
    k = np.arange(D + 1)
    c = 0.3 * (rng.standard_normal(D + 1) + 1j * rng.standard_normal(D + 1)) * 2.0**-k
    c[0] = 1.3 - 0.4j
    crown = random_crown(rng, D, 0.3).coeffs * 2.0 ** -np.add.outer(k, k)
    crown[0, 0] = c[0]
    return CoeffSeries(c), CrownSeries(crown, D)


@pytest.mark.parametrize("D", [1, 12, 24])
def test_square_root_squares_back_and_reciprocal_inverts(D):
    f, F = unit_series(np.random.default_rng(D), D)
    one, One = CoeffSeries.constant(1.0, D), CrownSeries.constant(1.0, D)
    root, Root = f.power(0.5), F.power(0.5)
    assert np.max(np.abs((root * root - f).coeffs)) < 1e-14
    assert np.max(np.abs((multiply(Root, Root) - F).coeffs)) < 1e-14
    assert np.max(np.abs((f * f.reciprocal() - one).coeffs)) < 1e-14
    assert np.max(np.abs((multiply(F, F.power(-1)) - One).coeffs)) < 1e-14


def test_power_and_log_guards():
    for f in (CoeffSeries.zero(3), CrownSeries.zero(3)):
        with pytest.raises(SeriesError, match="zero constant term"):
            f.power(-1)
    for f in (CoeffSeries.constant(-2.0, 3), CrownSeries.constant(-2.0, 3)):
        with pytest.raises(SeriesError, match="branch-cut"):
            f.power(0.25)
        assert complex(f.power(-1).coeffs.flat[0]) == -0.5  # an integer power has no cut
    with pytest.raises(SeriesError, match="branch-cut"):
        CoeffSeries.constant(-2.0, 3).log()
    with pytest.raises(SeriesError, match="zero constant term"):
        CoeffSeries.zero(3).reciprocal()


def test_exp_rotation_norm_bound():
    # ||e^{i b alpha}||_{omega,beta',r} < e^{(9/8)|b| beta_tilde} for the
    # nondegenerate exponent alpha = lambda + z and any beta' <= beta_tilde.
    # beta_tilde is taken at a desk-feasible size (the crown must be nonempty).
    D = 10
    lam = 2 * np.pi / 3
    alpha = CoeffSeries(np.array([lam, 1.0]), real=True)
    r = 0.2
    beta_tilde = 1.2e-3
    for b in (-1.0, -0.3, 0.2, 1.0):
        rot = rotation_factor(alpha, b, D)
        for bp in (0.0, beta_tilde / 7, beta_tilde):
            np_ = CrownNormParams(0.01, bp, r)
            assert rot.crown_norm(np_) < np.exp(9 / 8 * abs(b) * beta_tilde)


# ---------------------------------------------------------------------------
# rotated composition
# ---------------------------------------------------------------------------


def test_compose_rotated_of_xi():
    D = 8
    alpha = CoeffSeries(np.array([1.1, 0.7, -0.2]), real=True)
    b = 0.6
    z = CrownSeries.zero(D)
    got = compose_rotated(CrownSeries.xi(D), b, alpha, z, z)
    want = multiply(rotation_factor(alpha, b, D), CrownSeries.xi(D))
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-14


def test_principal_part_is_the_inline_product():
    alpha = CoeffSeries(np.array([1.1, 0.7, -0.2]), real=True)
    for D, b in ((1, 0.5), (8, -0.5), (12, 1.0)):
        got = principal_part(alpha, b, D)
        want = (
            multiply(rotation_factor(alpha, b, D), CrownSeries.xi(D)),
            multiply(rotation_factor(alpha, -b, D), CrownSeries.eta(D)),
        )
        for g, w in zip(got, want):
            assert g.coeffs.tobytes() == w.coeffs.tobytes()
    # scaling_pair and the scaling links against the same product; + 0.0
    # turns only a -0.0 into +0.0, and multiply leaves -0.0 only in empty
    # slots at D <= 2
    rng = np.random.default_rng(386)
    theta = CoeffSeries(np.array([1.0, 0.3, -0.2, 0.05]), real=True)
    link = ScalingLink(theta)
    for D in (1, 2, 7, 12):
        cases = [
            (link.forward_pair(D), (theta, theta.reciprocal())),
            (link.inverse_pair(D), (theta.reciprocal(), theta.reciprocal().reciprocal())),
        ]
        for nh, nk in ((0, D), ((D - 1) // 2, 0), (D, (D - 1) // 2)):
            h, k = (CoeffSeries(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
                    for n in (nh, nk))
            cases.append((scaling_pair(h, k, D), (h, k)))
        for got, (a, c) in cases:
            want = (
                multiply(CrownSeries.from_z_series(a, D), CrownSeries.xi(D)),
                multiply(CrownSeries.from_z_series(c, D), CrownSeries.eta(D)),
            )
            for g, w in zip(got, want):
                assert g.coeffs.tobytes() == (w.coeffs + 0.0).tobytes()


def test_compose_rotated_preserves_product_functions():
    # h depending only on xi*eta is unchanged by the rotation
    D = 8
    alpha = CoeffSeries(np.array([0.9, 0.5]), real=True)
    h = CrownSeries.from_z_series(CoeffSeries(np.array([0.0, 1.0, 0.3, -0.1])), D)
    z = CrownSeries.zero(D)
    for b in (-1.0, 0.25, 1.0):
        got = compose_rotated(h, b, alpha, z, z)
        assert np.max(np.abs(got.coeffs - h.coeffs)) < 1e-12


def test_compose_rotated_rejects_large_b():
    D = 4
    alpha = CoeffSeries(np.array([1.0]), real=True)
    z = CrownSeries.zero(D)
    with pytest.raises(SeriesError):
        compose_rotated(CrownSeries.xi(D), 1.5, alpha, z, z)


def test_compose_rotated_lipschitz_bound():
    # || h(..+f1, ..+g1) - h(..+f2, ..+g2) || <=
    #   3 r' ||h|| / ((r'-r'') beta') * max(||f1-f2||, ||g1-g2||)
    rng = np.random.default_rng(37)
    D = 8
    lam = 2 * np.pi * 0.381966
    alpha = CoeffSeries(np.array([lam, 1.0]), real=True)
    checked = 0
    while checked < 20:
        rp = float(rng.uniform(0.15, 0.24))
        rpp = rp * float(rng.uniform(0.45, 0.65))
        beta = min(1e-6, ((rp - rpp) * rpp / 8.0) ** 2 * 0.9)
        beta_tilde = 16 * beta**1.25
        betap = beta_tilde
        betapp = betap / 2
        fg_cap = betap**2 / 16.0
        omega = float(rng.uniform(-0.3, 0.3)) * (rpp**2 - betapp)
        h = random_crown(rng, D)
        b = float(rng.uniform(-1, 1))
        pert = []
        for _ in range(4):
            w = random_crown(rng, D, min_order=1)
            np_pp = CrownNormParams(omega, betapp, rpp)
            nw = w.crown_norm(np_pp)
            pert.append(w * (0.31 * fg_cap / max(nw, 1e-300)))
        f1, g1, f2, g2 = pert
        np_p = CrownNormParams(omega, betap, rp)
        np_pp = CrownNormParams(omega, betapp, rpp)
        lhs = (
            compose_rotated(h, b, alpha, f1, g1)
            - compose_rotated(h, b, alpha, f2, g2)
        ).crown_norm(np_pp)
        bound = (
            3
            * rp
            * h.crown_norm(np_p)
            / ((rp - rpp) * betap)
            * max((f1 - f2).crown_norm(np_pp), (g1 - g2).crown_norm(np_pp))
        )
        assert lhs <= bound
        checked += 1


# ---------------------------------------------------------------------------
# partial derivatives
# ---------------------------------------------------------------------------


def test_partial_derivatives_of_monomials():
    D = 6
    for m in range(D + 1):
        for n in range(D + 1 - m):
            f = CrownSeries.monomial(m, n, D, 2.0 - 1.0j)
            dxi, deta = f.partial(0), f.partial(1)
            want_xi = np.zeros((D + 1, D + 1), dtype=complex)
            want_eta = np.zeros((D + 1, D + 1), dtype=complex)
            if m:
                want_xi[m - 1, n] = m * (2.0 - 1.0j)
            if n:
                want_eta[m, n - 1] = n * (2.0 - 1.0j)
            assert np.array_equal(dxi.coeffs, want_xi)
            assert np.array_equal(deta.coeffs, want_eta)
    with pytest.raises(SeriesError):
        f.partial(2)


def test_partial_eta_is_the_column_shift():
    # the eta-derivative the deck transformation used to build by hand
    rng = np.random.default_rng(45)
    D = 9
    h = random_crown(rng, D)
    c = np.zeros_like(h.coeffs)
    c[:, :D] = h.coeffs[:, 1:] * np.arange(1, D + 1)[None, :]
    assert np.array_equal(h.partial(1).coeffs, c)
    assert np.array_equal(h.swap().partial(0).coeffs, h.partial(1).swap().coeffs)


# ---------------------------------------------------------------------------
# near-identity inversion
# ---------------------------------------------------------------------------


def test_invert_zero():
    D = 5
    V = invert_near_identity((CrownSeries.zero(D), CrownSeries.zero(D)))
    assert V[0].coeff_1norm() == 0.0
    assert V[1].coeff_1norm() == 0.0


def test_invert_constant_shift():
    # Id+V inverts Id+U only when U fixes the origin
    D = 5
    U = (CrownSeries.constant(0.037 - 0.011j, D), CrownSeries.zero(D))
    with pytest.raises(SeriesError, match="map must fix the origin"):
        invert_near_identity(U)


def test_invert_rejects_singular_linear_part():
    # I + L = [[0.5, 1], [0.25, 0.5]] has determinant 0
    D = 5
    xi, eta = identity_pair(D)
    U = (xi * -0.5 + eta + CrownSeries.monomial(2, 0, D, 0.1), xi * 0.25 + eta * -0.5)
    with pytest.raises(SeriesError, match="linear part of the map is not invertible"):
        invert_near_identity(U)


def test_invert_quadratic_residual():
    rng = np.random.default_rng(41)
    D = 8
    for _ in range(5):
        U = (
            random_crown(rng, D, scale=0.01, min_order=2),
            random_crown(rng, D, scale=0.01, min_order=2),
        )
        V = invert_near_identity(U)
        xi, eta = identity_pair(D)
        comp = substitute_pair((xi + U[0], eta + U[1]), (xi + V[0], eta + V[1]))
        res = max((comp[0] - xi).max_abs_coeff(), (comp[1] - eta).max_abs_coeff())
        assert res <= 10 * 1e-14 + 1e-13


def decaying_pair(rng, D, linear):
    """U of order 2 with coefficients 0.1 N(0,1)_C 2^-(m+n), plus the linear
    part [[U_0(1,0), U_0(0,1)], [U_1(1,0), U_1(0,1)]] = linear."""
    m, n = np.indices((D + 1, D + 1))
    out = []
    for row in linear:
        c = random_crown(rng, D, 0.1, 2).coeffs * 2.0 ** -(m + n).astype(float)
        c[1, 0], c[0, 1] = row
        out.append(CrownSeries(c, D))
    return tuple(out)


@pytest.mark.parametrize("linear", [((0, 0), (0, 0)), ((0.2, -0.1j), (0.15, -0.1 + 0.1j))])
@pytest.mark.parametrize("D", [12, 24, 36, 48])
def test_inverse_is_exact_on_both_sides(D, linear):
    U = decaying_pair(np.random.default_rng(500 + D), D, linear)
    V = invert_near_identity(U)
    xi, eta = identity_pair(D)
    F, G = (xi + U[0], eta + U[1]), (xi + V[0], eta + V[1])
    for W in (substitute_pair(F, G), substitute_pair(G, F)):
        assert max((W[0] - xi).max_abs_coeff(), (W[1] - eta).max_abs_coeff()) <= 1e-14


def test_inversion_neither_composes_nor_multiplies(monkeypatch):
    # one sweep over degrees on the graded layout, not passes of compositions
    def refuse(*args):
        raise AssertionError("the inverter composed or multiplied")

    U = decaying_pair(np.random.default_rng(600), 24, ((0.2, -0.1j), (0.15, 0.1)))
    for name in ("substitute_pair", "_compose", "multiply"):
        monkeypatch.setattr(series, name, refuse)
    invert_near_identity(U)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_roundtrip_crown():
    rng = np.random.default_rng(43)
    f = random_crown(rng, 5)
    back = CrownSeries.from_json(f.to_json())
    np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-16)


def test_json_roundtrip_coeff():
    h = CoeffSeries(np.array([1.0 + 2j, 0.5, -0.25j]))
    back = CoeffSeries.from_json(h.to_json())
    np.testing.assert_allclose(back.coeffs, h.coeffs, atol=1e-16)


def nested_horner_eval(f: CrownSeries, xi, eta):
    """Row-by-row Horner: eta inside each row a[m, :], then xi over the rows."""
    xi = np.asarray(xi, dtype=np.complex128)
    eta = np.asarray(eta, dtype=np.complex128)
    D = f.trunc_total
    out = np.zeros(np.broadcast(xi, eta).shape, dtype=np.complex128)
    for m in range(D, -1, -1):
        row = np.zeros_like(out)
        for n in range(D - m, -1, -1):
            row = row * eta + f.coeffs[m, n]
        out = out * xi + row
    return out if out.shape else complex(out)


@pytest.mark.parametrize("D", [0, 1, 12, 36])
def test_eval_has_the_bits_of_the_nested_loop(D):
    rng = np.random.default_rng(50 + D)
    m, n = np.indices((D + 1, D + 1))
    c = rng.standard_normal((D + 1, D + 1)) + 1j * rng.standard_normal((D + 1, D + 1))
    c *= 2.0 ** -(m + n).astype(float)
    # exact zeros inside the triangle, and real and imaginary coefficients,
    # so that signed zeros reach the sums
    c[rng.random((D + 1, D + 1)) < 0.2] = 0.0
    c[rng.random((D + 1, D + 1)) < 0.2] = 1.0
    c[rng.random((D + 1, D + 1)) < 0.2] = 0.5j
    f = CrownSeries(c, D)

    def pts(*shape):
        return 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    inputs = [
        (complex(pts(1)[0]), complex(pts(1)[0])),
        (0.0, -0.0),
        (-0.0, -0.0),
        (pts(9), pts(9)),
        (pts(3, 4), pts(3, 4)),
        (pts(3, 1), pts(1, 4)),
        (pts(5), 0.25),
    ]
    # the negated zero series at (-0, -0) is the input on which a Horner
    # that starts every row at n = D gives +0 where the nested loop gives -0
    for g in (f, -f, f.conj(), -CrownSeries.zero(D)):
        for xi, eta in inputs:
            got, want = g.eval(xi, eta), nested_horner_eval(g, xi, eta)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert type(f.eval(0.1, 0.2)) is complex


def test_substitute_at_degree_zero():
    h, X, Y = (CrownSeries.constant(c, 0) for c in (2.0, 3.0, 5.0))
    assert h.substitute(X, Y).coeffs.tolist() == [[2.0]]
    assert [f.coeffs.tolist() for f in substitute_pair((h, X), (X, Y))] == [[[2.0]], [[3.0]]]
