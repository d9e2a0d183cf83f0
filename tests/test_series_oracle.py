"""The series kernels against a 50-digit oracle, plus ring properties.

Every coefficient of ``multiply``, ``substitute``, ``substitute_pair`` and
every term of ``crown_norm`` is recomputed with mpmath at 50 significant
digits from the same double-precision inputs, so the only difference left
is the kernel's own rounding.  A product coefficient is a sum of at most
(D+1)^2 complex products, which bounds its error by 2(D+1)^2 eps times the
same coefficient of |f| * |g|.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crownkam.series import (
    CrownNormParams,
    CrownSeries,
    _triangle_mask,
    identity_pair,
    invert_near_identity,
    multiply,
    substitute_pair,
)

EPS = float(np.finfo(float).eps)
DIGITS = 50
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def decaying(rng, D, scale=1.0, min_order=0):
    """Coefficients scale * N(0,1)_C * 2^-(m+n) on min_order <= m+n <= D."""
    m, n = np.indices((D + 1, D + 1))
    c = rng.standard_normal((D + 1, D + 1)) + 1j * rng.standard_normal((D + 1, D + 1))
    c *= scale * 2.0 ** -(m + n).astype(float)
    c[(m + n > D) | (m + n < min_order)] = 0.0
    return c


def product_bound(f: CrownSeries, g: CrownSeries) -> np.ndarray:
    """2(D+1)^2 eps (|f| * |g|) per coefficient."""
    D = f.trunc_total
    scale = multiply(CrownSeries(np.abs(f.coeffs), D), CrownSeries(np.abs(g.coeffs), D))
    return 2.0 * (D + 1) ** 2 * EPS * scale.coeffs.real


# ---------------------------------------------------------------------------
# the oracle: truncated arithmetic on lists of mpmath complex numbers
# ---------------------------------------------------------------------------


def mp_series(c: np.ndarray) -> list:
    return [[mpmath.mpc(complex(x)) for x in row] for row in c]


def mp_multiply(a: list, b: list, D: int) -> tuple[list, mpmath.mpf]:
    """Truncated product and the 1-norm of its in-square terms above the triangle."""
    out = [[mpmath.mpc(0)] * (D + 1) for _ in range(D + 1)]
    for m in range(D + 1):
        for n in range(D + 1 - m):
            x = a[m][n]
            if x == 0:
                continue
            for p in range(D + 1 - m):
                row, bp = out[m + p], b[p]
                for q in range(min(D + 1 - p, D + 1 - n)):
                    row[n + q] += x * bp[q]
    dropped = mpmath.mpf(0)
    for m in range(D + 1):
        for n in range(D + 1 - m, D + 1):
            dropped += abs(out[m][n])
            out[m][n] = mpmath.mpc(0)
    return out, dropped


def mp_substitute(h: np.ndarray, X: list, Y: list, D: int) -> list:
    """h(X, Y) as sum_m X^m sum_n a_mn Y^n, all in the truncated ring."""
    one = [[mpmath.mpc(1 if (m, n) == (0, 0) else 0) for n in range(D + 1)] for m in range(D + 1)]
    ypow, xpow = [one], [one]
    for _ in range(D):
        ypow.append(mp_multiply(ypow[-1], Y, D)[0])
        xpow.append(mp_multiply(xpow[-1], X, D)[0])
    out = [[mpmath.mpc(0)] * (D + 1) for _ in range(D + 1)]
    for m in range(D + 1):
        row = [[mpmath.mpc(0)] * (D + 1) for _ in range(D + 1)]
        for n in range(D + 1 - m):
            a = mpmath.mpc(complex(h[m, n]))
            if a != 0:
                for i in range(D + 1):
                    for j in range(D + 1 - i):
                        row[i][j] += a * ypow[n][i][j]
        term = mp_multiply(xpow[m], row, D)[0]
        for i in range(D + 1):
            for j in range(D + 1 - i):
                out[i][j] += term[i][j]
    return out


def to_complex(c: list) -> np.ndarray:
    return np.array([[complex(x) for x in row] for row in c])


def substitution_bound(h: CrownSeries, X: CrownSeries, Y: CrownSeries) -> np.ndarray:
    """Per-coefficient rounding bound of h(X, Y).

    Horner nests at most 2D+1 products and row sums (D for the powers of Y,
    D+1 for the Horner steps); each adds at most 2(D+1)^2 eps relative to
    the majorant |h|(|X|, |Y|).
    """
    D = h.trunc_total
    majorant = CrownSeries(np.abs(h.coeffs), D).substitute(
        CrownSeries(np.abs(X.coeffs), D), CrownSeries(np.abs(Y.coeffs), D)
    )
    return (2 * D + 1) * 2.0 * (D + 1) ** 2 * EPS * majorant.coeffs.real


# ---------------------------------------------------------------------------
# oracle tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("D", [12, 24])
def test_multiply_matches_oracle(D):
    mpmath.mp.dps = DIGITS
    rng = np.random.default_rng(100 + D)
    # entries above the triangle give the operands a nonzero tail
    above = ~_triangle_mask(D + 1)
    f = CrownSeries(decaying(rng, D) + 1e-3 * above, D)
    g = CrownSeries(decaying(rng, D), D)
    assert f.tail > 0.0
    got = multiply(f, g)
    ref, dropped = mp_multiply(mp_series(f.coeffs), mp_series(g.coeffs), D)
    bound = product_bound(f, g)
    assert np.all(np.abs(got.coeffs - to_complex(ref)) <= bound)
    # tail: the operands' tails plus the in-square terms above the triangle
    want = f.tail + g.tail + float(dropped)
    assert abs(got.tail - want) <= float(np.sum(bound[above])) + 4 * (D + 1) ** 2 * EPS * want


def test_substitute_matches_oracle():
    mpmath.mp.dps = DIGITS
    D = 12
    rng = np.random.default_rng(7)
    h = CrownSeries(decaying(rng, D), D)
    xi, eta = identity_pair(D)
    X = xi + CrownSeries(decaying(rng, D, 0.1), D)
    Y = eta + CrownSeries(decaying(rng, D, 0.1), D)
    got = h.substitute(X, Y)
    ref = to_complex(mp_substitute(h.coeffs, mp_series(X.coeffs), mp_series(Y.coeffs), D))
    assert np.all(np.abs(got.coeffs - ref) <= substitution_bound(h, X, Y))


def test_substitute_pair_matches_oracle():
    mpmath.mp.dps = DIGITS
    D = 12
    rng = np.random.default_rng(8)
    F = (CrownSeries(decaying(rng, D), D), CrownSeries(decaying(rng, D), D))
    xi, eta = identity_pair(D)
    G = (xi + CrownSeries(decaying(rng, D, 0.1, 2), D), eta + CrownSeries(decaying(rng, D, 0.1, 2), D))
    got = substitute_pair(F, G)
    X, Y = mp_series(G[0].coeffs), mp_series(G[1].coeffs)
    for k in range(2):
        ref = to_complex(mp_substitute(F[k].coeffs, X, Y, D))
        assert np.all(np.abs(got[k].coeffs - ref) <= substitution_bound(F[k], *G))
        # the shared powers of Y give the same result as a lone substitution
        alone = F[k].substitute(*G)
        assert np.array_equal(got[k].coeffs, alone.coeffs)
        assert got[k].tail == alone.tail


def test_substitute_tail_bookkeeping():
    # h(eta) only: every Horner product multiplies the zero series, so the
    # tail is X's tail once per row plus sum_n |a_0n| tail(Y^n)
    D = 8
    rng = np.random.default_rng(10)
    above = ~_triangle_mask(D + 1)
    h = np.zeros((D + 1, D + 1), dtype=np.complex128)
    h[0] = decaying(rng, D)[0]
    xi, eta = identity_pair(D)
    X = xi + CrownSeries(1e-3 * above, D)
    Y = eta + CrownSeries(decaying(rng, D, 0.1, 2) + 2e-3 * above, D)
    power, want = CrownSeries.constant(1.0, D), (D + 1) * X.tail
    for n in range(D + 1):
        want += abs(h[0, n]) * power.tail
        power = multiply(power, Y)
    assert X.tail > 0.0 and Y.tail > 0.0
    assert CrownSeries(h, D).substitute(X, Y).tail == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("beta", [0.05, 0.0])
def test_crown_norm_matches_oracle(beta):
    mpmath.mp.dps = DIGITS
    D = 12
    rng = np.random.default_rng(9)
    f = CrownSeries(decaying(rng, D), D)
    np_ = CrownNormParams(0.07, beta, 0.5, 64)
    got = f.crown_norm(np_)
    if beta == 0.0:
        zs = [complex(np_.omega)]
    else:
        th = 2.0 * np.pi * np.arange(64) / 64
        zs = list(np_.omega + beta * np.exp(1j * th))
    entries = [(0, 0)] + [(l, 0) for l in range(1, D + 1)] + [(0, j) for j in range(1, D + 1)]
    ref = mpmath.mpf(0)
    slack = 0.0
    for l, j in entries:
        ks = range((D - l - j) // 2 + 1)
        c = [mpmath.mpc(complex(f.coeffs[k + l, k + j])) for k in ks]
        sup = max(abs(sum(ck * mpmath.mpc(z) ** k for k, ck in enumerate(c))) for z in zs)
        ref += sup * mpmath.mpf(np_.radius) ** (l + j)
        # Horner on k <= D/2 terms: 4(D+1) eps times sum_k |c_k| |z|^k
        size = max(sum(abs(complex(ck)) * abs(z) ** k for k, ck in enumerate(c)) for z in zs)
        slack += 4 * (D + 1) * EPS * size * np_.radius ** (l + j)
    assert abs(got - float(ref)) <= slack + (2 * D + 1) * EPS * float(ref)


# ---------------------------------------------------------------------------
# ring properties
# ---------------------------------------------------------------------------


@PROPERTY
@given(D=st.integers(1, 14), seed=st.integers(0, 2**32 - 1))
def test_multiply_commutes(D, seed):
    rng = np.random.default_rng(seed)
    f = CrownSeries(decaying(rng, D), D)
    g = CrownSeries(decaying(rng, D), D)
    fg, gf = multiply(f, g), multiply(g, f)
    assert np.all(np.abs(fg.coeffs - gf.coeffs) <= 2.0 * product_bound(f, g))


@PROPERTY
@given(D=st.integers(1, 14), seed=st.integers(0, 2**32 - 1))
def test_substitute_identity_is_exact(D, seed):
    rng = np.random.default_rng(seed)
    f = CrownSeries(decaying(rng, D), D)
    xi, eta = identity_pair(D)
    assert np.array_equal(f.substitute(xi, eta).coeffs, f.coeffs)
    F = (f, CrownSeries(decaying(rng, D), D))
    FI = substitute_pair(F, identity_pair(D))
    assert np.array_equal(FI[0].coeffs, F[0].coeffs)
    assert np.array_equal(FI[1].coeffs, F[1].coeffs)


@PROPERTY
@given(D=st.integers(1, 14), seed=st.integers(0, 2**32 - 1))
def test_inverse_composes_to_identity(D, seed):
    rng = np.random.default_rng(seed)
    U = (CrownSeries(decaying(rng, D, 1e-2, 2), D), CrownSeries(decaying(rng, D, 1e-2, 2), D))
    V = invert_near_identity(U)
    xi, eta = identity_pair(D)
    W = substitute_pair((xi + U[0], eta + U[1]), (xi + V[0], eta + V[1]))
    assert max((W[0] - xi).max_abs_coeff(), (W[1] - eta).max_abs_coeff()) <= 1e-14


def test_results_are_fresh_and_read_only():
    D = 6
    rng = np.random.default_rng(3)
    a = CrownSeries(decaying(rng, D), D)
    b = CrownSeries(decaying(rng, D), D)
    xi, eta = identity_pair(D)
    X = xi + CrownSeries(decaying(rng, D, 0.1, 2), D)
    Y = eta + CrownSeries(decaying(rng, D, 0.1, 2), D)
    operands = (a, b, X, Y)
    before = [op.coeffs.copy() for op in operands]
    results = [
        a + b, a - b, a + a, -a, a * 2.5, 2.5 * a, a * (1 - 2j), a + 1.0, a - 1.0,
        a.conj(), a.swap(), multiply(a, b), multiply(a, a), a.substitute(X, Y),
        *substitute_pair((a, b), (X, Y)),
    ]
    for r in results:
        assert not r.coeffs.flags.writeable
        with pytest.raises(ValueError):
            r.coeffs[0, 0] = 1.0
        for op in operands:
            assert not np.shares_memory(r.coeffs, op.coeffs)
        assert not np.any(r.coeffs[~_triangle_mask(D + 1)])
    for op, c in zip(operands, before):
        assert np.array_equal(op.coeffs, c)
    mask = _triangle_mask(D + 1)
    assert mask is _triangle_mask(D + 1)
    assert not mask.flags.writeable
