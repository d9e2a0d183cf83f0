"""The series kernels against a 50-digit oracle, plus ring properties.

Every coefficient of ``multiply``, ``substitute``, ``substitute_pair``,
``exp``, ``log`` and ``power`` and every term of ``crown_norm`` is
recomputed with mpmath at 50 significant digits from the same
double-precision inputs, so the only difference left is the kernel's own
rounding.  A product coefficient is a sum of at most (D+1)^2 complex
products, which bounds its error by 2(D+1)^2 eps times the same
coefficient of |f| * |g|.  The degree-by-degree composition is checked
against a full-degree Horner on ``multiply``, with and without constant
terms in X and Y, and the block rows of the graded operator it runs on
against ``multiply`` and the oracle.  The inverter is checked against
both composition orders and against a fixed-point iteration.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crownkam.series as series
from crownkam.moserwebster import invert_map
from crownkam.series import (
    CoeffSeries,
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


def mp_multiply(a: list, b: list, D: int) -> list:
    """Truncated product: the in-square terms above the triangle are zeroed."""
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
    for m in range(D + 1):
        for n in range(D + 1 - m, D + 1):
            out[m][n] = mpmath.mpc(0)
    return out


def mp_substitute(h: np.ndarray, X: list, Y: list, D: int) -> list:
    """h(X, Y) as sum_m X^m sum_n a_mn Y^n, all in the truncated ring."""
    one = [[mpmath.mpc(1 if (m, n) == (0, 0) else 0) for n in range(D + 1)] for m in range(D + 1)]
    ypow, xpow = [one], [one]
    for _ in range(D):
        ypow.append(mp_multiply(ypow[-1], Y, D))
        xpow.append(mp_multiply(xpow[-1], X, D))
    out = [[mpmath.mpc(0)] * (D + 1) for _ in range(D + 1)]
    for m in range(D + 1):
        row = [[mpmath.mpc(0)] * (D + 1) for _ in range(D + 1)]
        for n in range(D + 1 - m):
            a = mpmath.mpc(complex(h[m, n]))
            if a != 0:
                for i in range(D + 1):
                    for j in range(D + 1 - i):
                        row[i][j] += a * ypow[n][i][j]
        term = mp_multiply(xpow[m], row, D)
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


def assert_product_matches_oracle(f: CrownSeries, g: CrownSeries) -> None:
    mpmath.mp.dps = DIGITS
    got = multiply(f, g)
    ref = mp_multiply(mp_series(f.coeffs), mp_series(g.coeffs), f.trunc_total)
    assert np.all(np.abs(got.coeffs - to_complex(ref)) <= product_bound(f, g))


@pytest.mark.parametrize("D", [0, 1, 12, 24, 36])
def test_multiply_matches_oracle(D):
    rng = np.random.default_rng(100 + D)
    # the constructor zeroes the entries given above the triangle
    above = ~_triangle_mask(D + 1)
    f = CrownSeries(decaying(rng, D) + 1e-3 * above, D)
    g = CrownSeries(decaying(rng, D), D)
    assert not np.any(f.coeffs[above])
    assert_product_matches_oracle(f, g)


@pytest.mark.parametrize("columns", ["first", "last", "every-other"])
def test_multiply_sparse_columns_match_oracle(columns):
    # multiply drops the slots of the all-zero eta-columns of f
    D = 12
    rng = np.random.default_rng(7)
    keep = {"first": [0], "last": [D], "every-other": list(range(0, D + 1, 2))}[columns]
    c = decaying(rng, D)
    c[:, np.setdiff1d(np.arange(D + 1), keep)] = 0.0
    f, g = CrownSeries(c, D), CrownSeries(decaying(rng, D), D)
    assert np.flatnonzero(f.coeffs.any(axis=0)).tolist() == keep
    assert_product_matches_oracle(f, g)


@pytest.mark.parametrize("D", [0, 12])
def test_multiply_zero_factor_gives_exact_zeros(D):
    g = CrownSeries(decaying(np.random.default_rng(D), D), D)
    assert np.array_equal(multiply(CrownSeries.zero(D), g).coeffs, np.zeros((D + 1, D + 1)))


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


def full_degree_substitute(h: CrownSeries, X: CrownSeries, Y: CrownSeries) -> CrownSeries:
    """h(X, Y) by Horner in X with every accumulator at the full degree D;
    the rows sum_n a_mn Y^n come from one product with the stacked powers."""
    D = h.trunc_total
    ypow = [CrownSeries.monomial(0, 0, D, 1.0), Y]
    for _ in range(D - 1):
        ypow.append(multiply(ypow[-1], Y))
    table = np.stack([p.coeffs.ravel() for p in ypow[: D + 1]])
    rows = (h.coeffs @ table).reshape(D + 1, D + 1, D + 1)
    acc = None
    for m in range(D, -1, -1):
        row = rows[m]
        if acc is None:
            acc = CrownSeries(row, D)
        else:
            acc = CrownSeries(multiply(acc, X).coeffs + row, D)
    return acc


@PROPERTY
@given(D=st.integers(1, 14), seed=st.integers(0, 2**32 - 1), x00=st.sampled_from([0.0, 0.05]))
def test_truncated_composition_matches_full_degree_horner(D, seed, x00):
    # the composition forms accumulator m only up to degree D - m; the
    # reference runs every Horner step at the full degree D
    rng = np.random.default_rng(seed)
    F = (CrownSeries(decaying(rng, D), D), CrownSeries(decaying(rng, D), D))
    xi, eta = identity_pair(D)
    X = xi + CrownSeries(decaying(rng, D, 0.1, 1), D) + x00
    Y = eta + CrownSeries(decaying(rng, D, 0.1), D)
    pair = substitute_pair(F, (X, Y))
    for k in range(2):
        ref = full_degree_substitute(F[k], X, Y)
        for got in (F[k].substitute(X, Y), pair[k]):
            assert np.all(np.abs(got.coeffs - ref.coeffs) <= substitution_bound(F[k], X, Y))


def graded_product(f: CrownSeries, g: CrownSeries) -> CrownSeries:
    """f*g on graded vectors: degree d is block row d of M(f) applied to the
    degrees < d of g, plus f(0, 0) times degree d of g."""
    D = f.trunc_total
    flat, start, _, windows = series._graded(D)
    rows = series._block_rows(f)
    v = g.coeffs.ravel()[flat]
    out = f.coeffs[0, 0] * v
    for d in range(1, D + 1):
        out[start[d] : start[d + 1]] += v[: start[d]] @ rows[windows[d], : d + 1]
    square = np.zeros((D + 1) ** 2, dtype=complex)
    square[flat] = out
    return CrownSeries(square.reshape(D + 1, D + 1), D)


@pytest.mark.parametrize("D, columns", [(0, None), (1, None), (12, None), (16, None),
                                        (12, "first"), (12, "last"), (12, "every-other")])
def test_graded_operator_matches_multiply(D, columns):
    mpmath.mp.dps = DIGITS
    rng = np.random.default_rng(600 + D)
    c = decaying(rng, D)
    if columns is not None:
        # the sparse-column factors of test_multiply_sparse_columns_match_oracle
        keep = {"first": [0], "last": [D], "every-other": list(range(0, D + 1, 2))}[columns]
        c[:, np.setdiff1d(np.arange(D + 1), keep)] = 0.0
    f, g = CrownSeries(c, D), CrownSeries(decaying(rng, D), D)
    got, bound = graded_product(f, g).coeffs, product_bound(f, g)
    ref = to_complex(mp_multiply(mp_series(f.coeffs), mp_series(g.coeffs), D))
    assert np.all(np.abs(got - ref) <= bound)
    assert np.all(np.abs(got - multiply(f, g).coeffs) <= bound)
    # the block rows of all-ones hold each (out, in) slot pair whose
    # difference is a monomial of degree >= 1 once, from a plan of one
    # index per slot of degree < d: C(D+4, 4) pairs less the S diagonal ones
    flat, start, _, windows = series._graded(D)
    rows = series._block_rows(CrownSeries(np.ones((D + 1, D + 1)), D))
    pairs = sum(np.count_nonzero(rows[windows[d], : d + 1]) for d in range(D + 1))
    assert pairs == (D + 1) * (D + 2) * (D + 3) * (D + 4) // 24 - start[-1]
    assert sum(w.size for w in windows) == sum(start[: D + 1])


@pytest.mark.parametrize("D", [12, 16, 17, 24, 36, 48])
@pytest.mark.parametrize("x00", [0.0, 0.05])
def test_composition_on_both_sides_of_the_graded_threshold(D, x00, monkeypatch):
    # no composition calls multiply, below and above D = 16, where the
    # composition once switched paths; Y(0, 0) != 0, so with x00 both
    # constant terms fold into h
    calls = []

    def counted(f, g):
        calls.append(1)
        return multiply(f, g)

    rng = np.random.default_rng(700 + D)
    F = (CrownSeries(decaying(rng, D), D), CrownSeries(decaying(rng, D), D))
    xi, eta = identity_pair(D)
    X = xi + CrownSeries(decaying(rng, D, 0.1, 1), D) + x00
    Y = eta + CrownSeries(decaying(rng, D, 0.1), D)
    assert Y.coeffs[0, 0] != 0
    refs = [full_degree_substitute(h, X, Y) for h in F]
    monkeypatch.setattr(series, "multiply", counted)
    pair = substitute_pair(F, (X, Y))
    alone = [h.substitute(X, Y) for h in F]
    assert not calls
    for k in range(2):
        assert pair[k].coeffs.tobytes() == alone[k].coeffs.tobytes()
        assert np.all(np.abs(alone[k].coeffs - refs[k].coeffs) <= substitution_bound(F[k], X, Y))


def mp_eval(c: np.ndarray, xs, ys) -> np.ndarray:
    """sum a_mn x^m y^n at DIGITS digits for each pair of points, rounded
    once to complex128; a pair that repeats is evaluated once."""
    mpmath.mp.dps = DIGITS
    D = c.shape[0] - 1
    a = [(m, n, mpmath.mpc(complex(c[m, n]))) for m in range(D + 1) for n in range(D + 1 - m)
         if c[m, n] != 0]
    memo = {}
    for x, y in zip(xs, ys):
        if (x, y) not in memo:
            px, py = [mpmath.mpc(1)], [mpmath.mpc(1)]
            for _ in range(D):
                px.append(px[-1] * mpmath.mpc(complex(x)))
                py.append(py[-1] * mpmath.mpc(complex(y)))
            memo[x, y] = complex(sum((amn * px[m] * py[n] for m, n, amn in a), mpmath.mpc(0)))
    return np.array([memo[x, y] for x, y in zip(xs, ys)], dtype=np.complex128)


def eval_slack(c: np.ndarray, xs, ys) -> np.ndarray:
    """4(D+1) eps sum |a_mn| |x|^m |y|^n per pair of points: the allowance of
    a dot product of at most D+1 terms over power tables, nested twice."""
    D = c.shape[0] - 1
    k = np.arange(D + 1)
    px = np.abs(np.asarray(xs))[:, None] ** k
    py = np.abs(np.asarray(ys))[:, None] ** k
    return 4 * (D + 1) * EPS * np.einsum("pm,mn,pn->p", px, np.abs(c), py)


def crown_norm_slack(f: CrownSeries, zs, radius: float, norm: float) -> float:
    """The allowance of a sampled crown norm over the points zs: per entry
    f_lj, 4(D+1) eps sum_k |c_k| |z|^k at its largest sample, weighted by
    r^(l+j), plus (2D+1) eps of the norm for the sum over entries."""
    D = f.trunc_total
    az = np.abs(np.asarray(zs, dtype=np.complex128))
    slack = (2 * D + 1) * EPS * norm
    for l, j, h in f.crown_decompose():
        size = float(np.max(CoeffSeries(np.abs(h.coeffs)).eval(az).real))
        slack += 4 * (D + 1) * EPS * size * radius ** (l + j)
    return slack


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
    for l, j in entries:
        ks = range((D - l - j) // 2 + 1)
        c = [mpmath.mpc(complex(f.coeffs[k + l, k + j])) for k in ks]
        sup = max(abs(sum(ck * mpmath.mpc(z) ** k for k, ck in enumerate(c))) for z in zs)
        ref += sup * mpmath.mpf(np_.radius) ** (l + j)
    assert abs(got - float(ref)) <= crown_norm_slack(f, zs, np_.radius, float(ref))


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
    F, G = (xi + U[0], eta + U[1]), (xi + V[0], eta + V[1])
    # a right inverse in the truncated ring is also a left inverse
    for W in (substitute_pair(F, G), substitute_pair(G, F)):
        assert max((W[0] - xi).max_abs_coeff(), (W[1] - eta).max_abs_coeff()) <= 1e-14


# ---------------------------------------------------------------------------
# the graded inverter
# ---------------------------------------------------------------------------


def near_identity_map(rng, D, scale=1e-2):
    return (CrownSeries(decaying(rng, D, scale, 2), D), CrownSeries(decaying(rng, D, scale, 2), D))


def fixed_point_inverse(U, tol=1e-14, max_iters=50):
    """The plain fixed-point inverter: V <- -U o (Id+V) from V = -U."""
    xi, eta = identity_pair(U[0].trunc_total)
    V = (-U[0], -U[1])
    for _ in range(max_iters):
        W = substitute_pair(U, (xi + V[0], eta + V[1]))
        delta = max(float(np.max(np.abs(W[k].coeffs + V[k].coeffs))) for k in range(2))
        V = (-W[0], -W[1])
        if delta < tol:
            return V
    raise AssertionError("fixed-point iteration did not converge")


@pytest.mark.parametrize("D", [12, 24])
def test_inverse_matches_fixed_point_iteration(D):
    U = near_identity_map(np.random.default_rng(200 + D), D)
    V, ref = invert_near_identity(U), fixed_point_inverse(U)
    for k in range(2):
        assert np.max(np.abs(V[k].coeffs - ref[k].coeffs)) <= 1e-15


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_invert_map_general_linear_part(seed):
    D = 12
    rng = np.random.default_rng(400 + seed)
    A = np.eye(2) + 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    assert abs(np.linalg.det(A)) > 0.3
    xi, eta = identity_pair(D)
    F = (
        xi * complex(A[0, 0]) + eta * complex(A[0, 1]) + CrownSeries(decaying(rng, D, 0.1, 2), D),
        xi * complex(A[1, 0]) + eta * complex(A[1, 1]) + CrownSeries(decaying(rng, D, 0.1, 2), D),
    )
    G = invert_map(F)
    for W in (substitute_pair(F, G), substitute_pair(G, F)):
        assert max((W[0] - xi).max_abs_coeff(), (W[1] - eta).max_abs_coeff()) <= 1e-13
    linear = np.array([[G[0].coeffs[1, 0], G[0].coeffs[0, 1]], [G[1].coeffs[1, 0], G[1].coeffs[0, 1]]])
    assert np.allclose(linear, np.linalg.inv(A), rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# exp, log and powers against the oracle
#
# Each is a Taylor series sum_k c_k g^k composed into a g of order >= 1:
# exp(a f) has g = a (f - f(0)) and c_k = e^{a f(0)} / k!; log f and f^p
# have g = u = f / f(0) - 1 and c_k = log f(0), (-1)^{k+1} / k and
# f(0)^p C(p, k).  A CoeffSeries runs Horner on g, D products each within
# 2(D+1)^2 eps of the majorant, so every coefficient is within
# (D+2) 2(D+1)^2 eps times the same coefficient of sum_k |c_k| |g|^k.  A
# CrownSeries power composes the binomial series into u with
# ``_compose``, within ``substitution_bound``'s (2D+1) 2(D+1)^2 eps of that
# majorant.  g^k leaves the truncated ring at k = D + 1, so the sums are
# complete and there is no tail term.
# ---------------------------------------------------------------------------


def mp_power_sum(g: list, weights: list, D: int) -> list:
    """sum_k weights[k] g^k in the truncated ring at 50 digits (g^0 = 1)."""
    unit = np.zeros((D + 1, D + 1))
    unit[0, 0] = 1.0
    term = mp_series(unit)
    acc = [[weights[0] * x for x in row] for row in term]
    for w in weights[1:]:
        term = mp_multiply(term, g, D)
        acc = [[x + w * y for x, y in zip(r, t)] for r, t in zip(acc, term)]
    return acc


def check_taylor(got, weights, g, g_abs, factor):
    """got = sum_k weights[k] g^k within factor * eps times the majorant
    sum_k |weights[k]| g_abs^k; g is the 50-digit series, g_abs |g|."""
    D = g_abs.shape[0] - 1
    ref = to_complex(mp_power_sum(g, weights, D))
    major = to_complex(mp_power_sum(mp_series(g_abs), [abs(w) for w in weights], D)).real
    assert np.all(np.abs(got - ref) <= factor * EPS * major)


def unit_part(f0, rest):
    """u = rest / f0 at 50 digits, and |u|."""
    return [[x / mpmath.mpc(f0) for x in row] for row in mp_series(rest)], np.abs(rest) / abs(f0)


def binomial_weights(f0, p, D):
    """f0^p C(p, k) for k <= D at 50 digits (principal branch)."""
    out = [mpmath.power(mpmath.mpc(f0), mpmath.mpf(p))]
    for k in range(1, D + 1):
        out.append(out[-1] * (mpmath.mpf(p) - k + 1) / k)
    return out


def check_exp_log(f0, rest, a, got_exp, got_log):
    """exp(a f) and log f of f = f0 + rest, rest(0, 0) = 0, against the oracle."""
    mpmath.mp.dps = DIGITS
    D = rest.shape[0] - 1
    factor = (D + 2) * 2.0 * (D + 1) ** 2
    head = mpmath.exp(mpmath.mpc(a) * mpmath.mpc(f0))
    ag = [[mpmath.mpc(a) * x for x in row] for row in mp_series(rest)]
    fact = [head / mpmath.factorial(k) for k in range(D + 1)]
    check_taylor(got_exp, fact, ag, abs(a) * np.abs(rest), factor)
    inv = [mpmath.log(mpmath.mpc(f0))] + [mpmath.mpf(-1) ** (k + 1) / k for k in range(1, D + 1)]
    check_taylor(got_log, inv, *unit_part(f0, rest), factor)


EXP_LOG_CASES = [(1.0, 0.4), (0.5j, 0.02)]
POWERS = [-1, 0.5, 0.25]
F0 = 1.3 - 0.4j


def coeff_case(size):
    """A series f in z with f(0) = F0, f - F0 as a series in xi alone, and
    that lift from z to xi."""
    D = 12
    rng = np.random.default_rng(500)
    c = (rng.standard_normal(D + 1) + 1j * rng.standard_normal(D + 1)) * size * 2.0 ** -np.arange(D + 1)
    c[0] = F0
    as_xi = lambda z: np.pad(z[:, None], ((0, 0), (0, D)))
    rest = as_xi(c)
    rest[0, 0] = 0.0
    return CoeffSeries(c), rest, as_xi


@pytest.mark.parametrize("a, size", EXP_LOG_CASES)
def test_coeff_exp_log_match_oracle(a, size):
    # a series in z is checked as the same series in xi alone
    f, rest, as_xi = coeff_case(size)
    check_exp_log(F0, rest, a, as_xi(f.exp(a).coeffs), as_xi(f.log().coeffs))


@pytest.mark.parametrize("p", POWERS)
def test_coeff_power_matches_oracle(p):
    mpmath.mp.dps = DIGITS
    f, rest, as_xi = coeff_case(0.4)
    D = f.trunc_z
    check_taylor(as_xi(f.power(p).coeffs), binomial_weights(F0, p, D), *unit_part(F0, rest),
                 (D + 2) * 2.0 * (D + 1) ** 2)


@pytest.mark.parametrize("p", POWERS)
def test_crown_power_matches_oracle(p):
    mpmath.mp.dps = DIGITS
    D = 12
    rest = decaying(np.random.default_rng(501), D, 0.4, 1)
    f = CrownSeries(rest, D) + F0
    check_taylor(f.power(p).coeffs, binomial_weights(F0, p, D), *unit_part(F0, rest),
                 (2 * D + 1) * 2.0 * (D + 1) ** 2)


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
        a.conj(), multiply(a, b), multiply(a, a), a.substitute(X, Y),
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
