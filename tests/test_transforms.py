"""Tests for transform-chain evaluation on arrays of points."""

import numpy as np
import pytest

from crownkam.series import CoeffSeries, CrownSeries, identity_pair
from crownkam.transforms import PolyLink, RadialLink, ScalingLink, chain_apply

from test_series_oracle import eval_slack

D = 8


def small_series(rng, scale):
    m, n = np.indices((D + 1, D + 1))
    shape = (D + 1, D + 1)
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    c[(m + n > D) | (m + n < 2)] = 0.0
    return CrownSeries(c, D)


def test_chain_apply_array_matches_pointwise():
    rng = np.random.default_rng(7)
    xi, eta = identity_pair(D)
    poly = PolyLink((xi + small_series(rng, 0.3), eta + small_series(rng, 0.3)), (xi, eta))
    theta = CoeffSeries(np.array([1.1, 0.4, -0.2]), real=True)
    chain = [poly, ScalingLink(theta), RadialLink(0.8, flip=True)]

    x = (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))) * 0.05
    y = (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))) * 0.05
    X, Y = chain_apply(chain, x, y)
    assert X.shape == x.shape and Y.shape == x.shape

    for i, j in np.ndindex(x.shape):
        want = chain_apply(chain, complex(x[i, j]), complex(y[i, j]))
        for got, ref in zip((X[i, j], Y[i, j]), want):
            assert abs(got - ref) <= 1e-15 * abs(ref)


def homogeneous_map(rng, d, D):
    """Id + (random real terms of total degree exactly d) at truncation D."""
    maps = []
    for base in identity_pair(D):
        c = np.zeros((D + 1, D + 1), dtype=np.complex128)
        m = np.arange(d + 1)
        c[m, d - m] = rng.standard_normal(d + 1)
        maps.append(base + CrownSeries(c, D))
    return tuple(maps)


def link_cases(D):
    rng = np.random.default_rng(D)
    for d in range(2, 6):
        f, g = homogeneous_map(rng, d, D)
        yield (f, g), (d, d)
        # negation turns every empty slot into -0.0, whose bits count
        yield (-f, -g), (D, D)
    zero = -CrownSeries.zero(D)
    yield (zero, zero), (D, D)


# signed zeros and unit points, where the sign of a zero product can carry
EDGE_POINTS = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
                        1.0, -1.0, 1j, -1j, complex(-1.0, -0.0), complex(-0.0, -1.0)])


@pytest.mark.parametrize("D", [12, 24])
def test_poly_link_evaluates_at_its_own_degree(D):
    # apply_point cuts each map at degree(); on every pair of edge points and
    # on random points, in one batch and one point at a time, its values are
    # those of the full-degree series within twice the evaluation slack: the
    # two sum the same terms but the zeros above the cut, in orders that the
    # BLAS and numpy's reductions choose by shape
    rng = np.random.default_rng(100 + D)
    pts = (rng.standard_normal(12) + 1j * rng.standard_normal(12)) * 0.3
    x, y = (np.concatenate([grid.ravel(), pts]) for grid in np.meshgrid(EDGE_POINTS, EDGE_POINTS))
    y[-12:] = pts[::-1]
    for (f, g), degrees in link_cases(D):
        assert (f.degree(), g.degree()) == degrees
        link = PolyLink((f, g), (f, g))
        lone = np.array([link.apply_point(complex(a), complex(b)) for a, b in zip(x[-12:], y[-12:])])
        for (X, Y), (a, b) in ((link.apply_point(x, y), (x, y)), (lone.T, (x[-12:], y[-12:]))):
            assert np.all(np.abs(X - f.eval(a, b)) <= 2 * eval_slack(f.coeffs, a, b))
            assert np.all(np.abs(Y - g.eval(a, b)) <= 2 * eval_slack(g.coeffs, a, b))


def test_degree_pins():
    D = 12
    assert CrownSeries.zero(D).degree() == -1
    assert (-CrownSeries.zero(D)).degree() == D
    assert CrownSeries.monomial(0, 0, D, 2.0).degree() == 0
    assert CrownSeries.monomial(3, 4, D, 1j).degree() == 7
    assert CrownSeries.monomial(0, D, D).degree() == D
    # a -0.0 in the imaginary part alone counts; a +0.0 does not
    assert CrownSeries.monomial(2, 3, D, complex(0.0, -0.0)).degree() == 5
    assert CrownSeries.monomial(2, 3, D, 0.0).degree() == -1
