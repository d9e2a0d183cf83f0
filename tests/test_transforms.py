"""Tests for transform-chain evaluation on arrays of points."""

import numpy as np

from crownkam.series import CoeffSeries, CrownSeries, identity_pair
from crownkam.transforms import PolyLink, RadialLink, ScalingLink, chain_apply

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
