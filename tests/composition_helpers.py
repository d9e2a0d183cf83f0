"""Composition helpers that only the tests use."""

import functools

import numpy as np

from crownkam.series import CoeffSeries, CrownSeries, SeriesError, principal_part


def compose_rotated(
    h: CrownSeries,
    b: float,
    alpha: CoeffSeries,
    f: CrownSeries,
    g: CrownSeries,
    b_limit: float | None = 1.0,
) -> CrownSeries:
    """h(e^{i b alpha(xi eta)} xi + f, e^{-i b alpha(xi eta)} eta + g).

    The rotation exponent is expanded with the univariate exponential and the
    substitution is one truncated composition.
    """
    if b_limit is not None and abs(b) > b_limit:
        raise SeriesError(f"|b| = {abs(b):.3g} exceeds limit {b_limit:.3g}")
    D = h._matched(f)
    h._matched(g)
    P = principal_part(alpha, b, D)
    return h.substitute(P[0] + f, P[1] + g)


def crown_reassemble(entries, D: int) -> CrownSeries:
    """The series whose crown entries (l, j, f_lj) are given, each cut at its
    own degree (D - l - j) // 2: the inverse of ``CrownSeries.crown_decompose``."""
    c = np.zeros((D + 1, D + 1), dtype=np.complex128)
    for l, j, h in entries:
        kmax = min(h.trunc_z, (D - l - j) // 2)
        for k in range(kmax + 1):
            c[k + l, k + j] += h.coeffs[k]
    return CrownSeries(c, D)


def cohomological_entries(t, sigma, K: int) -> tuple[CrownSeries, CrownSeries]:
    """(u-hat, v-hat) of ``kamstep.solve_cohomological`` entry by entry, before
    its realness projection: every crown entry (h_lj - E_a hbar_lj) /
    (2 (E_b - E_c)) is its own ``CoeffSeries`` quotient, through a Taylor
    reciprocal, with E_n = e^{i n alpha} as truncated z-series."""
    D = t.trunc_total
    Dz = D // 2
    alpha = t.alpha.truncate(Dz)

    @functools.cache
    def E(n: int) -> CoeffSeries:
        return alpha.exp(1j * n)

    def entry(h: CrownSeries, l: int, j: int, a: int, b: int, c: int) -> tuple:
        h_lj = h.crown_coefficient(l, j).truncate(Dz)
        num = h_lj - E(a) * h_lj.conj()
        den = (E(b) - E(c)) * 2.0
        return (l, j, (num * den.reciprocal()).truncate((D - l - j) // 2))

    u_entries = [entry(sigma.f, l, 0, l + 1, l, 1) for l in range(2, K + 1)]
    u_entries += [entry(sigma.f, 0, j, -(j - 1), -j, 1) for j in range(K + 1)]
    v_entries = [entry(sigma.g, l, 0, l - 1, l, -1) for l in range(K + 1)]
    v_entries += [entry(sigma.g, 0, j, -(j + 1), -j, -1) for j in range(2, K + 1)]
    return crown_reassemble(u_entries, D), crown_reassemble(v_entries, D)
