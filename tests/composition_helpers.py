"""Composition helpers that only the tests use."""

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
