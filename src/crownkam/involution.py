"""The (tau1, tau2, rho, sigma) calculus for holomorphic involution pairs.

A pair is stored through the data (alpha, p, q) of

    tau1(xi, eta) = (e^{i alpha(xi eta)/2} eta + p,  e^{-i alpha(xi eta)/2} xi + q),

with alpha real.  Its partner is tau2 = rho o tau1 o rho (rho the coefficient
conjugation) and the reversible composition is sigma = tau1 o tau2, whose
principal part carries the full rotation e^{+-i alpha}.  The swapped
convention above is fixed throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import (
    CoeffSeries,
    CrownNormParams,
    CrownSeries,
    MapPair,
    SeriesError,
    identity_pair,
    invert_near_identity,
    multiply,
    principal_part,
    substitute_pair,
)
from .transforms import poly_link_from_U

# realness bound of synthesize_pair's U, relative to max(1, max |coefficient|)
SYNTH_REALNESS_TOL = 1e-8


@dataclass(frozen=True)
class InvolutionPair:
    """Involution data (alpha, p, q); tau2 and sigma are derived on demand."""

    alpha: CoeffSeries
    p: CrownSeries
    q: CrownSeries
    s_order: int = 1

    def __post_init__(self):
        if not self.alpha.is_real():
            raise SeriesError("alpha failed the realness check")
        self.p._matched(self.q)

    @property
    def trunc_total(self) -> int:
        return self.p.trunc_total

    def components(self) -> MapPair:
        """tau1 as a pair of bivariate coefficient series."""
        P = principal_part(self.alpha, -0.5, self.trunc_total)
        return (P[1] + self.p, P[0] + self.q)

    def tau2_components(self) -> MapPair:
        """rho o tau1 o rho: rotation exponent negated, p, q conjugated."""
        P = principal_part(self.alpha, 0.5, self.trunc_total)
        return (P[1] + self.p.conj(), P[0] + self.q.conj())

    def involution_residual(self, np_: CrownNormParams) -> float:
        """||tau1 o tau1 - Id|| at the given norm parameters."""
        T = self.components()
        TT = substitute_pair(T, T)
        xi, eta = identity_pair(self.trunc_total)
        return (TT[0] - xi).crown_norm(np_) + (TT[1] - eta).crown_norm(np_)

    def measured_eps(self, np_: CrownNormParams) -> float:
        """10 * max(||p||, ||q||): the epsilon the perturbation realizes."""
        return 10.0 * max(self.p.crown_norm(np_), self.q.crown_norm(np_))

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha.to_json(),
            "p": self.p.to_json(),
            "q": self.q.to_json(),
            "s_order": self.s_order,
        }


@dataclass(frozen=True)
class ReversibleMap:
    """sigma = tau1 o tau2 stored as (alpha, f, g); principal part e^{+-i alpha}."""

    alpha: CoeffSeries
    f: CrownSeries
    g: CrownSeries

    @property
    def trunc_total(self) -> int:
        return self.f.trunc_total

    def components(self) -> MapPair:
        P = principal_part(self.alpha, 1.0, self.trunc_total)
        return (P[0] + self.f, P[1] + self.g)


def compose_sigma(t: InvolutionPair) -> ReversibleMap:
    """sigma = tau1 o tau2 with the principal rotation split off."""
    S = substitute_pair(t.components(), t.tau2_components())
    P = principal_part(t.alpha, 1.0, t.trunc_total)
    return ReversibleMap(t.alpha, S[0] - P[0], S[1] - P[1])


def skew_term(t: InvolutionPair) -> CrownSeries:
    """e^{i alpha/2} eta q + e^{-i alpha/2} xi p; the quantity the scheme keeps small."""
    P = principal_part(t.alpha, -0.5, t.trunc_total)
    return multiply(P[1], t.q) + multiply(P[0], t.p)


def split_pair(T: MapPair, alpha: CoeffSeries, s_order: int = 1) -> InvolutionPair:
    """Re-express a map as (alpha, p, q) relative to the given principal part."""
    P = principal_part(alpha, -0.5, T[0].trunc_total)
    return InvolutionPair(alpha, T[0] - P[1], T[1] - P[0], s_order)


def synthesize_pair(alpha: CoeffSeries, U: MapPair, s_order: int = 1) -> InvolutionPair:
    """Involution-closed test instance: conjugate the exact model by Id + U.

    The model (e^{i alpha/2} eta, e^{-i alpha/2} xi) is an exact involution in
    the truncated ring, and conjugation by a rho-commuting map keeps it one,
    so random real U of order >= 2 yields valid pairs of tunable size.
    """
    if not U[0].is_real(SYNTH_REALNESS_TOL) or not U[1].is_real(SYNTH_REALNESS_TOL):
        raise SeriesError("synthesize_pair needs a rho-commuting (real) U")
    D = U[0]._matched(U[1])
    psi = poly_link_from_U(U, invert_near_identity(U))
    model = InvolutionPair(alpha, CrownSeries.zero(D), CrownSeries.zero(D), s_order)
    T = substitute_pair(psi.inverse, substitute_pair(model.components(), psi.forward))
    return split_pair(T, alpha, s_order)

