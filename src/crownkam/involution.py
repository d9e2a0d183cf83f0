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
    rotation_factor,
    substitute_pair,
)

STRUCTURAL_TOL = 1e-9


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

    @staticmethod
    def from_json(data: dict) -> "InvolutionPair":
        return InvolutionPair(
            CoeffSeries.from_json(data["alpha"]).project_real(),
            CrownSeries.from_json(data["p"]),
            CrownSeries.from_json(data["q"]),
            int(data.get("s_order", 1)),
        )


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

    def reversibility_residual(self, np_: CrownNormParams) -> float:
        """||sigma o (rho sigma rho) - Id||; zero iff sigma^-1 = rho sigma rho."""
        S = self.components()
        S_conj = (S[0].conj(), S[1].conj())
        comp = substitute_pair(S, S_conj)
        xi, eta = identity_pair(self.trunc_total)
        return (comp[0] - xi).crown_norm(np_) + (comp[1] - eta).crown_norm(np_)


def tau2_of(t: InvolutionPair) -> InvolutionPair:
    """The partner involution's data: same alpha with negated use, conjugated p, q.

    Returned as a pair whose ``components`` equal rho o tau1 o rho; applying
    tau2_of twice reproduces t's series data exactly.
    """
    return InvolutionPair(
        CoeffSeries(-t.alpha.coeffs, real=True), t.p.conj(), t.q.conj(), t.s_order
    )


def compose_sigma(t: InvolutionPair) -> ReversibleMap:
    """sigma = tau1 o tau2 with the principal rotation split off."""
    S = substitute_pair(t.components(), t.tau2_components())
    P = principal_part(t.alpha, 1.0, t.trunc_total)
    return ReversibleMap(t.alpha, S[0] - P[0], S[1] - P[1])


def skew_term(t: InvolutionPair) -> CrownSeries:
    """e^{i alpha/2} eta q + e^{-i alpha/2} xi p; the quantity the scheme keeps small."""
    P = principal_part(t.alpha, -0.5, t.trunc_total)
    return multiply(P[1], t.q) + multiply(P[0], t.p)


def skew_operator_L(h: CoeffSeries, p1: CrownSeries, p2: CrownSeries) -> CrownSeries:
    """L_h(p1, p2) = e^{-i h(xi eta)} xi p1 + e^{i h(xi eta)} eta p2."""
    P = principal_part(h, -1.0, p1._matched(p2))
    return multiply(P[0], p1) + multiply(P[1], p2)


def split_pair(T: MapPair, alpha: CoeffSeries, s_order: int = 1) -> InvolutionPair:
    """Re-express a map as (alpha, p, q) relative to the given principal part."""
    P = principal_part(alpha, -0.5, T[0].trunc_total)
    return InvolutionPair(alpha, T[0] - P[1], T[1] - P[0], s_order)


def synthesize_pair(
    alpha: CoeffSeries,
    U: MapPair,
    s_order: int = 1,
    realness_tol: float = 1e-8,
) -> InvolutionPair:
    """Involution-closed test instance: conjugate the exact model by Id + U.

    The model (e^{i alpha/2} eta, e^{-i alpha/2} xi) is an exact involution in
    the truncated ring, and conjugation by a rho-commuting map keeps it one,
    so random real U of order >= 2 yields valid pairs of tunable size.
    """
    if not U[0].is_real(realness_tol) or not U[1].is_real(realness_tol):
        raise SeriesError("synthesize_pair needs a rho-commuting (real) U")
    D = U[0]._matched(U[1])
    xi, eta = identity_pair(D)
    psi = (xi + U[0], eta + U[1])
    psi_inv_tail = invert_near_identity(U)
    psi_inv = (xi + psi_inv_tail[0], eta + psi_inv_tail[1])
    model = InvolutionPair(alpha, CrownSeries.zero(D), CrownSeries.zero(D), s_order)
    T = substitute_pair(psi_inv, substitute_pair(model.components(), psi))
    return split_pair(T, alpha, s_order)


def structural_residuals(t: InvolutionPair, np_: CrownNormParams) -> dict:
    """All structural residuals, each paired with its bound at the measured eps.

    Bounds are the measured-epsilon instantiations of the coefficient
    identities tied to the involution property; the r used inside them is the
    norm radius (playing the role of the shrunk radius the estimates target).
    """
    D = t.trunc_total
    r = np_.radius
    eps = t.measured_eps(np_)
    skew = skew_term(t)
    skew_norm = skew.crown_norm(np_)
    sigma = compose_sigma(t)

    rot_p = rotation_factor(t.alpha, 0.5, D)
    rot_m = rotation_factor(t.alpha, -0.5, D)
    z_bi = multiply(CrownSeries.xi(D), CrownSeries.eta(D))

    p01 = CrownSeries.from_z_series(t.p.crown_coefficient(0, 1), D)
    q10 = CrownSeries.from_z_series(t.q.crown_coefficient(1, 0), D)
    f10 = CrownSeries.from_z_series(sigma.f.crown_coefficient(1, 0), D)
    g10 = CrownSeries.from_z_series(sigma.g.crown_coefficient(1, 0), D)
    pbar01 = CrownSeries.from_z_series(t.p.crown_coefficient(0, 1).conj(), D)
    qbar10 = CrownSeries.from_z_series(t.q.crown_coefficient(1, 0).conj(), D)

    # (xi eta)(e^{i a/2} q_10 + e^{-i a/2} p_01) and the first-coefficient identities
    res_pq_z = multiply(z_bi, multiply(rot_p, q10) + multiply(rot_m, p01)).crown_norm(np_)
    res_pq = (multiply(rot_p, q10) + multiply(rot_m, p01)).crown_norm(np_)
    res_f = (multiply(rot_p, qbar10) + multiply(rot_p, p01) - f10).crown_norm(np_)
    res_g = (multiply(rot_m, pbar01) + multiply(rot_m, q10) - g10).crown_norm(np_)

    report = {
        "measured_eps": eps,
        "involution_residual": t.involution_residual(np_),
        "reversibility_residual": sigma.reversibility_residual(np_),
        "skew_norm": skew_norm,
        "skew_norm_conj": skew.conj().crown_norm(np_),
        "coeff_identity_pq_z": (res_pq_z, r * eps ** (31 / 16) / 80.0),
        "coeff_res_pq": (res_pq, eps ** (61 / 32) / (60.0 * r)),
        "coeff_res_f": (res_f, eps ** (61 / 32) / (60.0 * r)),
        "coeff_res_g": (res_g, eps ** (61 / 32) / (60.0 * r)),
    }

    # higher-order ladder identities (pq_l+-1)/(pq_j+-1), evaluated for 1 <= l <= D/2
    ladder = []
    for l in range(1, D // 2 + 1):
        ql1 = CrownSeries.from_z_series(t.q.crown_coefficient(l + 1, 0), D)
        p0l1 = CrownSeries.from_z_series(t.p.crown_coefficient(0, l + 1), D)
        pl_1 = CrownSeries.from_z_series(t.p.crown_coefficient(l - 1, 0), D)
        q0l_1 = CrownSeries.from_z_series(t.q.crown_coefficient(0, l - 1), D)
        rot_ml1 = rotation_factor(t.alpha, -(l + 1) / 2.0, D)
        rot_ml_1 = rotation_factor(t.alpha, -(l - 1) / 2.0, D)
        lhs = (
            multiply(z_bi, multiply(rot_p, ql1) + multiply(rot_ml1, p0l1))
            + multiply(rot_m, pl_1)
            + multiply(rot_ml_1, q0l_1)
        ).crown_norm(np_)
        ladder.append((l, lhs, eps ** (31 / 16) / (40.0 * r ** (l - 1))))
    report["coeff_identity_ladder"] = ladder
    return report


def sigma_first_order_residual(t: InvolutionPair, np_: CrownNormParams) -> tuple[float, float]:
    """Residual of the first-order expansion of sigma's perturbation f.

    Measures || f - (i alpha'/2)(e^{-ia/2} eta qbar + e^{ia/2} xi pbar) e^{ia} xi
               - e^{ia/2} qbar - p(e^{-ia/2} eta, e^{ia/2} xi) ||
    against eps^{31/16}/80 at the instance's measured eps.
    """
    D = t.trunc_total
    sigma = compose_sigma(t)
    rot_p = rotation_factor(t.alpha, 0.5, D)
    aprime = CrownSeries.from_z_series(t.alpha.derivative().truncate(D // 2), D)
    P = principal_part(t.alpha, 0.5, D)
    skew_bar = multiply(P[1], t.q.conj()) + multiply(P[0], t.p.conj())
    first = multiply(multiply(aprime * 0.5j, skew_bar), principal_part(t.alpha, 1.0, D)[0])
    p_rot = t.p.substitute(P[1], P[0])
    resid = sigma.f - first - multiply(rot_p, t.q.conj()) - p_rot
    eps = t.measured_eps(np_)
    return resid.crown_norm(np_), eps ** (31 / 16) / 80.0
