"""Composition helpers, paper-identity residuals and a stage counter that
only the tests use."""

import functools

import numpy as np

from crownkam.involution import InvolutionPair, ReversibleMap, compose_sigma, skew_term
from crownkam.series import (
    CoeffSeries,
    CrownNormParams,
    CrownSeries,
    SeriesError,
    identity_pair,
    multiply,
    principal_part,
    rotation_factor,
    substitute_pair,
)


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


def reversibility_residual(sigma: ReversibleMap, np_: CrownNormParams) -> float:
    """||sigma o (rho sigma rho) - Id||; zero iff sigma^-1 = rho sigma rho."""
    S = sigma.components()
    S_conj = (S[0].conj(), S[1].conj())
    comp = substitute_pair(S, S_conj)
    xi, eta = identity_pair(sigma.trunc_total)
    return (comp[0] - xi).crown_norm(np_) + (comp[1] - eta).crown_norm(np_)


def skew_operator_L(h: CoeffSeries, p1: CrownSeries, p2: CrownSeries) -> CrownSeries:
    """L_h(p1, p2) = e^{-i h(xi eta)} xi p1 + e^{i h(xi eta)} eta p2."""
    P = principal_part(h, -1.0, p1._matched(p2))
    return multiply(P[0], p1) + multiply(P[1], p2)


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
        "reversibility_residual": reversibility_residual(sigma, np_),
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


def count_compositions(monkeypatch) -> list:
    """Wrap ``series._compose``; returns the list each composition appends to."""
    from crownkam import series

    calls, compose = [], series._compose

    def counted(*args, **kwargs):
        calls.append(1)
        return compose(*args, **kwargs)

    monkeypatch.setattr(series, "_compose", counted)
    return calls


STEP_STAGES = ("compose_sigma", "solve_cohomological", "conjugate_step", "theta_scaling")


def count_stage_runs(monkeypatch) -> list:
    """Wrap the four algebra stages of ``kamstep.run_step``; returns the list
    that each stage run appends (stage name, first argument) to.  Each
    wrapper is one object for the whole test, so ``kamstep``'s memo still
    hits on it."""
    from crownkam import kamstep

    runs = []
    for name in STEP_STAGES:
        def counted(*args, _stage=getattr(kamstep, name), _name=name):
            runs.append((_name, args[0]))
            return _stage(*args)

        monkeypatch.setattr(kamstep, name, counted)
    return runs
