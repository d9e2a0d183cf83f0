"""Finite-order normalization producing the prepared involution.

Starting from a pair with constant exponent lambda (as produced by
``moserwebster.diagonalize``), successive degree-by-degree polynomial
conjugations commuting with rho remove every non-resonant monomial of the
perturbation up to order 2N+1.  The surviving resonant part is absorbed into
the principal part by a product-preserving scaling, leaving a real exponent

    alpha-check(z) = lambda + z^s + sum_{n=s+1..N} c_n z^n

after the radial rescale, with a perturbation of order >= 2N+2.  A radius
search then shrinks the working radius until the perturbation is small
enough to start the iteration, and decides whether the skew term needs one
preliminary step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .involution import InvolutionPair, skew_term, split_pair
from .kamstep import StepGeometry, calibrate_delta, run_step, window_samples
from .series import (
    CoeffSeries,
    CrownSeries,
    SeriesError,
    invert_near_identity,
    substitute_pair,
)
from .sieve import IntervalSet, bound_entry
from .transforms import RadialLink, ScalingLink, poly_link_from_U

DIVISOR_FLOOR = 1e-8
DEGENERACY_TOL = 1e-12
# realness bound of mu and alpha-check, relative to max(1, max |coefficient|)
REALFORM_REALNESS_TOL = 1e-9
# radius search: first radius, and the trial step's acceptance
# p_+ <= A^CONTRACTION_EXPONENT
R_START = 0.24
CONTRACTION_EXPONENT = 1.15


def poincare_dulac(t: InvolutionPair, N: int) -> tuple[InvolutionPair, list, dict]:
    """Remove non-resonant perturbation monomials up to total degree 2N+1.

    At each degree d the correction U_d = (u, v) is real and solves, per
    first-component slot (l, j),

        e^{i lam/2} v_lj - e^{i lam (j-l)/2} u_jl = -P_lj,

    a 2x2 real system with determinant sin(lam (l - j + 1)/2); slots with
    l - j + 1 = 0 are resonant and stay.  The partner component's slots are
    eliminated simultaneously through the involution identity.  Conjugation
    is carried out exactly in the truncated ring, so lower degrees are
    untouched and the involution property is preserved.
    """
    if t.alpha.trunc_z > 0 and float(np.max(np.abs(t.alpha.coeffs[1:]))) > 1e-14:
        raise SeriesError("poincare_dulac expects a constant exponent")
    lam = float(t.alpha.coeffs[0].real)
    D = t.trunc_total
    d_top = min(2 * N + 1, D)
    chain: list = []
    per_degree = []
    pair = t
    for d in range(2, d_top + 1):
        P = pair.p
        u = np.zeros((D + 1, D + 1))
        v = np.zeros((D + 1, D + 1))
        eliminated = 0
        min_div = np.inf
        for l in range(d + 1):
            j = d - l
            if l - j + 1 == 0:
                continue
            coeff = complex(P.coeffs[l, j])
            divisor = abs(np.exp(1j * lam * (l - j + 1)) - 1.0)
            min_div = min(min_div, divisor)
            if divisor < DIVISOR_FLOOR:
                raise SeriesError(
                    f"near-resonant divisor |e^(i {l - j + 1} lam) - 1| = {divisor:.3e} "
                    f"at degree {d}"
                )
            if coeff == 0.0:
                continue
            th = lam * (j - l) / 2.0
            det = np.sin(lam * (1 + l - j) / 2.0)
            rhs = (-coeff.real, -coeff.imag)
            # [cos(lam/2), -cos th; sin(lam/2), -sin th] [v; u] = rhs
            v_lj = (-np.sin(th) * rhs[0] + np.cos(th) * rhs[1]) / det
            u_jl = (-np.sin(lam / 2.0) * rhs[0] + np.cos(lam / 2.0) * rhs[1]) / det
            v[l, j] = v_lj
            u[j, l] = u_jl
            eliminated += 1
        per_degree.append(
            {"degree": d, "eliminated": eliminated, "min_divisor": float(min_div)}
        )
        if eliminated == 0:
            continue
        U = (CrownSeries(u, D), CrownSeries(v, D))
        V = invert_near_identity(U)
        link = poly_link_from_U(U, V, label=f"pd-degree-{d}")
        T = substitute_pair(link.inverse, substitute_pair(pair.components(), link.forward))
        pair = split_pair(T, pair.alpha, pair.s_order)
        chain.append(link)
    resonant = pair.p.crown_coefficient(0, 1)
    report = {
        "lambda": lam,
        "per_degree": per_degree,
        "resonant_coefficients": resonant.to_json(),
        "order_reached": d_top,
    }
    return pair, chain, report


def nonresonant_scan(pair: InvolutionPair, order_below: int) -> float:
    """Largest non-resonant |coefficient| of (p, q) below the given order."""
    worst = 0.0
    scale = max(1.0, pair.p.max_abs_coeff(), pair.q.max_abs_coeff())
    for l in range(order_below + 1):
        for j in range(order_below - l + 1):
            if 2 <= l + j < order_below:
                if l - j + 1 != 0:
                    worst = max(worst, abs(pair.p.coeffs[l, j]))
                if l - j - 1 != 0:
                    worst = max(worst, abs(pair.q.coeffs[l, j]))
    return worst / scale


def realform_scaling(t: InvolutionPair, N: int) -> tuple[InvolutionPair, ScalingLink, dict]:
    """Absorb the resonant part into a real exponent via mu = (...)^{1/4}.

    mu(z) = ((e^{i lam/2} + C(z))(e^{-i lam/2} + Cbar(z)))^{1/4} and the new
    exponent is alpha-check = lam - 2i L with
    L = (log(1 + e^{-i lam/2} C) - log(1 + e^{i lam/2} Cbar)) / 2, truncated
    at z^N; everything of higher order lands in the new perturbation.
    """
    D = t.trunc_total
    Dz = D // 2
    lam = float(t.alpha.coeffs[0].real)
    C = t.p.crown_coefficient(0, 1).truncate(Dz)
    keep = np.zeros(Dz + 1, dtype=np.complex128)
    keep[: min(N, Dz) + 1] = C.coeffs[: min(N, Dz) + 1]
    C = CoeffSeries(keep)
    em = np.exp(-0.5j * lam)
    ep = np.exp(0.5j * lam)
    w = C * em + C.conj() * ep + C * C.conj()
    mu = (w + 1.0).power(0.25)
    mu_defect = mu.realness_defect()
    L = ((C * em + 1.0).log() - (C.conj() * ep + 1.0).log()) * 0.5
    alpha_check = CoeffSeries(np.concatenate([[lam], np.zeros(Dz)])) + L * (-2j)
    alpha_defect = alpha_check.realness_defect()
    if alpha_defect > REALFORM_REALNESS_TOL * max(1.0, float(np.max(np.abs(alpha_check.coeffs)))):
        raise SeriesError(f"alpha-check failed realness: {alpha_defect:.3e}")
    keep = np.zeros(Dz + 1, dtype=np.complex128)
    nkeep = min(N, Dz)
    keep[: nkeep + 1] = alpha_check.coeffs[: nkeep + 1]
    alpha_check = CoeffSeries(keep, real=True, realness_tol=1.0)

    link = ScalingLink(mu.project_real(REALFORM_REALNESS_TOL), label="realform")
    T = substitute_pair(link.inverse_pair(D), substitute_pair(t.components(), link.forward_pair(D)))
    pair = split_pair(T, alpha_check, t.s_order)
    report = {
        "mu_imag_defect": mu_defect,
        "alpha_imag_defect": alpha_defect,
        "perturbation_order": min(
            pair.p.order(tol=1e-11), pair.q.order(tol=1e-11)
        ),
    }
    return pair, link, report


def detect_nondegeneracy(alpha_tilde: CoeffSeries):
    """Smallest index s >= 1 with |coefficient| above DEGENERACY_TOL, plus the
    radial rescale making |that coefficient| equal 1; 'degenerate' if none."""
    for s in range(1, alpha_tilde.trunc_z + 1):
        c = abs(complex(alpha_tilde.coeffs[s]))
        if c > DEGENERACY_TOL:
            return s, float(c ** (-1.0 / (2 * s)))
    return "degenerate"


def apply_radial_rescale(
    t: InvolutionPair, tscale: float, flip: bool
) -> tuple[InvolutionPair, RadialLink]:
    """(xi, eta) -> (t xi, +-t eta): rescales z by +-t^2; the eta flip shifts
    lambda by 2 pi (usable range [0, 4 pi)) and flips the sign of odd-index
    exponent coefficients."""
    D = t.trunc_total
    sgn = -1.0 if flip else 1.0
    fac = sgn * tscale**2
    ac = t.alpha.coeffs * fac ** np.arange(t.alpha.trunc_z + 1)
    ac = ac.copy()
    if flip:
        ac[0] += 2.0 * np.pi
    alpha_new = CoeffSeries(ac, real=True)
    idx = np.arange(D + 1)
    wp = tscale ** (idx[:, None] + idx[None, :] - 1) * sgn ** idx[None, :]
    p_new = CrownSeries(t.p.coeffs * wp, D)
    q_new = CrownSeries(t.q.coeffs * wp * sgn, D)
    return InvolutionPair(alpha_new, p_new, q_new, t.s_order), RadialLink(tscale, flip)


@dataclass
class RadiusResult:
    r_star: float
    eps0: float
    branch: str  # "case1" | "case2"
    A: float
    skew: dict | None  # skew against A^{3/2}/3; None when A is at truncation-noise level
    alpha_conditions: dict
    trial: dict | None = None


def practical_beta(eps: float, s: int, r: float) -> float:
    """The working crown width: the schedule value capped at r^2/8.

    The schedule's eps^{1/(40s)} exceeds r^2 for any reachable eps, so the
    cap is what actually binds at desk scale; the substitution is implicit
    in every report carrying the beta used.
    """
    return min(eps ** (1.0 / (40.0 * s)), r * r / 8.0)


def radius_search(prepared: InvolutionPair) -> RadiusResult:
    """Shrink r_* until the iteration entry predicate holds, then branch.

    r_* is accepted once one trial step contracts the measured perturbation
    to eps^{1.15} (``trial["contraction"]`` passes).  The branch is case 1
    exactly when ``skew``, the skew term against A^{3/2}/3, passes.  r halves
    from ``R_START``; once it falls below 1e-7, after 22 trial radii, the
    search raises SeriesError naming the last trial.  The step algebra reads
    no radius, so every trial after the first takes it from ``kamstep``'s
    memo, as does the step that starts from the same pair at the same K.
    """
    s = prepared.s_order
    lam = float(prepared.alpha.coeffs[0].real)
    r = R_START
    last = None
    while True:
        A = 10.0 * max(prepared.p.full_norm(r), prepared.q.full_norm(r))
        trial = skew = None
        if A <= 1e-13:  # perturbation at truncation-noise level: trivially in
            break
        beta = practical_beta(A, s, r)
        omegas = window_samples(IntervalSet.interval(-r * r, r * r), r * r - beta)
        geom = StepGeometry(r, 0.75 * r, beta, eps=A, delta=1.0, s=s, omega_samples=omegas)
        try:
            trial = _trial_step(prepared, geom)
        except SeriesError as e:
            last = f"r = {r:.3g}: {e}"
        else:
            c = trial["contraction"]
            if c["pass"]:
                skew = bound_entry(geom.sup_norm(skew_term(prepared), beta, r), A**1.5 / 3.0)
                break
            last = (f"r = {r:.3g}: contraction p_+ = {c['measured']:.3e}"
                    f" > A^{CONTRACTION_EXPONENT:g} = {c['bound']:.3e}")
        r *= 0.5
        if r < 1e-7:
            break
    if skew is None and A > 1e-13:  # no radius accepted
        raise SeriesError(
            f"radius search underflow: no admissible radius found (last trial {last})"
        )
    branch = "case1" if skew is None or skew["pass"] else "case2"
    eps0 = A if branch == "case1" else A ** (49.0 / 50.0)
    alpha_conditions = alpha_hypotheses(prepared.alpha, lam, s, r, r * r)
    return RadiusResult(r, eps0, branch, A, skew, alpha_conditions, trial)


def alpha_hypotheses(alpha: CoeffSeries, lam: float, s: int, r: float, lim: float) -> dict:
    """The hypotheses on the exponent at radius r, each a bound entry over 201
    points of [-lim, lim]: |alpha - lam|, the range window [-1/8, 4 pi + 1/8]
    as |alpha - 2 pi|, |alpha|, ||alpha^(s)| - s!|, |alpha^(k)| over
    s < k <= 16s and, for s >= 2, |alpha^(k)| over 0 < k < s."""
    zs = np.linspace(-lim, lim, 201)
    vals = alpha.eval(zs).real

    def sup(ks):
        return max((float(np.max(np.abs(alpha.derivative(k).eval(zs)))) for k in ks),
                   default=0.0)

    fact = math.factorial(s)
    ds_dev = float(np.max(np.abs(np.abs(alpha.derivative(s).eval(zs)) - fact)))
    highs = sup(range(s + 1, min(16 * s, alpha.trunc_z) + 1))
    out = {
        "alpha_minus_lambda": bound_entry(float(np.max(np.abs(vals - lam))), 1.0 / 8.0),
        "alpha_range": bound_entry(float(np.max(np.abs(vals - 2 * np.pi))), 2 * np.pi + 0.125),
        "alpha_norm": bound_entry(float(np.max(np.abs(vals))), 4 * np.pi + 0.25),
        "ds_minus_sfact": bound_entry(ds_dev, fact / 20.0),
        "high_derivatives": bound_entry(highs, 0.25 / r),
    }
    if s >= 2:
        out["low_derivatives"] = bound_entry(sup(range(1, s)), 1.0 / 16.0)
    return out


def _trial_step(prepared: InvolutionPair, geom: StepGeometry) -> dict:
    """One step at geom with delta calibrated on its samples, measuring only
    p_+ against A^CONTRACTION_EXPONENT; returns the trial record, and raises
    SeriesError when the step refuses."""
    A, D = geom.eps, prepared.trunc_total
    delta = calibrate_delta(prepared.alpha, D, geom, 100.0 * A ** (1.0 / (60.0 * geom.s)))
    if delta <= 0:
        raise SeriesError("vanishing divisor")
    algebra, _ = run_step(prepared, replace(geom, delta=delta))
    p_plus = geom.sup_norm(algebra.t_plus.p, geom.beta_plus, geom.r_plus)
    return {"contraction": bound_entry(p_plus, A**CONTRACTION_EXPONENT), "delta": delta}


def prenormalize(t: InvolutionPair, N: int) -> tuple[InvolutionPair, list, dict]:
    """Full preparation: Poincare-Dulac, real-form scaling, rescale to the
    unit z^s coefficient.  Returns the prepared pair, the transform chain
    (composition order) and a report."""
    pd_pair, chain, pd_report = poincare_dulac(t, N)
    scan = nonresonant_scan(pd_pair, 2 * N + 2)
    pair, link, rf_report = realform_scaling(pd_pair, N)
    chain = chain + [link]
    tilde = CoeffSeries(np.concatenate([[0.0], pair.alpha.coeffs[1:]]))
    det = detect_nondegeneracy(tilde)
    if det == "degenerate":
        report = {
            "poincare_dulac": pd_report,
            "nonresonant_scan": scan,
            "realform": rf_report,
            "nondegeneracy": "degenerate",
        }
        return pair, chain, report
    s, tscale = det
    c_s = float(pair.alpha.coeffs[s].real)
    flip = bool(c_s < 0 and s % 2 == 1)
    pair = InvolutionPair(pair.alpha, pair.p, pair.q, s)
    pair, rlink = apply_radial_rescale(pair, tscale, flip)
    chain = chain + [rlink]
    report = {
        "poincare_dulac": pd_report,
        "nonresonant_scan": scan,
        "realform": rf_report,
        "nondegeneracy": {"s": s, "rescale": tscale, "flip": flip, "c_s": c_s},
        "alpha_prepared": pair.alpha.to_json(),
    }
    return pair, chain, report
