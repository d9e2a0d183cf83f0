"""One iteration step: truncate, solve the cohomological equations,
conjugate by Id + U-hat, and restore the principal part by a
product-preserving scaling.

The step takes an involution pair whose perturbation (p, q) is of size
eps/10 with a small skew term, and returns a conjugated pair whose
perturbation is quadratically smaller, together with the transform and a
report pairing every measured quantity with the bound evaluated at the
instance's eps, delta and K.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from .involution import InvolutionPair, ReversibleMap, compose_sigma, skew_term, split_pair
from .series import (
    CoeffSeries,
    CrownNormParams,
    CrownSeries,
    MapPair,
    SeriesError,
    _circle,
    invert_near_identity,
    multiply,
    principal_part,
    rotation_factor,
    scaling_pair,
    substitute_pair,
)
from .sieve import IntervalSet
from .transforms import PolyLink, ScalingLink, poly_link_from_U

# realness bound of the cohomological solution and of alpha_+, relative to
# max(1, max |coefficient|)
STEP_REALNESS_TOL = 1e-7


@dataclass(frozen=True)
class StepGeometry:
    """Radii, crown widths and derived quantities of one step.

    beta_plus and beta_tilde follow beta^(5/4) and 16 beta^(5/4); when the
    working beta is too large for the asymptotic ordering beta_+ < beta~ < beta
    to hold (unavoidable at desk eps), they are capped at beta/2 and beta/4
    so the ordering survives.  K is real-valued; index cutoffs use the
    truncation-capped floor.

    Every sampled sup runs over ``window``, the omega samples with
    |omega| < r^2 - beta, and ``boundary_samples`` points of each circle; an
    empty window raises, so no check passes with nothing measured.  The
    samples come from ``window_samples``.
    """

    r: float
    r_plus: float
    beta: float
    eps: float
    delta: float
    s: int = 1
    omega_samples: tuple = ()
    boundary_samples: int = 64

    def __post_init__(self):
        if not 0 < self.r_plus < self.r:
            raise SeriesError("need 0 < r_plus < r")
        if self.eps <= 0 or self.delta <= 0:
            raise SeriesError("eps and delta must be positive")

    def r_m(self, m: int) -> float:
        return self.r_plus + (m / 8.0) * (self.r - self.r_plus)

    @property
    def r7(self) -> float:
        return self.r_m(7)

    @property
    def r_tilde(self) -> float:
        return self.r_m(4)

    @property
    def beta_tilde(self) -> float:
        return min(16.0 * self.beta**1.25, self.beta / 2.0)

    @property
    def beta_plus(self) -> float:
        return min(self.beta**1.25, self.beta_tilde / 2.0)

    @property
    def K_formula(self) -> float:
        return abs(np.log(self.eps)) / abs(np.log(self.r7 / self.r))

    def K_cut(self, D: int) -> int:
        return int(min(np.floor(self.K_formula), D))

    def window(self, beta: float, r: float) -> tuple[float, ...]:
        """The omega samples with |omega| < r^2 - beta; raises when none are."""
        lim = r**2 - beta
        ws = tuple(float(w) for w in self.omega_samples if abs(w) < lim)
        if not ws:
            raise SeriesError(f"no omega sample in the window |omega| < r^2 - beta = {lim:.3g}")
        return ws

    def sup_norm(self, f: CrownSeries, beta: float, r: float) -> float:
        """sup over the omega window of the crown norm at (beta, r)."""
        return f.crown_norms(self.window(beta, r), beta, r, self.boundary_samples).max()

    def sup_coeff(self, h: CoeffSeries, beta: float, r: float) -> float:
        """sup over the omega window at (beta, r) of the disk max of h."""
        return h.disk_max(self.window(beta, r), beta, self.boundary_samples)


def window_samples(O: IntervalSet, lim: float) -> tuple:
    """Five points of O inside |omega| <= lim; raises when there are none."""
    pts = O.intersect(IntervalSet.interval(-lim, lim)).sample(5)
    if pts.size == 0:
        raise SeriesError("surviving parameter set is empty in the working window")
    return tuple(float(x) for x in pts)


@dataclass
class StepReport:
    """Measured-versus-bound bookkeeping of one step; serializes to a dict."""

    eps: float
    delta: float
    K_formula: float
    K_cut: int
    entries: dict = field(default_factory=dict)
    practical: dict = field(default_factory=dict)

    def add(self, name: str, measured: float, bound: float | None = None):
        self.entries[name] = (
            {"measured": measured}
            if bound is None
            else {"measured": measured, "bound": bound, "pass": bool(measured <= bound)}
        )

    def to_dict(self) -> dict:
        return asdict(self)


def truncate_K(
    p: CrownSeries, q: CrownSeries, K: float, geom: StepGeometry | None = None
) -> tuple[CrownSeries, CrownSeries, float]:
    """Keep crown indices l, j <= floor(K), i.e. the a[m, n] with
    |m - n| <= floor(K); returns the measured tail norm."""
    if K < 1:
        raise SeriesError("K must be >= 1")
    D = p._matched(q)
    m, n = np.indices((D + 1, D + 1))
    keep = np.abs(m - n) <= np.floor(K)
    pK, qK = (CrownSeries(np.where(keep, f.coeffs, 0.0), D) for f in (p, q))
    tail = 0.0
    if geom is not None:
        tail = max(
            geom.sup_norm(p - pK, geom.beta_tilde, geom.r7),
            geom.sup_norm(q - qK, geom.beta_tilde, geom.r7),
        )
    return pK, qK, tail


def divisor_minimum(
    alpha: CoeffSeries, geom: StepGeometry, n_max: int, beta: float
) -> float:
    """min over resonance orders n <= n_max and crown disks of |e^{i n alpha} - 1|.

    The origin is always included: coefficient-series divisions are Taylor
    inversions at z = 0, so a resonance there degrades the representation
    even when every sampled omega is clear of it.
    """
    avals = alpha.eval(_circle(tuple(geom.omega_samples) + (0.0,), beta, geom.boundary_samples))
    ns = 1j * np.arange(1, n_max + 1)[:, None, None]
    return float(np.min(np.abs(np.exp(ns * avals) - 1.0), initial=np.inf))


def calibrate_delta(alpha: CoeffSeries, D: int, geom: StepGeometry, delta: float) -> float:
    """delta lowered to 0.9 times the small-divisor floor on geom's samples.

    The floor is the least |e^{i n alpha} - 1| over orders n <= K_cut(D) + 1
    and the disks of radius beta~ around geom's omega samples and the origin.
    """
    floor = divisor_minimum(alpha, geom, geom.K_cut(D) + 1, geom.beta_tilde)
    return min(delta, 0.9 * floor)


def solve_cohomological(
    t: InvolutionPair, sigma: ReversibleMap, geom: StepGeometry
) -> MapPair:
    """The approximate cohomological solution (u-hat, v-hat).

    Crown coefficients, with E_n = e^{i n alpha(z)} as truncated z-series:

        u_l0 = (f_l0 - E_{l+1} fbar_l0) / (2 (E_l - E_1)),    2 <= l <= K
        u_0j = (f_0j - E_{-(j-1)} fbar_0j) / (2 (E_{-j} - E_1)),  0 <= j <= K
        v_l0 = (g_l0 - E_{l-1} gbar_l0) / (2 (E_l - E_{-1})),  0 <= l <= K
        v_0j = (g_0j - E_{-(j+1)} gbar_0j) / (2 (E_{-j} - E_{-1})), 2 <= j <= K
        u_10 = v_01 = 0.

    The divisors are guarded by |e^{i n alpha}| >= delta/2 on the sampled
    crown disks for 0 < |n| <= K+1; the result is real (self-conjugate) and
    is projected after the realness defect is checked.
    """
    D = t.trunc_total
    K = geom.K_cut(D)
    dmin = divisor_minimum(t.alpha, geom, K + 1, geom.beta_tilde)
    if dmin < geom.delta / 2.0:
        raise SeriesError(
            f"small divisor {dmin:.3e} below delta/2 = {geom.delta / 2:.3e} on the disk"
        )
    Dz = D // 2
    alpha = t.alpha.truncate(Dz)

    @functools.cache
    def E(n: int) -> CoeffSeries:
        return alpha.exp(1j * n)

    def entry(h: CrownSeries, l: int, j: int, a: int, b: int, c: int) -> tuple:
        """(h_lj - E_a hbar_lj) / (2 (E_b - E_c)) as the crown entry (l, j)."""
        h_lj = h.crown_coefficient(l, j).truncate(Dz)
        num = h_lj - E(a) * h_lj.conj()
        den = (E(b) - E(c)) * 2.0
        return (l, j, (num * den.reciprocal()).truncate((D - l - j) // 2))

    u_entries = [entry(sigma.f, l, 0, l + 1, l, 1) for l in range(2, K + 1)]
    u_entries += [entry(sigma.f, 0, j, -(j - 1), -j, 1) for j in range(K + 1)]
    v_entries = [entry(sigma.g, l, 0, l - 1, l, -1) for l in range(K + 1)]
    v_entries += [entry(sigma.g, 0, j, -(j + 1), -j, -1) for j in range(2, K + 1)]
    u = CrownSeries.crown_reassemble(u_entries, D)
    v = CrownSeries.crown_reassemble(v_entries, D)
    scale = max(1.0, u.max_abs_coeff(), v.max_abs_coeff())
    defect = max(u.realness_defect(), v.realness_defect())
    if defect > STEP_REALNESS_TOL * scale:
        raise SeriesError(f"cohomological solution failed realness: {defect:.3e}")
    u = CrownSeries(u.coeffs.real, D)
    v = CrownSeries(v.coeffs.real, D)
    return (u, v)


def cohomological_residuals(
    t: InvolutionPair,
    uv: MapPair,
    pK: CrownSeries,
    qK: CrownSeries,
    geom: StepGeometry,
) -> dict:
    """Residuals of the two approximate cohomological equations and the
    skew of the solution, each against its bound at (eps, delta, K, skew)."""
    D = t.trunc_total
    u, v = uv
    rot_p = rotation_factor(t.alpha, 0.5, D)
    rot_m = rotation_factor(t.alpha, -0.5, D)
    P = principal_part(t.alpha, -0.5, D)
    uR, vR = substitute_pair(uv, (P[1], P[0]))
    q10_xi, p01_eta = scaling_pair(
        t.q.crown_coefficient(1, 0), t.p.crown_coefficient(0, 1), D
    )
    res1 = multiply(rot_p, v) - uR + pK - p01_eta
    res2 = multiply(rot_m, u) - vR + qK - q10_xi
    cross = multiply(P[0], res1) + multiply(P[1], res2)
    skew_in = geom.sup_norm(skew_term(t), geom.beta, geom.r)
    K = geom.K_cut(D)
    eps, delta = geom.eps, geom.delta
    bt, r7 = geom.beta_tilde, geom.r7
    bound_res = eps ** (61 / 32) / 80.0 + 6.0 * (K + 1) / delta * skew_in
    skew_uv = multiply(CrownSeries.eta(D), u) + multiply(CrownSeries.xi(D), v)
    return {
        "cohomo1": (geom.sup_norm(res1, bt, r7), bound_res),
        "cohomo2": (geom.sup_norm(res2, bt, r7), bound_res),
        "crossing_cohomo": (geom.sup_norm(cross, bt, r7), eps ** (61 / 32) / 20.0),
        "skew_uv": (
            geom.sup_norm(skew_uv, bt, r7),
            eps ** (61 / 32) / 16.0 + 5.0 * (K + 1) / delta * skew_in,
        ),
        "skew_in": skew_in,
    }


@dataclass(frozen=True)
class IntermediatePair:
    """Conjugated map T = phi^-1 o tau o phi before rescaling, whose principal
    part is (e^{i alpha/2} + A) eta and its reciprocal partner."""

    alpha: CoeffSeries
    A: CoeffSeries
    T: MapPair
    phi: PolyLink


def conjugate_step(
    t: InvolutionPair, uv: MapPair, geom: StepGeometry
) -> IntermediatePair:
    """tau~ = phi^-1 o tau o phi with phi = Id + U-hat.

    The new principal part is (e^{i alpha/2} + p_01) eta and its reciprocal
    partner; A = p_01 is returned with the conjugated map and the transform.
    """
    D = t.trunc_total
    # invertibility needs room relative to the radii; the crown containment
    # itself is checked a posteriori (crown_escape_margin)
    u_size = sum(geom.sup_norm(u, geom.beta_tilde, geom.r7) for u in uv)
    if u_size >= (geom.r7 - geom.r_plus) / 8.0:
        raise SeriesError(f"conjugating map too large to invert: ||U|| = {u_size:.3g}")
    phi_inv_tail = invert_near_identity(uv)
    phi = poly_link_from_U(uv, phi_inv_tail, label="cohomological")
    T = substitute_pair(phi.inverse, substitute_pair(t.components(), phi.forward))
    A = t.p.crown_coefficient(0, 1).truncate(D // 2)
    return IntermediatePair(t.alpha, A, T, phi)


def crown_escape_margin(
    phi: PolyLink, geom: StepGeometry, n_boundary: int = 24
) -> float:
    """How far phi(C^{r+}_{omega,beta+}) stays inside C^{r}_{omega,beta}.

    Samples boundary points of the smaller crown over the omega window at
    (beta+, r+); returns the worst margin (positive = contained).
    """
    hi = geom.r_plus * 0.98
    ws = np.array(geom.window(geom.beta_plus, geom.r_plus))
    boundary = np.exp(1j * np.linspace(0, 2 * np.pi, 6, endpoint=False))
    turns = np.exp(1j * np.linspace(0, 2 * np.pi, n_boundary, endpoint=False))
    # grid axes: omega, boundary point, modulus, argument
    z = ws[:, None] + geom.beta_plus * boundary
    lo = np.abs(z) / hi
    mods = np.stack([lo * 1.01, np.sqrt(lo * hi), np.full(lo.shape, hi * 0.99)], axis=-1)
    x = mods[..., None] * turns
    y = z[..., None, None] / x
    w = np.broadcast_to(ws[:, None, None, None], x.shape)
    # never empty: |z| < r+^2 in the window, so |x| = |y| = sqrt|z| is inside
    inside = (np.abs(x) < geom.r_plus) & (np.abs(y) < geom.r_plus)
    X, Y = phi.apply_point(x[inside], y[inside])
    return float(min(
        np.min(geom.beta - np.abs(X * Y - w[inside])),
        np.min(geom.r - np.abs(X)),
        np.min(geom.r - np.abs(Y)),
    ))


def theta_scaling(
    inter: IntermediatePair, geom: StepGeometry
) -> tuple[InvolutionPair, ScalingLink]:
    """Product-preserving rescale restoring a unit-modulus principal part.

    Theta = ((e^{i a/2} + A)(e^{-i a/2} + Abar))^{1/4} by the binomial
    series in the truncated z-ring; the new exponent is
    alpha_+ = alpha - i (e^{-i a/2} A - e^{i a/2} Abar).  T is conjugated to
    Theta^-1 o T o Theta as ``prenormal.realform_scaling`` conjugates by mu.
    """
    D = inter.T[0].trunc_total
    Dz = D // 2
    alpha = inter.alpha.truncate(Dz)
    A = inter.A.truncate(Dz)
    norm_A = geom.sup_coeff(A, geom.beta, geom.r)
    if norm_A >= 1.0 / 16.0:
        raise SeriesError(f"scaling precondition ||A|| = {norm_A:.3g} >= 1/16")
    Ep = alpha.exp(0.5j)
    Em = alpha.exp(-0.5j)
    w = Em * A + Ep * A.conj() + A * A.conj()
    theta = (w + 1.0).power(0.25).project_real()
    link = ScalingLink(theta, label="theta-scaling")

    alpha_plus = inter.alpha.truncate(Dz) + (Em * A - Ep * A.conj()) * (-1j)
    alpha_plus = alpha_plus.project_real(STEP_REALNESS_TOL)

    T_out = substitute_pair(link.inverse_pair(D), substitute_pair(inter.T, link.forward_pair(D)))
    out = split_pair(T_out, alpha_plus, s_order=geom.s)
    return out, link


def main_step(
    t: InvolutionPair, geom: StepGeometry
) -> tuple[InvolutionPair, list, StepReport]:
    """truncate -> sigma -> cohomological solve -> conjugate -> rescale.

    Returns the new pair, the transform chain [phi, theta-scaling] (in
    composition order) and the full measured-versus-bound report.
    """
    D = t.trunc_total
    report = StepReport(geom.eps, geom.delta, geom.K_formula, geom.K_cut(D))
    eps, delta, K = geom.eps, geom.delta, geom.K_cut(D)

    def stage(name, fn):
        try:
            return fn()
        except SeriesError as e:
            raise SeriesError(f"[{name}] {e}") from e

    p_norm = geom.sup_norm(t.p, geom.beta, geom.r)
    q_norm = geom.sup_norm(t.q, geom.beta, geom.r)
    report.add("p_norm_in", p_norm, eps / 10.0)
    report.add("q_norm_in", q_norm, eps / 10.0)
    np_check = CrownNormParams(
        geom.window(geom.beta, geom.r)[0], geom.beta, geom.r, geom.boundary_samples
    )
    report.add("involution_residual_in", t.involution_residual(np_check), 1e-9)

    pK, qK, tail = stage(
        "truncate", lambda: truncate_K(t.p, t.q, geom.K_cut(D), geom)
    )
    report.add("truncation_tail", tail, eps**2 / 10.0)
    report.add(
        "truncation_tail_geometric",
        tail,
        max(p_norm, q_norm) * (geom.r7 / geom.r) ** geom.K_cut(D),
    )

    sigma = stage("sigma", lambda: compose_sigma(t))
    report.add(
        "sigma_f_norm", geom.sup_norm(sigma.f, geom.beta_tilde, geom.r7), eps / 4.0
    )
    report.add(
        "sigma_g_norm", geom.sup_norm(sigma.g, geom.beta_tilde, geom.r7), eps / 4.0
    )

    uv = stage("cohomological", lambda: solve_cohomological(t, sigma, geom))
    report.add(
        "u_norm", geom.sup_norm(uv[0], geom.beta_tilde, geom.r7), eps ** (49 / 50) / 20.0
    )
    report.add(
        "v_norm", geom.sup_norm(uv[1], geom.beta_tilde, geom.r7), eps ** (49 / 50) / 20.0
    )
    coh = cohomological_residuals(t, uv, pK, qK, geom)
    skew_in = coh.pop("skew_in")
    report.add("skew_in", skew_in, eps**1.5 / 3.0)
    for name, (measured, bound) in coh.items():
        report.add(name, measured, bound)

    inter = stage("conjugate", lambda: conjugate_step(t, uv, geom))
    margin = crown_escape_margin(inter.phi, geom)
    report.add("crown_escape_margin", margin)
    if margin < 0:
        raise SeriesError(f"[conjugate] crown escape: margin {margin:.3e} < 0")

    t_plus, theta_link = stage("theta-scaling", lambda: theta_scaling(inter, geom))
    chain = [inter.phi, theta_link]

    p_plus = geom.sup_norm(t_plus.p, geom.beta_plus, geom.r_plus)
    q_plus = geom.sup_norm(t_plus.q, geom.beta_plus, geom.r_plus)
    bound_pq = eps ** (61 / 32) / 2.0 + 24.0 * (K + 1) / delta * skew_in
    bound_pq_18 = eps ** (61 / 32) / 2.0 + 18.0 * (K + 1) / delta * skew_in
    report.add("p_plus_norm", p_plus, bound_pq)
    report.add("q_plus_norm", q_plus, bound_pq)
    report.add("pq_plus_bound_constant18", max(p_plus, q_plus), bound_pq_18)
    skew_plus = geom.sup_norm(skew_term(t_plus), geom.beta_plus, geom.r_plus)
    report.add("skew_plus", skew_plus, eps ** (61 / 32))

    # derivative ladder of the exponent update: verbatim entries, plus the
    # Cauchy-normalized variants beta_+^k |.|/k! which carry the per-degree
    # factor the desk-scale beta cannot absorb
    fact = 1.0
    for k in range(0, 16 * geom.s + 1):
        if k > 0:
            fact *= k
        h = (t_plus.alpha - t.alpha).derivative(k)
        measured = geom.sup_coeff(h, geom.beta_plus, geom.r_plus)
        report.add(f"alpha_diff_k{k}", measured, eps ** (1 / 3) / 10.0)
        report.add(
            f"alpha_diff_cauchy_k{k}",
            measured * geom.beta_plus**k / fact,
            eps ** (1 / 3) / 10.0,
        )

    norm_A = max(geom.sup_coeff(inter.A, geom.beta, geom.r), 1e-300)
    for kpow in (1, -1, 2, -2):
        th = theta_link.theta if kpow > 0 else theta_link.theta_inv()
        base = th if abs(kpow) == 1 else th * th
        dev = CoeffSeries(base.coeffs - np.eye(1, base.trunc_z + 1, 0)[0])
        report.add(
            f"theta_pow{kpow}_dev",
            geom.sup_coeff(dev, geom.beta_plus, geom.r_plus),
            0.75 * abs(kpow) * norm_A,
        )

    report.practical["contraction"] = {
        "measured": p_plus + q_plus,
        "bound": eps**1.15,
        "pass": bool(p_plus + q_plus <= eps**1.15),
    }
    report.practical["skew_contraction"] = {
        "measured": skew_plus,
        "bound": eps**1.4,
        "pass": bool(skew_plus <= eps**1.4),
    }
    report.practical["eps_out"] = 10.0 * max(p_plus, q_plus)
    return t_plus, chain, report
