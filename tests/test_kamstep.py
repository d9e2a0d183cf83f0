"""Tests for the main iteration step and its measured-versus-bound report."""

import dataclasses
import json

import numpy as np
import pytest

from crownkam import kamstep
from crownkam.involution import (
    InvolutionPair,
    compose_sigma,
    skew_term,
    split_pair,
    synthesize_pair,
)
from crownkam.kamstep import (
    BOUNDARY_SAMPLES,
    StepGeometry,
    conjugate_step,
    crown_escape_margin,
    divisor_minimum,
    main_step,
    run_step,
    solve_cohomological,
    theta_scaling,
    truncate_K,
    IntermediatePair,
)
from crownkam.prenormal import _trial_step
from crownkam.series import (
    CoeffSeries,
    CrownNormParams,
    CrownSeries,
    SeriesError,
    multiply,
    scaling_pair,
)
from crownkam.transforms import chain_apply

from composition_helpers import (
    STEP_STAGES,
    cohomological_entries,
    count_stage_runs,
    crown_reassemble,
)
from test_series_oracle import crown_norm_slack

LAM = 2 * np.arccos(1 / (2 * 0.77))
D = 12


def desk_alpha(slope=1.0):
    return CoeffSeries(np.array([LAM, slope]), real=True)


def desk_geometry(eps, r=0.14, delta=None, t=None):
    rp = 0.75 * r
    beta = r * r / 8
    omegas = tuple(np.linspace(-0.6 * rp * rp, 0.6 * rp * rp, 5))
    g0 = StepGeometry(r, rp, beta, eps=eps, delta=1.0, omega_samples=omegas)
    if delta is None:
        alpha = t.alpha if t is not None else desk_alpha()
        dmin = divisor_minimum(alpha, g0, g0.K_cut(D) + 1, g0.beta_tilde)
        delta = 0.9 * dmin
    return StepGeometry(r, rp, beta, eps=eps, delta=delta, omega_samples=omegas)


def generic_instance(seed, scale):
    rng = np.random.default_rng(seed)

    def rand_u():
        c = rng.standard_normal((D + 1, D + 1)) * scale
        for m in range(D + 1):
            for n in range(D + 1):
                if m + n > D or m + n < 2:
                    c[m, n] = 0.0
        return CrownSeries(c, D)

    return synthesize_pair(desk_alpha(), (rand_u(), rand_u()))


def small_skew_instance(seed, scale):
    """One preliminary step applied to a generic instance: small skew."""
    t = generic_instance(seed, scale)
    geom = desk_geometry(eps=measured_eps(t, 0.14), t=t)
    t1, chain, rep = main_step(t, geom)
    return t1, rep


def measured_eps(t, r):
    beta = r * r / 8
    rp = 0.75 * r
    omegas = tuple(np.linspace(-0.6 * rp * rp, 0.6 * rp * rp, 5))
    g = StepGeometry(r, rp, beta, eps=1.0, delta=1.0, omega_samples=omegas)
    return 10.0 * max(g.sup_norm(t.p, beta, r), g.sup_norm(t.q, beta, r))


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def test_geometry_orderings_and_K():
    g = desk_geometry(eps=1e-4, delta=0.1)
    assert 0 < g.beta_plus < g.beta_tilde < g.beta
    assert g.r_plus < g.r7 < g.r
    want_K = abs(np.log(1e-4)) / abs(np.log(g.r7 / g.r))
    assert g.K_formula == pytest.approx(want_K)
    assert g.K_cut(D) == min(int(want_K), D)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def test_truncate_noop_below_K():
    g = desk_geometry(eps=1e-4, delta=0.1)
    p = CrownSeries.monomial(3, 0, D, 0.5)
    q = CrownSeries.monomial(0, 2, D, 0.25)
    pK, qK, tail = truncate_K(p, q, 12, g)
    assert tail == 0.0
    assert np.abs((pK - p).coeffs).sum() == 0.0


def test_truncate_single_monomial_tail():
    g = desk_geometry(eps=1e-4, delta=0.1)
    K = 5
    p = CrownSeries.monomial(K + 1, 0, D)
    q = CrownSeries.zero(D)
    pK, qK, tail = truncate_K(p, q, K, g)
    assert np.abs(pK.coeffs).sum() == 0.0
    assert tail == pytest.approx(g.r7 ** (K + 1), rel=1e-12)


def test_truncate_generic_geometric_bound():
    rng = np.random.default_rng(61)
    g = desk_geometry(eps=1e-4, delta=0.1)
    c = rng.standard_normal((D + 1, D + 1)) * 1e-5
    p = CrownSeries(np.triu(c)[::-1].T * 0 + np.where(np.add.outer(range(D+1), range(D+1)) <= D, c, 0), D)
    q = CrownSeries.zero(D)
    K = 6
    pK, qK, tail = truncate_K(p, q, K, g)
    pnorm = g.sup_norm(p, g.beta, g.r)
    assert tail <= pnorm * (g.r7 / g.r) ** K + 1e-18


@pytest.mark.parametrize("K", [1, 2.5, 6, D])
def test_truncate_keeps_the_crown_entries_up_to_K(K):
    # reference: decompose into crown entries, keep max(l, j) <= floor(K), reassemble
    rng = np.random.default_rng(67)
    p, q = (CrownSeries(rng.standard_normal((D + 1, D + 1))
                        + 1j * rng.standard_normal((D + 1, D + 1)), D) for _ in range(2))
    pK, qK, _ = truncate_K(p, q, K, desk_geometry(eps=1e-4, delta=0.1))
    for f, fK in ((p, pK), (q, qK)):
        kept = [(l, j, h) for l, j, h in f.crown_decompose() if max(l, j) <= np.floor(K)]
        assert np.array_equal(fK.coeffs, crown_reassemble(kept, D).coeffs)


# ---------------------------------------------------------------------------
# cohomological solver
# ---------------------------------------------------------------------------


def test_solver_zero_input():
    t = InvolutionPair(desk_alpha(), CrownSeries.zero(D), CrownSeries.zero(D))
    geom = desk_geometry(eps=1e-4, t=t)
    sigma = compose_sigma(t)
    u, v = solve_cohomological(t, sigma, geom.K_cut(D))
    assert np.abs(u.coeffs).sum() < 1e-14
    assert np.abs(v.coeffs).sum() < 1e-14


def test_solver_divisor_guard():
    t = generic_instance(63, 3e-4)
    geom = desk_geometry(eps=measured_eps(t, 0.14), delta=10.0, t=t)
    with pytest.raises(SeriesError, match=r"^\[cohomological\] small divisor"):
        run_step(t, geom)


def test_solver_output_is_real():
    t = generic_instance(65, 3e-4)
    geom = desk_geometry(eps=measured_eps(t, 0.14), t=t)
    sigma = compose_sigma(t)
    u, v = solve_cohomological(t, sigma, geom.K_cut(D))
    assert u.is_real(1e-9) and v.is_real(1e-9)
    assert np.abs(u.coeffs).sum() > 0


def test_solver_residual_bounds_on_desk_instances():
    # acceptance-criterion-5 shape: five involution-closed instances with
    # measured eps in [1e-5, 1e-3]; residuals of the two approximate
    # cohomological equations and the solution's skew obey the bounds with
    # verbatim constants at measured eps and skew
    for seed in (70, 71, 72, 73, 74):
        t = generic_instance(seed, 3e-4)
        eps = measured_eps(t, 0.14)
        assert 1e-5 <= eps <= 1e-3
        geom = desk_geometry(eps=eps, t=t)
        t1, chain, rep = main_step(t, geom)
        for key in ("cohomo1", "cohomo2", "skew_uv"):
            e = rep.entries[key]
            assert e["measured"] <= e["bound"], (seed, key, e)


def instance_at_degree(seed, Dn, eps, scale=3e-4):
    """A generic pair at truncation Dn with its sigma and a desk geometry at
    eps whose delta sits at 0.9 times the divisor floor."""
    rng = np.random.default_rng(seed)
    m, n = np.indices((Dn + 1, Dn + 1))

    def rand_u():
        c = rng.standard_normal((Dn + 1, Dn + 1)) * scale
        c[(m + n > Dn) | (m + n < 2)] = 0.0
        return CrownSeries(c, Dn)

    t = synthesize_pair(desk_alpha(), (rand_u(), rand_u()))
    r, rp = 0.14, 0.105
    omegas = tuple(np.linspace(-0.6 * rp * rp, 0.6 * rp * rp, 5))
    g0 = StepGeometry(r, rp, r * r / 8, eps=eps, delta=1.0, omega_samples=omegas)
    dmin = divisor_minimum(t.alpha, g0, g0.K_cut(Dn) + 1, g0.beta_tilde)
    return t, compose_sigma(t), dataclasses.replace(g0, delta=0.9 * dmin)


@pytest.mark.parametrize("Dn", [12, 24])
@pytest.mark.parametrize("seed, eps, K", [(80, 1e-3, None), (81, 1e-3, None), (82, 0.9, 3)])
def test_stacked_solver_matches_the_entry_by_entry_formula(Dn, seed, eps, K):
    # the stacked solve takes the same products and Taylor reciprocals as the
    # per-entry CoeffSeries formula; allow rounding of 2^-44 (about 6e-14)
    # relative to each component's largest coefficient.  K = D unless given.
    t, sigma, geom = instance_at_degree(seed, Dn, eps)
    assert geom.K_cut(Dn) == (Dn if K is None else K)
    got = solve_cohomological(t, sigma, geom.K_cut(Dn))
    want = cohomological_entries(t, sigma, geom.K_cut(Dn))
    for g, w in zip(got, want):
        scale = np.max(np.abs(w.coeffs))
        assert scale > 0
        assert np.max(np.abs(g.coeffs - w.coeffs)) <= 2.0**-44 * scale
    assert got[0].coeffs[1, 0] == 0 and got[1].coeffs[0, 1] == 0


# ---------------------------------------------------------------------------
# conjugation and rescaling stages
# ---------------------------------------------------------------------------


def test_conjugate_identity_on_linear():
    t = InvolutionPair(desk_alpha(), CrownSeries.zero(D), CrownSeries.zero(D))
    geom = desk_geometry(eps=1e-4, t=t)
    inter = conjugate_step(t, (CrownSeries.zero(D), CrownSeries.zero(D)))
    # A = 0, so the split against e^{i alpha/2} is the split against lambda
    out = split_pair(inter.T, t.alpha)
    assert np.abs(out.p.coeffs).sum() < 1e-13
    assert np.abs(out.q.coeffs).sum() < 1e-13


def test_theta_scaling_trivial():
    t = InvolutionPair(desk_alpha(), CrownSeries.zero(D), CrownSeries.zero(D))
    geom = desk_geometry(eps=1e-4, t=t)
    inter = IntermediatePair(
        t.alpha, CoeffSeries.zero(D // 2), t.components(),
        conjugate_step(t, (CrownSeries.zero(D), CrownSeries.zero(D))).phi,
    )
    out, link = theta_scaling(inter, geom.s)
    assert np.allclose(link.theta.coeffs, np.eye(1, D // 2 + 1, 0)[0])
    assert float(np.max(np.abs((out.alpha - t.alpha).coeffs))) < 1e-14
    assert np.abs(out.p.coeffs).sum() < 1e-13


def test_theta_scaling_constant_shift():
    # p_01 = c constant, alpha = lam: alpha_+ - alpha = -2 c sin(lam/2);
    # for lam = 2 pi/3, c = 0.01 this is -0.0173205
    lam = 2 * np.pi / 3
    alpha = CoeffSeries(np.array([lam]), real=True)
    c = 0.01
    geom = desk_geometry(eps=1e-2, delta=0.5)
    lam_series = CoeffSeries.constant(np.exp(0.5j * lam) + c, D // 2)
    lam_xi, lam_eta = scaling_pair(lam_series.reciprocal(), lam_series, D)
    inter = IntermediatePair(
        alpha,
        CoeffSeries.constant(c, D // 2),
        (lam_eta, lam_xi),
        conjugate_step(
            InvolutionPair(alpha, CrownSeries.zero(D), CrownSeries.zero(D)),
            (CrownSeries.zero(D), CrownSeries.zero(D)),
        ).phi,
    )
    out, link = theta_scaling(inter, geom.s)
    shift = float((out.alpha - alpha).coeffs[0].real)
    assert shift == pytest.approx(-2 * c * np.sin(lam / 2), rel=1e-10)
    assert shift == pytest.approx(-0.0173205, abs=1e-6)


def test_theta_deviation_bound():
    t1, rep = small_skew_instance(81, 4e-4)
    for kpow in (1, -1, 2, -2):
        e = rep.entries[f"theta_pow{kpow}_dev"]
        assert e["measured"] <= e["bound"]


def test_theta_scaling_preserves_product():
    t1, rep = small_skew_instance(83, 4e-4)
    # rebuild the scaling link from a fresh step and check the product
    t = generic_instance(83, 4e-4)
    geom = desk_geometry(eps=measured_eps(t, 0.14), t=t)
    _, chain, _ = main_step(t, geom)
    link = chain[-1]
    fwd = link.forward_pair(D)
    prod = multiply(fwd[0], fwd[1])
    want = multiply(CrownSeries.xi(D), CrownSeries.eta(D))
    assert (prod - want).max_abs_coeff() < 1e-12


# ---------------------------------------------------------------------------
# full step
# ---------------------------------------------------------------------------


def test_main_step_identity_on_linear():
    t = InvolutionPair(desk_alpha(), CrownSeries.zero(D), CrownSeries.zero(D))
    geom = desk_geometry(eps=1e-6, t=t)
    t1, chain, rep = main_step(t, geom)
    assert np.abs(t1.p.coeffs).sum() < 1e-12
    assert float(np.max(np.abs((t1.alpha - t.alpha).coeffs))) < 1e-12
    # the transform chain is the identity to truncation
    x, y = chain_apply(chain, 0.05 + 0.01j, 0.03 - 0.02j)
    assert abs(x - (0.05 + 0.01j)) < 1e-12
    assert abs(y - (0.03 - 0.02j)) < 1e-12


def test_main_step_contraction_desk_instances():
    # acceptance-criterion-6 shape, on post-preliminary instances: the
    # relaxed-exponent contraction and skew contraction hold, and the new
    # skew beats skew^1.2
    for seed in (90, 91, 92):
        t1, rep1 = small_skew_instance(seed, 4e-4)
        eps1 = rep1.practical["eps_out"]
        geom = desk_geometry(eps=eps1, r=0.105, t=t1)
        skew_in = geom.sup_norm(skew_term(t1), geom.beta, geom.r)
        t2, chain, rep2 = main_step(t1, geom)
        assert rep2.practical["contraction"]["pass"], (seed, rep2.practical)
        assert rep2.practical["skew_contraction"]["pass"], (seed, rep2.practical)
        skew_out = rep2.entries["skew_plus"]["measured"]
        assert skew_out < max(skew_in**1.2, 1e-15)


def test_main_step_preserves_involution_and_realness():
    t = generic_instance(95, 4e-4)
    geom = desk_geometry(eps=measured_eps(t, 0.14), t=t)
    t1, chain, rep = main_step(t, geom)
    np_ = CrownNormParams(0.002, 0.0004, geom.r_plus)
    assert t1.involution_residual(np_) < 1e-9
    for link in chain:
        assert link.realness_defect() < 1e-9
    assert t1.alpha.is_real(1e-9)


def test_main_step_alpha_entries_cauchy():
    t1, rep = small_skew_instance(97, 4e-4)
    for k in range(0, 17):
        e = rep.entries[f"alpha_diff_cauchy_k{k}"]
        assert e["measured"] <= e["bound"], (k, e)


def test_main_step_crown_escape_checked():
    t = generic_instance(99, 4e-4)
    geom = desk_geometry(eps=measured_eps(t, 0.14), t=t)
    _, _, rep = main_step(t, geom)
    assert rep.entries["crown_escape_margin"]["measured"] > 0


def step_json(out):
    """The pair and report of a main_step result as JSON text."""
    t_plus, _, rep = out
    return json.dumps([t_plus.to_json(), rep.to_dict()], sort_keys=True)


def test_step_algebra_is_reused_only_for_its_pair_K_and_s(monkeypatch):
    runs = count_stage_runs(monkeypatch)
    t = generic_instance(99, 4e-4)
    geom = desk_geometry(eps=measured_eps(t, 0.14), t=t)
    algebra, _ = run_step(t, geom)
    assert [name for name, _ in runs] == list(STEP_STAGES)

    def fresh(t2, g2):
        kamstep._once.cache_clear()
        return step_json(main_step(t2, g2))

    # same pair, K and s, whatever the omega samples or the radius: no stage
    # runs again (an equal pair holding the same series is the same key)
    fewer = dataclasses.replace(geom, omega_samples=geom.omega_samples[1:])
    wider = dataclasses.replace(geom, r=1.05 * geom.r, r_plus=1.05 * geom.r_plus)
    assert wider.K_cut(D) == algebra.K
    for t2, g2 in ((t, fewer), (t, wider), (dataclasses.replace(t), geom)):
        del runs[:]
        again, _ = run_step(t2, g2)
        assert again.t_plus is algebra.t_plus and again.uv is algebra.uv
        out = step_json(main_step(t2, g2))
        assert runs == []
        assert out == fresh(t2, g2)
        algebra, _ = run_step(t, geom)  # what the memo now holds for t
    # another pair, K or s: the stages that read it run again, and only them
    other_K = dataclasses.replace(geom, eps=0.8)
    assert other_K.K_cut(D) != algebra.K
    cases = [
        (generic_instance(98, 4e-4), geom, STEP_STAGES),
        (t, other_K, STEP_STAGES[1:]),
        (t, dataclasses.replace(geom, s=2), STEP_STAGES[3:]),
    ]
    for t2, g2, rerun in cases:
        del runs[:]
        out = step_json(main_step(t2, g2))
        assert [name for name, _ in runs] == list(rerun)
        assert out == fresh(t2, g2)
        run_step(t, geom)  # the memo holds t's algebra again


@pytest.mark.parametrize("refusal", ["outside-window", "K-below-1"])
def test_trial_step_refuses_as_main_step_does(refusal):
    t = generic_instance(99, 4e-4)
    geom = desk_geometry(eps=measured_eps(t, 0.14), t=t)
    if refusal == "outside-window":
        geom = outside_window(geom)
    else:
        geom = dataclasses.replace(geom, eps=0.99)
        assert geom.K_cut(D) < 1
    with pytest.raises(SeriesError) as by_step:
        main_step(t, geom)
    with pytest.raises(SeriesError) as by_trial:
        _trial_step(t, geom)
    assert str(by_trial.value) == str(by_step.value)
    assert ("window" if refusal == "outside-window" else "[truncate]") in str(by_step.value)


def escape_margin_reference(phi, geom, n_boundary=24):
    """Worst crown-escape margin, pushing boundary points through phi one at
    a time; returns it with the number of points outside the r_plus bidisk."""
    worst, skipped = np.inf, 0
    for w in geom.omega_samples:
        if abs(w) >= geom.r_plus**2 - geom.beta_plus:
            continue
        for tb in np.linspace(0, 2 * np.pi, 6, endpoint=False):
            z = w + geom.beta_plus * np.exp(1j * tb)
            hi = geom.r_plus * 0.98
            lo = abs(z) / hi
            for tm in np.linspace(0, 2 * np.pi, n_boundary, endpoint=False):
                for m in (lo * 1.01, np.sqrt(lo * hi), hi * 0.99):
                    x = complex(m * np.exp(1j * tm))
                    y = complex(z / x)
                    if abs(x) >= geom.r_plus or abs(y) >= geom.r_plus:
                        skipped += 1
                        continue
                    X = complex(phi.forward[0].eval(x, y))
                    Y = complex(phi.forward[1].eval(x, y))
                    worst = min(worst, geom.beta - abs(X * Y - w),
                                geom.r - abs(X), geom.r - abs(Y))
    return worst, skipped


def test_crown_escape_margin_matches_pointwise_loop():
    # the margin over the whole sample grid equals the worst margin found by
    # pushing the boundary points through phi one at a time; the edge
    # geometry adds omegas where the skip conditions fire
    t = generic_instance(99, 4e-4)
    geom = desk_geometry(eps=measured_eps(t, 0.14), t=t)
    phi = conjugate_step(t, solve_cohomological(t, compose_sigma(t), geom.K_cut(D))).phi
    w_max = geom.r_plus**2 - geom.beta_plus
    edge = dataclasses.replace(geom, omega_samples=(-0.995 * w_max, 0.995 * w_max, w_max))
    for g, skips in ((geom, False), (edge, True)):
        worst, skipped = escape_margin_reference(phi, g)
        assert np.isfinite(worst)
        assert (skipped > 0) == skips
        assert crown_escape_margin(phi, g) == pytest.approx(worst, rel=0, abs=1e-15)


def outside_window(geom):
    # omega = r^2 lies outside every window |omega| < r'^2 - beta' with r' <= r
    return dataclasses.replace(geom, omega_samples=(geom.r**2,))


def test_crown_escape_margin_raises_on_empty_window():
    t = generic_instance(99, 4e-4)
    geom = desk_geometry(eps=measured_eps(t, 0.14), t=t)
    phi = conjugate_step(t, solve_cohomological(t, compose_sigma(t), geom.K_cut(D))).phi
    with pytest.raises(SeriesError, match="window"):
        crown_escape_margin(phi, outside_window(geom))


def test_sup_coeff_raises_on_empty_window():
    geom = desk_geometry(eps=1e-3, delta=0.1)
    assert geom.sup_coeff(desk_alpha(), geom.beta, geom.r) > 0
    with pytest.raises(SeriesError, match="window"):
        outside_window(geom).sup_coeff(desk_alpha(), geom.beta, geom.r)


def lone_circle(w, beta, n):
    if beta == 0.0:
        return np.array([w], dtype=np.complex128)
    return w + beta * np.exp(1j * (2.0 * np.pi * np.arange(n) / n))


def lone_disk_max(h, w, beta, n):
    return float(np.max(np.abs(h.eval(lone_circle(w, beta, n)))))


def lone_crown_norm(f, w, beta, r, n):
    """The crown norm at one omega, entry by entry, summed in crown order."""
    total = 0.0
    for l, j, h in f.crown_decompose():
        m = lone_disk_max(h, w, beta, n)
        if m != 0.0:
            total += m * r ** np.arange(f.trunc_total + 1)[l + j]
    return total


@pytest.mark.parametrize("beta", [0.0, 0.002])
@pytest.mark.parametrize("n_samples", [5, 1])
def test_window_sups_equal_the_one_omega_maximum(beta, n_samples):
    # the one pass over the window is the maximum of omega-by-omega norms
    # within the crown norm oracle's slack, at D = 12 and at degrees where the
    # crown rows differ more in length; the coefficient sups keep their bits
    t = generic_instance(7, 4e-4)
    geom = desk_geometry(eps=1e-3, delta=0.1)
    geom = dataclasses.replace(geom, omega_samples=geom.omega_samples[:n_samples])
    # every power of z counts: the coefficients grow like the window's 1/|z|
    c = np.random.default_rng(8).standard_normal((7, 2)) @ [1.0, 1j]
    h = CoeffSeries(c * 50.0 ** np.arange(7))
    ws, n = geom.window(beta, geom.r), BOUNDARY_SAMPLES
    assert len(ws) == n_samples
    rng = np.random.default_rng(9)
    for f in [t.p] + [CrownSeries(rng.standard_normal((Dn + 1, Dn + 1)) * 1e-3, Dn)
                      for Dn in (24, 36)]:
        want = max(lone_crown_norm(f, w, beta, geom.r, n) for w in ws)
        zs = np.concatenate([lone_circle(w, beta, n) for w in ws])
        assert abs(geom.sup_norm(f, beta, geom.r) - want) <= crown_norm_slack(f, zs, geom.r, want)
    assert geom.sup_coeff(h, beta, geom.r) == max(lone_disk_max(h, w, beta, n) for w in ws)
    with pytest.raises(SeriesError, match="window"):
        outside_window(geom).sup_norm(t.p, beta, geom.r)
    with pytest.raises(SeriesError, match="window"):
        outside_window(geom).sup_coeff(h, beta, geom.r)


@pytest.mark.parametrize("beta", [0.0, 0.002])
@pytest.mark.parametrize("n_samples", [5, 1, 0])
def test_divisor_minimum_equals_the_one_omega_minimum(beta, n_samples):
    alpha = CoeffSeries(np.array([LAM, 1.0, -3.0, 40.0]), real=True)
    geom = desk_geometry(eps=1e-3, delta=0.1)
    geom = dataclasses.replace(geom, omega_samples=geom.omega_samples[:n_samples])
    want = np.inf
    for w in geom.omega_samples + (0.0,):
        avals = alpha.eval(lone_circle(w, beta, BOUNDARY_SAMPLES))
        for k in range(1, 14):
            want = min(want, float(np.min(np.abs(np.exp(1j * k * avals) - 1.0))))
    assert divisor_minimum(alpha, geom, 13, beta) == want


def test_main_step_s2_twist():
    # second-order twist alpha = lam + z^2: geometry powers and the
    # derivative ladder run at s = 2 and the step still contracts
    alpha2 = CoeffSeries(np.array([LAM, 0.0, 1.0]), real=True)
    rng = np.random.default_rng(103)

    def rand_u():
        c = rng.standard_normal((D + 1, D + 1)) * 3e-4
        for m in range(D + 1):
            for n in range(D + 1):
                if m + n > D or m + n < 2:
                    c[m, n] = 0.0
        return CrownSeries(c, D)

    t = synthesize_pair(alpha2, (rand_u(), rand_u()), s_order=2)
    r, rp = 0.14, 0.105
    beta = r * r / 8
    omegas = tuple(np.linspace(-0.6 * rp * rp, 0.6 * rp * rp, 5))
    g0 = StepGeometry(r, rp, beta, eps=1.0, delta=1.0, s=2, omega_samples=omegas)
    eps = 10 * max(g0.sup_norm(t.p, beta, r), g0.sup_norm(t.q, beta, r))
    ge = StepGeometry(r, rp, beta, eps=eps, delta=1.0, s=2, omega_samples=omegas)
    dmin = divisor_minimum(alpha2, ge, ge.K_cut(D) + 1, ge.beta_tilde)
    geom = StepGeometry(r, rp, beta, eps=eps, delta=0.9 * dmin, s=2,
                        omega_samples=omegas)
    t1, chain, rep = main_step(t, geom)
    assert rep.practical["contraction"]["pass"]
    assert f"alpha_diff_k{16 * 2}" in rep.entries
    assert t1.s_order == 2


def test_step_report_serializes():
    import json

    t = generic_instance(101, 4e-4)
    geom = desk_geometry(eps=measured_eps(t, 0.14), t=t)
    _, _, rep = main_step(t, geom)
    blob = json.dumps(rep.to_dict(), sort_keys=True)
    assert "cohomo1" in blob
