"""Tests for interval sets, resonance excision, Pyartli bounds and schedules."""

import math

import numpy as np
import pytest

from crownkam.series import CoeffSeries, SeriesError
from crownkam.sieve import (
    DEFAULT_GRID,
    ROOT_TOL,
    IntervalSet,
    build_schedule,
    excise_resonances,
    measure_excluded,
    pyartli_bound,
)


def random_set(rng, n=4, lo=-1.0, hi=1.0):
    pts = np.sort(rng.uniform(lo, hi, 2 * n))
    return IntervalSet([(pts[2 * i], pts[2 * i + 1]) for i in range(n)])


# ---------------------------------------------------------------------------
# interval algebra
# ---------------------------------------------------------------------------


def test_intervalset_normalization():
    s = IntervalSet([(0.5, 0.7), (0.0, 0.2), (0.2, 0.3)])
    assert s.intervals == ((0.0, 0.3), (0.5, 0.7))
    assert s.measure() == pytest.approx(0.5)


def test_intervalset_membership():
    s = IntervalSet([(0.0, 1.0)])
    assert 0.5 in s and 0.0 in s and 1.0 in s
    assert 1.5 not in s


def test_inclusion_exclusion_measure():
    rng = np.random.default_rng(7)
    for _ in range(50):
        A = random_set(rng)
        B = random_set(rng)
        lhs = IntervalSet(A.intervals + B.intervals).measure() + A.intersect(B).measure()
        rhs = A.measure() + B.measure()
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_subtract_and_subset():
    A = IntervalSet([(0.0, 1.0)])
    B = IntervalSet([(0.2, 0.3), (0.5, 0.6)])
    C = A.subtract(B)
    assert C.measure() == pytest.approx(0.8)
    assert B.is_subset_of(A)
    assert not A.is_subset_of(B)


# ---------------------------------------------------------------------------
# pyartli
# ---------------------------------------------------------------------------


def test_pyartli_linear_case():
    # q = 1, delta = 1, A = 0.1: bound 0.2 dominates the true measure 0.2
    # of {|t| <= 0.1} (and on [0, 1] the measure is 0.1)
    bound = pyartli_bound(1, 1.0, 0.1)
    assert bound == pytest.approx(0.2)
    ts = np.linspace(0, 1, 100001)
    measure = np.mean(np.abs(ts) <= 0.1) * 1.0
    assert measure <= bound


def test_pyartli_quadratic_case():
    bound = pyartli_bound(2, 2.0, 0.08)
    assert bound == pytest.approx(0.8)
    ts = np.linspace(-1, 1, 200001)
    measure = np.mean(ts**2 <= 0.08) * 2.0
    assert measure <= bound


def test_pyartli_vanishing_A():
    assert pyartli_bound(3, 0.5, 0.0) == 0.0


def test_pyartli_dominates_random_polynomials():
    # 50 random degree-q polynomials: lower part arbitrary, leading
    # coefficient c_q, so f^(q) = c_q q! is constant and delta = |c_q| q!
    import math

    rng = np.random.default_rng(11)
    ts = np.linspace(-1.0, 1.0, 200001)
    for _ in range(50):
        q = int(rng.integers(1, 4))
        lower = rng.standard_normal(q) * 0.5
        cq = float(rng.uniform(0.3, 1.5)) * float(rng.choice([-1.0, 1.0]))
        coeffs = np.concatenate([lower, [cq]])
        delta = abs(cq) * math.factorial(q)
        f = np.polynomial.polynomial.polyval(ts, coeffs)
        A = float(rng.uniform(0.01, 0.2))
        measured = float(np.mean(np.abs(f) <= A)) * 2.0
        assert measured <= pyartli_bound(q, delta, A) + 1e-5


# ---------------------------------------------------------------------------
# excision
# ---------------------------------------------------------------------------


def reference_excise(O, alpha, K, delta, grid=DEFAULT_GRID):
    """The scalar excision: zones found on the same grid by an index walk,
    each edge sharpened by its own bisection of scalar alpha evaluations."""
    if delta <= 0.0:
        return O
    threshold = 2.0 * math.asin(min(1.0, delta / 2.0))
    cut = []
    for a, b in O.intervals:
        if b <= a:
            continue
        npts = max(100, int(grid * (b - a)) + 2)
        xs = np.linspace(a, b, npts)
        avals = alpha.eval(xs).real
        for n in range(1, int(np.floor(K)) + 2):
            dist = np.abs(np.remainder(n * avals + np.pi, 2.0 * np.pi) - np.pi)
            bad = dist < threshold

            def refine(lo, hi, want_entering):
                def f(x):
                    g = n * alpha.eval(x).real
                    return abs(float(np.remainder(g + np.pi, 2 * np.pi)) - np.pi) - threshold

                flo, fhi = f(lo), f(hi)
                if flo == 0.0:
                    return lo
                if fhi == 0.0:
                    return hi
                if flo * fhi > 0:
                    return lo if want_entering else hi
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    fm = f(mid)
                    if hi - lo < ROOT_TOL:
                        break
                    if flo * fm <= 0:
                        hi, fhi = mid, fm
                    else:
                        lo, flo = mid, fm
                return 0.5 * (lo + hi)

            i = 0
            while i < npts:
                if bad[i]:
                    j = i
                    while j + 1 < npts and bad[j + 1]:
                        j += 1
                    lo = xs[i] if i == 0 else refine(xs[i - 1], xs[i], True)
                    hi = xs[j] if j == npts - 1 else refine(xs[j], xs[j + 1], False)
                    cut.append((lo - ROOT_TOL, hi + ROOT_TOL))
                    i = j + 1
                else:
                    i += 1
    return O.subtract(IntervalSet(cut))


def test_excise_matches_the_scalar_reference_on_random_cases():
    rng = np.random.default_rng(2024)
    zones = 0
    for case in range(120):
        degree = int(rng.integers(1, 6))
        coeffs = np.concatenate([[rng.uniform(0.0, 2 * np.pi)],
                                 rng.standard_normal(degree) * 10.0 ** rng.uniform(0, 2, degree)])
        alpha = CoeffSeries(coeffs, real=True)
        K = int(rng.integers(1, 15))
        delta = 10.0 ** rng.uniform(-3, np.log10(0.5))
        grid = int(rng.choice([100, 400, 4096]))
        if case % 2:
            O = random_set(rng, n=2, lo=-0.1, hi=0.1)
        else:
            O = IntervalSet.interval(*sorted(rng.uniform(-0.1, 0.1, 2)))
        want = reference_excise(O, alpha, K, delta, grid)
        assert excise_resonances(O, alpha, K, delta, grid) == want, case
        zones += len(want.intervals) - len(O.intervals)
    assert zones > 100  # the cases cut the set, not just pass it through


def test_excise_keeps_a_zone_touching_an_interval_end():
    # alpha(omega) = 10 omega vanishes at the left end: every order is
    # resonant there, so the zone starts at the first grid point
    O = IntervalSet([(0.0, 0.05), (0.2, 0.3)])
    alpha = CoeffSeries(np.array([-2.0, 10.0]), real=True)
    out = excise_resonances(O, alpha, K=3, delta=0.2)
    assert out == reference_excise(O, alpha, K=3, delta=0.2)
    assert 0.2 not in out and 0.0 in out and out.intervals[0][0] < 0.05


def test_excise_takes_a_grid_point_at_the_threshold_as_the_edge():
    # step delta ulp by ulp until the threshold equals the distance at a grid
    # point: that point is then an edge of the zone, with no bisection
    O = IntervalSet.interval(-0.01, 0.01)
    xs = np.linspace(-0.01, 0.01, max(100, int(DEFAULT_GRID * 0.02) + 2))
    x0 = xs[40]
    alpha = CoeffSeries(np.array([0.3 - x0, 1.0]), real=True)
    dist = np.abs(np.remainder(alpha.eval(xs).real + np.pi, 2.0 * np.pi) - np.pi)
    delta = 2.0 * math.sin(dist[40] / 2.0)
    for _ in range(200):
        if 2.0 * math.asin(delta / 2.0) >= dist[40]:
            break
        delta = np.nextafter(delta, np.inf)
    for _ in range(200):
        if 2.0 * math.asin(delta / 2.0) <= dist[40]:
            break
        delta = np.nextafter(delta, -np.inf)
    assert 2.0 * math.asin(delta / 2.0) == dist[40] > dist[39]  # x0 ends the zone
    out = excise_resonances(O, alpha, 0, delta)
    assert out == reference_excise(O, alpha, 0, delta)
    assert out.intervals[0][0] == x0 + ROOT_TOL


def test_excise_constant_resonant_alpha():
    # alpha = 2 pi / 3: n = 3 hits the lattice exactly, killing everything
    O = IntervalSet([(-0.01, 0.01)])
    alpha = CoeffSeries(np.array([2 * np.pi / 3]), real=True)
    out = excise_resonances(O, alpha, K=3, delta=0.05)
    assert out.measure() == 0.0


def test_excise_delta_zero_noop():
    O = IntervalSet([(-0.01, 0.01)])
    alpha = CoeffSeries(np.array([1.0, 1.0]), real=True)
    assert excise_resonances(O, alpha, K=5, delta=0.0) == O


def test_excise_monotone_in_delta():
    O = IntervalSet([(-0.02, 0.02)])
    lam = 2 * np.arccos(1 / (2 * 0.77))
    alpha = CoeffSeries(np.array([lam, 1.0]), real=True)
    prev = None
    for delta in (0.01, 0.05, 0.2, 0.5):
        out = excise_resonances(O, alpha, K=12, delta=delta)
        if prev is not None:
            assert out.is_subset_of(prev, tol=1e-10)
        prev = out


def test_excise_measure_against_grid_oracle():
    # brute-force grid measure of the resonance zones matches the excised
    # measure up to grid resolution
    O = IntervalSet([(-0.03, 0.03)])
    lam = 1.0
    alpha = CoeffSeries(np.array([lam, 50.0]), real=True)  # fast sweep
    delta = 0.1
    K = 4
    out = excise_resonances(O, alpha, K, delta, grid=200000)
    xs = np.linspace(-0.03, 0.03, 600001)
    avals = alpha.eval(xs).real
    bad = np.zeros_like(xs, dtype=bool)
    thresh = 2 * np.arcsin(delta / 2)
    for n in range(1, K + 2):
        dist = np.abs(np.remainder(n * avals + np.pi, 2 * np.pi) - np.pi)
        bad |= dist < thresh
    oracle = float(np.mean(bad)) * 0.06
    removed = O.measure() - out.measure()
    assert removed == pytest.approx(oracle, abs=5e-5)
    # excised omega really violate the divisor condition
    for w in out.sample(50):
        divs = [abs(np.exp(1j * n * alpha.eval(w).real) - 1) for n in range(1, K + 2)]
        assert min(divs) >= delta * 0.999


def test_measure_excluded_basics():
    O = IntervalSet([(0.0, 1.0)])
    out = measure_excluded(O, O, (0.0, 1.0), 1e-4, 1)
    assert out["measured"] == 0.0
    cut = O.subtract(IntervalSet([(0.1, 0.11), (0.5, 0.51)]))
    out = measure_excluded(O, cut, (0.0, 1.0), 1e-4, 1)
    assert out["measured"] == pytest.approx(0.02)
    with pytest.raises(SeriesError):
        measure_excluded(cut, O, (0.0, 1.0), 1e-4, 1)


def test_resonance_zone_bound_dominates():
    from crownkam.sieve import resonance_zone_bound

    O = IntervalSet([(-0.02, 0.02)])
    lam = 2 * np.arccos(1 / (2 * 0.77))
    alpha = CoeffSeries(np.array([lam, 1.0]), real=True)
    delta, K = 0.12, 12
    out = excise_resonances(O, alpha, K, delta)
    removed = O.measure() - out.measure()
    assert removed <= resonance_zone_bound(1, delta, K)


def test_measure_excluded_desk_schedule_bound():
    # s = 1, eps = 1e-4: the schedule bound eps^{1/100} vastly exceeds a desk
    # window, so the comparison is reported vacuous; on a unit window the
    # measured excision of a desk alpha stays below the bound
    O = IntervalSet([(-0.02, 0.02)])
    lam = 2 * np.arccos(1 / (2 * 0.77))
    alpha = CoeffSeries(np.array([lam, 1.0]), real=True)
    out_set = excise_resonances(O, alpha, K=12, delta=1e-4 ** (1 / 64))
    rep = measure_excluded(O, out_set, (-0.02, 0.02), eps_nu=1e-4, s=1)
    assert rep["bound_vacuous"]
    assert sorted(rep) == ["bound_vacuous", "measured", "paper_bound_mes"]


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_schedule_eps_power():
    sch = build_schedule(1, 0.1, 1e-4, 5)
    assert sch.eps[1] == pytest.approx(1e-5)
    for nu in range(5):
        assert sch.eps[nu + 1] / sch.eps[nu] ** 1.25 == pytest.approx(1.0, rel=1e-15)


def test_schedule_beta_flags_practical_override():
    sch = build_schedule(1, 0.1, 1e-4, 3)
    assert sch.beta[0] == pytest.approx(10 ** (-0.1))
    assert sch.beta[0] > 0.1**2 / 4  # desk regime: paper beta exceeds r0^2/4
    assert sch.beta_practical[0] == pytest.approx(0.1**2 / 8)


def test_schedule_radii_telescope():
    sch = build_schedule(1, 0.1, 1e-4, 8)
    assert sch.r[1] == pytest.approx(0.075)
    assert sch.r[2] == pytest.approx(0.0625)
    for nu in range(8):
        assert sch.r[nu] - sch.r[nu + 1] == pytest.approx(0.1 / 2 ** (nu + 2), rel=1e-15)
    assert sch.r[-1] > 0.05


def test_schedule_beta_tilde_identity():
    sch = build_schedule(2, 0.1, 1e-6, 4)
    for nu in range(4):
        assert sch.beta_tilde[nu] == pytest.approx(16 * sch.eps[nu] ** (1 / 64), rel=1e-13)


def test_schedule_feasibility_flag_desk():
    sch = build_schedule(1, 0.1, 1e-4, 3)
    assert not sch.smallness["pass"]
    assert sch.smallness["measured"] > 1.0 == sch.smallness["bound"]


def test_schedule_rejects_bad_inputs():
    with pytest.raises(SeriesError):
        build_schedule(1, 0.3, 1e-4, 3)  # r0^2 >= 1/16
    with pytest.raises(SeriesError):
        build_schedule(1, 0.1, 0.02, 3)  # eps0 >= r0^2
