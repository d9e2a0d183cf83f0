"""Parameter-set machinery: interval sets, resonance excision, measure bounds
and the nu-indexed quantity schedule."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .series import CoeffSeries, SeriesError

MERGE_TOL = 1e-13
ROOT_TOL = 1e-12
DEFAULT_GRID = 4096


def bound_entry(measured, bound) -> dict:
    """A measured quantity against its bound, passing when measured <= bound."""
    return {"measured": measured, "bound": bound, "pass": bool(measured <= bound)}


class IntervalSet:
    """Finite union of disjoint closed intervals [a, b], kept sorted."""

    __slots__ = ("intervals",)

    def __init__(self, intervals=()):
        items = sorted((float(a), float(b)) for a, b in intervals if b >= a)
        merged: list[tuple[float, float]] = []
        for a, b in items:
            if merged and a <= merged[-1][1] + MERGE_TOL:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        self.intervals = tuple(merged)

    @staticmethod
    def interval(a: float, b: float) -> "IntervalSet":
        return IntervalSet([(a, b)])

    def measure(self) -> float:
        return float(sum(b - a for a, b in self.intervals))

    def __contains__(self, x: float) -> bool:
        return any(a <= x <= b for a, b in self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __repr__(self):
        return f"IntervalSet({list(self.intervals)})"

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if hi >= lo:
                    out.append((lo, hi))
        return IntervalSet(out)

    def subtract(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a, b in self.intervals:
            pieces = [(a, b)]
            for c, d in other.intervals:
                nxt = []
                for lo, hi in pieces:
                    if d < lo or c > hi:
                        nxt.append((lo, hi))
                        continue
                    if c > lo:
                        nxt.append((lo, min(c, hi)))
                    if d < hi:
                        nxt.append((max(d, lo), hi))
                pieces = nxt
            out.extend(pieces)
        return IntervalSet(out)

    def is_subset_of(self, other: "IntervalSet", tol: float = 1e-12) -> bool:
        return self.subtract(other).measure() <= tol

    def sample(self, count: int) -> np.ndarray:
        """Deterministic grid: count points spread over the set by measure."""
        total = self.measure()
        if total == 0.0 or count <= 0:
            return np.array([])
        pts = []
        for a, b in self.intervals:
            n = max(1, int(round(count * (b - a) / total)))
            pts.extend(np.linspace(a, b, n + 2)[1:-1])
        return np.array(pts)


def pyartli_bound(q: int, delta: float, A: float) -> float:
    """Sublevel measure bound 4 (q! A / (2 delta))^(1/q) for functions with
    |f^(q)| >= delta."""
    if q < 1 or delta <= 0 or A < 0:
        raise SeriesError("need q >= 1, delta > 0, A >= 0")
    return 4.0 * (math.factorial(q) * A / (2.0 * delta)) ** (1.0 / q)


def resonance_zone_bound(s: int, delta: float, K: float) -> float:
    """Summed Pyartli bound over resonance orders 0 < n <= K+1.

    Each order contributes at most 6n+1 lattice zones (the exponent stays in
    a 4-pi-wide band), each a sublevel set of a function whose s-th
    derivative is at least (3/4) n s!."""
    total = 0.0
    for n in range(1, int(np.floor(K)) + 2):
        total += (6 * n + 1) * pyartli_bound(
            s, 0.75 * n * math.factorial(s), 1.5 * delta
        )
    return total


def excise_resonances(
    O: IntervalSet,
    alpha: CoeffSeries,
    K: float,
    delta: float,
    grid: int = DEFAULT_GRID,
) -> IntervalSet:
    """Remove {omega : |e^{i n alpha(omega)} - 1| < delta, some 0 < |n| <= K+1}.

    One array pass.  The gap dist(n alpha(omega), 2 pi Z) - threshold,
    negative inside a zone, is evaluated for every order n at once on a
    uniform grid over each interval (at least ``grid`` points per unit
    length, minimum 100 per interval).  A zone is a run of negative grid gaps
    from index ``first`` to ``last``; its edges lie in the brackets
    (first-1, first) and (last, last+1), whose end gaps are read off the
    grid.  Every edge of every zone is sharpened in one bisection to
    ``ROOT_TOL`` and each zone is cut inflated by it.  A grid gap of exactly
    0 is the edge itself, and a zone touching a grid end keeps that grid
    point: its bracket there is the one point.  delta = 0 returns the input.
    """
    if grid < 100:
        raise SeriesError("grid must be >= 100")
    if not alpha.is_real(1e-8):
        raise SeriesError("alpha must be real to excise resonances")
    if delta <= 0.0:
        return O
    threshold = 2.0 * math.asin(min(1.0, delta / 2.0))
    orders = np.arange(1, int(np.floor(K)) + 2)

    def gap(n, x):
        dist = np.abs(np.remainder(n * alpha.eval(x).real + np.pi, 2.0 * np.pi) - np.pi)
        return dist - threshold

    # per interval: the gaps on its grid, then each zone's order and its edge
    # brackets as grid indices, entering (row 0) and leaving (row 1)
    parts = []
    for a, b in O.intervals:
        if b <= a:
            continue
        xs = np.linspace(a, b, max(100, int(grid * (b - a)) + 2))
        gaps = gap(orders[:, None], xs)
        # a zone starts at a point inside whose left neighbour is outside and
        # ends at one whose right neighbour is; beyond the grid is outside
        inside = gaps < 0.0
        starts, ends = inside.copy(), inside.copy()
        starts[:, 1:] &= ~inside[:, :-1]
        ends[:, :-1] &= ~inside[:, 1:]
        rows, first = np.nonzero(starts)
        last = np.nonzero(ends)[1]
        i_lo = np.stack([np.where(first > 0, first - 1, first), last])
        i_hi = np.stack([first, np.where(last < xs.size - 1, last + 1, last)])
        parts.append((xs[i_lo], xs[i_hi], gaps[rows, i_lo], gaps[rows, i_hi], orders[rows]))
    if not parts:
        return O
    lo, hi, flo, fhi, n = (np.concatenate(p, axis=-1) for p in zip(*parts))

    # sharpen every bracket at once; a grid gap of exactly 0 is the edge
    at_grid = (flo == 0.0) | (fhi == 0.0)
    grid_edge = np.where(flo == 0.0, lo, hi)
    for _ in range(80):
        live = ~at_grid & (hi - lo >= ROOT_TOL)
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        fmid = gap(n, mid)
        left = flo * fmid <= 0  # the edge lies in [lo, mid]
        hi = np.where(live & left, mid, hi)
        lo = np.where(live & ~left, mid, lo)
        flo = np.where(live & ~left, fmid, flo)
    edges = np.where(at_grid, grid_edge, 0.5 * (lo + hi))
    return O.subtract(IntervalSet(zip(edges[0] - ROOT_TOL, edges[1] + ROOT_TOL)))


def measure_excluded(
    O_before: IntervalSet,
    O_after: IntervalSet,
    window: tuple[float, float],
    eps_nu: float,
    s: int,
) -> dict:
    """Measure of (O_before \\ O_after) inside the window, with the schedule
    bound eps_nu^(1/(100 s^2)), vacuous when it is at least the window's
    length."""
    if not O_after.is_subset_of(O_before):
        raise SeriesError("O_after must be contained in O_before")
    measured = O_before.subtract(O_after).intersect(IntervalSet.interval(*window)).measure()
    bound = eps_nu ** (1.0 / (100.0 * s * s))
    return {"measured": measured, "paper_bound_mes": bound,
            "bound_vacuous": bool(bound >= window[1] - window[0])}


@dataclass
class Schedule:
    """The nu-indexed quantities of the iteration."""

    s: int
    eps: list = field(default_factory=list)
    beta: list = field(default_factory=list)
    beta_tilde: list = field(default_factory=list)
    zeta: list = field(default_factory=list)
    r: list = field(default_factory=list)
    K: list = field(default_factory=list)
    beta_practical: list = field(default_factory=list)
    smallness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def build_schedule(s: int, r0: float, eps0: float, max_nu: int) -> Schedule:
    """Fill the quantity lists to max_nu and evaluate the verbatim smallness
    inequality as ``smallness``; runs proceed regardless (flagged).

    eps_{nu+1} = eps_nu^{5/4}; beta_nu = eps_nu^{1/(40s)};
    beta~_nu = 16 eps_nu^{1/(32s)}; zeta_{nu+1} = zeta_nu + eps_nu^{1/3};
    r_{nu+1} = r_nu - r0/2^{nu+2}; K_nu = |ln eps_nu| / |ln(r7_nu/r_nu)|.
    The practical beta column carries min(beta_nu, r_nu^2/8) (the crown must
    be nonempty at desk eps).
    """
    if not (0 < eps0 < r0**2 < 1.0 / 16.0):
        raise SeriesError("need 0 < eps0 < r0^2 < 1/16")
    sch = Schedule(s=s)
    eps, r, zeta = eps0, r0, eps0 ** (1.0 / 3.0)
    for nu in range(max_nu + 1):
        r_next = r - r0 / 2.0 ** (nu + 2)
        r7 = r_next + (7.0 / 8.0) * (r - r_next)
        sch.eps.append(eps)
        sch.beta.append(eps ** (1.0 / (40.0 * s)))
        sch.beta_tilde.append(16.0 * eps ** (1.0 / (32.0 * s)))
        sch.beta_practical.append(min(eps ** (1.0 / (40.0 * s)), r * r / 8.0))
        sch.zeta.append(zeta)
        sch.r.append(r)
        sch.K.append(abs(np.log(eps)) / abs(np.log(r7 / r)))
        zeta = zeta + eps ** (1.0 / 3.0)
        eps = eps**1.25
        r = r_next
    sch.smallness = bound_entry(smallness_lhs(s, r0, eps0), 1.0)
    return sch


def smallness_lhs(s: int, r0: float, eps0: float) -> float:
    """Left side of the verbatim smallness inequality at (eps0, r0) with
    r1 = (3/4) r0:
    (|ln eps0| / |ln(7/8 + r1/(8 r0))| + 2) (16s+1)^(16s) eps0^(1/(2400 s^2))
    / ((r0 - r1) r1)."""
    r1 = r0 - r0 / 4.0
    return float(
        (abs(np.log(eps0)) / abs(np.log(7.0 / 8.0 + r1 / (8.0 * r0))) + 2.0)
        * (16 * s + 1) ** (16 * s)
        * eps0 ** (1.0 / (2400.0 * s * s))
        / ((r0 - r1) * r1)
    )
