"""End-to-end driver: preparation, iteration loop, curve extraction and the
command-line interface.

The pipeline is

    surface (or direct pair) -> diagonalize -> prenormalize -> radius search
      -> [case 2: one preliminary step] -> iterate main steps with resonance
      excision -> per-omega conjugacy extraction.

``iterate`` writes each number once: ``run_report.json`` holds every measured
quantity and bound, ``curves.csv`` the curve samples and ``hyperbolas.csv``
their surface images.  Reports are deterministic: identical configs produce
byte-identical JSON and CSV outputs (no clocks, no global RNG).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .involution import InvolutionPair, compose_sigma, skew_term
from .kamstep import StepGeometry, calibrate_delta, main_step, window_samples
from .moserwebster import (
    BishopSurface,
    DiagonalFrame,
    diagonalize,
    hyperbola_image,
    surface_from_config,
)
from .prenormal import (
    alpha_hypotheses,
    detect_nondegeneracy,
    practical_beta,
    prenormalize,
    radius_search,
)
from .series import CoeffSeries, CrownNormParams, CrownSeries, SeriesError
from .sieve import (
    IntervalSet,
    bound_entry,
    build_schedule,
    excise_resonances,
    measure_excluded,
    pyartli_bound,
    resonance_zone_bound,
)
from .transforms import chain_apply, chain_realness_defect

CONVERGENCE_FLOOR = 1e-13
# the curves' largest |omega| as a fraction of the final window r^2; below 1,
# so every pick lies inside the window that extract_curves requires
OMEGA_WINDOW = 0.9
N_CURVE_POINTS = 64
# the numeric RunConfig fields, each a JSON integer
INT_FIELDS = ("s_hint", "degree", "N", "max_nu", "omega_count")


class ConfigError(ValueError):
    """Malformed run configuration; carries a field-path diagnostic."""


def _require_object(value, name: str) -> None:
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: must be a JSON object, got {value!r}")


@dataclass
class RunConfig:
    surface: dict | None = None
    direct: dict | None = None
    s_hint: int = 1
    degree: int | None = None
    N: int | None = None
    max_nu: int = 3
    omega_count: int = 9
    out_dir: str = "out"

    def __post_init__(self):
        if self.surface is None and self.direct is None:
            raise ConfigError("surface|direct: exactly one input block is required")
        if self.surface is not None and self.direct is not None:
            raise ConfigError("surface|direct: give only one input block")
        for name in ("surface", "direct"):
            if getattr(self, name) is not None:
                _require_object(getattr(self, name), name)
        for name in INT_FIELDS:
            value = getattr(self, name)
            if value is None and name in ("degree", "N"):
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name}: must be an integer, got {value!r}")
        for name in ("s_hint", "N", "max_nu", "omega_count"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name}: must be positive, got {value!r}")
        if self.N is None:
            self.N = 16 * self.s_hint
        if self.degree is None:
            self.degree = 2 * (2 * self.N + 2)
        if self.degree < 2 * (2 * self.N + 2):
            raise ConfigError(
                f"degree: need degree >= 2(2N+2) = {2 * (2 * self.N + 2)}, got {self.degree}"
            )

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        _require_object(data, "config")
        known = {f for f in RunConfig.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"{sorted(unknown)[0]}: unknown configuration field")
        try:
            return RunConfig(**data)
        except TypeError as e:
            raise ConfigError(str(e)) from e


FIXTURES = {
    "linear": {
        "surface": {"gamma": 0.77, "degree": 12, "f_monomials": []},
        "s_hint": 1,
        "N": 2,
        "degree": 12,
        "max_nu": 2,
    },
    "cubic": {
        "surface": {
            "gamma": 0.77,
            "degree": 12,
            "f_monomials": [
                [3, 0, 0.08, 0.0],
                [2, 1, 0.05, 0.02],
                [4, 0, 0.03, 0.01],
            ],
        },
        "s_hint": 1,
        "N": 2,
        "degree": 12,
        "max_nu": 3,
    },
}


def pair_from_direct(cfg: dict, D: int) -> InvolutionPair:
    """Monomials are [m, n, re, im] meaning (re + i im) xi^m eta^n with
    m, n >= 0 and m + n <= D."""

    def series(key):
        c = np.zeros((D + 1, D + 1), dtype=np.complex128)
        for entry in cfg.get(key, []):
            m, n, re, im = entry
            m, n = int(m), int(n)
            if min(m, n) < 0 or m + n > D:
                raise ValueError(f"{key} entry {entry}: need m, n >= 0 and m + n <= {D}")
            c[m, n] = complex(re, im)
        return CrownSeries(c, D)

    try:
        alpha = CoeffSeries.from_json(cfg["alpha"]).project_real(1e-8)
        p, q = series("p_monomials"), series("q_monomials")
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise ConfigError(f"direct: {e}") from e
    return InvolutionPair(alpha, p, q, 1)


@dataclass
class KamState:
    pair: InvolutionPair
    O: IntervalSet
    r: float
    eps_schedule: object
    chain: list = field(default_factory=list)  # per-step [phi, theta] links
    prelim_chain: list = field(default_factory=list)  # diag/PD/scaling composite
    history: list = field(default_factory=list)
    eps_measured: list = field(default_factory=list)
    skew_measured: list = field(default_factory=list)
    sieve_rows: list = field(default_factory=list)
    status: str = "completed"
    sigma_o: object = None  # original composed map (component series pair)
    surface: BishopSurface | None = None
    frame: DiagonalFrame | None = None
    branch: str = "case1"
    lam0: float = 0.0


def prepare(config: RunConfig) -> tuple[KamState, dict]:
    """Build, normalize and branch; lands at the iteration's entry state."""
    D = config.degree
    record: dict = {}
    surface = frame = None
    if config.surface is not None:
        surface = surface_from_config(dict(config.surface, degree=D))
        frame, pair = diagonalize(surface)
        record["lambda"] = frame.lam
        lam0 = frame.lam
    else:
        pair = pair_from_direct(config.direct, D)
        lam0 = float(pair.alpha.coeffs[0].real)
        record["lambda"] = lam0

    sigma_o = compose_sigma(pair)
    alpha_tail = float(np.max(np.abs(pair.alpha.coeffs[1:]))) if pair.alpha.trunc_z else 0.0
    if config.direct is not None and alpha_tail > 1e-14:
        # a direct pair with a non-constant exponent is already in prepared
        # form: skip the normalization stage, keeping the twist order of its
        # exponent
        det = detect_nondegeneracy(pair.alpha)  # reads z^1 on: alpha(0) plays no part
        degenerate = det == "degenerate"
        prep = pair if degenerate else InvolutionPair(pair.alpha, pair.p, pair.q, det[0])
        chain_pre = []
        record["prenormalization"] = {"skipped": "direct input in prepared form",
                                      "s": det if degenerate else det[0]}
    else:
        prep, chain_pre, pre_report = prenormalize(pair, config.N)
        record["prenormalization"] = pre_report
        degenerate = pre_report.get("nondegeneracy") == "degenerate"
    # a vanishing twist only blocks the sieve when there is something to
    # sieve; the unperturbed pair runs through trivially
    if degenerate and max(prep.p.max_abs_coeff(), prep.q.max_abs_coeff()) > 1e-13:
        raise SeriesError("prepared exponent is degenerate: no z^s coefficient found")
    s = prep.s_order
    rs = radius_search(prep)
    record["radius_search"] = asdict(rs)

    lam_prep = float(prep.alpha.coeffs[0].real)
    if rs.branch == "case1":
        pair0, r0, eps0 = prep, rs.r_star, max(rs.eps0, 1e-16)
        O0 = IntervalSet.interval(-r0 * r0, r0 * r0)
        prelim_links = []
        record["preliminary_step"] = None
    else:
        r_star = rs.r_star
        beta = practical_beta(rs.A, s, r_star)
        O_full = IntervalSet.interval(-r_star * r_star, r_star * r_star)
        g0 = StepGeometry(r_star, 0.75 * r_star, beta, eps=rs.A, delta=1.0, s=s,
                          omega_samples=window_samples(O_full, r_star * r_star))
        delta = calibrate_delta(prep.alpha, D, g0, 100.0 * rs.A ** (1.0 / (60.0 * s)))
        O_delta = excise_resonances(O_full, prep.alpha, g0.K_cut(D), delta)
        g1 = replace(g0, omega_samples=window_samples(O_delta, r_star * r_star))
        geom = replace(g1, delta=calibrate_delta(prep.alpha, D, g1, delta))
        pair0, links, rep = main_step(prep, geom)
        record["preliminary_step"] = rep.to_dict()
        prelim_links = list(links)
        r0 = 0.75 * r_star
        eps0 = rs.A ** (49.0 / 50.0)
        O0 = O_delta.intersect(IntervalSet.interval(-r0 * r0, r0 * r0))

    schedule = build_schedule(s, r0, min(eps0, r0 * r0 * 0.99), config.max_nu + 1)
    record["schedule"] = schedule.to_dict()

    beta0 = practical_beta(eps0, s, r0)
    omegas = window_samples(O0, r0 * r0 - beta0)
    g = StepGeometry(r0, 0.75 * r0, beta0, eps=1.0, delta=1.0, omega_samples=omegas)
    eps_m = 10.0 * max(g.sup_norm(pair0.p, beta0, r0), g.sup_norm(pair0.q, beta0, r0))
    skew_m = g.sup_norm(skew_term(pair0), beta0, r0)
    state = KamState(
        pair=pair0, O=O0, r=r0, eps_schedule=schedule,
        prelim_chain=list(chain_pre) + prelim_links,
        eps_measured=[eps_m], skew_measured=[skew_m],
        sigma_o=sigma_o.components(), surface=surface, frame=frame,
        branch=rs.branch, lam0=lam_prep,
    )
    record["alpha_hypotheses"] = alpha_hypotheses(pair0.alpha, lam_prep, s, r0, r0 * r0 - beta0)
    # the entry hypotheses, against the eps0 the schedule was built from
    eps0_sched = schedule.eps[0]
    record["entry"] = {
        "eps": bound_entry(eps_m, eps0_sched),
        "skew": bound_entry(skew_m, eps0_sched**1.5 / 3.0),
    }
    return state, record


def iterate(state: KamState, config: RunConfig) -> KamState:
    """The loop: excise resonances, run a main step, record, repeat, until
    eps is below ``CONVERGENCE_FLOOR``.  A run whose final eps is below it is
    ``converged-to-truncation``, or ``converged-at-entry`` if no step ran."""
    D = state.pair.trunc_total
    s = state.pair.s_order
    sch = state.eps_schedule
    for nu in range(config.max_nu):
        r_nu = sch.r[nu]
        r_next = sch.r[nu + 1]
        beta_nu = practical_beta(state.eps_measured[-1], s, r_nu)
        eps_nu = max(state.eps_measured[-1], 1e-300)
        if eps_nu < CONVERGENCE_FLOOR:
            break
        g0 = StepGeometry(r_nu, r_next, beta_nu, eps=eps_nu, delta=1.0, s=s,
                          omega_samples=window_samples(state.O, r_nu * r_nu - beta_nu))
        K_cut = g0.K_cut(D)
        delta = calibrate_delta(state.pair.alpha, D, g0, eps_nu ** (1.0 / (64.0 * s)))

        window = IntervalSet.interval(-r_next * r_next, r_next * r_next)
        O_shrunk = state.O.intersect(window)
        O_next = excise_resonances(O_shrunk, state.pair.alpha, K_cut, delta)
        beta_next = practical_beta(eps_nu, s, r_next)
        mes = measure_excluded(
            O_shrunk, O_next,
            (-r_next * r_next + beta_next, r_next * r_next - beta_next),
            eps_nu=eps_nu, s=s,
        )
        state.sieve_rows.append(
            {
                "nu": nu,
                "surviving_measure": O_next.measure(),
                "excluded_measure": mes["measured"],
                "paper_bound_mes": mes["paper_bound_mes"],
                "paper_bound_pyartli": resonance_zone_bound(s, delta, K_cut),
                "bound_vacuous": mes["bound_vacuous"],
                "delta": delta,
                "K": K_cut,
            }
        )
        if not O_next:
            state.status = "empty-parameter-set"
            break

        try:
            # recalibrate delta on the surviving samples: the excision grid and
            # the step's working grid must see the same divisor floor
            g1 = replace(g0, omega_samples=window_samples(O_next, r_next**2 - beta_nu))
            delta = calibrate_delta(state.pair.alpha, D, g1, delta)
            pair_next, links, rep = main_step(state.pair, replace(g1, delta=delta))
        except SeriesError as e:
            state.status = f"step-failed: {e}"
            break

        state.pair = pair_next
        state.O = O_next
        state.r = r_next
        state.chain.append(links)
        state.history.append(rep.to_dict())
        state.eps_measured.append(rep.practical["eps_out"])
        state.skew_measured.append(rep.entries["skew_plus"]["measured"])
    if state.status == "completed" and state.eps_measured[-1] < CONVERGENCE_FLOOR:
        state.status = "converged-to-truncation" if state.chain else "converged-at-entry"
    return state


@dataclass
class CurveResult:
    omega: float
    mu_omega: float
    conjugacy_residual: float
    rho_equivariance_residual: float
    samples: list = field(default_factory=list)  # rows [re_xi, im_xi, re_x, im_x, re_y, im_y]

    def in_window(self, lam: float) -> bool:
        lo, hi = lam - np.pi / 4, lam + np.pi / 4
        return lo < self.mu_omega < hi


def full_chain(state: KamState) -> list:
    links = list(state.prelim_chain)
    for step_links in state.chain:
        links.extend(step_links)
    return links


def extract_curves(state: KamState, omegas, n_pts: int) -> list[CurveResult]:
    """Evaluate the conjugacy on {xi eta = omega} against the original map at
    every omega, with one chain pass and one sigma evaluation over all
    curves' points; raises on the first rejected omega."""
    R = state.r
    for omega in omegas:
        if omega not in state.O:
            raise SeriesError(f"omega = {omega} was excluded by the sieve")
        if n_pts < 1:
            raise SeriesError("need n_pts >= 1")
        if abs(omega) >= R * R:
            raise SeriesError("omega outside the final window")
    if len(omegas) == 0:
        return []
    mus = [float(state.pair.alpha.eval(omega).real) for omega in omegas]
    n_mod = max(2, int(np.ceil(n_pts / 8)))
    args = 2.0 * np.pi * np.arange(8) / 8.0
    # axes: point set (plain, rotated by e^{i mu}, conjugated), curve, point
    pts = []
    for omega, mu in zip(omegas, mus):
        mods = np.exp(np.linspace(np.log(abs(omega) / R * 1.05), np.log(R * 0.95), n_mod))
        x0 = (mods[:, None] * np.exp(1j * args)).ravel()[:max(n_pts, 8)]
        y0 = omega / x0
        rot = np.exp(1j * mu)
        pts.append([(x0, y0), (rot * x0, y0 / rot), (np.conj(x0), np.conj(y0))])
    x0s, y0s = np.array(pts).transpose(2, 1, 0, 3).copy()
    X, Y = chain_apply(full_chain(state), x0s, y0s)
    sigma1, sigma2 = state.sigma_o
    resid = np.maximum(np.max(np.abs(sigma1.eval(X[0], Y[0]) - X[1]), axis=1),
                       np.max(np.abs(sigma2.eval(X[0], Y[0]) - Y[1]), axis=1))
    rho_resid = np.maximum(np.max(np.abs(X[2] - np.conj(X[0])), axis=1),
                           np.max(np.abs(Y[2] - np.conj(Y[0])), axis=1))
    samples = np.stack([x0s[0].real, x0s[0].imag, X[0].real, X[0].imag, Y[0].real, Y[0].imag],
                       axis=-1)
    return [CurveResult(omega, mu, float(res), float(rho), rows.tolist())
            for omega, mu, res, rho, rows in zip(omegas, mus, resid, rho_resid, samples)]


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def write_json(path: str, data: dict) -> None:
    def default(obj):
        return obj.tolist() if isinstance(obj, (np.generic, np.ndarray)) else str(obj)

    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True, default=default)
        fh.write("\n")


def _write_csv(path: str, header: list, rows) -> None:
    """Rows streamed as comma-joined ``str`` cells, each followed by CRLF.

    The cells are the program's own numbers (floats, ints, bools) under
    constant header names, so none needs quoting, and ``str`` of a float is
    its shortest round trip: these are the bytes ``csv.writer`` gives.
    """
    with open(path, "w", newline="") as fh:
        for row in itertools.chain([header], rows):
            fh.write(",".join(map(str, row)) + "\r\n")


def write_curves_csv(out_dir: str, curves: list[CurveResult], hyperbolas: list[dict]) -> None:
    """``curves.csv``, one row per curve sample, and ``hyperbolas.csv``, the
    surface images of the hyperbolas, when there are any."""
    _write_csv(os.path.join(out_dir, "curves.csv"),
               ["omega", "re_xi", "im_xi", "re_x", "im_x", "re_y", "im_y"],
               ([c.omega] + row for c in curves for row in c.samples))
    if hyperbolas:
        cols = ["omega", "arg_index", "re_z1", "im_z1", "re_z2", "im_z2", "is_real_branch"]
        _write_csv(os.path.join(out_dir, "hyperbolas.csv"), cols,
                   [[h[k] for k in cols] for h in hyperbolas])


def select_omegas(state: KamState, count: int) -> tuple[list, list]:
    """Log-spaced |omega| of both signs inside the surviving set.

    Excluded samples are reported together with the resonance order whose
    divisor is smallest there (the order that excised them).
    """
    R2 = state.r**2
    mags = np.exp(np.linspace(np.log(1e-4 * R2), np.log(OMEGA_WINDOW * R2), count))
    n_top = max((row["K"] + 1 for row in state.sieve_rows), default=13)
    picked = []
    excluded = []
    for m in mags:
        for sgn in (1.0, -1.0):
            w = sgn * m
            if w in state.O:
                picked.append(float(w))
            else:
                a = float(state.pair.alpha.eval(w).real)
                divisors = [abs(np.exp(1j * n * a) - 1.0) for n in range(1, n_top + 1)]
                n_min = 1 + int(np.argmin(divisors))
                excluded.append(
                    {"omega": float(w), "resonance_order": n_min,
                     "divisor": float(min(divisors))}
                )
    return picked, excluded


def run_pipeline(config: RunConfig) -> tuple[KamState, dict, list]:
    state, record = prepare(config)
    state = iterate(state, config)
    record["status"] = state.status
    record["eps_measured"] = list(state.eps_measured)
    record["skew_measured"] = list(state.skew_measured)
    record["surviving_measure"] = state.O.measure()
    record["window_measure"] = 2 * state.r**2
    record["chain_realness_defect"] = chain_realness_defect(full_chain(state))
    record["steps"] = state.history
    record["sieve"] = state.sieve_rows
    record["psi_factorizations"] = {
        "prelim_links": [l.label for l in state.prelim_chain],
        "step_links": [[l.label for l in links] for links in state.chain],
    }
    picked, excluded = select_omegas(state, config.omega_count)
    curves = extract_curves(state, picked, N_CURVE_POINTS)
    record["curves"] = [
        {
            "omega": c.omega,
            "mu_omega": c.mu_omega,
            "conjugacy_residual": c.conjugacy_residual,
            "rho_residual": c.rho_equivariance_residual,
            "mu_in_window": c.in_window(state.lam0),
        }
        for c in curves
    ]
    record["excluded_omegas"] = excluded
    return state, record, curves


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def verify_suite(out_dir: str) -> dict:
    """The bundled invariant suite: linear fixture residuals, cubic fixture
    pipeline with contraction flags, sieve soundness spot checks."""
    report = {"checks": {}}

    def check(name, value, tol):
        report["checks"][name] = bound_entry(value, tol)

    lin_cfg = RunConfig.from_dict(dict(FIXTURES["linear"], out_dir=out_dir))
    state, record, curves = run_pipeline(lin_cfg)
    np_ = CrownNormParams(0.25 * state.r**2, state.r**2 / 16, state.r)
    check("linear_involution_residual", state.pair.involution_residual(np_), 1e-10)
    check("linear_eps", state.eps_measured[-1], 1e-10)
    if curves:
        check("linear_curve_residual", max(c.conjugacy_residual for c in curves), 1e-10)
        check("linear_rho_residual", max(c.rho_equivariance_residual for c in curves), 1e-10)
    report["linear"] = {"status": state.status, "eps": state.eps_measured}

    cub_cfg = RunConfig.from_dict(dict(FIXTURES["cubic"], out_dir=out_dir))
    state, record, curves = run_pipeline(cub_cfg)
    report["cubic"] = record
    ok_contr = all(
        rep["practical"]["contraction"]["pass"] for rep in state.history
    )
    report["checks"]["cubic_contraction_all_rounds"] = {"measured": ok_contr, "pass": ok_contr}
    if curves:
        check("cubic_curve_residual", max(c.conjugacy_residual for c in curves), 1e-7)
        check("cubic_rho_residual", max(c.rho_equivariance_residual for c in curves), 1e-9)
        mu_ok = all(c.in_window(state.lam0) for c in curves)
        report["checks"]["cubic_mu_in_window"] = {"measured": mu_ok, "pass": mu_ok}
    np_ = CrownNormParams(0.25 * state.r**2, state.r**2 / 16, state.r)
    check("cubic_involution_residual", state.pair.involution_residual(np_), 1e-9)

    check("pyartli_spot", abs(pyartli_bound(2, 2.0, 0.08) - 0.8), 1e-12)
    report["pass"] = all(
        entry.get("pass", True) for entry in report["checks"].values()
    )
    return report


# lists whose items compare_reports matches by a key, not by index
MATCH_KEYS = {"curves": "omega", "sieve": "nu"}


def compare_reports(a, b) -> list[str]:
    """How the JSON value b differs from a, one line per difference.

    Every bound entry (an object with a boolean ``pass``) whose flag flipped
    comes first, then the added, removed and changed keys in walk order,
    each changed number with its absolute and relative change.  ``curves``
    are matched by ``omega``, ``sieve`` rows by ``nu`` (when those are
    unique) and every other list by index.  An empty list means the two
    values are identical.
    """
    flipped: list[str] = []
    diffs: list[str] = []

    def children(x, y, path, name) -> list[dict]:
        """Per side, the path of each member -> (its name, its value)."""
        if isinstance(x, dict):
            return [{f"{path}.{k}" if path else k: (k, v) for k, v in d.items()} for d in (x, y)]
        key = MATCH_KEYS.get(name)
        if key and all(isinstance(v, dict) and key in v for v in x + y):
            labels = [[f"{path}[{key}={v[key]!r}]" for v in d] for d in (x, y)]
            if all(len(set(side)) == len(side) for side in labels):
                return [{p: ("", v) for p, v in zip(side, d)} for side, d in zip(labels, (x, y))]
        return [{f"{path}[{i}]": ("", v) for i, v in enumerate(d)} for d in (x, y)]

    def walk(x, y, path, name):
        if not (isinstance(x, dict) and isinstance(y, dict)
                or isinstance(x, list) and isinstance(y, list)):
            leaf(x, y, path)
            return
        cx, cy = children(x, y, path, name)
        flags = [d.get("pass") for d in (x, y)] if isinstance(x, dict) else []
        if flags and all(isinstance(f, bool) for f in flags) and flags[0] != flags[1]:
            flipped.append(f"flipped: {path or '<root>'}: pass {flags[0]} -> {flags[1]}")
            key = f"{path}.pass" if path else "pass"
            del cx[key], cy[key]
        for where in {**cx, **cy}:
            if where not in cx:
                diffs.append(f"added: {where}")
            elif where not in cy:
                diffs.append(f"removed: {where}")
            else:
                walk(cx[where][1], cy[where][1], where, cx[where][0])

    def leaf(x, y, path):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if numbers and x != y and not (x != x and y != y):
            change = abs(y - x)
            rel = change / abs(x) if x else float("inf")
            diffs.append(f"changed: {path}: {x!r} -> {y!r} (abs {change:.3g}, rel {rel:.3g})")
        elif not numbers and (type(x) is not type(y) or x != y):
            diffs.append(f"changed: {path}: {x!r} -> {y!r}")

    walk(a, b, "", "")
    return flipped + diffs


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _read_json_object(path: str, name: str) -> dict:
    """The JSON object in the file at path; a missing file, invalid JSON or a
    JSON value other than an object raises ConfigError under the given name."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as e:
        raise ConfigError(f"{name}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{name}: invalid JSON ({e})") from e
    _require_object(data, name)
    return data


def _report_path(path: str) -> str:
    """A JSON file as given, or the run_report.json of a directory."""
    return path if os.path.isfile(path) else os.path.join(path, "run_report.json")


def _load_config(args) -> RunConfig:
    if args.seed_fixture:
        if args.seed_fixture not in FIXTURES:
            raise ConfigError(
                f"seed-fixture: unknown fixture {args.seed_fixture!r}; "
                f"available: {sorted(FIXTURES)}"
            )
        data = dict(FIXTURES[args.seed_fixture])
    else:
        if not args.config:
            raise ConfigError("config: no --config path or --seed-fixture given")
        data = _read_json_object(args.config, "config")
    if args.degree is not None:
        data["degree"] = args.degree
    if args.out:
        data["out_dir"] = args.out
    return RunConfig.from_dict(data)


def run_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crownkam",
        description="Invariant-hyperbola engine for perturbed hyperbolic Bishop quadrics",
    )
    parser.add_argument("command", choices=[
        "build", "prenorm", "iterate", "verify", "report"
    ])
    parser.add_argument("--config", default=None)
    parser.add_argument("--degree", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed-fixture", default=None, dest="seed_fixture")
    parser.add_argument("--against", default=None,
                        help="report: list how the --out report differs from this one")
    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            path = _report_path(args.out or "out")
            record = _read_json_object(path, path)
            if args.against is not None:
                base = _report_path(args.against)
                lines = compare_reports(_read_json_object(base, base), record)
                print("\n".join(lines) if lines else f"{path} and {base} are identical")
                return 1 if lines else 0
            _print_summary(record, path)
            return 0
        if args.command == "verify":
            out_dir = args.out or "out"
            os.makedirs(out_dir, exist_ok=True)
            report = verify_suite(out_dir)
            path = os.path.join(out_dir, "run_report.json")
            write_json(path, report)
            _print_summary(report, path)
            return 0 if report["pass"] else 2
        config = _load_config(args)
    except (ConfigError, FileNotFoundError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 3

    os.makedirs(config.out_dir, exist_ok=True)
    try:
        if args.command == "build":
            if config.surface is None:
                raise ConfigError("surface: build needs a surface block")
            surface = surface_from_config(dict(config.surface, degree=config.degree))
            frame, pair = diagonalize(surface)
            np_ = CrownNormParams(0.001, 0.0002, 0.1)
            out = {
                "lambda": frame.lam,
                "pair": pair.to_json(),
                "involution_residual": pair.involution_residual(np_),
            }
            write_json(os.path.join(config.out_dir, "pair.json"), out)
            print(f"lambda = {frame.lam:.12g}, residual = {out['involution_residual']:.3e}")
            return 0 if out["involution_residual"] < 1e-9 else 2
        if args.command == "prenorm":
            state, record = prepare(config)
            write_json(os.path.join(config.out_dir, "prenorm_report.json"), record)
            print(f"branch = {state.branch}, eps0 = {state.eps_measured[0]:.3e}")
            return 0
        if args.command == "iterate":
            state, record, curves = run_pipeline(config)
            path = os.path.join(config.out_dir, "run_report.json")
            write_json(path, record)
            hyperbolas = []
            if state.surface is not None:
                hyperbolas = hyperbola_image(full_chain(state), [c.omega for c in curves[:4]],
                                             state.r, 5, state.surface, state.frame)
            write_curves_csv(config.out_dir, curves, hyperbolas)
            _print_summary(record, path)
            failed = state.status.startswith("step-failed") or state.status == "empty-parameter-set"
            return 2 if failed else 0
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 3
    except SeriesError as e:
        print(f"structural failure: {e}", file=sys.stderr)
        return 2
    return 3


def _print_summary(record: dict, path: str) -> None:
    """Print a ``verify`` report (it has ``checks``) or a run report (it has
    ``status``); any other object raises ConfigError naming the file."""
    if "checks" in record:
        print("verify:", "PASS" if record.get("pass") else "FAIL")
        for name, entry in record["checks"].items():
            print(f"  {name}: {'pass' if entry['pass'] else 'FAIL'}")
        return
    if "status" not in record:
        raise ConfigError(f"{path}: neither a run report (status) nor a verify report (checks)")
    print("status:", record["status"])
    eps = record.get("eps_measured", [])
    if eps:
        print("eps:", " -> ".join(f"{e:.3e}" for e in eps))
    for c in record.get("curves", []):
        print(
            f"  omega={c['omega']:+.5e}  mu={c['mu_omega']:.8f}  "
            f"residual={c['conjugacy_residual']:.2e}  rho={c['rho_residual']:.2e}"
        )


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
