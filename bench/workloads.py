"""Workload inputs, runs and correctness checks; runs inside a sample process.

Every input is made from the workload seed.  The ``cubic-*`` workloads hand
the program a generated configuration file and run ``crownkam iterate`` on
it through ``run_cli``; ``series-sweep`` calls the series kernels directly.
Checks run after the timed region and outside the tracer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time

import numpy as np

EPS = float(np.finfo(float).eps)

# The bundled ``cubic`` fixture of crownkam.runner.FIXTURES, copied so that
# the benchmark's inputs do not change when the program's fixtures do.
CUBIC_FIXTURE = {
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
}

CUBIC_WORKLOADS = {
    "cubic-d12": {},
    "cubic-d24": {"degree": 24, "N": 5, "omega_count": 2},
}
WORKLOADS = tuple(CUBIC_WORKLOADS) + ("series-sweep",)

# crownkam.runner.verify_suite tolerances for the cubic fixture.
CONJUGACY_TOL = 1e-7
RHO_TOL = 1e-9
INVOLUTION_TOL = 1e-9
# crownkam.series.INVERSE_TOL: the near-identity inverter's stopping step.
INVERSE_TOL = 1e-14

SWEEP_DEGREES = (12, 24, 36)
SWEEP_POINTS = 64
# Calls per pass of the cheap kernels, so their per-call median is steady.
SWEEP_REPEATS = {"multiply": 10, "crown_norm": 5, "eval_batch64": 10}


def cubic_config(workload: str, seed: int) -> dict:
    """The fixture at the workload's settings.  Seed 0 is the fixture exactly;
    another seed scales the whole perturbation by one factor in [0.95, 1.05]."""
    cfg = json.loads(json.dumps(CUBIC_FIXTURE))
    cfg.update(CUBIC_WORKLOADS[workload])
    if seed != 0:
        s = float(np.random.default_rng(seed).uniform(0.95, 1.05))
        for mono in cfg["surface"]["f_monomials"]:
            mono[2] *= s
            mono[3] *= s
    return cfg


def _random_series(rng, D: int, scale: float, min_order: int):
    """Coefficients scale * N(0,1)_C * 2^-(m+n) on min_order <= m+n <= D."""
    m, n = np.indices((D + 1, D + 1))
    c = (rng.standard_normal((D + 1, D + 1)) + 1j * rng.standard_normal((D + 1, D + 1)))
    c *= scale * np.sqrt(0.5) * 2.0 ** -(m + n).astype(float)
    c[(m + n > D) | (m + n < min_order)] = 0.0
    return c


def sweep_inputs(seed: int) -> dict:
    """Per degree: two series, a near-identity map, 64 points, a crown."""
    from crownkam.series import CrownNormParams, CrownSeries

    rng = np.random.default_rng(seed)
    out = {}
    for D in SWEEP_DEGREES:
        mods = rng.uniform(0.05, 0.5, (2, SWEEP_POINTS))
        args = rng.uniform(0.0, 2.0 * np.pi, (2, SWEEP_POINTS))
        pts = mods * np.exp(1j * args)
        out[D] = {
            "f": CrownSeries(_random_series(rng, D, 1.0, 0), D),
            "g": CrownSeries(_random_series(rng, D, 1.0, 0), D),
            "U": (CrownSeries(_random_series(rng, D, 1e-2, 2), D),
                  CrownSeries(_random_series(rng, D, 1e-2, 2), D)),
            "xs": pts[0],
            "ys": pts[1],
            "norm": CrownNormParams(float(rng.uniform(-0.1, 0.1)), 0.05, 0.5, 64),
        }
    return out


def build_inputs(workload: str, seed: int, work_dir: str):
    """What the program is given; building it is part of set-up."""
    from crownkam.runner import RunConfig

    if workload == "series-sweep":
        return sweep_inputs(seed)
    cfg = cubic_config(workload, seed)
    RunConfig.from_dict(cfg)  # the configuration the CLI will construct
    path = os.path.join(work_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# cubic-*: the `crownkam iterate` path
# ---------------------------------------------------------------------------


def run_cubic(config_path: str, out_dir: str) -> int:
    """`crownkam iterate --config ... --out ...`; returns its exit code."""
    from crownkam.runner import run_cli

    with contextlib.redirect_stdout(io.StringIO()):
        return run_cli(["iterate", "--config", config_path, "--out", out_dir])


def _check(checks: dict, name: str, value, limit) -> None:
    ok = bool(value) if limit is None else bool(value <= limit)
    checks[name] = {"value": value, "limit": limit, "pass": ok}


def check_cubic(out_dir: str, state, exit_code: int) -> tuple[dict, dict]:
    """The verify_suite checks on one run; returns (checks, quality)."""
    from crownkam.series import CrownNormParams

    with open(os.path.join(out_dir, "run_report.json"), "rb") as fh:
        raw = fh.read()
    report = json.loads(raw)
    checks: dict = {}
    status = report.get("status", "")
    _check(checks, "exit_code_zero", exit_code == 0, None)
    _check(checks, "status_ok",
           not (status.startswith("step-failed") or status == "empty-parameter-set"), None)
    _check(checks, "contraction_all_rounds",
           all(s["practical"]["contraction"]["pass"] for s in report.get("steps", [])), None)
    curves = report.get("curves", [])
    _check(checks, "curves_extracted", len(curves) > 0, None)
    conj = max((c["conjugacy_residual"] for c in curves), default=float("inf"))
    rho = max((c["rho_residual"] for c in curves), default=float("inf"))
    _check(checks, "conjugacy_residual", conj, CONJUGACY_TOL)
    _check(checks, "rho_residual", rho, RHO_TOL)
    inv = float("inf")
    if state is not None:
        np_ = CrownNormParams(0.25 * state.r**2, state.r**2 / 16, state.r)
        inv = float(state.pair.involution_residual(np_))
    _check(checks, "involution_residual", inv, INVOLUTION_TOL)
    written = sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out_dir) for f in files
    )
    quality = {
        "status": status,
        "steps": len(report.get("steps", [])),
        "eps_final": report["eps_measured"][-1] if report.get("eps_measured") else None,
        "conjugacy_residual_max": conj,
        "write_bytes": written,
        "output_sha256": hashlib.sha256(raw).hexdigest(),
    }
    return checks, quality


# ---------------------------------------------------------------------------
# series-sweep: the kernels without the pipeline
# ---------------------------------------------------------------------------


def _timed(fn, reps: int = 1):
    """(last result, per-call milliseconds of each repetition)."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return out, times


def run_sweep(inputs: dict) -> dict:
    """One pass over the degrees; returns outputs and per-call times."""
    from crownkam.series import identity_pair, invert_near_identity, multiply, substitute_pair

    out = {}
    for D, x in inputs.items():
        f, g, U, xs, ys = x["f"], x["g"], x["U"], x["xs"], x["ys"]
        xi, eta = identity_pair(D)
        G = (xi + U[0], eta + U[1])
        ms = {}
        prod, ms["multiply"] = _timed(lambda: multiply(f, g), SWEEP_REPEATS["multiply"])
        _, ms["substitute"] = _timed(lambda: f.substitute(G[0], G[1]))
        _, ms["substitute_pair"] = _timed(lambda: substitute_pair((f, g), G))
        V, ms["invert_near_identity"] = _timed(lambda: invert_near_identity(U))
        norm, ms["crown_norm"] = _timed(lambda: f.crown_norm(x["norm"]),
                                        SWEEP_REPEATS["crown_norm"])
        batch, ms["eval_batch64"] = _timed(lambda: f.eval(xs, ys), SWEEP_REPEATS["eval_batch64"])
        scalar, ms["eval_scalar64"] = _timed(
            lambda: np.array([f.eval(complex(a), complex(b)) for a, b in zip(xs, ys)]))
        out[D] = {"product": prod, "V": V, "norm": norm, "batch": batch,
                  "scalar": scalar, "ms": ms}
    return out


def reference_product(a: np.ndarray, b: np.ndarray, D: int) -> np.ndarray:
    """Truncated product by the direct quadruple loop over coefficient pairs."""
    A, B = a.tolist(), b.tolist()
    out = [[0j] * (D + 1) for _ in range(D + 1)]
    for m in range(D + 1):
        for n in range(D + 1 - m):
            c = A[m][n]
            if c == 0:
                continue
            for p in range(D + 1 - m - n):
                row, Bp = out[m + p], B[p]
                for q in range(D + 1 - m - n - p):
                    row[n + q] += c * Bp[q]
    return np.array(out)


def _horner_scale(c: np.ndarray, xs, ys) -> np.ndarray:
    """sum |a_mn| |x|^m |y|^n, the size that Horner's rounding error scales with."""
    k = np.arange(c.shape[0])
    px = np.abs(xs)[:, None] ** k
    py = np.abs(ys)[:, None] ** k
    return np.einsum("pm,mn,pn->p", px, np.abs(c), py)


def check_sweep(inputs: dict, outputs: dict) -> tuple[dict, dict]:
    from crownkam.series import identity_pair, substitute_pair

    checks: dict = {}
    digest = hashlib.sha256()
    for D, x in inputs.items():
        o = outputs[D]
        f, g, U = x["f"], x["g"], x["U"]
        # rounding of one product coefficient: at most (D+1)^2 terms summed
        ref = reference_product(f.coeffs, g.coeffs, D)
        scale = reference_product(np.abs(f.coeffs), np.abs(g.coeffs), D).real
        excess = np.abs(o["product"].coeffs - ref) - 2.0 * (D + 1) ** 2 * EPS * scale
        _check(checks, f"multiply_matches_loop_d{D}", float(excess.max()), 0.0)

        xi, eta = identity_pair(D)
        V = o["V"]
        W = substitute_pair((xi + U[0], eta + U[1]), (xi + V[0], eta + V[1]))
        resid = max(float(np.max(np.abs((W[0] - xi).coeffs))),
                    float(np.max(np.abs((W[1] - eta).coeffs))))
        _check(checks, f"inverse_residual_d{D}", resid, INVERSE_TOL)

        tol = 4.0 * (D + 1) * EPS * _horner_scale(f.coeffs, x["xs"], x["ys"])
        excess = np.abs(o["batch"] - o["scalar"]) - tol
        _check(checks, f"eval_batch_matches_scalar_d{D}", float(excess.max()), 0.0)
        _check(checks, f"crown_norm_finite_d{D}", bool(np.isfinite(o["norm"])), None)
        for arr in (o["product"].coeffs, V[0].coeffs, V[1].coeffs, o["batch"], o["scalar"]):
            digest.update(np.ascontiguousarray(arr).tobytes())
    quality = {"output_sha256": digest.hexdigest()}
    return checks, quality
