"""Tests for the end-to-end driver, curve extraction and the CLI."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from crownkam import kamstep, runner
from crownkam.kamstep import main_step
from crownkam.runner import (
    FIXTURES,
    ConfigError,
    _write_csv,
    CurveResult,
    RunConfig,
    compare_reports,
    extract_curves,
    full_chain,
    pair_from_direct,
    prepare,
    run_cli,
    run_pipeline,
)
from crownkam.series import SeriesError
from crownkam.sieve import resonance_zone_bound
from crownkam.transforms import chain_apply

from composition_helpers import STEP_STAGES, count_compositions, count_stage_runs
from test_series_oracle import EPS


@pytest.fixture(scope="module")
def cubic_run():
    cfg = RunConfig.from_dict(dict(FIXTURES["cubic"]))
    return run_pipeline(cfg)


@pytest.fixture(scope="module")
def linear_run():
    cfg = RunConfig.from_dict(dict(FIXTURES["linear"]))
    return run_pipeline(cfg)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_requires_one_input():
    with pytest.raises(ConfigError, match="surface|direct"):
        RunConfig.from_dict({})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"surface": {}, "direct": {}})


def test_config_unknown_field_diagnostic():
    with pytest.raises(ConfigError, match="gamma_typo"):
        RunConfig.from_dict({"surface": {"gamma": 0.8}, "gamma_typo": 1})


def test_config_degree_floor():
    with pytest.raises(ConfigError, match="degree"):
        RunConfig.from_dict({"surface": {"gamma": 0.8}, "N": 4, "degree": 10})


def test_config_defaults_follow_N():
    cfg = RunConfig.from_dict({"surface": {"gamma": 0.8}, "s_hint": 1})
    assert cfg.N == 16
    assert cfg.degree == 2 * (2 * 16 + 2)


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def test_prepare_linear_case1(linear_run):
    state, record, curves = linear_run
    assert record["radius_search"]["branch"] == "case1"
    assert state.eps_measured[0] <= 1e-10
    assert record["alpha_hypotheses"]["alpha_minus_lambda"]["measured"] < 0.25


def test_prepare_cubic_nondegenerate(cubic_run):
    state, record, curves = cubic_run
    nd = record["prenormalization"]["nondegeneracy"]
    assert nd["s"] == 1
    assert abs(nd["c_s"]) > 1e-6
    assert record["entry"]["skew"]["pass"] or state.branch == "case1"


def test_entry_eps_is_bounded_by_the_schedule_eps0(monkeypatch):
    # the bound was max(eps0, eps measured), so the hypothesis could never
    # fail; with eps0 ten times smaller than the radius search found, it must
    search = runner.radius_search

    def small_eps0(prepared):
        rs = search(prepared)
        return dataclasses.replace(rs, eps0=rs.eps0 / 10)

    monkeypatch.setattr(runner, "radius_search", small_eps0)
    state, record = prepare(RunConfig.from_dict(dict(FIXTURES["cubic"])))
    assert record["entry"]["eps"]["bound"] == record["schedule"]["eps"][0]
    assert not record["entry"]["eps"]["pass"]


def test_radius_search_and_entry_measure_one_skew(cubic_run):
    # case 1 enters at r_* and the search's beta, so both measurements read
    # the same pair on the same omega samples
    state, record, curves = cubic_run
    assert record["radius_search"]["branch"] == "case1"
    assert record["radius_search"]["skew"]["measured"] == record["entry"]["skew"]["measured"]


def test_direct_input_prepared_form():
    # a direct (alpha, p, q) spec with non-constant exponent skips the
    # normalization stage and runs the loop directly
    lam = 2 * np.arccos(1 / (2 * 0.77))
    cfg = RunConfig.from_dict(
        {
            "direct": {
                "alpha": [[lam, 0.0], [1.0, 0.0]],
                # involution partner: q_24 = -e^{i lam/2} p_42
                "p_monomials": [[4, 2, 2e-4, 0.0]],
                "q_monomials": [[2, 4, -2e-4 * np.cos(lam / 2), -2e-4 * np.sin(lam / 2)]],
            },
            "s_hint": 1,
            "N": 2,
            "degree": 12,
            "max_nu": 2,
        }
    )
    state, record, curves = run_pipeline(cfg)
    assert record["prenormalization"] == {"skipped": "direct input in prepared form", "s": 1}
    assert state.eps_measured[-1] < state.eps_measured[0]
    assert record["status"] in ("completed", "converged-to-truncation")


def twisted_direct_config(alpha):
    lam = 2 * np.arccos(1 / (2 * 0.77))
    return RunConfig.from_dict({
        "direct": {
            "alpha": [[lam, 0.0]] + alpha,
            "p_monomials": [[4, 2, 2e-4, 0.0]],
            "q_monomials": [[2, 4, -2e-4 * np.cos(lam / 2), -2e-4 * np.sin(lam / 2)]],
        },
        "N": 2,
        "degree": 12,
        "max_nu": 2,
    })


def test_direct_input_runs_at_the_twist_order_of_its_exponent():
    # alpha = lam + z^2 is prepared form with s = 2; the twist order used to be 1
    state, record = prepare(twisted_direct_config([[0.0, 0.0], [1.0, 0.0]]))
    assert record["prenormalization"]["s"] == 2
    assert state.pair.s_order == 2


def test_direct_input_refuses_a_degenerate_exponent_with_a_perturbation():
    # the z coefficient sits below the degeneracy tolerance: no twist to sieve with
    with pytest.raises(SeriesError, match="degenerate"):
        prepare(twisted_direct_config([[1e-13, 0.0]]))


@pytest.mark.parametrize("mono", [[-1, 0, 1e-4, 0.0], [7, 6, 1e-4, 0.0], [13, 0, 1e-4, 0.0]])
def test_direct_rejects_monomials_outside_the_degree(mono):
    # a negative index used to wrap to xi^D and m + n > D was dropped silently
    cfg = {"alpha": [[1.7, 0.0], [1.0, 0.0]], "p_monomials": [mono]}
    with pytest.raises(ConfigError, match=r"p_monomials entry \[.*m \+ n <= 12"):
        pair_from_direct(cfg, 12)


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------


def case2_direct_config() -> dict:
    # a single high-order monomial pair has no skew cancellation, so the
    # radius search lands in Case 2 and prepare runs one preliminary step
    lam = 2 * np.arccos(1 / (2 * 0.77))
    c = 5e-3
    q = -c * np.exp(0.5j * lam * 5)  # involution partner of p = c xi^6
    return {
        "direct": {
            "alpha": [[lam, 0.0], [1.0, 0.0]],
            "p_monomials": [[6, 0, c, 0.0]],
            "q_monomials": [[0, 6, q.real, q.imag]],
        },
        "s_hint": 1,
        "N": 2,
        "degree": 12,
        "max_nu": 2,
    }


def test_case2_preliminary_step_branch():
    state, record, curves = run_pipeline(RunConfig.from_dict(case2_direct_config()))
    assert record["radius_search"]["branch"] == "case2"
    assert record["preliminary_step"] is not None
    assert record["entry"]["skew"]["pass"]
    assert state.eps_measured[-1] <= state.eps_measured[0]
    assert record["psi_factorizations"]["prelim_links"][-2:] == [
        "cohomological", "theta-scaling",
    ]


def step_json(out):
    t_plus, _, rep = out
    return json.dumps([t_plus.to_json(), rep.to_dict()], sort_keys=True)


@pytest.mark.parametrize("config, branch", [
    (FIXTURES["cubic"], "case1"), (case2_direct_config(), "case2"),
], ids=["cubic", "case2-direct"])
def test_the_step_after_the_radius_search_takes_the_trial_algebra(monkeypatch, config, branch):
    # case 1: iterate's first step; case 2: the preliminary step.  Either
    # starts from the trial's pair at its K, runs no stage of the algebra
    # and reports what the same step computed afresh reports
    runs = count_stage_runs(monkeypatch)
    first = []

    def checked_step(t, geom):
        if first:
            return main_step(t, geom)
        before = len(runs)
        out = main_step(t, geom)
        first.append((t, runs[before:], [name for name, x in runs if x is t]))
        kamstep._once.cache_clear()
        assert step_json(out) == step_json(main_step(t, geom))
        return out

    monkeypatch.setattr(runner, "main_step", checked_step)
    state, record, _ = run_pipeline(RunConfig.from_dict(dict(config)))
    assert record["radius_search"]["branch"] == branch
    (t, in_step, on_pair), = first
    assert in_step == []
    # the trial ran sigma, the solve and the conjugation on the pair once
    assert on_pair == list(STEP_STAGES[:3])


def test_cubic_run_composes_31_times(monkeypatch):
    # one composition count per run pins the trial's algebra being taken by
    # the first step, not run again (7 more when it was), and the deck's
    # critical point taking 1 composition, where a fixed-point loop took 12
    calls = count_compositions(monkeypatch)
    run_pipeline(RunConfig.from_dict(dict(FIXTURES["cubic"])))
    assert len(calls) == 31


def test_linear_start_exits_immediately(linear_run):
    state, record, curves = linear_run
    assert state.chain == []
    assert state.status == "converged-at-entry"


def test_cubic_d24_runs_until_eps_is_below_the_floor():
    # skew falls below the floor after step 2 while eps is ~3e-10; the
    # loop stops on eps alone, so a third step runs
    state, record, curves = run_pipeline(RunConfig.from_dict(dict(FIXTURES["cubic"], degree=24)))
    assert len(state.chain) == 3
    assert state.eps_measured[-2] > runner.CONVERGENCE_FLOOR > state.eps_measured[-1]
    assert state.status == "converged-to-truncation"
    assert max(c["conjugacy_residual"] for c in record["curves"]) <= 1e-14


def test_cubic_three_rounds_superlinear(cubic_run):
    state, record, curves = cubic_run
    eps = record["eps_measured"]
    assert len(eps) >= 3
    for a, b in zip(eps, eps[1:]):
        assert b < a
    logs = np.log(eps)
    ratios = logs[1:] / logs[:-1]
    assert all(r >= 1.1 for r in ratios)
    assert all(b > a for a, b in zip(ratios, ratios[1:])) or len(ratios) <= 1


def test_cubic_surviving_measure(cubic_run):
    state, record, curves = cubic_run
    excluded = sum(row["excluded_measure"] for row in state.sieve_rows)
    ratio = record["surviving_measure"] / record["window_measure"]
    assert ratio >= 1.0 - excluded / record["window_measure"] - 1e-12
    assert ratio > 0.5


def test_cubic_skew_relation_each_round(cubic_run):
    state, record, curves = cubic_run
    for nu, rep in enumerate(state.history):
        eps_next = state.eps_measured[nu + 1]
        skew_next = state.skew_measured[nu + 1]
        if eps_next > 1e-14:
            assert skew_next < max(eps_next, 1e-300) ** 1.4 * 10 or skew_next < 1e-14


def test_chain_commutes_with_rho(cubic_run):
    state, record, curves = cubic_run
    assert record["chain_realness_defect"] < 1e-9


def test_chain_cauchy_decrease(cubic_run):
    # the per-round conjugating maps shrink geometrically on passing runs
    state, record, curves = cubic_run
    u_norms = [rep["entries"]["u_norm"]["measured"] + rep["entries"]["v_norm"]["measured"]
               for rep in state.history]
    theta_devs = [rep["entries"]["theta_pow1_dev"]["measured"] for rep in state.history]
    sizes = [u + th for u, th in zip(u_norms, theta_devs)]
    for a, b in zip(sizes, sizes[1:]):
        assert b <= 0.5 * a or b < 1e-12


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def test_extract_curve_linear(linear_run):
    state, record, curves = linear_run
    [c] = extract_curves(state, [0.2 * state.r**2], 16)
    assert c.conjugacy_residual < 1e-10
    assert c.mu_omega == pytest.approx(state.lam0, abs=1e-10)


def test_extract_curve_rejects_excluded(cubic_run):
    state, record, curves = cubic_run
    gaps = record["excluded_omegas"]
    for gap in gaps:
        assert gap["resonance_order"] >= 1
        with pytest.raises(SeriesError):
            extract_curves(state, [gap["omega"]], 8)
    with pytest.raises(SeriesError):
        extract_curves(state, [state.r**2 * 5], 8)


def assert_same_curves(got, want, tol):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.omega, g.mu_omega) == (w.omega, w.mu_omega)
        assert abs(g.conjugacy_residual - w.conjugacy_residual) <= tol
        assert abs(g.rho_equivariance_residual - w.rho_equivariance_residual) <= tol
        assert np.all(np.abs(np.array(g.samples) - np.array(w.samples)) <= tol)


def curve_slack(state) -> float:
    """Twice the evaluation slack 4(D+1) eps of each chain link and of sigma
    at points and values of modulus below 1: the room two evaluations of
    one curve have when the BLAS sums their columns in different orders."""
    D = state.sigma_o[0].trunc_total
    return 8 * (D + 1) * EPS * (len(full_chain(state)) + 1)


def lone_curve(state, omega, n_pts):
    """One curve with its own three chain passes and sigma evaluation."""
    R = state.r
    mu = float(state.pair.alpha.eval(omega).real)
    links = full_chain(state)
    n_mod = max(2, int(np.ceil(n_pts / 8)))
    mods = np.exp(np.linspace(np.log(abs(omega) / R * 1.05), np.log(R * 0.95), n_mod))
    x0 = (mods[:, None] * np.exp(1j * 2.0 * np.pi * np.arange(8) / 8.0)).ravel()[:max(n_pts, 8)]
    y0 = omega / x0
    rot = np.exp(1j * mu)
    X, Y = chain_apply(links, x0, y0)
    Xr, Yr = chain_apply(links, rot * x0, y0 / rot)
    Xc, Yc = chain_apply(links, np.conj(x0), np.conj(y0))
    sigma1, sigma2 = state.sigma_o
    resid = float(max(np.max(np.abs(sigma1.eval(X, Y) - Xr)),
                      np.max(np.abs(sigma2.eval(X, Y) - Yr))))
    rho = float(max(np.max(np.abs(Xc - np.conj(X))), np.max(np.abs(Yc - np.conj(Y)))))
    samples = np.column_stack([x0.real, x0.imag, X.real, X.imag, Y.real, Y.imag]).tolist()
    return CurveResult(omega, mu, resid, rho, samples)


@pytest.mark.parametrize("run", ["linear_run", "cubic_run"])
def test_extract_curves_matches_one_curve_at_a_time(run, request):
    # one chain pass over every curve gives each curve's values within the
    # evaluation slack; omega and mu keep their bits
    state, record, curves = request.getfixturevalue(run)
    omegas = [c.omega for c in curves]
    tol = curve_slack(state)
    for n_pts in (8, 20):
        got = extract_curves(state, omegas, n_pts)
        assert max(abs(v) for c in got for v in np.ravel(c.samples)) < 1.0
        assert_same_curves(got, [extract_curves(state, [w], n_pts)[0] for w in omegas], tol)
        assert_same_curves(got, [lone_curve(state, w, n_pts) for w in omegas], tol)
    assert extract_curves(state, [], 8) == []
    with pytest.raises(SeriesError, match="final window"):
        extract_curves(state, omegas + [state.r**2], 8)


def test_cubic_curves_conjugacy(cubic_run):
    state, record, curves = cubic_run
    good = [c for c in curves if c.conjugacy_residual <= 1e-7]
    assert len(good) >= 5
    for c in curves:
        assert c.rho_equivariance_residual <= 1e-9
        assert c.in_window(state.lam0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"surface": {"gamma": 0.8}, "mode": "florp"}')
    code = run_cli(["iterate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3


@pytest.mark.parametrize("name, value", [
    ("mode", "rigorous"), ("boundary_samples", 64), ("omega_window", 0.9),
    ("n_curve_points", 64), ("convergence_floor", 1e-13),
])
def test_cli_rejects_removed_fields(tmp_path, capsys, name, value):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(dict(FIXTURES["linear"], **{name: value})))
    assert run_cli(["iterate", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 3
    assert f"configuration error: {name}: unknown configuration field" in capsys.readouterr().err


def test_cli_has_no_mode_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["iterate", "--seed-fixture", "linear", "--mode", "rigorous",
                 "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


def test_cli_has_no_max_nu_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["iterate", "--seed-fixture", "cubic", "--max-nu", "3",
                 "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-nu" in capsys.readouterr().err


def test_cli_missing_config(tmp_path, capsys):
    code = run_cli(["iterate", "--out", str(tmp_path / "o")])
    assert code == 3
    assert "config: no --config path or --seed-fixture given" in capsys.readouterr().err


def test_cli_unknown_fixture(tmp_path):
    code = run_cli(["iterate", "--seed-fixture", "nope", "--out", str(tmp_path / "o")])
    assert code == 3


def test_cli_build(tmp_path):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(dict(FIXTURES["cubic"])))
    code = run_cli(["build", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert code == 0
    data = json.loads((tmp_path / "o" / "pair.json").read_text())
    assert data["involution_residual"] < 1e-9


def test_cli_env_config(tmp_path, monkeypatch, capsys):
    # the configuration comes from --config or --seed-fixture only, never
    # from the environment
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(dict(FIXTURES["cubic"])))
    monkeypatch.setenv("KAM_CONFIG", str(cfgp))
    code = run_cli(["prenorm", "--out", str(tmp_path / "o")])
    assert code == 3
    assert "config: no --config path or --seed-fixture given" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_iterate_outputs(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["iterate", "--seed-fixture", "cubic", "--out", str(out)]) == 0
    # each number is written once: the report, the curve samples, the surface images
    assert sorted(p.name for p in out.iterdir()) == [
        "curves.csv", "hyperbolas.csv", "run_report.json"]
    hyp = (out / "hyperbolas.csv").read_text().splitlines()
    assert hyp[0] == "omega,arg_index,re_z1,im_z1,re_z2,im_z2,is_real_branch"
    text = (out / "run_report.json").read_text()
    report = json.loads(text)
    eps = report["eps_measured"]
    assert len(eps) == 3  # one per recorded nu
    assert all(b < a for a, b in zip(eps, eps[1:]))
    # each sieve row carries the Pyartli bound at its own delta and K
    s = report["prenormalization"]["nondegeneracy"]["s"]
    assert len(report["sieve"]) >= 1
    for row in report["sieve"]:
        assert row["paper_bound_pyartli"] == resonance_zone_bound(s, row["delta"], row["K"])
    assert "chain_tail" not in report
    # one curves.csv row per sample; the omega cells read back as the report's omegas
    samples = _csv_rows(out / "curves.csv")
    assert len(report["curves"]) >= 2
    assert len(samples) == 64 * len(report["curves"])
    assert [float(r["omega"]) for r in samples[::64]] == [c["omega"] for c in report["curves"]]
    assert "smoothness" not in report
    # the report subcommand reads the run report back
    assert run_cli(["report", "--out", str(out)]) == 0


def test_cli_report_prints_a_verify_report(tmp_path, capsys):
    # report reads verify's output through the printer verify itself uses
    assert run_cli(["verify", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert run_cli(["report", "--out", str(tmp_path)]) == 0
    reprinted = capsys.readouterr().out.splitlines()
    assert printed[0] == reprinted[0] == "verify: PASS"
    assert len(printed) > 1 and sorted(printed) == sorted(reprinted)


def test_cli_report_against_lists_what_moved_between_degrees(tmp_path, capsys):
    # cubic at D = 12 against D = 24: the alpha_diff_k* flags that flip come
    # first, then the curve set (matched by omega) and eps[2] among the changes
    runs = {}
    for D in (12, 24):
        out = tmp_path / f"d{D}"
        assert run_cli(["iterate", "--seed-fixture", "cubic", "--degree", str(D),
                        "--out", str(out)]) == 0
        runs[D] = json.loads((out / "run_report.json").read_text())
    capsys.readouterr()
    d12, d24 = (str(tmp_path / f"d{D}") for D in (12, 24))
    assert run_cli(["report", "--out", d12, "--against", d12]) == 0
    assert "are identical" in capsys.readouterr().out
    assert compare_reports(runs[12], runs[12]) == []
    assert run_cli(["report", "--out", d12, "--against", d24]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == compare_reports(runs[24], runs[12])
    flips = [f"flipped: steps[{i}].entries.alpha_diff_k{k}: pass False -> True"
             for i in (0, 1) for k in (10, 11, 12, 7, 8, 9)]
    assert lines[: len(flips)] == flips
    assert not any(line.startswith("flipped") for line in lines[len(flips):])
    omegas = {D: {c["omega"] for c in run["curves"]} for D, run in runs.items()}
    assert omegas[12].isdisjoint(omegas[24])
    assert {line for line in lines if line.startswith(("added: curves", "removed: curves"))} == (
        {f"removed: curves[omega={w!r}]" for w in omegas[24]}
        | {f"added: curves[omega={w!r}]" for w in omegas[12]})
    e24, e12 = runs[24]["eps_measured"][2], runs[12]["eps_measured"][2]
    assert e12 < 1e-13 < e24
    assert (f"changed: eps_measured[2]: {e24!r} -> {e12!r} "
            f"(abs {e24 - e12:.3g}, rel {(e24 - e12) / e24:.3g})") in lines
    assert "removed: eps_measured[3]" in lines and "removed: steps[2]" in lines


def test_compare_reports_walks_any_two_json_values():
    # a flipped bound entry first; lists matched by key where one is named;
    # NaN equals NaN and 1 equals 1.0, while 0 and True differ
    a = {"status": "x", "n": 1, "v": float("nan"), "gone": 1, "k": [0, 0],
         "curves": [{"omega": 0.1, "r": 1.0}, {"omega": 0.2, "r": 2.0}],
         "sieve": [{"nu": 0, "K": 3}], "e": {"measured": 1.0, "bound": 2.0, "pass": True}}
    b = {"status": "y", "n": 1.0, "v": float("nan"), "new": [1], "k": [0, True],
         "curves": [{"omega": 0.2, "r": 2.5}],
         "sieve": [{"nu": 1, "K": 4}, {"nu": 0, "K": 3}],
         "e": {"measured": 3.0, "bound": 2.0, "pass": False}}
    assert compare_reports(a, b) == [
        "flipped: e: pass True -> False",
        "changed: status: 'x' -> 'y'",
        "removed: gone",
        "changed: k[1]: 0 -> True",
        "removed: curves[omega=0.1]",
        "changed: curves[omega=0.2].r: 2.0 -> 2.5 (abs 0.5, rel 0.25)",
        "added: sieve[nu=1]",
        "changed: e.measured: 1.0 -> 3.0 (abs 2, rel 2)",
        "added: new",
    ]
    # a repeated omega falls back to matching by index
    assert compare_reports({"curves": [{"omega": 0.1}] * 2}, {"curves": [{"omega": 0.1}]}) == [
        "removed: curves[1]"]


@pytest.mark.parametrize("command, config", [
    ("iterate", FIXTURES["cubic"]),
    ("iterate", case2_direct_config()),
    ("iterate", dataclasses.asdict(twisted_direct_config([[0.0, 0.0], [1.0, 0.0]]))),
    ("verify", None),
], ids=["cubic", "case2-direct", "twist2-direct", "verify"])
def test_every_bound_check_in_a_report_has_one_shape(tmp_path, command, config):
    # each measured-versus-bound pair is {"measured", "bound", "pass"} with
    # pass == (measured <= bound), and no key spells a check its own way
    argv = [command, "--out", str(tmp_path)]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "config.json")]
    assert run_cli(argv) == 0
    entries, keys = [], []

    def walk(node):
        if isinstance(node, dict):
            if "bound" in node:
                entries.append(node)
            keys.extend(node)
            node = list(node.values())
        if isinstance(node, list):
            for child in node:
                walk(child)

    walk(json.loads((tmp_path / "run_report.json").read_text()))
    assert entries
    for entry in entries:
        assert sorted(entry) == ["bound", "measured", "pass"]
        assert entry["pass"] == (entry["measured"] <= entry["bound"])
    assert [k for k in keys if k.endswith(("_sup", "_bound", "_pass"))] == []


@pytest.mark.parametrize("text, message", [
    ('{"status": ', "invalid JSON"), ("[1, 2]", "must be a JSON object"),
    ('{"eps_measured": [0.1]}', "neither a run report (status) nor a verify report (checks)"),
], ids=["truncated", "not-an-object", "no-report"])
def test_cli_report_on_a_malformed_run_report(tmp_path, capsys, text, message):
    (tmp_path / "run_report.json").write_text(text)
    assert run_cli(["report", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"configuration error: {tmp_path / 'run_report.json'}: " in err
    assert message in err


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def csv_module_bytes(path, header, rows):
    """The bytes the csv module writes for the same cells: floats as repr,
    everything else as the module's own rule."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    return path.read_bytes()


FLOAT_CELLS = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300, -1e-300,
               0.1, 1e16, 1e-5, 123456.789, np.float64(-0.0), np.float64(5e-324), np.float64(1e300),
               np.float64(0.1), np.float64("nan")]


def test_csv_writer_bytes_match_the_csv_module(tmp_path):
    header = ["nu", "value", "flag", "note", "empty"]
    rows = [[i, v, i % 2 == 0, "text", ""] for i, v in enumerate(FLOAT_CELLS)]
    rows += [[3, 7, True, False, ""], [np.int64(4), np.bool_(True), np.float64(2.5), "", "x"],
             ["", "", "", "", ""], [1.5], [], ["a", ""], [0, -1, 2**70, "None", "n a n"]]
    _write_csv(str(tmp_path / "ours.csv"), header, rows)
    want = csv_module_bytes(tmp_path / "csv.csv", header, rows)
    assert (tmp_path / "ours.csv").read_bytes() == want


def test_csv_writer_streams_rows_from_a_generator(tmp_path):
    rows = ([i, float(i) / 3] for i in range(5))
    _write_csv(str(tmp_path / "ours.csv"), ["i", "x"], rows)
    want = csv_module_bytes(tmp_path / "csv.csv", ["i", "x"], [[i, float(i) / 3] for i in range(5)])
    assert (tmp_path / "ours.csv").read_bytes() == want


@pytest.mark.parametrize(
    "text, code, message",
    [
        ("null", 3, "config: must be a JSON object"),
        ("[1, 2]", 3, "config: must be a JSON object"),
        ('{"surface": 5, "N": 2, "degree": 12}', 3, "surface: must be a JSON object"),
        ('{"direct": [1], "N": 2, "degree": 12}', 3, "direct: must be a JSON object"),
        ('{"surface": {"f_monomials": []}, "N": 2, "degree": 12}', 2, "gamma: must be a number"),
        ('{"surface": {"gamma": "abc"}, "N": 2, "degree": 12}', 2, "gamma: must be a number"),
        ('{"surface": {"gamma": 0.77, "f_monomials": [[3, 0, 0.08]]}, "N": 2, "degree": 12}',
         2, "f_monomials entry [3, 0, 0.08]"),
        ('{"surface": {"gamma": 0.77, "f_monomials": 5}, "N": 2, "degree": 12}',
         2, "f_monomials: must be a list"),
        ('{"direct": {"alpha": [[1.7, 0.0], [1.0, 0.0]], "p_monomials": 5}, "N": 2, "degree": 12}',
         3, "configuration error: direct:"),
    ],
    ids=["top-null", "top-list", "surface-int", "direct-list", "no-gamma", "gamma-str",
         "monomial-of-three", "monomials-not-a-list", "direct-monomials-not-a-list"],
)
def test_cli_malformed_config_blocks(tmp_path, capsys, text, code, message):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(text)
    assert run_cli(["iterate", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"N": 2.5, "degree": 14}, "N: must be an integer, got 2.5"),
        ({"max_nu": "3"}, "max_nu: must be an integer, got '3'"),
        ({"degree": 12.0}, "degree: must be an integer, got 12.0"),
        ({"s_hint": True}, "s_hint: must be an integer, got True"),
        ({"omega_count": 9.0}, "omega_count: must be an integer, got 9.0"),
        ({"N": -1, "degree": None}, "N: must be positive, got -1"),
        ({"N": 0, "degree": None}, "N: must be positive, got 0"),
        ({"s_hint": 0, "N": None, "degree": None}, "s_hint: must be positive, got 0"),
    ],
    ids=["N-float", "max_nu-str", "degree-float", "s_hint-bool", "omega_count-float",
         "N-negative", "N-zero", "s_hint-zero"],
)
def test_cli_rejects_mistyped_numeric_fields(tmp_path, capsys, fields, message):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(dict({"surface": {"gamma": 0.77}, "N": 2, "degree": 12}, **fields)))
    assert run_cli(["iterate", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 3
    assert f"configuration error: {message}" in capsys.readouterr().err


def test_cli_config_error_in_preparation(tmp_path, capsys):
    # pair_from_direct raises inside prepare, after the config has loaded
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"direct": {"p_monomials": []}, "N": 2, "degree": 12}))
    code = run_cli(["iterate", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "configuration error: direct:" in capsys.readouterr().err


def test_cli_monomial_index_errors(tmp_path, capsys):
    direct = {"alpha": [[1.7, 0.0], [1.0, 0.0]], "p_monomials": [[-1, 0, 1e-4, 0.0]]}
    surface = {"gamma": 0.77, "degree": 12, "f_monomials": [[13, 0, 1e-6, 0.0]]}
    for block, expected in (({"direct": direct}, 3), ({"surface": surface}, 2)):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(dict(block, N=2, degree=12)))
        code = run_cli(["iterate", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert code == expected
        assert "monomials entry [" in capsys.readouterr().err


def test_cli_build_uses_the_run_degree(tmp_path):
    # the surface is built at the run degree, not at its own block's degree
    cfg = dict(FIXTURES["cubic"], degree=14)
    cfg["surface"] = dict(cfg["surface"],
                          f_monomials=cfg["surface"]["f_monomials"] + [[13, 0, 1e-6, 0.0]])
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    code = run_cli(["build", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert code == 0
    data = json.loads((tmp_path / "o" / "pair.json").read_text())
    assert data["involution_residual"] < 1e-9
