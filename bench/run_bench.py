"""The crownkam benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run_bench.py --workload cubic-d12 --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout.  Each sample of the workload runs in
a fresh interpreter (bench/sample.py) with BLAS threads pinned to 1, so its
set-up time and peak memory belong to that workload alone.  The run first
times a few set-up-only starts, then runs samples until the next one would
overrun ``--seconds`` (at least one; with ``--trace 1`` at least one plain
and one traced sample, alternating).

Every line but the last is a human-readable report: environment, samples,
every end-to-end metric as median, tail percentile and sample count, the
pipeline phases and quality figures and, with ``--trace 1``, every
per-layer metric.  The last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of BENCHMARK.json with ``--trace 1``.
The full record, trace files and run reports stay in
``.bench_out/<workload>-seed<seed>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# BLAS pinned to one thread; a fixed hash seed so set and dict layouts repeat
SAMPLE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0


def last_line_metrics() -> tuple[dict, dict]:
    """(end to end, per layer) name -> unit, as BENCHMARK.json declares them:
    the metrics on the last output line with --trace 0 and --trace 1."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in contract[key]}
                 for key in ("end_to_end", "per_layer"))


def unit_of(name: str) -> str:
    """Unit of a reported metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".iters"):
        return "passes/call"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def summary(values: list) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    out = {"median": statistics.median(vals), "n": len(vals)}
    if len(vals) >= 11:
        k = len(vals) - 11
        out["tail_pct"] = 100.0 * (k + 1) / len(vals)
        out["tail"] = vals[k]
    return out


def fmt(name: str, s: dict, unit: str) -> str:
    tail = (f"p{s['tail_pct']:.0f} {s['tail']:.6g}" if "tail" in s
            else "tail n/a (<11 samples)")
    return f"  {name:<44} median {s['median']:.6g} {unit:<11} {tail}  n={s['n']}"


def environment() -> dict:
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "sample_env": SAMPLE_ENV,
        "platform": platform.platform(),
    }


class Run:
    """The samples of one benchmark run and what they measured."""

    def __init__(self, workload: str, seed: int, out_dir: str, started: float):
        self.workload, self.seed, self.out_dir = workload, seed, out_dir
        self.started = started
        self.env = dict(os.environ, **SAMPLE_ENV)
        self.setup: list = []
        self.samples: list = []  # (mode, result or None, wall seconds)
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def spawn(self, mode: str, index: int):
        """One sample process; returns (result or None, wall seconds, error or None)."""
        tag = f"{mode}-{index}"
        work = os.path.join(self.out_dir, tag)
        res_path = os.path.join(self.out_dir, f"{tag}.json")
        cmd = [sys.executable, os.path.join(HERE, "sample.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--work-dir", work,
               "--result", res_path]
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            return None, time.monotonic() - t0, f"{tag}: timed out"
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            return None, wall, f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        with open(res_path) as fh:
            result = json.load(fh)
        self.setup.append(result["ready_monotonic"] - t0)
        return result, wall, None

    def fail(self, why: str) -> None:
        self.failed += 1
        self.failures.append(why)

    def probe_setup(self) -> None:
        for i in range(SETUP_PROBES):
            result, _, err = self.spawn("setup", i)
            if err:
                self.attempted += 1
                self.fail(err)

    def sample(self, mode: str) -> None:
        self.attempted += 1
        result, wall, err = self.spawn(mode, len(self.samples))
        if err:
            self.fail(err)
        else:
            bad = [k for k, c in result["checks"].items() if not c["pass"]]
            first = next((r for _, r, _ in self.samples if r is not None), None)
            if first and first["quality"]["output_sha256"] != result["quality"]["output_sha256"]:
                bad.append("output differs from the first sample (plain or traced)")
            if bad:
                self.fail(f"{mode}-{len(self.samples)}: failed checks {bad}")
            result["failed_checks"] = bad
        self.samples.append((mode, result, wall))

    def results(self, mode: str) -> list:
        return [r for m, r, _ in self.samples if m == mode and r is not None]


def measure(args) -> Run:
    started = time.monotonic()
    out_dir = os.path.join(ROOT, ".bench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    run = Run(args.workload, args.seed, out_dir, started)
    deadline = started + args.seconds
    run.probe_setup()
    modes = ("plain", "traced") if args.trace else ("plain",)
    while True:
        run.sample(modes[len(run.samples) % len(modes)])
        longest = max(w for _, _, w in run.samples)
        if len(run.samples) >= len(modes) and time.monotonic() + longest > deadline:
            break
        if time.monotonic() - started + longest > RUN_LIMIT_S - 10:
            break
    return run


def traced_layers(run: Run) -> dict:
    """Per-layer metrics: times are medians over traced samples, counts must agree."""
    per_sample = []
    for r in run.results("traced"):
        per_sample.append(layers.layer_metrics(layers.load(r["trace"]),
                                               r["quality"].get("write_bytes", 0)))
    if not per_sample:
        return {}
    out = {}
    for name in per_sample[0]:
        vals = [m[name] for m in per_sample]
        if unit_of(name) in ("s", "ms"):
            out[name] = statistics.median(vals)
        else:
            if len(set(vals)) > 1:
                run.fail(f"count {name} differs between traced samples: {vals}")
            out[name] = vals[0]
    plain = [r["run_s"] for r in run.results("plain")]
    if plain:
        traced = [r["run_s"] for r in run.results("traced")]
        out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return out


def kernel_medians(run: Run) -> dict:
    """series-sweep's per-call kernel times, pooled over the untraced samples."""
    pooled: dict = {}
    for r in run.results("plain"):
        for k, v in r["kernel_ms"].items():
            pooled.setdefault(f"series.{k}_ms", []).extend(v)
    return {k: summary(v) for k, v in sorted(pooled.items())}


def report(args, run: Run) -> dict:
    end_to_end, per_layer_units = last_line_metrics()
    plain = run.results("plain")
    cubic = args.workload != "series-sweep"
    env = environment()
    if plain:
        env["numpy"] = plain[0]["numpy"]
    e2e = {
        "run_s": summary([r["run_s"] for r in plain]) if plain else None,
        "setup_s": summary(run.setup) if run.setup else None,
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain]) if plain else None,
    }
    extra = {}
    if cubic and plain:
        phases = [layers.phase_metrics(layers.load(r["trace"]), r["quality"]["steps"])
                  for r in plain]
        for k in ("prepare_s", "iterate_s", "curves_s", "step_s"):
            extra[k] = summary([p[k] for p in phases])
        for k in ("eps_final", "conjugacy_residual_max", "steps"):
            extra[k] = summary([r["quality"][k] for r in plain])
    kernels = kernel_medians(run) if args.trace and not cubic else {}
    per_layer = traced_layers(run) if args.trace else {}
    per_layer.update({k: s["median"] for k, s in kernels.items()})
    extra["error_rate"] = {"median": run.failed / max(run.attempted, 1), "n": run.attempted}

    print(f"crownkam benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for mode, r, wall in run.samples:
        state = "FAILED" if r is None or r.get("failed_checks") else "ok"
        run_s = f"{r['run_s']:.4f} s" if r else "-"
        print(f"  sample {mode:<6} run {run_s:>12}  wall {wall:.3f} s  {state}")
    if plain and cubic:
        print(f"  status: {plain[0]['quality']['status']}")
    for why in run.failures:
        print(f"  failure: {why}")
    print("end-to-end (untraced samples):")
    for k, s in e2e.items():
        if s:
            print(fmt(k, s, end_to_end[k]))
    for k, s in extra.items():
        unit = "s" if k.endswith("_s") else ("count" if k == "steps" else "1")
        print(fmt(k, s, unit))
    if kernels:
        print("series kernels, per call (untraced samples):")
        for k, s in kernels.items():
            print(fmt(k, s, "ms"))
    if args.trace:
        print("per layer (traced samples; times are medians, counts exact):")
        for k in sorted(per_layer):
            print(f"  {k:<44} {per_layer[k]:.6g} {unit_of(k)}")

    correct = run.failed == 0 and bool(run.samples)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": correct,
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
        "end_to_end": e2e, "phases_and_quality": extra, "per_layer": per_layer,
        "checks": [r.get("checks") for _, r, _ in run.samples if r],
    }
    with open(os.path.join(run.out_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    if args.trace:
        metrics = {k: {"value": per_layer.get(k, 0), "unit": u}
                   for k, u in per_layer_units.items()}
    else:
        metrics = {k: {"value": e2e[k]["median"] if e2e[k] else 0.0, "unit": u}
                   for k, u in end_to_end.items()}
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "crownkam", "__init__.py")):
        print(f"run_bench: no crownkam sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    run = measure(args)
    if not any(r is not None for _, r, _ in run.samples):
        print("run_bench: no sample completed:\n  " + "\n  ".join(run.failures),
              file=sys.stderr)
        return 1
    print(json.dumps(report(args, run)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
