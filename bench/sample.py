"""One sample of one workload, in a fresh interpreter.

    python3 bench/sample.py --workload cubic-d12 --seed 0 --mode plain \
        --work-dir .bench_out/cubic-d12-s0-0 --result .bench_out/cubic-d12-s0-0.json

``--mode setup`` stops once the inputs are built; ``plain`` runs the
workload with only the phase spans; ``traced`` wraps every layer boundary
and writes ``trace.json`` into the work directory.  The result file holds
the set-up clock, timings, checks and peak memory; run_bench.py reads it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crownkam", "__init__.py")):
        print(f"sample: no crownkam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np

    import crownkam  # noqa: F401  (import time is part of set-up)
    import tracer
    import workloads

    os.makedirs(args.work_dir, exist_ok=True)
    inputs = workloads.build_inputs(args.workload, args.seed, args.work_dir)
    result = {"ready_monotonic": time.monotonic(), "numpy": np.__version__}
    if args.mode == "setup":
        return _write(args.result, result)

    run_id = f"{args.workload}-seed{args.seed}-{os.path.basename(args.work_dir)}"
    cubic = args.workload != "series-sweep"
    only = None if args.mode == "traced" else (tracer.PHASES if cubic else ())
    out_dir = os.path.join(args.work_dir, "out")
    with tracer.Tracer(run_id, only=only, keep=("runner.iterate",)) as tr:
        t0 = time.perf_counter()
        if cubic:
            outputs = workloads.run_cubic(inputs, out_dir)
        else:
            outputs = workloads.run_sweep(inputs)
        run_s = time.perf_counter() - t0
    result["run_s"] = run_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if cubic:
        state = tr.results.get("runner.iterate")
        checks, quality = workloads.check_cubic(out_dir, state, outputs)
    else:
        checks, quality = workloads.check_sweep(inputs, outputs)
        result["kernel_ms"] = {
            f"{k}.d{D}": v for D, o in outputs.items() for k, v in o["ms"].items()
        }
    result["checks"] = checks
    result["quality"] = quality
    trace_path = os.path.join(args.work_dir, "trace.json")
    tr.write(trace_path)
    result["trace"] = trace_path
    return _write(args.result, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
