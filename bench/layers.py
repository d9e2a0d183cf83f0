"""Per-layer metrics derived from a trace file written by tracer.Tracer.

``total_s`` is inclusive time, counting only the outermost span of a name so
that nested calls are not counted twice.  ``<module>.self_s`` is the time
spent in the module's spans minus the time covered by their child spans in
other modules: the sum over the module's spans of duration minus direct
children.
"""

from __future__ import annotations

import json
from collections import defaultdict

NS = 1e-9

# metric prefix -> span name (the prefix is what the report calls the layer)
CALLS = {
    "series.multiply": "series.multiply",
    "series.substitute": "series.CrownSeries.substitute",
    "series.invert_near_identity": "series.invert_near_identity",
    "series.eval": "series.CrownSeries.eval",
    "series.crown_norm": "series.CrownSeries.crown_norm",
    "transforms.chain_apply": "transforms.chain_apply",
    "kamstep.main_step": "kamstep.main_step",
    "runner.extract_curve": "runner.extract_curve",
}
TOTALS = {
    **CALLS,
    "moserwebster.diagonalize": "moserwebster.diagonalize",
    "moserwebster.invert_map": "moserwebster.invert_map",
    "moserwebster.hyperbola_image": "moserwebster.hyperbola_image",
    "prenormal.poincare_dulac": "prenormal.poincare_dulac",
    "prenormal.radius_search": "prenormal.radius_search",
    "kamstep.truncate_K": "kamstep.truncate_K",
    "involution.compose_sigma": "involution.compose_sigma",
    "kamstep.solve_cohomological": "kamstep.solve_cohomological",
    "kamstep.cohomological_residuals": "kamstep.cohomological_residuals",
    "kamstep.conjugate_step": "kamstep.conjugate_step",
    "kamstep.crown_escape_margin": "kamstep.crown_escape_margin",
    "kamstep.theta_scaling": "kamstep.theta_scaling",
    "kamstep.sup_norm": "kamstep.StepGeometry.sup_norm",
    "kamstep.divisor_minimum": "kamstep.divisor_minimum",
    "sieve.excise_resonances": "sieve.excise_resonances",
    "sieve.measure_excluded": "sieve.measure_excluded",
    "runner.prepare": "runner.prepare",
    "runner.iterate": "runner.iterate",
}
# report writers of `crownkam iterate`, summed as runner.write
WRITERS = (
    "runner.write_json", "runner.write_steps_csv", "runner.write_sieve_csv",
    "runner.write_curves_csv", "moserwebster.write_hyperbola_csv",
)
SELF = ("series", "involution", "moserwebster", "prenormal",
        "kamstep", "sieve", "transforms", "runner")
# inverter -> {child span: passes it stands for}; one pass is one map
# composition, i.e. one substitute_pair or two component substitutions
ITERS = {
    "series.invert_near_identity": {"series.substitute_pair": 1.0,
                                    "series.CrownSeries.substitute": 0.5},
    "moserwebster.invert_map": {"series.substitute_pair": 1.0},
}
# span-carried counts: metric -> span name
SPAN_N = {
    "series.eval.points": "series.CrownSeries.eval",
    "transforms.chain_apply.links_applied": "transforms.chain_apply",
    "prenormal.poincare_dulac.links": "prenormal.poincare_dulac",
}


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def span_stats(trace: dict) -> dict:
    """name -> calls, outermost inclusive ns, errors, n; plus module self ns."""
    spans = trace["spans"]
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    covered = [0] * len(spans)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += dur[i]
    stats: dict = defaultdict(lambda: {"calls": 0, "total_ns": 0, "errors": 0, "n": 0,
                                       "passes": 0.0})
    self_ns: dict = defaultdict(int)
    for i, (name, _, _, parent, err, n) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["errors"] += err
        st["n"] += n
        self_ns[name.split(".", 1)[0]] += dur[i] - covered[i]
        p = parent
        while p >= 0 and names[p] != name:
            p = parents[p]
        if p < 0:
            st["total_ns"] += dur[i]
        if parent >= 0 and names[parent] in ITERS:
            stats[names[parent]]["passes"] += ITERS[names[parent]].get(name, 0.0)
    return {"spans": dict(stats), "self_ns": dict(self_ns)}


def phase_metrics(trace: dict, steps: int) -> dict:
    """The pipeline phases: prepare, iterate, curves, and iterate per step."""
    st = span_stats(trace)["spans"]

    def total(name):
        return st.get(name, {}).get("total_ns", 0) * NS

    curves = sum(total(n) for n in (
        "runner.select_omegas", "runner.extract_curve",
        "runner.smoothness_diagnostic", "moserwebster.hyperbola_image"))
    iterate = total("runner.iterate")
    return {
        "prepare_s": total("runner.prepare"),
        "iterate_s": iterate,
        "curves_s": curves,
        "step_s": iterate / steps if steps else 0.0,
    }


def layer_metrics(trace: dict, write_bytes: int) -> dict:
    """Every per-layer metric of one traced run, by name."""
    agg = span_stats(trace)
    st, self_ns = agg["spans"], agg["self_ns"]
    empty = {"calls": 0, "total_ns": 0, "errors": 0, "n": 0, "passes": 0.0}
    out = {}
    for prefix, name in CALLS.items():
        out[f"{prefix}.calls"] = st.get(name, empty)["calls"]
    for prefix, name in TOTALS.items():
        out[f"{prefix}.total_s"] = st.get(name, empty)["total_ns"] * NS
    for prefix in ITERS:
        s = st.get(prefix, empty)
        out[f"{prefix}.iters"] = s["passes"] / s["calls"] if s["calls"] else 0.0
    for metric, name in SPAN_N.items():
        out[metric] = st.get(name, empty)["n"]
    out["kamstep.main_step.failures"] = st.get("kamstep.main_step", empty)["errors"]
    out["series.CrownSeries.constructed"] = trace["counters"].get(
        "series.CrownSeries.constructed", 0)
    out["runner.write.total_s"] = sum(st.get(n, empty)["total_ns"] for n in WRITERS) * NS
    out["runner.write.bytes"] = write_bytes
    for mod in SELF:
        out[f"{mod}.self_s"] = self_ns.get(mod, 0) * NS
    return out
