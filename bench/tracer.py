"""Spans and counts at crownkam's layer boundaries, recorded from outside.

A ``Tracer`` wraps the public functions of the crownkam modules (and a few
methods named in ``METHODS``) and rebinds each wrapped name in every
``crownkam`` namespace that holds it, so calls made through ``from .x import
f`` are seen too.  Nothing under ``src/`` changes: the originals are put back
when the tracer exits.

A span is ``(name, start_ns, end_ns, parent, error, n)``: ``parent`` is the
index of the enclosing span (-1 at the top), ``error`` is 1 when the call
raised, and ``n`` is a per-call count (points evaluated, links applied,
links built) for the names in ``MEASURES``.  Spans stay in memory and are
written once, by ``write``, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

MODULES = (
    "series", "involution", "moserwebster", "prenormal",
    "kamstep", "sieve", "transforms", "runner",
)

# Methods that carry layer work; module-level public functions are all traced.
METHODS = (
    ("series", "CrownSeries", "eval"),
    ("series", "CrownSeries", "substitute"),
    ("series", "CrownSeries", "crown_norm"),
    ("kamstep", "StepGeometry", "sup_norm"),
)

# Methods that are counted but get no span (too many calls to time each).
COUNTED = {("series", "CrownSeries", "__init__"): "series.CrownSeries.constructed"}

# Per-call counts stored on the span: f(args, result) -> int.
MEASURES = {
    "series.CrownSeries.eval": lambda a, r: int(np.broadcast(a[1], a[2]).size),
    "transforms.chain_apply": lambda a, r: len(a[0]),
    "prenormal.poincare_dulac": lambda a, r: len(r[1]),
}

# The end-to-end phases of a pipeline run; the untraced run spans only these.
PHASES = (
    "runner.prepare", "runner.iterate", "runner.select_omegas",
    "runner.extract_curve", "runner.smoothness_diagnostic",
    "moserwebster.hyperbola_image",
)


def _targets():
    """(owner, attribute, span name) for every traceable function."""
    out = []
    for mod_name in MODULES:
        mod = importlib.import_module(f"crownkam.{mod_name}")
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == mod.__name__):
                out.append((mod, attr, f"{mod_name}.{attr}"))
    for mod_name, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module(f"crownkam.{mod_name}"), cls_name)
        out.append((cls, attr, f"{mod_name}.{cls_name}.{attr}"))
    return out


class Tracer:
    """Context manager that records spans while crownkam runs.

    ``only`` restricts tracing to a set of span names (the untraced run uses
    ``PHASES``); ``keep`` names spans whose latest return value is kept in
    ``results`` for the caller's correctness checks.
    """

    def __init__(self, run_id: str, only=None, keep=()):
        self.run_id = run_id
        self.only = None if only is None else set(only)
        self.keep = set(keep)
        self.spans: list = []
        self.counters: dict = {}
        self.results: dict = {}
        self._stack: list = []
        self._saved: list = []

    def _span_wrapper(self, fn, name):
        spans, stack, results = self.spans, self._stack, self.results
        clock = time.perf_counter_ns
        measure = MEASURES.get(name)
        keep = name in self.keep

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, t0, clock(), parent, 1, 0)
                raise
            finally:
                stack.pop()
            spans[sid] = (name, t0, clock(), parent, 0,
                          measure(args, result) if measure else 0)
            if keep:
                results[name] = result
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counters = self.counters
        counters[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "crownkam" or mod_name.startswith("crownkam.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def __enter__(self):
        for owner, attr, name in _targets():
            if self.only is not None and name not in self.only:
                continue
            original = vars(owner)[attr]
            wrapper = self._span_wrapper(original, name)
            if inspect.isclass(owner):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._rebind(original, wrapper)
        if self.only is None:
            for (mod_name, cls_name, attr), name in COUNTED.items():
                cls = getattr(importlib.import_module(f"crownkam.{mod_name}"), cls_name)
                self._saved.append((cls, attr, vars(cls)[attr]))
                setattr(cls, attr, self._count_wrapper(vars(cls)[attr], name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def write(self, path: str) -> None:
        """Write the spans and counters as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "clock": "perf_counter_ns",
                    "fields": ["name", "start_ns", "end_ns", "parent", "error", "n"],
                    "spans": self.spans,
                    "counters": self.counters,
                },
                fh,
                separators=(",", ":"),
            )
