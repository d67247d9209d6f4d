"""Per-layer tracing from outside the package.

The tracer replaces supcon's public functions, in the module namespaces
where their callers look them up, with timing wrappers.  Nothing inside
``src/`` changes: a call made through ``supcon.cli`` or a module global
(``classify_report`` calling ``check_level_convex``, ``fem1d`` calling its
own binding of ``lower_hull_1d``) goes through the wrapper.

Every wrapped call is timed and its duration is charged to the enclosing
wrapped call, so each name gets a self time.  Calls of a *span* target are
kept as individual spans (id, parent, name, start, end, self time).  Calls of
a *leaf* target, the functions called thousands of times, are folded into
one counter per (parent span, name) instead.  Both are written out as JSON
lines when the run ends.

Wrappers are inert until ``active`` is set, so the benchmark's own oracle
checks, which call the same functions, stay out of the counts.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np


def _batch(arr) -> int:
    shape = getattr(arr, "shape", None)
    if shape is None:
        shape = np.shape(arr)
    return math.prod(shape[:-2])


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _verdict_counts(args, result) -> tuple:
    return result.budget, int(result.violated)


VERDICT = (("samples", "violated"), _verdict_counts)


@dataclass
class Target:
    """A traced function: metric prefix, the (module, attribute) bindings
    callers look it up through, and the counts taken from each call."""

    prefix: str
    bindings: tuple
    suffixes: tuple = ("calls", "s")
    leaf: bool = False
    counts: tuple = ((), None)  # (count names, fn(args, result) -> values)


TARGETS = [
    Target("cli.main", (("cli", "main"),)),
    Target("funcspace.eval", (("funcspace.CorpusEntry", "__call__"),),
           ("calls", "points", "s"), True, (("points",), lambda a, r: (_batch(a[1]),))),
    Target("funcspace.interpolate", (("funcspace", "interpolate"),), leaf=True),
    Target("funcspace.sample", (("funcspace", "sample"),), ("s",)),
    Target("funcspace.save_csv", (("funcspace", "save_csv"), ("envelope", "save_csv")),
           ("calls", "bytes", "s"), counts=(("bytes",), lambda a, r: (_size(a[1]),))),
    Target("funcspace.load_csv", (("funcspace", "load_csv"),),
           ("calls", "bytes", "s"), counts=(("bytes",), lambda a, r: (_size(a[0]),))),
    Target("matspace.minors_batch",
           (("matspace", "minors_batch"), ("classify", "minors_batch")),
           ("calls", "rows", "s"), True, (("rows",), lambda a, r: (_batch(a[0]),))),
    Target("matspace.is_rank_one_connected",
           (("matspace", "is_rank_one_connected"), ("classify", "is_rank_one_connected"),
            ("laminate", "is_rank_one_connected")), leaf=True),
    Target("envelope.convex_envelope", (("envelope", "convex_envelope"),)),
    Target("envelope.level_convex_lsc_envelope",
           (("envelope", "level_convex_lsc_envelope"),
            ("fem1d", "level_convex_lsc_envelope"))),
    Target("envelope.pasch_hausdorff", (("envelope", "pasch_hausdorff"),)),
    Target("envelope.lamination_hull", (("envelope", "lamination_hull"),)),
    Target("envelope.power_law_envelope", (("envelope", "power_law_envelope"),)),
    Target("envelope.lower_hull_1d", (("envelope", "lower_hull_1d"), ("fem1d", "lower_hull_1d")),
           ("calls", "points", "s"), True, (("points",), lambda a, r: (len(a[0]),))),
    # ConvexHull as bound in supcon.envelope; a build that raises is not counted
    Target("envelope.qhull", (("envelope", "ConvexHull"),), ("builds", "facets", "s"),
           True, (("builds", "facets"), lambda a, r: (1, len(r.simplices)))),
    Target("envelope.linprog", (("envelope", "linprog"),), leaf=True),
    Target("classify.classify_report", (("classify", "classify_report"),)),
    *[Target(f"classify.{name}", (("classify", name),), ("calls", "s", "samples", "violated"),
             counts=VERDICT)
      for name in ("check_level_convex", "check_rank_one_qcx",
                   "check_polyquasiconvex_necessary", "search_weak_morrey_violation")],
    *[Target(f"laminate.{name}", (("laminate", name),), ("calls", "s", "samples", "violated"),
             counts=VERDICT)
      for name in ("check_curl_young_on_laminates", "check_periodic_weak_morrey",
                   "search_strong_morrey_violation")],
    Target("fem1d.gamma_limit_experiment", (("fem1d", "gamma_limit_experiment"),)),
    Target("fem1d.minimize_Fp", (("fem1d", "minimize_Fp"),), ("calls", "s", "iterations"),
           counts=(("iterations",), lambda a, r: (r.iterations,))),
    Target("fem1d.envelope_oracle_1d", (("fem1d", "envelope_oracle_1d"),)),
]

#: Every per-layer metric name the tracer reports, in table order.
LAYER_METRICS = [f"{t.prefix}.{suffix}" for t in TARGETS for suffix in t.suffixes]


class Tracer:
    """Installs the wrappers; collects spans, leaf counters and totals."""

    def __init__(self, supcon_modules: dict):
        self.active = False
        self._modules = supcon_modules
        self._stack: list[list] = []  # child seconds of each open call
        self._span = None  # id of the innermost open span
        self._next_id = 0
        self.spans: list[tuple] = []
        self.leaves: dict[tuple, list] = {}
        self._acc = {t.prefix: [0, 0.0] + [0] * len(t.counts[0]) for t in TARGETS}
        self.top_level_s = 0.0
        self._undo: list[tuple] = []

    def install(self) -> None:
        for target in TARGETS:
            for where, attr in target.bindings:
                module, _, cls = where.partition(".")
                owner = self._modules[module]
                if cls:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(target, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def totals(self) -> dict:
        """Per-layer metrics: calls, self seconds and counts of each target."""
        out = {}
        for t in TARGETS:
            calls, secs, *extra = self._acc[t.prefix]
            values = {"calls": calls, "s": secs, **dict(zip(t.counts[0], extra))}
            out.update((f"{t.prefix}.{suffix}", values[suffix]) for suffix in t.suffixes)
        return out

    def _wrap(self, target: Target, fn):
        tracer = self
        prefix, leaf = target.prefix, target.leaf
        names, count = target.counts
        acc = self._acc[prefix]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = tracer._span
            frame = [0.0]
            stack.append(frame)
            if not leaf:
                span_id = tracer._next_id
                tracer._next_id += 1
                tracer._span = span_id
            extra = ()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                if count is not None:
                    extra = count(args, result)
                return result
            except BaseException:
                t1 = perf_counter()
                raise
            finally:
                stack.pop()
                dur = t1 - t0
                self_s = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.top_level_s += dur
                acc[0] += 1
                acc[1] += self_s
                for i, value in enumerate(extra, 2):
                    acc[i] += value
                if leaf:
                    agg = tracer.leaves.get((parent, prefix))
                    if agg is None:
                        agg = tracer.leaves[(parent, prefix)] = [0, 0.0] + [0] * len(names)
                    agg[0] += 1
                    agg[1] += self_s
                    for i, value in enumerate(extra, 2):
                        agg[i] += value
                else:
                    tracer._span = parent
                    tracer.spans.append((span_id, parent, prefix, t0, t1, self_s,
                                         dict(zip(names, extra))))
        return traced

    def write(self, path) -> None:
        """Spans, then one leaf counter line per (parent span, name)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = {t.prefix: t.counts[0] for t in TARGETS}
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1, self_s, extra in self.spans:
                fh.write(json.dumps({"type": "span", "id": span_id, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "self_s": self_s, **extra}) + "\n")
            for (parent, name), (calls, self_s, *extra) in self.leaves.items():
                fh.write(json.dumps({"type": "leaf", "parent": parent, "name": name,
                                     "calls": calls, "self_s": self_s,
                                     **dict(zip(names[name], extra))}) + "\n")
