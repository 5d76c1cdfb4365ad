"""Outside-in tracing of diacats layers.

The tracer replaces module and class attributes of the program with timing
wrappers.  The modules call each other through module attributes (``at.``,
``sp.``, ``dg.``, ``fc.``) and methods through their classes, so a wrapper
installed here also sees the program's internal calls.  Nothing in ``src/``
knows about it; with the wrappers removed the program runs its original
functions.

Three kinds of wrapper exist:

* ``SPAN`` records one span per call: name, start, end, parent span and the
  instance id the benchmark set before the verdict call.
* ``AGG`` keeps only aggregate counters (calls and self time).  It is used
  for functions called tens of thousands of times or more per pass, where
  one record per call would make the trace huge and slow the run down.
* ``COUNT`` counts calls and takes no time: for frequent calls whose time
  no metric needs.

Self time is a call's duration minus the time covered by its traced
callees.  Every ``SPAN`` and ``AGG`` frame on the stack accumulates its
children's durations, so self time is exact for both.  Hook work (the extra counts
taken from arguments and results) is also charged to the enclosing frame as
child time, so it never inflates a layer's self time; its total is reported
as ``trace.hook_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

SPAN, AGG, COUNT = "span", "agg", "count"


def _snf_hook(tracer, args, kwargs, result):
    columns = args[0] if args else kwargs["columns"]
    factors, rank = result
    c = tracer.counters
    c["algtop.snf_sparse.nnz"] += sum(len(col) for col in columns)
    c["algtop.snf_sparse.rank"] += rank
    c["algtop.snf_sparse.nonunit"] += sum(1 for d in factors if d != 1)


def _nerve_hook(tracer, args, kwargs, result):
    from diacats import homotopy as ht
    cat = args[0] if args else kwargs["c"]
    trunc = args[1] if len(args) > 1 else kwargs["trunc"]
    c = tracer.counters
    c["simplicial.nerve_of_category.chains"] += sum(len(l) for l in result.levels)
    c["homotopy.forecast_chains"] += sum(ht.forecast_nerve(cat, trunc))


def _l3_hook(tracer, args, kwargs, result):
    instances, skipped = result
    tracer.counters["localizer.l3_instances.resolved"] += len(instances)
    tracer.counters["localizer.l3_instances.triangles"] += len(instances) + len(skipped)


def _adj_hook(tracer, args, kwargs, result):
    tracer.counters["localizer.adjunction_instances.found"] += len(result)


def _closure_hook(tracer, args, kwargs, result):
    c = tracer.counters
    c["localizer.closure.members"] += len(result.members)
    for why in result.provenance.values():
        c["localizer.admissions." + why[0]] += 1


# (dotted name below ``diacats``, kind, hook).  The layer is the first part.
TARGETS = [
    ("algtop.snf_sparse", SPAN, _snf_hook),
    ("algtop.chain_complex", SPAN, None),
    ("algtop.ChainComplex.validate", SPAN, None),
    ("algtop.quasi_iso", SPAN, None),
    ("simplicial.nerve_of_category", SPAN, _nerve_hook),
    ("simplicial.nerve_labeled", SPAN, None),
    ("simplicial.SimpSet.validate", SPAN, None),
    ("simplicial.SplitSimpObj.validate", SPAN, None),
    ("simplicial.SplitMor.validate", SPAN, None),
    ("homotopy.int_simpset", SPAN, None),
    ("homotopy.int_amalg", SPAN, None),
    ("homotopy.comparison_to_simp", SPAN, None),
    ("diagram.comma_fiber_product", SPAN, None),
    ("diagram.induced_comma_map", SPAN, None),
    ("diagram.DiaMor.validate", AGG, None),
    ("diagram.DiaObj.validate", AGG, None),
    ("diagram.DiaObj.key", AGG, None),
    ("diagram.DiaMor.key", COUNT, None),
    ("fincat.comma_category", SPAN, None),
    ("fincat.FinFunctor.validate", AGG, None),
    ("fincat.all_functors", SPAN, None),
    ("fincat.all_nat_transfs", COUNT, None),
    ("fincat.find_isomorphism", SPAN, None),
    ("localizer.l3_instances", SPAN, _l3_hook),
    ("localizer.adjunction_instances", SPAN, _adj_hook),
    ("localizer.ShapeTranslator.translate_mor", SPAN, None),
    ("localizer.DiagramUniverse.close_composition", SPAN, None),
    ("localizer.closure_fixpoint", SPAN, _closure_hook),
    ("localizer.nerve_soundness_report", SPAN, None),
]

LAYERS = ["algtop", "simplicial", "homotopy", "diagram", "fincat", "localizer"]

# Inclusive times (self time plus callees) reported for these targets.
TOTALS = ["localizer.l3_instances", "localizer.adjunction_instances",
          "localizer.nerve_soundness_report"]


def resolve(name):
    """(owner, attribute) of a dotted target name: a module or a class."""
    parts = name.split(".")
    owner = importlib.import_module("diacats." + parts[0])
    for p in parts[1:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def current(name):
    """The object the program currently calls for a target."""
    owner, attr = resolve(name)
    return getattr(owner, attr)


class Tracer:
    """Spans and counters of one traced set-up and pass, kept in memory."""

    def __init__(self):
        self.spans = []          # (sid, name, start, end, parent sid, instance, self)
        self.stack = [[0.0, None]]   # frames: [child time, span id or None]
        self.calls = Counter()
        self.agg_self_s = defaultdict(float)
        self.counters = Counter()
        self.hook_s = 0.0
        self.instance = None
        self._next_sid = 0
        self._saved = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, hook):
        perf = time.perf_counter
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_sid
            self._next_sid = sid + 1
            parent = stack[-1]
            frame = [0.0, sid]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                parent[0] += dur
                spans.append((sid, name, start, end, parent[1], self.instance, own))
                self.calls[name] += 1
            if hook is not None:
                h0 = perf()
                hook(self, args, kwargs, result)
                h = perf() - h0
                parent[0] += h
                self.hook_s += h
            return result

        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _agg(self, name, fn):
        perf = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                parent[0] += dur
                self.calls[name] += 1
                self.agg_self_s[name] += dur - frame[0]

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace every target with its wrapper; :meth:`uninstall` undoes it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, kind, hook in TARGETS:
            owner, attr = resolve(name)
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            if kind == SPAN:
                wrapped = self._span(name, fn, hook)
            else:
                wrapped = self._agg(name, fn) if kind == AGG else self._count(name, fn)
            setattr(owner, attr, wrapped)

    def exclude(self, seconds):
        """Charge time that is not the program's (the speed probe's ticks)
        to the innermost frame as child time, so no self time includes it."""
        self.stack[-1][0] += seconds

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    # -- results -----------------------------------------------------------

    def times(self):
        """(self time, inclusive time) per target.  SPAN targets are summed
        from the recorded spans, AGG targets come from their counters."""
        own, total = defaultdict(float), defaultdict(float)
        for (_, name, start, end, _, _, s) in self.spans:
            own[name] += s
            total[name] += end - start
        own.update(self.agg_self_s)
        return own, total



def write_spans(tracer, path):
    """Write the tracer's spans as JSON lines."""
    with open(path, "w") as f:
        for (sid, name, start, end, parent, inst, own) in tracer.spans:
            f.write(json.dumps({"id": sid, "name": name, "start": start,
                                "end": end, "parent": parent,
                                "instance": inst, "self": own}) + "\n")


# Rule tags of localizer.closure_fixpoint provenance records.
ADMISSION_RULES = ["WS1", "WS2-compose", "WS2-right", "WS2-left", "WS3",
                   "WS3-section", "L2", "L3", "L4", "HTP", "ADJ", "ADJ-partner"]

COUNTERS = ["algtop.snf_sparse.nnz", "algtop.snf_sparse.rank",
            "algtop.snf_sparse.nonunit", "simplicial.nerve_of_category.chains",
            "localizer.adjunction_instances.found", "localizer.closure.members"]
COUNTERS += ["localizer.admissions." + r for r in ADMISSION_RULES]

# Reported by the benchmark itself: median pass time with and without the
# wrappers, their difference, and the time spent in hooks.
TRACE_METRICS = ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                 "trace.hook_s"]


def metric_names():
    """Every per-layer metric of a traced run, in a fixed order."""
    names = []
    for name, kind, _ in TARGETS:
        names += [name + ".calls"] if kind == COUNT else [name + ".self_s", name + ".calls"]
    names += [t + ".total_s" for t in TOTALS]
    names += COUNTERS
    names += ["homotopy.forecast_ratio", "localizer.l3_instances.resolved_ratio"]
    names += [layer + ".self_s" for layer in LAYERS]
    return names + TRACE_METRICS


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _ratio(a, b):
    return a / b if b else 0.0


def summarize(tracers):
    """Per-layer values: the mean over the tracers, each of which traced one
    set-up and one pass.  Returns every name of :func:`metric_names` except
    the pass times of ``TRACE_METRICS``."""
    own, total = Counter(), Counter()
    calls, counters = Counter(), Counter()
    hook = 0.0
    for tr in tracers:
        o, t = tr.times()
        own.update(o)
        total.update(t)
        calls.update(tr.calls)
        counters.update(tr.counters)
        hook += tr.hook_s
    n = len(tracers)
    m = {}
    for name, kind, _ in TARGETS:
        if kind != COUNT:
            m[name + ".self_s"] = own[name] / n
        m[name + ".calls"] = calls[name] / n
    for name in TOTALS:
        m[name + ".total_s"] = total[name] / n
    for name in COUNTERS:
        m[name] = counters[name] / n
    m["homotopy.forecast_ratio"] = _ratio(counters["homotopy.forecast_chains"],
                                          counters["simplicial.nerve_of_category.chains"])
    m["localizer.l3_instances.resolved_ratio"] = _ratio(
        counters["localizer.l3_instances.resolved"],
        counters["localizer.l3_instances.triangles"])
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(own[name] for name, _, _ in TARGETS
                                   if name.startswith(layer + ".")) / n
    m["trace.hook_s"] = hook / n
    return m
