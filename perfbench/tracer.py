"""Span tracer for the traced benchmark run.

The tracer instruments ``mapforms`` from outside: it rebinds the public
functions of every module, a few methods, the evaluators of forms and
map-space forms, the RK4 flow maps and ``numpy.fft``, and records one span
per call.  Nothing under ``src/`` is edited.

A span holds its name, start, end, parent span and item id.  Spans of
module functions and methods are kept in memory (up to a cap) and written
out when the run ends.  Evaluator calls run millions of times in one item,
so they are aggregated only: they still count as children of the span they
run under.  Self time is a span's duration minus the time of its children.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("forms", "charts", "domains", "mapspace", "grassmannian",
           "mechanics", "catalog", "suites", "report", "cli")
FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn")

_perf = time.perf_counter


class Tracer:
    """Call stack, per-item aggregates and stored spans."""

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans = []
        self.dropped = 0
        self.stack = []
        self.next_id = 0
        self.begin_item(-1)

    def begin_item(self, item: int) -> None:
        """Start a fresh set of aggregates for one item."""
        self.item = item
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.outer = defaultdict(float)    # group time, nested calls counted once
        self.weight = Counter()            # e.g. nodes evaluated per span name
        self.active = Counter()            # group -> open spans on the stack

    def wrap(self, fn, name: str, group: str = "", store: bool = True,
             weight: int = 0, within: str = ""):
        """Return fn wrapped in a span.

        group: calls of one group that nest are timed once, at the outermost.
        store: keep each span (False for evaluators, which only aggregate).
        weight: added to ``self.weight[name]`` per call.
        within: also count the call as ``name@within`` when a span of that
        group is open.
        """
        if getattr(fn, "_perfbench_traced", False):
            return fn
        group = group or name
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id += 1
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            active = tracer.active
            active[group] += 1
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                active[group] -= 1
                tracer.calls[name] += 1
                tracer.incl[name] += dur
                tracer.self_time[name] += dur - frame[1]
                if not active[group]:
                    tracer.outer[group] += dur
                if weight:
                    tracer.weight[name] += weight
                if within and active[within]:
                    tracer.calls[name + "@" + within] += 1
                if store:
                    if len(tracer.spans) < tracer.max_spans:
                        tracer.spans.append(
                            (span_id, name, start, end, parent, tracer.item))
                    else:
                        tracer.dropped += 1

        traced._perfbench_traced = True
        return traced

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span_id,name,start_s,end_s,parent_id,item\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]:.9f},{s[3]:.9f},{s[4]},{s[5]}\n")


def _group(layer: str, attr: str) -> str:
    if layer == "catalog" and attr.startswith("random_"):
        return "catalog.case"
    if layer == "mechanics" and attr.startswith("momentum_"):
        return "mechanics.momentum"
    if layer == "mechanics" and attr.startswith("cocycle_"):
        return "mechanics.cocycle"
    return ""


def _evaluating(tracer: Tracer, factory, eval_name: str, nodes_arg: int = -1):
    """Wrap a factory of MapSpaceForms so that evaluating the form it
    returns is a span; nodes_arg names the domain argument whose node count
    weights the span."""

    def build(*args, **kwargs):
        W = factory(*args, **kwargs)
        nodes = 0
        if nodes_arg >= 0:
            dom = args[nodes_arg] if len(args) > nodes_arg else kwargs["dom"]
            nodes = dom.n_nodes
        ev = tracer.wrap(W.evaluator, eval_name, weight=nodes)
        return dataclasses.replace(W, evaluator=ev)

    return build


def install(tracer: Tracer) -> None:
    """Instrument the imported mapforms package in place."""
    mods = {m: importlib.import_module(f"mapforms.{m}") for m in MODULES}
    ms, fo, do = mods["mapspace"], mods["forms"], mods["domains"]

    special = {
        ms.hat_pairing: _evaluating(tracer, ms.hat_pairing, "mapspace.hat_eval", 2),
        ms.hat_pairing_fiber: _evaluating(tracer, ms.hat_pairing_fiber,
                                          "mapspace.fiber_eval", 2),
        ms.map_space_d: _evaluating(tracer, ms.map_space_d, "mapspace.d_eval"),
    }
    within = {"tilda_eval": "grassmannian.mw_gram_matrix"}

    replacements = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            inner = special.get(obj, obj)
            replacements[obj] = tracer.wrap(
                inner, f"{layer}.{attr}", group=_group(layer, attr),
                within=within.get(attr, ""))

    # rebind every name that refers to a wrapped function, in every module,
    # so calls through `from .x import y` and `module.y` are both seen
    for mod in [sys.modules["mapforms"], *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(mod, attr, replacements[obj])

    su = mods["suites"]
    for suite_id, fn in list(su.SUITES.items()):
        su.SUITES[suite_id] = tracer.wrap(fn, f"suites.{suite_id}")

    Dom = do.SourceDomain
    for meth in ("map_jacobian", "node_index", "resample"):
        setattr(Dom, meth, tracer.wrap(getattr(Dom, meth), f"domains.{meth}"))
    Rep = mods["report"].VerificationReport
    for meth in ("to_json", "to_csv"):
        setattr(Rep, meth, tracer.wrap(getattr(Rep, meth), "report.write"))

    Form = fo.Form
    Form.__call__ = tracer.wrap(Form.__call__, "forms.point_call")
    post_init = Form.__post_init__

    def counted_post_init(self):
        post_init(self)
        object.__setattr__(self, "evaluator", tracer.wrap(
            self.evaluator, "forms.evaluator", store=False))

    Form.__post_init__ = counted_post_init

    ch = mods["charts"]
    rk4 = ch._rk4_flow

    def traced_rk4(X, t, steps):
        flow = rk4(X, t, steps)
        return dataclasses.replace(
            flow, forward=tracer.wrap(flow.forward, "charts.rk4_flow", store=False))

    ch._rk4_flow = traced_rk4

    for fname in FFT_FUNCS:
        setattr(np.fft, fname, tracer.wrap(getattr(np.fft, fname), "numpy.fft",
                                           store=False))


def layer_metrics(t: Tracer, suite_ids) -> dict:
    """Per-layer metrics of the item just traced."""
    ms_, us = 1e3, 1e6

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    m = {
        "forms.eval_calls": t.calls["forms.evaluator"],
        "forms.eval_self_ms": t.self_time["forms.evaluator"] * ms_,
        "forms.point_call_us": per(t.incl["forms.point_call"],
                                   t.calls["forms.point_call"], us),
        "charts.flow_ms": t.outer["charts.rk4_flow"] * ms_,
        "domains.jacobian_calls": t.calls["domains.map_jacobian"],
        "domains.jacobian_ms": t.outer["domains.map_jacobian"] * ms_,
        "domains.fft_calls": t.calls["numpy.fft"],
        "domains.node_index_calls": t.calls["domains.node_index"],
        "domains.right_inverse_ms": t.outer["domains.right_inverse_b"] * ms_,
        "domains.projection_ms": t.outer["domains.projection_P"] * ms_,
        "domains.resample_ms": t.outer["domains.resample"] * ms_,
        "mapspace.hat_us_per_node": per(t.incl["mapspace.hat_eval"],
                                        t.weight["mapspace.hat_eval"], us),
        "mapspace.fiber_us_per_node": per(t.incl["mapspace.fiber_eval"],
                                          t.weight["mapspace.fiber_eval"], us),
        "mapspace.d_calls": t.calls["mapspace.d_eval"],
        "mapspace.d_self_ms": t.self_time["mapspace.d_eval"] * ms_,
        "grassmannian.gram_ms": t.outer["grassmannian.mw_gram_matrix"] * ms_,
        "grassmannian.gram_pairings": per(
            t.calls["grassmannian.tilda_eval@grassmannian.mw_gram_matrix"],
            t.calls["grassmannian.mw_gram_matrix"], 1),
        "mechanics.momentum_ms": t.outer["mechanics.momentum"] * ms_,
        "mechanics.cocycle_ms": t.outer["mechanics.cocycle"] * ms_,
        "catalog.case_ms": t.outer["catalog.case"] * ms_,
    }
    for suite_id in suite_ids:
        m[f"suites.{suite_id}_s"] = t.outer[f"suites.{suite_id}"]
    m["report.write_ms"] = t.outer["report.write"] * ms_
    return m
