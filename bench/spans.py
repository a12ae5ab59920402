"""Span recorder for the traced benchmark pass.

It instruments cryptomix from outside: each target below is a public
function, and `Tracer.install` rebinds every name in every loaded
`cryptomix` module that refers to it, so calls made through any import
of the function are recorded. `uninstall` puts the originals back.
Spans stay in memory until the run writes them out.

A target that no longer exists is reported as absent instead of
failing, so the benchmark survives refactors that move or rename
functions.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (span name, home module, attribute). The original function is looked up
# in its home module; every cryptomix module holding that same object is
# rebound. Several targets may share a span name.
TARGETS = (
    ("attacker.dp", "cryptomix.attacker", "solve_dp"),
    ("attacker.greedy", "cryptomix.attacker", "solve_sample_greedy"),
    ("attacker.hybrid", "cryptomix.defender", "solve_hybrid"),
    ("defender.evaluate_all", "cryptomix.defender", "evaluate_all"),
    ("defender.polytope", "cryptomix.defender", "defender_polytope"),
    ("defender.make_report", "cryptomix.defender", "make_report"),
    ("lp.solve", "cryptomix.lp", "solve_lp"),
    ("lp.linprog", "cryptomix.lp", "linprog"),
    ("robust.scenario_table", "cryptomix.robust", "scenario_table"),
    ("robust.regret", "cryptomix.robust", "solve_minimax_regret"),
    ("robust.maximin", "cryptomix.robust", "solve_maximin"),
    ("robust.unconstrained", "cryptomix.robust", "solve_unconstrained_case"),
    ("robust.matrix", "cryptomix.robust", "regret_matrix"),
    ("robust.matrix", "cryptomix.robust", "breach_regret_matrix"),
    ("baselines.random_vertex", "cryptomix.baselines", "random_vertex_strategy"),
    ("baselines.compare", "cryptomix.baselines", "compare_strategies"),
    ("io.load", "cryptomix.io", "load_scenario"),
    ("io.load", "cryptomix.io", "load_bundled_scenario"),
)

DEFAULT_COST_SCALE = 10  # solve_dp's scale when no config is passed


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the top
    op: object  # operation id; "setup" for work before the timed loop
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _dp_attrs(args, kwargs, result) -> dict:
    """Method count and DP table cells, n * (budget_cells + 1), computed
    from the call's arguments the same way solve_dp sizes its table."""
    algorithm = args[0] if args else kwargs["algorithm"]
    params = args[1] if len(args) > 1 else kwargs["params"]
    config = args[2] if len(args) > 2 else kwargs.get("config")
    scale = getattr(config, "cost_scale", None) or DEFAULT_COST_SCALE
    n = len(algorithm.attacks)
    cells = n * (int(round(params.budget * scale)) + 1)
    return {"n": n, "cells": cells}


def _hybrid_attrs(args, kwargs, result) -> dict:
    return {"solver": getattr(result, "solver", None)}


def _linprog_attrs(args, kwargs, result) -> dict:
    return {"nit": int(getattr(result, "nit", 0) or 0)}


ATTRS = {
    "attacker.dp": _dp_attrs,
    "attacker.hybrid": _hybrid_attrs,
    "lp.linprog": _linprog_attrs,
}


class Tracer:
    """Collects nested spans from wrapped cryptomix functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: object = "setup"
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0, 0, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded cryptomix module."""
        if self._bindings:
            return
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "cryptomix" or key.startswith("cryptomix."))
        ]
        absent = []
        for name, home, attr in TARGETS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None or not callable(original):
                absent.append(f"{home}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._bindings.append((module, key, original))
        self.absent = absent

    def uninstall(self) -> None:
        for module, key, original in reversed(self._bindings):
            setattr(module, key, original)
        self._bindings = []

    @contextmanager
    def span(self, name: str, op: object):
        """A harness-level span, such as one whole operation, that sets the
        operation id of the spans inside it."""
        self.op = op
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, op))
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end_ns = time.perf_counter_ns()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded and strictly nested, so the children of a
    span never overlap and their durations add up."""
    out = [s.duration_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration_ns
    return out


def aggregate(spans: list[Span], ops: set) -> dict:
    """Totals per span name over the spans whose operation id is in `ops`:
    calls, self time, and the sums of numeric attributes. Hybrid spans
    also count how many calls the DP answered."""
    selfs = self_times(spans)
    totals: dict[str, dict] = {}
    for s, self_ns in zip(spans, selfs):
        if s.op not in ops:
            continue
        t = totals.setdefault(s.name, {"calls": 0, "self_ns": 0})
        t["calls"] += 1
        t["self_ns"] += self_ns
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                t[key] = t.get(key, 0) + value
        if s.name == "attacker.hybrid":
            t["dp_answered"] = t.get("dp_answered", 0) + (s.attrs.get("solver") == "dp")
    return totals


def span_rows(spans: list[Span]) -> list[dict]:
    """Spans as plain dicts for writing out, with self time attached."""
    return [
        {
            "name": s.name,
            "start_ns": s.start_ns,
            "end_ns": s.end_ns,
            "parent": s.parent,
            "op": s.op,
            "self_ns": self_ns,
            **({"attrs": s.attrs} if s.attrs else {}),
        }
        for s, self_ns in zip(spans, self_times(spans))
    ]
