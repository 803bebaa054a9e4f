"""Spans around calls into the program's public functions.

The tracer replaces each public function of the five layers (topology,
separators, design, simulation, cli) with a wrapper, in every module
namespace that binds it, so a call is caught however its caller reaches
it: ``separators.build_separator_graph`` is the topology layer's function
as certification sees it. Spans stay in memory; a layer's self time is
its spans' durations minus the time their child spans cover.

A few functions also feed work counters, taken from their arguments and
return values so the counts are exact.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("topology", "separators", "design", "simulation", "cli")
PACKAGE = "stealthguard"


def _count_certify(counts, bound, result):
    sizes = result.per_agent_min_separator.values()
    counts["separators.agents_certified"] += len(sizes)
    counts["separators.augmenting_paths"] += sum(sizes)


def _count_linking(counts, bound, result):
    counts["separators.augmenting_paths"] += result.size


def _count_disjoint(counts, bound, result):
    counts["separators.augmenting_paths"] += result.size or 0


def _count_parse(counts, bound, result):
    counts["topology.parse_bytes"] += len(bound.arguments["text"].encode())


def _count_attack_search(counts, bound, result):
    # bytes of the dense formulation: the block-Toeplitz map M and the full
    # left singular basis U that the search computes from it
    real = bound.arguments["real"]
    horizon = bound.arguments["horizon"]
    n, m, p_in = real.n, real.m, real.num_inputs
    steps = 2 * n if horizon is None else int(horizon)
    rows, cols = (steps + n) * m, steps * p_in
    if p_in and m:
        counts["simulation.toeplitz_bytes"] += 8 * (rows * cols + rows * rows)


def _count_simulate(counts, bound, result):
    counts["simulation.steps"] += int(bound.arguments["horizon"])


COUNTERS = {
    "certify_robustness": _count_certify,
    "max_linking": _count_linking,
    "max_disjoint_paths": _count_disjoint,
    "parse_topology": _count_parse,
    "find_perfect_attack": _count_attack_search,
    "simulate": _count_simulate,
}


def public_functions(module):
    """Functions a module defines and exports: its ``__all__`` names as
    re-exported by the package, or for the cli every name without a
    leading underscore."""
    exported = set(getattr(sys.modules[PACKAGE], "__all__", ()))
    for name, obj in vars(module).items():
        if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
            continue
        if name.startswith("_"):
            continue
        if module.__name__.endswith(".cli") or name in exported:
            yield name, obj


class Tracer:
    """Records one span per wrapped call; spans of one operation share
    ``op`` so the runner can attribute them."""

    def __init__(self):
        self.spans = []  # (id, parent, layer, name, start, end, self_s, op)
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._next_id = 0
        self._patched = []

    def install(self) -> None:
        loaded = [sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS
                  if f"{PACKAGE}.{layer}" in sys.modules]
        wrappers = {}
        for module in loaded:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for ns in [sys.modules[PACKAGE]] + loaded:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def _wrap(self, layer, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        stack, spans, counts = self._stack, self.spans, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]  # id, time covered by child spans
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, parent, layer, name, start, end,
                              duration - frame[1], self.op))
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(counts, bound, result)
            return result

        return traced


def aggregate(spans, counts) -> dict:
    """Per-layer self time and call count, per-function inclusive time,
    and the work counters, as plain data that can cross a process."""
    self_s = defaultdict(float)
    calls = Counter()
    inclusive = defaultdict(float)
    for _id, _parent, layer, name, start, end, self_time, _op in spans:
        self_s[layer] += self_time
        calls[layer] += 1
        inclusive[name] += end - start
    return {"self_s": dict(self_s), "calls": dict(calls),
            "inclusive_s": dict(inclusive), "counts": dict(counts)}


def merge(into: dict, part: dict) -> dict:
    for key in ("self_s", "calls", "inclusive_s", "counts"):
        table = into.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            table[name] = table.get(name, 0) + value
    return into


def import_package(name: str = PACKAGE):
    """Import a module of the program; returns (seconds, modules loaded)."""
    before = len(sys.modules)
    start = perf_counter()
    importlib.import_module(name)
    return perf_counter() - start, len(sys.modules) - before
