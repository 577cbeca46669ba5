"""Spans around the calls into mastkit's public functions.

The benchmark wraps each traced function from its own files; mastkit
itself is not edited.  Names are bound at import (``from .trees import
root_at_edge`` in ``construction``, ``exact`` and ``cli``), so a wrapper
replaces the original in every ``mastkit`` module that holds it.  A
wrapper returns the original's value unchanged and records a span only
while an op is active, so set-up and output checks are never traced.

A span is ``(name, start, end, parent, op, extra)``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the op id, and
``extra`` a dict of counts taken from the call's arguments or result.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _rooted_cells(args, result) -> dict:
    # Size of the DP table the call fills: one cell per node pair.
    return {"cells": args[0].num_nodes() * args[1].num_nodes()}


def _core_fraction(args, result) -> dict:
    state = result[0]
    return {"core_fraction": len(state.taxa) / len(args[0])}


# (module, attribute path, hook computing extra counts from args/result).
# ``rng`` is left out on purpose: a wrapper costs more than a SplitMix64
# step, and generator time already covers it.
TARGETS = (
    ("cli", "main", None),
    ("newick", "parse_newick", None),
    ("newick", "write_newick", None),
    ("generators", "generate", None),
    ("generators", "adversarial_pair", None),
    ("trees", "root_at_edge", None),
    ("trees", "RootedTree.restrict", None),
    ("trees", "UnrootedTree.restrict", None),
    ("trees", "isomorphic", None),
    ("construction", "setup", _core_fraction),
    ("construction", "path_decomposition", None),
    ("construction", "find_good_pair_structural", None),
    ("construction", "find_good_pair_big_subtree", None),
    ("construction", "strong_split", None),
    ("construction", "weak_construct", None),
    ("construction", "main_construct", None),
    ("construction", "verify_outcome", None),
    ("exact", "rooted_mast", _rooted_cells),
    ("exact", "unrooted_mast", None),
)

# Per-layer metrics: (span name, statistic, unit, better).  Statistics
# are per-op means over the traced ops.
LAYER_METRICS = (
    ("cli.main", "self_s", "s", "lower"),
    ("newick.parse_newick", "calls", "count", "lower"),
    ("newick.parse_newick", "total_s", "s", "lower"),
    ("newick.write_newick", "calls", "count", "lower"),
    ("newick.write_newick", "total_s", "s", "lower"),
    ("generators.generate", "total_s", "s", "lower"),
    ("generators.adversarial_pair", "total_s", "s", "lower"),
    ("trees.root_at_edge", "calls", "count", "lower"),
    ("trees.root_at_edge", "total_s", "s", "lower"),
    ("trees.RootedTree.restrict", "calls", "count", "lower"),
    ("trees.RootedTree.restrict", "total_s", "s", "lower"),
    ("trees.UnrootedTree.restrict", "calls", "count", "lower"),
    ("trees.UnrootedTree.restrict", "total_s", "s", "lower"),
    ("trees.isomorphic", "calls", "count", "lower"),
    ("trees.isomorphic", "total_s", "s", "lower"),
    ("construction.setup", "total_s", "s", "lower"),
    ("construction.setup", "self_s", "s", "lower"),
    ("construction.path_decomposition", "calls", "count", "lower"),
    ("construction.path_decomposition", "total_s", "s", "lower"),
    ("construction.find_good_pair_structural", "calls", "count", "lower"),
    ("construction.find_good_pair_big_subtree", "calls", "count", "lower"),
    ("construction.strong_split", "calls", "count", "lower"),
    ("construction.weak_construct", "self_s", "s", "lower"),
    ("construction.main_construct", "self_s", "s", "lower"),
    ("construction.verify_outcome", "total_s", "s", "lower"),
    ("exact.rooted_mast", "calls", "count", "lower"),
    ("exact.rooted_mast", "total_s", "s", "lower"),
    ("exact.unrooted_mast", "total_s", "s", "lower"),
    ("exact.unrooted_mast", "self_s", "s", "lower"),
)

# Metrics derived from span extras and from the run as a whole.
DERIVED_METRICS = (
    ("construction.setup.core_fraction", "ratio", "higher"),
    ("exact.rooted_mast.cells_per_op", "count", "lower"),
    ("exact.rooted_mast.cells_per_s", "1/s", "higher"),
    ("trace_overhead", "ratio", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    specs = [(f"{span}.{stat}_per_op", unit, better)
             for span, stat, unit, better in LAYER_METRICS]
    return specs + list(DERIVED_METRICS)


class Tracer:
    """Collects spans for the op set in :attr:`op`; ``None`` disables."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op, None)
            if hook is not None:
                tracer.spans[index] = tracer.spans[index][:5] + (hook(args, result),)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for module_name, path, hook in TARGETS:
                module = importlib.import_module("mastkit." + module_name)
                *owner_path, attr = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapped = self.wrap(f"{module_name}.{path}", original, hook)
                if owner is module:
                    holders = [m for key, m in list(sys.modules.items())
                               if (key == "mastkit" or key.startswith("mastkit."))
                               and getattr(m, attr, None) is original]
                else:
                    holders = [owner]
                for holder in holders:
                    setattr(holder, attr, wrapped)
                    undo.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "extra": extra}) + "\n")


def span_totals(spans, scales=None) -> tuple[Counter, Counter, Counter, Counter]:
    """Per span name: call count, total time, self time and summed extras.

    Self time is a span's duration minus the time its direct children
    cover; calls are sequential in one thread, so children never overlap.
    ``scales`` maps an op id to the factor its durations are scaled by.
    """
    scales = scales or {}
    child = [0.0] * len(spans)
    for name, start, end, parent, op, extra in spans:
        if parent >= 0:
            child[parent] += (end - start) * scales.get(op, 1.0)
    calls, total, self_time, extras = Counter(), Counter(), Counter(), Counter()
    for i, (name, start, end, parent, op, extra) in enumerate(spans):
        duration = (end - start) * scales.get(op, 1.0)
        calls[name] += 1
        total[name] += duration
        self_time[name] += duration - child[i]
        for key, value in (extra or {}).items():
            extras[f"{name}.{key}"] += value
    return calls, total, self_time, extras


def layer_metrics(spans, scales: dict, overhead: float) -> dict[str, float]:
    """Per-op layer metrics over the traced ops, plus the overhead.

    ``scales`` maps each traced op id to the factor that converts its
    wall-clock seconds to reference seconds (see ``reference.py``).
    """
    ops = len(scales)
    calls, total, self_time, extras = span_totals(spans, scales)
    stats = {"calls": calls, "total_s": total, "self_s": self_time}
    out = {f"{span}.{stat}_per_op": stats[stat][span] / ops
           for span, stat, _, _ in LAYER_METRICS}
    setups = calls["construction.setup"]
    out["construction.setup.core_fraction"] = (
        extras["construction.setup.core_fraction"] / setups if setups else 0.0)
    cells = extras["exact.rooted_mast.cells"]
    out["exact.rooted_mast.cells_per_op"] = cells / ops
    dp_time = total["exact.rooted_mast"]
    out["exact.rooted_mast.cells_per_s"] = cells / dp_time if dp_time else 0.0
    out["trace_overhead"] = overhead
    return out
