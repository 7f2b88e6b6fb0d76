"""Spans recorded from outside oraclekit, around calls into its modules.

``Tracer.install`` replaces each public function listed in ``TARGETS`` with
a wrapper, in every module that looks the name up, and ``uninstall`` puts
the originals back. No code in ``src/`` changes.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span in the same thread, or -1. Spans stay in memory until the
run ends. A span's self time is its duration minus the durations of its
direct children; children of one thread nest, so they never overlap.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

# (span name, modules whose attribute of that name is replaced). A name bound
# by ``from``-import in another module is wrapped there as well.
TARGETS = (
    ("cli.run_cli", ("cli",)),
    ("monotonic.compute_cutpoints", ("monotonic", "ghcsort")),
    ("monotonic.check_cutpoints", ("monotonic",)),
    ("ghcsort.ghc_sort", ("ghcsort",)),
    ("ghcsort.merge", ("ghcsort",)),
    ("ghcsort.multiset_equal", ("ghcsort",)),
    ("ansv.left_neighbors", ("ansv", "cartesian")),
    ("ansv.right_neighbors", ("ansv", "cartesian")),
    ("ansv.check_ansv", ("ansv",)),
    ("ansv.oracle_neighbors", ("ansv",)),
    ("cartesian.build_tree", ("cartesian",)),
    ("cartesian.check_tree", ("cartesian",)),
    ("cartesian.oracle_tree", ("cartesian",)),
    ("spmv.coo_from_text", ("spmv",)),
    ("spmv.multiply_seq", ("spmv", "parallel")),
    ("parallel.multiply_parallel", ("parallel",)),
    ("parallel.build_model", ("parallel",)),
    ("parallel.explore", ("parallel",)),
    ("propcheck.run_suite", ("propcheck",)),
    ("propcheck.gen_sequence", ("propcheck",)),
    ("propcheck.gen_coo", ("propcheck",)),
)

# Counts read from a wrapped function's return value.
RESULT_COUNTS = {"parallel.explore": ("parallel.explore.states", lambda report: report.states_visited)}

# The per-layer metrics the traced run reports, with their units.
LAYER_METRICS = (
    ("cli.run_cli.s", "s"), ("cli.self_s", "s"),
    ("monotonic.compute_cutpoints.s", "s"), ("monotonic.check_cutpoints.s", "s"),
    ("ghcsort.ghc_sort.s", "s"), ("ghcsort.merge.s", "s"), ("ghcsort.merge.calls", "count"),
    ("ghcsort.multiset_equal.s", "s"),
    ("ansv.left_neighbors.s", "s"), ("ansv.right_neighbors.s", "s"),
    ("ansv.check_ansv.s", "s"), ("ansv.oracle_neighbors.s", "s"),
    ("cartesian.build_tree.s", "s"), ("cartesian.check_tree.s", "s"), ("cartesian.oracle_tree.s", "s"),
    ("spmv.coo_from_text.s", "s"), ("spmv.multiply_seq.s", "s"), ("spmv.multiply_seq.calls", "count"),
    ("parallel.multiply_parallel.s", "s"), ("parallel.multiply_parallel.calls", "count"),
    ("parallel.build_model.s", "s"), ("parallel.explore.s", "s"), ("parallel.explore.states", "count"),
    ("propcheck.run_suite.s", "s"), ("propcheck.gen_sequence.s", "s"), ("propcheck.gen_coo.s", "s"),
    ("properties.c1.s", "s"), ("properties.c2.s", "s"), ("properties.c3.s", "s"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[tuple[str, float, float, int]]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._registry_saved: dict = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every target in ``package`` (the imported oraclekit)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, modules in TARGETS:
            home, attr = name.split(".")
            wrapped = self._wrap(name, getattr(getattr(package, home), attr))
            for mod_name in modules:
                mod = getattr(package, mod_name)
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapped)
        registry = package.properties.REGISTRY
        self._registry_saved = dict(registry)
        for key, prop in self._registry_saved.items():
            registry[key] = dataclasses.replace(prop, check=self._wrap(f"properties.{key}", prop.check))

    def uninstall(self, package) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        package.properties.REGISTRY.update(self._registry_saved)
        self._registry_saved = {}


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    out = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans, counts: dict[str, int]) -> dict[str, float]:
    """Sum spans into ``<name>.s``, ``<name>.self_s`` and ``<name>.calls``.

    Property checks are also summed by family into ``properties.c1.s`` and
    so on, and ``cli.self_s`` aliases ``cli.run_cli.self_s``.
    """
    totals: dict[str, float] = defaultdict(float)
    for (name, start, end, _parent), own in zip(spans, self_times(spans)):
        totals[f"{name}.s"] += end - start
        totals[f"{name}.self_s"] += own
        totals[f"{name}.calls"] += 1
        if name.startswith("properties."):
            family = name.split(".")[1][:2]
            totals[f"properties.{family}.s"] += end - start
    totals["cli.self_s"] = totals["cli.run_cli.self_s"]
    totals.update(counts)
    return dict(totals)
