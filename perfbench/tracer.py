"""Span tracing of the repro package, installed from outside the package.

While installed, the public functions and methods listed in ``FUNCTIONS``
and ``METHODS`` are replaced by wrappers that record one span per call:
(name, start, end, parent span, context). The context is set by the
benchmark: ``"s<rep>"`` during a set-up repetition, ``"q<i>"`` during
timed query ``i``. Nothing under ``src/`` is edited; a function that a
caller imported by name (``from .steiner import steiner_connector``) is
replaced in every ``repro.*`` module that holds it, so the caller's own
lookup reaches the wrapper. Class methods are patched on the class.
"""
from __future__ import annotations

import csv
import importlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# module -> public functions traced. Span name: module path without the
# ``repro.`` prefix, except the baselines, which are named by algorithm.
FUNCTIONS: Dict[str, List[str]] = {
    "repro.gendata.lfr": ["lfr_graph"],
    "repro.evaluation.queries": ["query_sets"],
    "repro.graphs.localops": [
        "core_numbers", "truss_numbers", "node_truss_numbers",
        "edge_support", "k_core", "k_truss",
    ],
    "repro.core.steiner": ["steiner_connector"],
    "repro.core.fpa": ["fpa"],
    "repro.core.nca": ["nca"],
    "repro.core.modularity": [
        "density_modularity", "classic_modularity",
        "generalized_modularity_density", "dm_of", "cm_of",
    ],
    "repro.baselines.kcore_cs": ["kc", "highcore"],
    "repro.baselines.ktruss_cs": ["kt", "hightruss", "huang2015"],
}
# (module, class) -> (span name prefix, methods traced). The per-removal
# scalars dm_gain and density_ratio are left out: a span on each of their
# calls would cost more than the work it measures.
METHODS: Dict[Tuple[str, str], Tuple[str, List[str]]] = {
    ("repro.graphs.local", "LocalGraph"): ("graphs.local", [
        "bfs_dist", "bfs_layers", "connected_component",
        "connected_components", "is_connected", "articulation_points",
        "degrees", "subgraph", "remove_node", "internal_edges",
    ]),
    ("repro.core.peel", "PeelState"): (
        "core.peel.PeelState", ["__init__", "remove", "score"]),
}

Span = Tuple[str, float, float, int, str, bool]  # name, t0, t1, parent, ctx, nested


def _span_name(module: str, attr: str) -> str:
    short = module[len("repro."):]
    if short.startswith("baselines."):
        return f"baselines.{attr}"
    return f"{short}.{attr}"


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` patch the package."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[Tuple[str, str], float] = {}
        self.ctx = ""
        self._stack: List[int] = []
        self._active: Dict[str, int] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def add(self, name: str, value: float = 1, ctx: Optional[str] = None) -> None:
        """Add ``value`` to counter ``name`` in ``ctx`` (default: current)."""
        key = (self.ctx if ctx is None else ctx, name)
        self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def span(self, name: str):
        """Record one span around a block; used around Spark calls."""
        idx, parent, nested = self._open(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(name, idx, parent, nested, t0)

    def _open(self, name: str) -> Tuple[int, int, bool]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        return idx, parent, depth > 0

    def _close(self, name: str, idx: int, parent: int, nested: bool, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self._active[name] -= 1
        self.spans[idx] = (name, t0, t1, parent, self.ctx, nested)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx, parent, nested = tracer._open(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, idx, parent, nested, t0)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        if self._undo:
            return
        repro_mods = [m for k, m in list(sys.modules.items())
                      if k == "repro" or k.startswith("repro.")]
        for modname, attrs in FUNCTIONS.items():
            mod = importlib.import_module(modname)
            for attr in attrs:
                orig = getattr(mod, attr)
                wrapper = self._wrap(orig, _span_name(modname, attr))
                for m in repro_mods:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._undo.append((m, k, orig))
                            setattr(m, k, wrapper)
        for (modname, clsname), (prefix, meths) in METHODS.items():
            cls = getattr(importlib.import_module(modname), clsname)
            for meth in meths:
                orig = cls.__dict__[meth]
                name = f"{prefix}.{meth.strip('_')}"
                wrapper = self._wrap(orig, name)
                if meth == "__init__":
                    wrapper = self._count_nodes(wrapper, name)
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, wrapper)

    def _count_nodes(self, init: Callable, name: str) -> Callable:
        """PeelState.__init__ also counts the candidate size it was given."""
        tracer = self

        def traced_init(state, *args, **kwargs):
            init(state, *args, **kwargs)
            tracer.add(f"{name}.nodes", len(state.S))

        return traced_init

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # ----------------------------------------------------------- reporting
    def layer_totals(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """ctx -> span name -> {s, self_s, calls} (plus counters).

        ``s`` sums only outermost spans of a name, so recursion is not
        counted twice; ``self_s`` is a span minus its direct children.
        """
        child: List[float] = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp is not None and sp[3] >= 0:
                child[sp[3]] += sp[2] - sp[1]
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for i, sp in enumerate(self.spans):
            if sp is None:
                continue
            name, t0, t1, _, ctx, nested = sp
            row = out.setdefault(ctx, {}).setdefault(
                name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            if not nested:
                row["s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child[i]
            row["calls"] += 1
        for (ctx, name), v in self.counts.items():
            base, _, field = name.rpartition(".")
            row = out.setdefault(ctx, {}).setdefault(
                base, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row[field] = row.get(field, 0) + v
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "ctx"])
            for i, sp in enumerate(self.spans):
                if sp is not None:
                    w.writerow([i, sp[0], f"{sp[1]:.9f}", f"{sp[2]:.9f}", sp[3], sp[4]])


def summarize(totals: Dict[str, Dict[str, Dict[str, float]]],
              setup_names: set, n_queries: int) -> Dict[str, Dict[str, float]]:
    """name -> field -> value. Set-up layers: median over set-up
    repetitions. Every other layer: total over timed queries ÷ queries."""
    setup_ctx = [c for c in totals if c.startswith("s")]
    query_ctx = [c for c in totals if c.startswith("q")]
    names = {n for rows in totals.values() for n in rows}
    out: Dict[str, Dict[str, float]] = {}
    for name in names:
        if name in setup_names:
            per_rep = [totals[c].get(name, {}) for c in setup_ctx]
            fields = {f for r in per_rep for f in r}
            out[name] = {f: statistics.median(r.get(f, 0) for r in per_rep)
                         for f in fields} if per_rep else {}
        else:
            rows = [totals[c][name] for c in query_ctx if name in totals[c]]
            fields = {f for r in rows for f in r}
            out[name] = {f: sum(r.get(f, 0) for r in rows) / max(n_queries, 1)
                         for f in fields}
    return out
