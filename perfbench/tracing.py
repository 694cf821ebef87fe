"""Spans around the calls into each layer of ``rainbow_lab``, from outside.

The package binds names with ``from .x import y``, so a function is
wrapped wherever it is bound: every ``rainbow_lab`` module attribute that
is the original function object is replaced by one wrapper, and methods
are replaced on their class.  Nothing under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent, op, counts]``; ``parent`` is
the index of the enclosing span (-1 for an op's root span) and ``op`` the
index of the op that caused it.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

ROOT = "op"
LAYERS = ("kernel", "solvers", "fractional", "shift", "absorbing", "hypergraph")
KERNEL_FUNCS = ("rainbow_search", "exact_cover", "max_disjoint_edges")
FRACTIONAL_FUNCS = ("max_fractional_matching", "min_fractional_cover")


def _kernel_counts(args, kwargs, result):
    status, _, nodes = result
    aborted = status == sys.modules["rainbow_lab.kernel"].ABORTED
    return {"nodes": nodes, "aborted": int(aborted)}


def _matching_lp_cells(args, kwargs, result):
    # Dense tableau of the seed's primal simplex: n rows, m + n + 1 columns.
    graph = kwargs.get("graph", args[0] if args else None)
    m, n = graph.n_edges, graph.n_vertices
    return {"tableau_cells": n * (m + n + 1)}


def _cover_lp_cells(args, kwargs, result):
    # Dense tableau of the seed's dual simplex: m rows, n + m + 1 columns.
    graph = kwargs.get("graph", args[0] if args else None)
    m, n = graph.n_edges, graph.n_vertices
    return {"tableau_cells": m * (n + m + 1)}


# (span name, module, attribute path, count extractor)
TARGETS = (
    *((f"kernel.{f}", "rainbow_lab.kernel", f, _kernel_counts) for f in KERNEL_FUNCS),
    ("solvers.rainbow_matching", "rainbow_lab.solvers", "rainbow_matching", None),
    ("solvers.partite_perfect_matching", "rainbow_lab.solvers", "partite_perfect_matching", None),
    ("solvers.has_perfect_matching", "rainbow_lab.solvers", "has_perfect_matching", None),
    ("solvers.max_matching", "rainbow_lab.solvers", "max_matching", None),
    ("fractional.max_fractional_matching", "rainbow_lab.fractional",
     "max_fractional_matching", _matching_lp_cells),
    ("fractional.min_fractional_cover", "rainbow_lab.fractional",
     "min_fractional_cover", _cover_lp_cells),
    ("shift.fractional_pm_pipeline", "rainbow_lab.shift", "fractional_pm_pipeline", None),
    ("shift.stable_shift", "rainbow_lab.shift", "stable_shift",
     lambda a, k, r: {"rounds": len(r[1].steps)}),
    ("shift.cover_closure", "rainbow_lab.shift", "cover_closure",
     lambda a, k, r: {"edges": r.graph.n_edges}),
    ("absorbing.build_gadget", "rainbow_lab.absorbing", "build_gadget",
     lambda a, k, r: {"found": int(r is not None)}),
    ("absorbing.is_absorbing", "rainbow_lab.absorbing", "is_absorbing", None),
    ("absorbing.absorb", "rainbow_lab.absorbing", "absorb", None),
    ("hypergraph.induced", "rainbow_lab.hypergraph", "Hypergraph.induced", None),
)


class Tracer:
    """In-memory span recorder; ``op`` is the id of the op being run."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, counts=None) -> None:
        self.spans[idx][2] = self.clock()
        self.spans[idx][5] = counts
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx)
                raise
            self.end(idx, counter(args, kwargs, result) if counter else None)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs, then restore the originals."""
        undo = []
        try:
            for name, module_name, attr, counter in TARGETS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = self.wrap(name, original, counter)
                if path:
                    undo.append((owner, leaf, original))
                    setattr(owner, leaf, wrapper)
                    continue
                for mod_name, module in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "rainbow_lab" or module is None:
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op, counts in self.spans:
                row = {"name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "op": op}
                if counts:
                    row["counts"] = counts
                handle.write(json.dumps(row, sort_keys=True) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for idx, s in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, s[1]), min(end, s[2])
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s[2] - s[1] - covered)
    return out


def layer_metrics(spans, ops: set[int], speed: float = 1.0) -> dict[str, float]:
    """Per-layer calls, counts, inclusive ms and self time over the given ops.

    ``spans`` must hold every span of those ops (children point at their
    parents by index).  Times are summed over the ops and multiplied by
    ``speed``; shares are of the summed root (op) span time.
    """
    selves = self_times(spans)
    calls: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    counts: dict[str, int] = {}
    for s, own in zip(spans, selves):
        name, start, end, _, op, extra = s
        if op not in ops:
            continue
        calls[name] = calls.get(name, 0) + 1
        incl_ns[name] = incl_ns.get(name, 0) + (end - start)
        layer = name.split(".")[0]
        self_ns[layer] = self_ns.get(layer, 0) + own
        if name == "shift.fractional_pm_pipeline":
            self_ns[name] = self_ns.get(name, 0) + own
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    for table in (incl_ns, self_ns):
        for key in table:
            table[key] *= speed
    op_ns = incl_ns.get(ROOT, 0)
    m: dict[str, float] = {}
    for f in KERNEL_FUNCS:
        name = f"kernel.{f}"
        nodes = counts.get(f"{name}.nodes", 0)
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.nodes"] = nodes
        m[f"{name}.ms"] = incl_ns.get(name, 0) / 1e6
        m[f"{name}.ns_per_node"] = incl_ns.get(name, 0) / nodes if nodes else 0.0
    m["kernel.aborted"] = sum(counts.get(f"kernel.{f}.aborted", 0) for f in KERNEL_FUNCS)
    for f in FRACTIONAL_FUNCS:
        name = f"fractional.{f}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.ms"] = incl_ns.get(name, 0) / 1e6
    m["fractional.tableau_cells"] = sum(
        counts.get(f"fractional.{f}.tableau_cells", 0) for f in FRACTIONAL_FUNCS
    )
    m["shift.fractional_pm_pipeline.self_ms"] = self_ns.get("shift.fractional_pm_pipeline", 0) / 1e6
    m["shift.stable_shift.calls"] = calls.get("shift.stable_shift", 0)
    m["shift.stable_shift.ms"] = incl_ns.get("shift.stable_shift", 0) / 1e6
    m["shift.stable_shift.rounds"] = counts.get("shift.stable_shift.rounds", 0)
    m["shift.cover_closure.ms"] = incl_ns.get("shift.cover_closure", 0) / 1e6
    m["shift.cover_closure.edges"] = counts.get("shift.cover_closure.edges", 0)
    for f in ("build_gadget", "is_absorbing", "absorb"):
        name = f"absorbing.{f}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.ms"] = incl_ns.get(name, 0) / 1e6
    gadgets = calls.get("absorbing.build_gadget", 0)
    found = counts.get("absorbing.build_gadget.found", 0)
    m["absorbing.build_gadget.found_ratio"] = found / gadgets if gadgets else 0.0
    m["hypergraph.induced.calls"] = calls.get("hypergraph.induced", 0)
    m["hypergraph.induced.ms"] = incl_ns.get("hypergraph.induced", 0) / 1e6
    for layer in (ROOT,) + LAYERS:
        own = self_ns.get(layer, 0)
        m[f"{layer}.self_ms"] = own / 1e6
        m[f"{layer}.self_share"] = own / op_ns if op_ns else 0.0
    return m


# Metrics that repeat exactly on every run of the same code and inputs.
DETERMINISTIC = tuple(
    [f"kernel.{f}.{k}" for f in KERNEL_FUNCS for k in ("calls", "nodes")]
    + ["kernel.aborted", "fractional.tableau_cells", "shift.stable_shift.calls",
       "shift.stable_shift.rounds", "shift.cover_closure.edges",
       "absorbing.build_gadget.found_ratio", "hypergraph.induced.calls"]
    + [f"fractional.{f}.calls" for f in FRACTIONAL_FUNCS]
    + [f"absorbing.{f}.calls" for f in ("build_gadget", "is_absorbing", "absorb")]
)

