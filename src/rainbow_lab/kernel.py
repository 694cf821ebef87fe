"""Exhaustive search kernel: rainbow systems, perfect matchings, max matchings.

Edges are vertex bitmasks held in Python ints, so instances of any
width are searched the same way.  Each search fixes its candidate
order, pruning rules and node accounting, so the same masks always
yield the same witness and node count; the solvers, the experiment
digests and the benchmark's node counts rely on that.

Status codes: 0 = search completed (witness present for system/cover
search, best-so-far is optimal for the max search), 1 = completed with
no solution, 2 = node budget or deadline exhausted.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

FOUND = 0
NONE = 1
ABORTED = 2

_DEADLINE_STRIDE = 4096


class _Abort(Exception):
    pass


def _expired(nodes: int, node_budget: int, deadline: float) -> bool:
    if node_budget and nodes >= node_budget:
        return True
    if deadline and nodes % _DEADLINE_STRIDE == 0 and time.monotonic() > deadline:
        return True
    return False


def backend_name() -> str:
    """Name of the search implementation, recorded with benchmark runs."""
    return "pure"


def rainbow_search(
    color_masks: Sequence[Sequence[int]],
    node_budget: int = 0,
    deadline: float = 0.0,
) -> tuple[int, Optional[list[int]], int]:
    """Pick one edge per color, pairwise disjoint.

    Colors are filled in index order and candidates tried in list order,
    so the first witness in that ordering is returned.  After each
    tentative placement every remaining color is checked for a disjoint
    candidate.
    """
    t = len(color_masks)
    lists = [list(c) for c in color_masks]
    if any(not lst for lst in lists):
        return NONE, None, 0
    picks = [-1] * t
    nodes = 0

    def starved(level: int, occ: int) -> bool:
        for c in range(level, t):
            if all(m & occ for m in lists[c]):
                return True
        return False

    def search(level: int, occ: int) -> bool:
        nonlocal nodes
        if level == t:
            return True
        for idx, m in enumerate(lists[level]):
            nodes += 1
            if _expired(nodes, node_budget, deadline):
                raise _Abort
            if m & occ:
                continue
            occ2 = occ | m
            if level + 1 < t and starved(level + 1, occ2):
                continue
            picks[level] = idx
            if search(level + 1, occ2):
                return True
        return False

    try:
        if search(0, 0):
            return FOUND, picks, nodes
        return NONE, None, nodes
    except _Abort:
        return ABORTED, None, nodes


def exact_cover(
    masks: Sequence[int],
    n_vertices: int,
    node_budget: int = 0,
    deadline: float = 0.0,
) -> tuple[int, Optional[list[int]], int]:
    """Partition every vertex into chosen edges (a perfect matching).

    Branches on the uncovered vertex with the fewest disjoint candidate
    edges (ties to the smallest id) and tries its candidates in
    canonical order, which keeps scarce vertices from being silently
    over-committed by earlier choices.
    """
    lists = list(masks)
    full = (1 << n_vertices) - 1
    by_vertex: list[list[int]] = [[] for _ in range(n_vertices)]
    for i, m in enumerate(lists):
        v = m
        while v:
            low = v & -v
            by_vertex[low.bit_length() - 1].append(i)
            v ^= low
    picks: list[int] = []
    nodes = 0

    def search(occ: int) -> bool:
        nonlocal nodes
        if occ == full:
            return True
        pivot = -1
        pivot_count = -1
        for v in range(n_vertices):
            if occ >> v & 1:
                continue
            count = 0
            for i in by_vertex[v]:
                if not (lists[i] & occ):
                    count += 1
                    if pivot_count != -1 and count >= pivot_count:
                        break
            if count == 0:
                return False
            if pivot_count == -1 or count < pivot_count:
                pivot = v
                pivot_count = count
        for i in by_vertex[pivot]:
            m = lists[i]
            if m & occ:
                continue
            nodes += 1
            if _expired(nodes, node_budget, deadline):
                raise _Abort
            picks.append(i)
            if search(occ | m):
                return True
            picks.pop()
        return False

    try:
        if search(0):
            return FOUND, picks, nodes
        return NONE, None, nodes
    except _Abort:
        return ABORTED, None, nodes


def max_disjoint_edges(
    masks: Sequence[int],
    k: int,
    n_vertices: int,
    node_budget: int = 0,
    deadline: float = 0.0,
) -> tuple[int, list[int], int]:
    """Largest set of pairwise disjoint edges, by branch and bound.

    Candidates are scanned in list order with increasing indices; the
    first maximum reached in DFS order is kept.  Bounds: remaining edge
    count, and free vertices divided by k.
    """
    m_count = len(masks)
    lists = list(masks)
    all_vertices = (1 << n_vertices) - 1
    best: list[int] = []
    cur: list[int] = []
    nodes = 0

    def go(start: int, occ: int) -> None:
        nonlocal nodes
        if len(cur) + (all_vertices & ~occ).bit_count() // k <= len(best):
            return
        for j in range(start, m_count):
            if len(cur) + (m_count - j) <= len(best):
                break
            nodes += 1
            if _expired(nodes, node_budget, deadline):
                raise _Abort
            m = lists[j]
            if m & occ:
                continue
            cur.append(j)
            if len(cur) > len(best):
                best[:] = cur
            go(j + 1, occ | m)
            cur.pop()

    try:
        go(0, 0)
        return FOUND, best, nodes
    except _Abort:
        return ABORTED, best, nodes
