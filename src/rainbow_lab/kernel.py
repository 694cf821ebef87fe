"""Exhaustive search kernel: rainbow systems, perfect matchings, max matchings.

Edges are vertex bitmasks held in Python ints, so instances of any
width are searched the same way.  Each search fixes its candidate
order, pruning rules and node accounting, so the same masks always
yield the same witness and node count; the solvers, the experiment
digests and the benchmark's node counts rely on that.

The rainbow and exact-cover searches carry their candidates as bitsets
over edge indices, also held in Python ints, in the manner of the
column lists of Knuth's Dancing Links: bit ``i`` of an *alive* set says
that edge ``i`` is still disjoint from every placed edge.  For each
vertex ``v`` a search precomputes the set of edges that avoid ``v``, so
no placement rescans an edge list.  The rainbow search intersects each
later color's alive set with one such set per vertex of the placed
edge.  The exact-cover search keeps, for each edge it has placed, the
intersection of its vertices' sets (the edges disjoint from it), made on
the edge's first placement; every placement is then one intersection,
at a cost of up to one bit per edge for each edge placed.  Its pivot
choice visits only the uncovered vertices, as bits of the uncovered set.

A node is one candidate scanned at the current level, whether or not it
is still disjoint.  The rainbow search scans a color's candidates in
list order and skips the conflicting ones in one step, so it advances
the count by the gap to each alive candidate and by the rest of the list
at the end; the count, and an abort on exactly ``node_budget`` nodes,
stay those of a scan that visits every candidate.  The exact-cover
search counts only disjoint candidates of its pivot vertex.  A deadline
is polled whenever the count passes a multiple of ``_DEADLINE_STRIDE``.

In the rainbow and exact-cover searches everything below a node
depends only on the vertices already covered (and, in the rainbow
search, on the level, since edges may differ in size), yet many orders
of placement reach the same covered set.  So each call of either keeps
a dead-end table of the states it has searched without a solution.
Both check a candidate's next state against the table before
descending, after counting the candidate, so a state found there costs
no call and no intersections.  The table lives for one call.  A node
count is that of the full scan minus the subtrees in the table; the
witness is the full scan's, and an abort still reports exactly
``node_budget``, because the scan is a subsequence of the full one.

The exact-cover search may be given groups of twin vertices: vertices
any two of which can be swapped without changing the edge set.  Each
swap is an automorphism, so it maps a dead state to a dead one, and the
table then holds covered sets modulo the swaps.  A set is keyed by its
image with the covered vertices of each group moved to the group's
lowest ones, one key for its whole orbit, so a candidate is skipped
exactly when an image of its next state has died.  That is still a dead
state, so the witness, the verdict and an abort's count stay those of
the full scan, and only the node count falls.  Without groups the table
is a plain set, and a candidate costs one lookup in it.  One key per
orbit keeps the table no larger than without groups.  Recording every
image of each dead state instead, up to C(t, c) of them for c covered
vertices of a group of t, would keep the set lookup but not the size:
on ``extremal_partite(27)`` the table reached 557 MB after 15 s against
22 MB keyed by orbit (2-CPU x86-64 box).

Status codes: 0 = search completed (witness present for system/cover
search, best-so-far is optimal for the max search), 1 = completed with
no solution, 2 = node budget or deadline exhausted.

The timeout contract of every solver and LP lives here too, so no layer
imports another only for it and no other module reads the clock.  A
public call's ``timeout`` (default 60 s) is one monotonic deadline: its
first stage gets ``timeout``, each later one :func:`_time_left`, and a
stage past the deadline raises :class:`SolverTimeout`.
"""

from __future__ import annotations

import time
from math import inf
from typing import Optional, Sequence

FOUND = 0
NONE = 1
ABORTED = 2

_DEADLINE_STRIDE = 4096

DEFAULT_TIMEOUT = 60.0


class SolverTimeout(RuntimeError):
    """Search aborted before completion; existence is unknown."""


def _deadline(timeout: Optional[float]) -> float:
    """The monotonic time ``timeout`` seconds from now; 0.0 for none."""
    return time.monotonic() + timeout if timeout else 0.0


def _time_left(deadline: float, what: str) -> Optional[float]:
    """Seconds to ``deadline`` (None without one), a next stage's timeout;
    raises :class:`SolverTimeout` naming ``what`` once it has passed."""
    if not deadline:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise SolverTimeout(f"{what} exceeded its deadline")
    return left


class _Abort(Exception):
    """Stops a search; ``args[0]`` is the node count to report."""


def _next_check(nodes: int, node_budget: int, deadline: float):
    """The node count at which the budget or the deadline is next due."""
    due = inf
    if deadline:
        due = (nodes // _DEADLINE_STRIDE + 1) * _DEADLINE_STRIDE
    if node_budget:
        due = min(due, node_budget)
    return due


def _checkpoint(nodes: int, node_budget: int, deadline: float):
    """Raise :class:`_Abort` if the search must stop, else the next check.

    Called once ``nodes`` reaches the value :func:`_next_check` returned.
    """
    if node_budget and nodes >= node_budget:
        raise _Abort(node_budget)
    if deadline and time.monotonic() > deadline:
        raise _Abort(nodes)
    return _next_check(nodes, node_budget, deadline)


def _vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _incidence(masks: Sequence[int], n_vertices: int) -> list[int]:
    """For each vertex, the bitset of indices of the masks that contain it.

    Transposes the masks as one string of fixed-width binary rows, so
    the work per mask is a single formatting call.
    """
    if not masks or not n_vertices:
        return [0] * n_vertices
    top = 1 << n_vertices
    if max(masks) >= top:
        raise ValueError(f"an edge mask has a vertex outside range({n_vertices})")
    text = "".join([bin(m | top)[3:] for m in reversed(masks)])
    return [int(text[n_vertices - 1 - v :: n_vertices], 2) for v in range(n_vertices)]


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
    if t == 0:
        return FOUND, [], 0
    lists = [list(c) for c in color_masks]
    if any(not lst for lst in lists):
        return NONE, None, 0
    n_vertices = max(m.bit_length() for lst in lists for m in lst)
    # Vertices of each candidate, filled in when it is first placed.
    verts: list[list[Optional[tuple[int, ...]]]] = [[None] * len(lst) for lst in lists]
    sizes = [len(lst) for lst in lists]
    everything = [(1 << size) - 1 for size in sizes]
    # avoid[c][v]: the candidates of color c that miss vertex v.
    avoid = [
        [every ^ row for row in _incidence(lst, n_vertices)]
        for lst, every in zip(lists, everything)
    ]
    picks = [-1] * t
    # dead[level]: the vertex sets covered by colors < level known to
    # leave no rainbow completion.
    dead: list[set[int]] = [set() for _ in range(t + 1)]
    nodes = 0
    due = _next_check(0, node_budget, deadline)

    def search(level: int, occ: int, cands: int, later: list[int]) -> bool:
        # occ: vertices covered so far; cands: alive candidates of this
        # color; later: alive sets of the colors after it, in order.
        nonlocal nodes, due
        edge_verts = verts[level]
        masks = lists[level]
        later_avoid = avoid[level + 1 :]
        dead_next = dead[level + 1]
        last = -1
        while cands:
            low = cands & -cands
            cands ^= low
            idx = low.bit_length() - 1
            nodes += idx - last
            last = idx
            if nodes >= due:
                due = _checkpoint(nodes, node_budget, deadline)
            nxt_occ = occ | masks[idx]
            if nxt_occ in dead_next:
                continue
            vs = edge_verts[idx]
            if vs is None:
                vs = edge_verts[idx] = _vertices(masks[idx])
            nxt = []
            for alive, rows in zip(later, later_avoid):
                for v in vs:
                    alive &= rows[v]
                if not alive:
                    dead_next.add(nxt_occ)
                    break
                nxt.append(alive)
            else:
                picks[level] = idx
                if not nxt or search(level + 1, nxt_occ, nxt[0], nxt[1:]):
                    return True
        nodes += sizes[level] - 1 - last
        if nodes >= due:
            due = _checkpoint(nodes, node_budget, deadline)
        dead[level].add(occ)
        return False

    try:
        if search(0, 0, everything[0], everything[1:]):
            return FOUND, picks, nodes
        return NONE, None, nodes
    except _Abort as stop:
        return ABORTED, None, stop.args[0]


def exact_cover(
    masks: Sequence[int],
    n_vertices: int,
    node_budget: int = 0,
    deadline: float = 0.0,
    groups: Sequence[int] = (),
) -> tuple[int, Optional[list[int]], int]:
    """Partition every vertex into chosen edges (a perfect matching).

    Branches on the uncovered vertex with the fewest disjoint candidate
    edges (ties to the smallest id) and tries its candidates in
    canonical order, which keeps scarce vertices from being silently
    over-committed by earlier choices.

    ``groups`` are disjoint vertex bitmasks of twins: the caller
    guarantees that swapping any two vertices of one group maps the
    edges onto themselves.  The dead-end table is then keyed modulo
    those swaps (:class:`_Orbits`).
    """
    lists = list(masks)
    full = (1 << n_vertices) - 1
    every = (1 << len(lists)) - 1
    by_bits = _incidence(lists, n_vertices)
    avoid = [every ^ row for row in by_bits]
    # misses[i]: the edges disjoint from edge i, filled in when it is
    # first placed.
    misses: list[Optional[int]] = [None] * len(lists)
    # The chosen edges, deepest first, appended only on the way out of
    # a successful search.
    picks: list[int] = []
    # Covered vertex sets known to leave no exact cover; ``alive`` and
    # the pivot follow from ``occ``, so it alone is the key (its orbit's
    # key, given twin groups).
    dead = _Orbits(groups, full) if groups else set()
    nodes = 0
    due = _next_check(0, node_budget, deadline)

    def search(occ: int, alive: int) -> bool:
        nonlocal nodes, due
        if occ == full:
            return True
        free = full ^ occ
        least = inf
        while free:
            low = free & -free
            free ^= low
            row = by_bits[low.bit_length() - 1] & alive
            count = row.bit_count()
            if count < least:
                if not count:
                    dead.add(occ)
                    return False
                cands, least = row, count
        while cands:
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            nodes += 1
            if nodes >= due:
                due = _checkpoint(nodes, node_budget, deadline)
            nxt = occ | lists[i]
            if nxt in dead:
                continue
            miss = misses[i]
            if miss is None:
                miss = every
                for v in _vertices(lists[i]):
                    miss &= avoid[v]
                misses[i] = miss
            if search(nxt, alive & miss):
                picks.append(i)
                return True
        dead.add(occ)
        return False

    try:
        if search(0, every):
            return FOUND, picks[::-1], nodes
        return NONE, None, nodes
    except _Abort as stop:
        return ABORTED, None, stop.args[0]


class _Orbits:
    """A dead-end table of covered sets modulo twin swaps: a set is
    stored, and found, as its image with the covered vertices of each
    group moved to the group's lowest ones, the same image for every set
    in its orbit."""

    __slots__ = ("keys", "rest", "groups")

    def __init__(self, groups: Sequence[int], full: int):
        self.keys: set[int] = set()
        self.rest = full
        # Each group with its lows: lows[c] is its c lowest vertices.
        self.groups = []
        for group in groups:
            self.rest &= ~group
            lows = [0]
            for v in _vertices(group):
                lows.append(lows[-1] | 1 << v)
            self.groups.append((group, lows))

    def _key(self, occ: int) -> int:
        key = occ & self.rest
        for group, lows in self.groups:
            key |= lows[(occ & group).bit_count()]
        return key

    def __contains__(self, occ: int) -> bool:
        return self._key(occ) in self.keys

    def add(self, occ: int) -> None:
        self.keys.add(self._key(occ))


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
    due = _next_check(0, node_budget, deadline)

    def go(start: int, occ: int) -> None:
        nonlocal nodes, due
        if len(cur) + (all_vertices & ~occ).bit_count() // k <= len(best):
            return
        for j in range(start, m_count):
            if len(cur) + (m_count - j) <= len(best):
                break
            nodes += 1
            if nodes >= due:
                due = _checkpoint(nodes, node_budget, deadline)
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
    except _Abort as stop:
        return ABORTED, best, stop.args[0]
