"""Brute-force oracles, independent of the package's search kernels.

These recompute expected values by plain enumeration with no pruning
beyond disjointness, so they stay honest cross-checks for the solvers.
Only usable at small sizes.  The exceptions are the reference search
kernel, the dense LP tableau and the reference shift at the end, which
fix the search tree of the kernel and the exact output of the LP and
the shift rather than just their verdicts, the shift order with its
stability check, which specify what the shift preserves, and the cover
order that a closure must carry.  ``random_3graph``,
``repeated_families`` and ``parity_family`` build shared test
instances.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations
from typing import Optional

from rainbow_lab.constructions import (
    HypergraphFamily,
    PartiteHypergraph,
    extremal_graph,
    family_to_partite,
)
from rainbow_lab.fractional import ZERO, FractionalCover, FractionalMatching
from rainbow_lab.hypergraph import Hypergraph
from rainbow_lab.shift import (
    Edge,
    OrderedPartite,
    ShiftStep,
    ShiftTrace,
)
from rainbow_lab.solvers import SolverTimeout, _deadline


def random_3graph(rng, n: int, prob: float) -> Hypergraph:
    """Each triple of [0, n) an edge with probability ``prob``, drawn in
    lexicographic order, one ``rng.random()`` per triple."""
    return Hypergraph(
        3, n, [e for e in combinations(range(n), 3) if rng.random() < prob]
    )


def repeated_families(rng, count):
    """Partite reductions of seeded families that hold each member of
    a pool, and repeats of them to t members.  The pool holds random
    3-graphs, the tight member and dropped-edge copies of it."""
    for _ in range(count):
        n = rng.choice([6, 9, 12])
        t = n // 3
        tight = extremal_graph(n, t, 2)
        pool = [
            rng.choice([
                random_3graph(rng, n, rng.uniform(0.05, 0.6)),
                tight,
                Hypergraph(3, n, [e for e in tight.edges if rng.random() >= 0.05]),
            ])
            for _ in range(rng.randint(1, t))
        ]
        members = pool + [rng.choice(pool) for _ in range(t - len(pool))]
        rng.shuffle(members)
        yield family_to_partite(HypergraphFamily(n, tuple(members)))


def parity_family(n: int = 12) -> HypergraphFamily:
    """n/3 copies of the triples meeting A = {0..4} in 0 or 2 vertices.

    A divisibility barrier: t disjoint triples would cover the odd set A
    by even parts.  Its cover value is t, so no cover refutes it, and the
    search takes 59,640 nodes at n = 12.
    """
    inside = set(range(5))
    member = Hypergraph(
        3, n, [e for e in combinations(range(n), 3) if len(inside & set(e)) in (0, 2)]
    )
    return HypergraphFamily(n, (member,) * (n // 3))


def brute_degree(edges, subset) -> int:
    want = set(subset)
    return sum(1 for e in edges if want.issubset(e))


def brute_max_matching_size(edges) -> int:
    """DFS over increasing edge indices; no bounding."""
    best = 0

    def go(start: int, used: frozenset, count: int) -> None:
        nonlocal best
        best = max(best, count)
        for j in range(start, len(edges)):
            e = edges[j]
            if not (used & set(e)):
                go(j + 1, used | set(e), count + 1)

    go(0, frozenset(), 0)
    return best


def brute_pm_exists(edges, n_vertices: int, k: int) -> bool:
    """Cover the lowest uncovered vertex at each step."""
    if n_vertices % k != 0:
        return False
    target = frozenset(range(n_vertices))

    def go(used: frozenset) -> bool:
        if used == target:
            return True
        low = min(target - used)
        for e in edges:
            se = set(e)
            if low in se and not (se & used):
                if go(used | se):
                    return True
        return False

    return go(frozenset())


def brute_rainbow_exists(member_edges) -> bool:
    """Try every combination of one edge per member."""
    def go(idx: int, used: frozenset) -> bool:
        if idx == len(member_edges):
            return True
        for e in member_edges[idx]:
            se = set(e)
            if not (se & used):
                if go(idx + 1, used | se):
                    return True
        return False

    return go(0, frozenset())


def all_partite_four_sets(q_size: int, p_size: int):
    for u in range(q_size):
        for trio in combinations(range(q_size, q_size + p_size), 3):
            yield (u,) + trio


def rank_key(order: OrderedPartite, edge: Edge) -> tuple[int, tuple[int, int, int]]:
    """(class rank, sorted other-class ranks) of a partite 4-edge.

    Nothing is checked: the caller passes an edge as a validated
    :class:`PartiteHypergraph` stores it, sorted with its one class
    vertex first, which that constructor guarantees.
    """
    u, a, b, c = edge
    return order.q_order.index(u), tuple(sorted(map(order.p_rank, (a, b, c))))


def edge_precedes(e: Edge, f: Edge, order: OrderedPartite) -> bool:
    """The shift order: ranks of e bound those of f componentwise.

    ``rank_key`` trusts its edge, so each is first validated as a
    partite 4-set of the order's graph (``ValueError`` otherwise)."""
    g = order.graph
    e, f = (PartiteHypergraph(g.q_size, g.p_size, [x]).edges[0] for x in (e, f))
    qi, ep = rank_key(order, e)
    qj, fp = rank_key(order, f)
    return qi <= qj and all(a <= b for a, b in zip(ep, fp))


def is_stable(order: OrderedPartite) -> bool:
    """Upward closure of the edge set under the shift order, checked
    through single-rank steps on ``(class rank, sorted ranks)`` keys.

    The steps generate the order, so this agrees with
    :func:`brute_is_stable`; it shares no code with the package's own
    closure check, which steps int keys."""
    g = order.graph
    keys = {rank_key(order, e) for e in g.edges}
    top = g.q_size - 1
    return not any(
        i < top and (i + 1, (a, b, c)) not in keys
        or a + 1 < b and (i, (a + 1, b, c)) not in keys
        or b + 1 < c and (i, (a, b + 1, c)) not in keys
        or c + 1 < g.p_size and (i, (a, b, c + 1)) not in keys
        for i, (a, b, c) in keys
    )


def brute_is_stable(order) -> bool:
    """Definitional check: every dominating 4-set of an edge is an edge."""
    g = order.graph
    edge_set = set(g.edges)
    for e in g.edges:
        for f in all_partite_four_sets(g.q_size, g.p_size):
            if edge_precedes(e, tuple(sorted(f)), order):
                if tuple(sorted(f)) not in edge_set:
                    return False
    return True


def cover_order(
    graph: PartiteHypergraph, cover: FractionalCover
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(Q order, P order): each class by ascending Fraction weight, ties
    by vertex id, an absent weight ranking as 0."""
    def rank(v):
        return cover.weights.get(v, ZERO), v

    return (
        tuple(sorted(graph.q_vertices(), key=rank)),
        tuple(sorted(graph.p_vertices(), key=rank)),
    )


def fraction_is_cover(weights, graph: Hypergraph) -> bool:
    """The fractional-cover definition, in Fractions: every key a vertex,
    every weight in [0, 1], every edge weighted to at least 1, and an
    absent weight counted as 0."""
    if any(v not in range(graph.n_vertices) for v in weights):
        return False
    if any(not 0 <= w <= 1 for w in weights.values()):
        return False
    return all(
        sum((weights.get(v, ZERO) for v in e), ZERO) >= 1 for e in graph.edges
    )


def fraction_is_matching(weights, graph: Hypergraph) -> bool:
    """The fractional-matching definition, in Fractions: every key an
    edge, every weight in [0, 1], and every vertex's load, summed over
    all its weighted edges, at most 1."""
    edge_set = set(graph.edges)
    if any(e not in edge_set for e in weights):
        return False
    if any(not 0 <= w <= 1 for w in weights.values()):
        return False
    return all(
        sum((w for e, w in weights.items() if v in e), ZERO) <= 1
        for v in range(graph.n_vertices)
    )


def float_lp_matching_value(edges, n_vertices: int) -> float:
    """Floating-point LP oracle for the fractional matching optimum."""
    from scipy.optimize import linprog

    m = len(edges)
    if m == 0:
        return 0.0
    a_ub = [[1.0 if v in e else 0.0 for e in edges] for v in range(n_vertices)]
    res = linprog(
        [-1.0] * m,
        A_ub=a_ub,
        b_ub=[1.0] * n_vertices,
        bounds=[(0, None)] * m,
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def float_lp_cover_value(edges, n_vertices: int) -> float:
    """Floating-point LP oracle for the fractional cover optimum."""
    from scipy.optimize import linprog

    if not edges:
        return 0.0
    a_ub = [[-1.0 if v in e else 0.0 for v in range(n_vertices)] for e in edges]
    res = linprog(
        [1.0] * n_vertices,
        A_ub=a_ub,
        b_ub=[-1.0] * len(edges),
        bounds=[(0, None)] * n_vertices,
        method="highs",
    )
    assert res.status == 0
    return res.fun


# -- Reference search kernel ---------------------------------------------------
#
# The scalar searches that ``rainbow_lab.kernel`` replaced with bitset
# candidate sets, kept verbatim: they rescan every candidate list at
# every node and keep no dead-end table.  They specify the search tree:
# ``tests/test_kernel.py`` requires the kernel to return their status
# and picks in at most their nodes, and to abort only where they do, so
# candidate order and node accounting cannot drift unseen.

KERNEL_FOUND = 0
KERNEL_NONE = 1
KERNEL_ABORTED = 2

_DEADLINE_STRIDE = 4096


class _Abort(Exception):
    pass


def _expired(nodes: int, node_budget: int, deadline: float) -> bool:
    if node_budget and nodes >= node_budget:
        return True
    if deadline and nodes % _DEADLINE_STRIDE == 0 and time.monotonic() > deadline:
        return True
    return False


def scalar_rainbow_search(color_masks, node_budget: int = 0, deadline: float = 0.0):
    """Pick one edge per color, pairwise disjoint (reference kernel)."""
    t = len(color_masks)
    lists = [list(c) for c in color_masks]
    if any(not lst for lst in lists):
        return KERNEL_NONE, None, 0
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
            return KERNEL_FOUND, picks, nodes
        return KERNEL_NONE, None, nodes
    except _Abort:
        return KERNEL_ABORTED, None, nodes


def scalar_exact_cover(
    masks, n_vertices: int, node_budget: int = 0, deadline: float = 0.0
):
    """Partition every vertex into chosen edges (reference kernel)."""
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
            return KERNEL_FOUND, picks, nodes
        return KERNEL_NONE, None, nodes
    except _Abort:
        return KERNEL_ABORTED, None, nodes


# -- Reference LP tableau -------------------------------------------------------
#
# The dense fraction-free simplex that ``rainbow_lab.fractional._solve``
# replaced with its revised form: it updates all m edge columns of the
# tableau at every pivot.  It follows the same pivot rule as the solve
# (Dantzig pricing, lexicographic ratio test), with the ratios compared
# as Fractions rather than by cross-multiplication.
# ``tests/test_fractional.py`` requires the revised solve to return
# exactly its value, matching weights and cover weights, so the pivot
# path cannot drift unseen.

def dense_solve(
    graph: Hypergraph, timeout: Optional[float]
) -> tuple[Fraction, FractionalMatching, FractionalCover]:
    """Optimal value, matching and cover of the matching LP.

    Columns are the m edges, then the n vertex slacks, then the rhs.
    The largest positive reduced cost enters, ties to the lowest column;
    the leaving row is the lexicographic minimum of (rhs, slack block)
    over the entry.  ``den`` stays positive because every pivot element
    is, so signs of stored ints are signs of the true entries.
    """
    deadline = _deadline(timeout)
    edges = graph.edges
    m = len(edges)
    n = graph.n_vertices
    rows = []
    for v in range(n):
        row = [0] * (m + n + 1)
        for j, e in enumerate(edges):
            if v in e:
                row[j] = 1
        row[m + v] = 1
        row[-1] = 1
        rows.append(row)
    cbar = [1] * m + [0] * (n + 1)  # reduced costs, then -objective
    basis = [m + v for v in range(n)]
    den = 1
    ncols = m + n
    while True:
        best = max(cbar[:ncols], default=0)
        if best <= 0:
            break
        enter = cbar.index(best)
        if deadline and time.monotonic() > deadline:
            raise SolverTimeout("fractional LP exceeded its deadline")
        candidates = [i for i, row in enumerate(rows) if row[enter] > 0]
        if not candidates:
            raise ArithmeticError("LP unbounded; malformed instance")
        leave = min(
            candidates,
            key=lambda i: [
                Fraction(x, rows[i][enter]) for x in [rows[i][-1]] + rows[i][m:-1]
            ],
        )
        prow = rows[leave]
        piv = prow[enter]
        for i, row in enumerate(rows):
            if i != leave:
                rows[i] = dense_bareiss(row, prow, piv, den, enter)
        cbar = dense_bareiss(cbar, prow, piv, den, enter)
        basis[leave] = enter
        den = piv

    weights = {
        edges[b]: Fraction(rows[i][-1], den)
        for i, b in enumerate(basis)
        if b < m and rows[i][-1]
    }
    cover = {v: Fraction(-cbar[m + v], den) for v in range(n)}
    return (
        Fraction(-cbar[-1], den),
        FractionalMatching(weights=weights),
        FractionalCover(weights=cover),
    )


def dense_bareiss(
    row: list[int], prow: list[int], piv: int, den: int, enter: int
) -> list[int]:
    """One non-pivot row after pivoting on ``prow[enter] == piv``.

    The divisions are exact (Bareiss): every result is a subdeterminant
    of the original tableau.
    """
    f = row[enter]
    if f:
        return [(piv * x - f * p) // den for x, p in zip(row, prow)]
    if piv == den:
        return row
    return [x * piv // den for x in row]


# -- Reference stability shift --------------------------------------------------
#
# ``rainbow_lab.shift.stable_shift`` before it ranked each edge once and
# bucketed the edges by triple, kept verbatim: it keeps triple-degree
# counts beside the edge set and re-ranks every surviving edge to find
# the doomed ones.  ``tests/test_shift.py`` requires the shift to return
# exactly its edge set and trace, so the selection order cannot drift.

def reference_stable_shift(
    start: OrderedPartite, threshold: int
) -> tuple[OrderedPartite, ShiftTrace]:
    """Delete codegree-deficient triples until the threshold holds.

    While some class vertex u and pair v, v' span an edge but have
    codegree sum at most ``threshold``, the triple with lexicographically
    least (rank sum, ranks) is selected and every edge through it is
    removed.  Each round removes at least one edge, so this terminates;
    stability of the input is preserved because any lower predecessor of
    a selected triple would itself violate the threshold with a smaller
    rank sum.  Ranks in the trace are 0-based.
    """
    if not is_stable(start):
        raise ValueError("shift input must be stable under the given order")
    g = start.graph
    edges = set(g.edges)
    pair_deg: dict[tuple[int, int], int] = {}
    triple_deg: dict[tuple[int, int, int], int] = {}

    def bump(edge: Edge, delta: int) -> None:
        i, (j1, j2, j3) = rank_key(start, edge)
        for j in (j1, j2, j3):
            key2 = (i, j)
            pair_deg[key2] = pair_deg.get(key2, 0) + delta
        for a, b in ((j1, j2), (j1, j3), (j2, j3)):
            key3 = (i, a, b)
            triple_deg[key3] = triple_deg.get(key3, 0) + delta

    for e in edges:
        bump(e, +1)

    steps: list[ShiftStep] = []
    while True:
        worst: Optional[tuple[int, int, int, int]] = None
        for (i, j, k), d3 in triple_deg.items():
            if d3 <= 0:
                continue
            if pair_deg[(i, j)] + pair_deg[(i, k)] > threshold:
                continue
            cand = (i + j + k, i, j, k)
            if worst is None or cand < worst:
                worst = cand
        if worst is None:
            break
        _, i, j, k = worst
        doomed = []
        for e in edges:
            ei, ranks = rank_key(start, e)
            if ei == i and j in ranks and k in ranks:
                doomed.append(e)
        for e in doomed:
            edges.remove(e)
            bump(e, -1)
        steps.append(
            ShiftStep(q_rank=i, p_rank_low=j, p_rank_high=k, removed=len(doomed))
        )

    shifted = start.with_graph(
        PartiteHypergraph(g.q_size, g.p_size, sorted(edges))
    )
    trace = ShiftTrace(steps=tuple(steps), stable=is_stable(shifted))
    return shifted, trace
