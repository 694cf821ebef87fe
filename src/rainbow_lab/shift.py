"""Coordinatewise edge order, stability, and the codegree shift.

A vertex labeling of a (1,3)-partite 4-graph induces a partial order on
partite 4-sets: compare class-vertex ranks, and compare the sorted
triples of the other three ranks componentwise.  A graph is *stable*
when its edge set is upward closed under that order.  The shift
repeatedly deletes the edges through the lowest-ranked codegree-deficient
triple until none remains, which preserves stability; on inputs whose
own edges all meet the codegree bound it also never deletes an original
edge, so the fractional matching number is preserved along the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm
from typing import Optional, Sequence

from .constructions import (
    PartiteHypergraph,
    extremal_adjacent_degree_sum,
)
from .fractional import (
    FractionalCover,
    min_fractional_cover,
)
from .hypergraph import Hypergraph
from .solvers import (
    DEFAULT_TIMEOUT,
    Matching,
    has_perfect_matching,
)

Edge = tuple[int, ...]


class ContractViolation(RuntimeError):
    """An operation's guaranteed postcondition failed; signals a bug."""


@dataclass(frozen=True)
class OrderedPartite:
    """A partite graph together with a rank order on each class.

    ``q_order[r]`` / ``p_order[r]`` is the vertex of rank r; lower rank
    sorts earlier in every comparison below.
    """

    graph: PartiteHypergraph
    q_order: tuple[int, ...]
    p_order: tuple[int, ...]

    def __post_init__(self):
        g = self.graph
        if sorted(self.q_order) != list(g.q_vertices()):
            raise ValueError("q_order is not a permutation of the class-Q ids")
        if sorted(self.p_order) != list(g.p_vertices()):
            raise ValueError("p_order is not a permutation of the class-P ids")
        object.__setattr__(
            self, "_q_rank", {v: r for r, v in enumerate(self.q_order)}
        )
        object.__setattr__(
            self, "_p_rank", {v: r for r, v in enumerate(self.p_order)}
        )

    def p_rank(self, v: int) -> int:
        return self._p_rank[v]

    def rank_key(self, edge: Edge) -> tuple[int, tuple[int, int, int]]:
        """(class rank, sorted other-class ranks) of a partite 4-edge."""
        q = [v for v in edge if v < self.graph.q_size]
        p = [v for v in edge if v >= self.graph.q_size]
        if len(edge) != 4 or len(q) != 1 or len(p) != 3 or len(set(edge)) != 4:
            raise ValueError(f"{edge} is not a partite 4-edge")
        j1, j2, j3 = sorted(self._p_rank[v] for v in p)
        return self._q_rank[q[0]], (j1, j2, j3)

    def with_graph(self, graph: PartiteHypergraph) -> "OrderedPartite":
        return OrderedPartite(graph=graph, q_order=self.q_order, p_order=self.p_order)


def identity_order(graph: PartiteHypergraph) -> OrderedPartite:
    return OrderedPartite(
        graph=graph,
        q_order=tuple(graph.q_vertices()),
        p_order=tuple(graph.p_vertices()),
    )


def edge_precedes(e: Edge, f: Edge, order: OrderedPartite) -> bool:
    """The shift order: ranks of e bound those of f componentwise."""
    qi, ep = order.rank_key(e)
    qj, fp = order.rank_key(f)
    return qi <= qj and all(a <= b for a, b in zip(ep, fp))


def _rank_edges(order: OrderedPartite) -> set[tuple[int, tuple[int, int, int]]]:
    return {order.rank_key(e) for e in order.graph.edges}


def _immediate_successors(i, triple, q_size, p_size):
    j1, j2, j3 = triple
    if i + 1 < q_size:
        yield i + 1, triple
    if j1 + 1 < j2:
        yield i, (j1 + 1, j2, j3)
    if j2 + 1 < j3:
        yield i, (j1, j2 + 1, j3)
    if j3 + 1 < p_size:
        yield i, (j1, j2, j3 + 1)


def is_stable(order: OrderedPartite) -> bool:
    """Upward closure of the edge set under the shift order.

    Checked through single-rank-step successors, which generate the
    order, so this is equivalent to the all-pairs definition.
    """
    g = order.graph
    present = _rank_edges(order)
    for i, triple in present:
        for succ in _immediate_successors(i, triple, g.q_size, g.p_size):
            if succ not in present:
                return False
    return True


def order_by_cover(
    graph: PartiteHypergraph, cover: FractionalCover
) -> OrderedPartite:
    """Rank each class by ascending cover weight, ties by vertex id."""
    w = cover.weights
    missing = [v for v in range(graph.n_vertices) if v not in w]
    if missing:
        raise ValueError(f"cover has no weight for vertices {missing}")
    q_order = tuple(sorted(graph.q_vertices(), key=lambda v: (w[v], v)))
    p_order = tuple(sorted(graph.p_vertices(), key=lambda v: (w[v], v)))
    return OrderedPartite(graph=graph, q_order=q_order, p_order=p_order)


def cover_closure(
    graph: PartiteHypergraph,
    cover: FractionalCover,
    order: OrderedPartite,
) -> OrderedPartite:
    """All partite 4-sets whose cover weight reaches 1.

    With ranks ascending in weight this edge set is upward closed, hence
    stable, and it contains every edge of the covered graph.  Weights are
    compared as integer numerators over their common denominator.
    """
    w = cover.weights
    den = lcm(*(x.denominator for x in w.values()))
    num = {v: x.numerator * (den // x.denominator) for v, x in w.items()}
    at = [num[v] for v in range(graph.n_vertices)]
    if any(not 0 <= x <= den for x in num.values()) or any(
        sum(at[v] for v in e) < den for e in graph.edges
    ):
        raise ValueError("weights do not form a fractional cover of the graph")
    trios = [
        (trio, at[trio[0]] + at[trio[1]] + at[trio[2]])
        for trio in combinations(graph.p_vertices(), 3)
    ]
    edges = []
    for u in graph.q_vertices():
        need = den - at[u]
        edges.extend((u,) + trio for trio, total in trios if total >= need)
    closed = PartiteHypergraph(graph.q_size, graph.p_size, edges)
    return order.with_graph(closed)


@dataclass(frozen=True)
class ShiftStep:
    """One deletion round: the selected ranks and how many edges went."""

    q_rank: int
    p_rank_low: int
    p_rank_high: int
    removed: int


@dataclass(frozen=True)
class ShiftTrace:
    steps: tuple[ShiftStep, ...]
    stable: bool

    @property
    def edges_removed(self) -> int:
        return sum(s.removed for s in self.steps)

    def to_dict(self) -> dict:
        return {
            "stable": self.stable,
            "trace": [
                [s.q_rank, s.p_rank_low, s.p_rank_high, s.removed]
                for s in self.steps
            ],
            "edges_removed": self.edges_removed,
        }


def stable_shift(
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
        i, (j1, j2, j3) = start.rank_key(edge)
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
            ei, ranks = start.rank_key(e)
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


def link_of_lowest(order: OrderedPartite) -> tuple[Hypergraph, tuple[int, ...]]:
    """3-graph of edge remainders over the rank-0 class vertex.

    Returned on vertex set 0..p-1 together with the id map back into the
    partite graph (position i holds the original id).
    """
    g = order.graph
    u1 = order.q_order[0]
    ids = tuple(g.p_vertices())
    shift = g.q_size
    remainders = [
        tuple(v - shift for v in e if v != u1) for e in g.edges if u1 in e
    ]
    return Hypergraph(3, g.p_size, remainders), ids


def extend_link_matching(
    order: OrderedPartite, link_pm: Sequence[Edge]
) -> Matching:
    """Extend a perfect matching of the rank-0 link to the whole graph.

    Link edges are sorted descending by their rank triples and the class
    vertices are attached in ascending rank order.  Every assembled edge
    must already be present (guaranteed when the graph is stable, since
    only the class rank grows); a missing edge raises
    :class:`ContractViolation`.
    """
    g = order.graph
    covered = sorted(v for e in link_pm for v in e)
    if covered != list(g.p_vertices()):
        raise ValueError("link matching must cover the non-class side exactly once")
    ranked = sorted(
        (tuple(sorted(order.p_rank(v) for v in e)), tuple(sorted(e)))
        for e in link_pm
    )
    ranked.reverse()
    assembled = []
    for rank, (_, e) in enumerate(ranked):
        u = order.q_order[rank]
        full = tuple(sorted((u,) + e))
        if not g.has_edge(full):
            raise ContractViolation(
                f"extension edge {full} is missing; input graph is not stable"
            )
        assembled.append(full)
    return Matching(edges=tuple(sorted(assembled)))


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of the cover -> closure -> shift -> extend pipeline."""

    found: bool
    trace: ShiftTrace
    cover_value: object
    containment_ok: bool
    closure: OrderedPartite
    shifted: OrderedPartite
    matching: Optional[Matching]
    value_check: Optional[bool]


def fractional_pm_pipeline(
    graph: PartiteHypergraph,
    threshold: Optional[int] = None,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> PipelineResult:
    """Decide fractional perfect matchability constructively.

    Computes a minimum fractional cover, orders vertices by weight,
    closes the graph upward, shifts it to the codegree threshold, and
    extends a perfect matching of the lowest class vertex's link.  A
    perfect matching of the shifted graph has full fractional value, and
    when the original edges survived the shift the fractional matching
    number of the input must equal the class size; ``value_check``
    records that cross-check against the optimum of the cover LP, whose
    value equals the fractional matching number by LP duality.
    """
    if not graph.balanced:
        raise ValueError("pipeline needs a balanced partite graph")
    if threshold is None:
        threshold = extremal_adjacent_degree_sum(graph.p_size)
    tau, cover = min_fractional_cover(graph, timeout=timeout)
    closure = cover_closure(graph, cover, order_by_cover(graph, cover))
    shifted, trace = stable_shift(closure, threshold)
    containment_ok = set(graph.edges) <= set(shifted.graph.edges)

    matching = None
    if graph.q_size == 0:
        found = True
        matching = Matching(edges=())
    else:
        link, ids = link_of_lowest(shifted)
        found, link_pm = has_perfect_matching(link, timeout=timeout)
        if found and link_pm is not None:
            mapped = [tuple(sorted(ids[v] for v in e)) for e in link_pm.edges]
            matching = extend_link_matching(shifted, mapped)

    value_check = None
    if found and containment_ok:
        value_check = tau == graph.q_size
    return PipelineResult(
        found=found,
        trace=trace,
        cover_value=cover.value(),
        containment_ok=containment_ok,
        closure=closure,
        shifted=shifted,
        matching=matching,
        value_check=value_check,
    )
