"""Coordinatewise edge order, stability, and the codegree shift.

A vertex labeling of a (1,3)-partite 4-graph induces a partial order on
partite 4-sets: compare class-vertex ranks, and compare the sorted
triples of the other three ranks componentwise.  A graph is *stable*
when its edge set is upward closed under that order.  The shift
repeatedly deletes the edges through the lowest-ranked codegree-deficient
triple until none remains, which preserves stability; on inputs whose
own edges all meet the codegree bound it also never deletes an original
edge, so the fractional matching number is preserved along the way.
In the pipeline the shift's input is a cover closure: every partite
4-set of cover weight at least 1, each class ranked by cover weight, so
it is stable by construction.  The shift ranks each edge once into one
table: rank key -> edge.  The keys are bucketed by (class rank, rank
pair) triple, so a round's doomed edges are one bucket, but only at the
class ranks whose triples can ever be deficient; on most closures there
are none, and the shift runs no round and builds no bucket.  One
predicate, :func:`_upward_closed`, checks the input's stability and,
when a round deleted edges, the result's.  The pipeline shifts at the
paper's one codegree bound, ``extremal_adjacent_degree_sum(p)``, and its
one deadline reaches every stage, the shift's rounds included.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import nsmallest
from itertools import combinations
from typing import Optional

from .constructions import PartiteHypergraph, extremal_adjacent_degree_sum
from .fractional import FractionalCover, min_fractional_cover
from .kernel import _deadline, _time_left
from .solvers import DEFAULT_TIMEOUT, Matching, has_perfect_matching

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
        """(class rank, sorted other-class ranks) of a partite 4-edge.

        Nothing is checked: the caller passes an edge as a validated
        :class:`PartiteHypergraph` stores it, sorted with its one class
        vertex first, which that constructor guarantees.
        """
        u, a, b, c = edge
        rank = self._p_rank
        return self._q_rank[u], tuple(sorted((rank[a], rank[b], rank[c])))

    def with_graph(self, graph: PartiteHypergraph) -> "OrderedPartite":
        return OrderedPartite(graph=graph, q_order=self.q_order, p_order=self.p_order)


def identity_order(graph: PartiteHypergraph) -> OrderedPartite:
    return OrderedPartite(
        graph=graph,
        q_order=tuple(graph.q_vertices()),
        p_order=tuple(graph.p_vertices()),
    )


def _upward_closed(keys, q_size: int, p_size: int) -> bool:
    """Upward closure of a collection of rank keys under the shift order.

    Checked through single-rank-step successors, which generate the
    order, so this is equivalent to the all-pairs definition.
    """
    top = q_size - 1
    for i, (a, b, c) in keys:
        if (
            i < top and (i + 1, (a, b, c)) not in keys
            or a + 1 < b and (i, (a + 1, b, c)) not in keys
            or b + 1 < c and (i, (a, b + 1, c)) not in keys
            or c + 1 < p_size and (i, (a, b, c + 1)) not in keys
        ):
            return False
    return True


def cover_closure(
    graph: PartiteHypergraph, cover: FractionalCover
) -> OrderedPartite:
    """All partite 4-sets whose cover weight reaches 1, each class ranked
    by ascending cover weight, ties by vertex id.

    Weights are compared as the integers of :meth:`FractionalCover.scaled`,
    where an absent weight counts as 0; a cover it rejects raises
    ``ValueError``.  Raising a vertex's rank never lowers its weight, so
    the edge set is upward closed, hence stable under the order returned
    with it, and it contains every edge of the covered graph.  The edges
    are generated in canonical sorted order, so the graph is built
    without re-validation.
    """
    scaled = cover.scaled(graph)
    if scaled is None:
        raise ValueError("weights do not form a fractional cover of the graph")
    den, at = scaled
    trios = [
        (trio, at[trio[0]] + at[trio[1]] + at[trio[2]])
        for trio in combinations(graph.p_vertices(), 3)
    ]
    edges = []
    for u in graph.q_vertices():
        need = den - at[u]
        edges.extend((u,) + trio for trio, total in trios if total >= need)
    closed = PartiteHypergraph._trusted(graph.q_size, graph.p_size, edges)
    return OrderedPartite(
        graph=closed,
        q_order=tuple(sorted(graph.q_vertices(), key=lambda v: (at[v], v))),
        p_order=tuple(sorted(graph.p_vertices(), key=lambda v: (at[v], v))),
    )


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
    start: OrderedPartite,
    threshold: int,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> tuple[OrderedPartite, ShiftTrace]:
    """Delete codegree-deficient triples until the threshold holds.

    While some class vertex u and pair v, v' span an edge but have
    codegree sum at most ``threshold``, the triple with lexicographically
    least (rank sum, ranks) is selected and every edge through it is
    removed.  Each round removes at least one edge, so this terminates;
    stability of the input is preserved because any lower predecessor of
    a selected triple would itself violate the threshold with a smaller
    rank sum.  Ranks in the trace are 0-based.

    Each edge is ranked once.  ``edge_of`` maps the rank keys of the
    surviving edges to the edges, and ``through[i, a, b]`` buckets those
    keys by triple (class rank i, other-class ranks a < b): a triple
    spans an edge while its bucket is non-empty, and the bucket of the
    selected triple is exactly the edges a round deletes.  Buckets are
    built only at *weak* class ranks, whose two smallest pair degrees sum
    to at most ``threshold``: no triple elsewhere is deficient, and pair
    degrees fall only in rounds at a deficient triple's class rank, so
    none becomes deficient later.  The survivors are edges of the
    validated input, so the result is built without re-validation.

    The input is checked to be upward closed, and ``stable`` checks the
    survivors by the same predicate; a shift that deleted nothing
    returns its input, so it is stable without a second scan.  The
    deadline is polled once per round: a shift that runs out of
    ``timeout`` raises :class:`SolverTimeout`.
    """
    deadline = _deadline(timeout)
    g = start.graph
    edge_of = {start.rank_key(e): e for e in g.edges}
    if not _upward_closed(edge_of, g.q_size, g.p_size):
        raise ValueError("shift input must be stable under the given order")
    pair_deg = Counter((i, j) for i, ranks in edge_of for j in ranks)
    degs_at: dict[int, list[int]] = {}
    for (i, _), d in pair_deg.items():
        degs_at.setdefault(i, []).append(d)
    weak = {i for i, degs in degs_at.items() if sum(nsmallest(2, degs)) <= threshold}
    through: dict[tuple[int, int, int], set] = {}
    for key in edge_of:
        i, ranks = key
        if i in weak:
            for a, b in combinations(ranks, 2):
                through.setdefault((i, a, b), set()).add(key)

    steps: list[ShiftStep] = []
    while True:
        deficient = [
            (i + j + k, i, j, k)
            for (i, j, k), keys in through.items()
            if keys and pair_deg[i, j] + pair_deg[i, k] <= threshold
        ]
        if not deficient:
            break
        _time_left(deadline, "stability shift")
        _, i, j, k = min(deficient)
        doomed = list(through[i, j, k])
        for key in doomed:
            del edge_of[key]
            pair_deg.subtract((i, x) for x in key[1])
            for a, b in combinations(key[1], 2):
                through[i, a, b].remove(key)
        steps.append(ShiftStep(i, j, k, removed=len(doomed)))

    shifted = start.with_graph(
        PartiteHypergraph._trusted(g.q_size, g.p_size, sorted(edge_of.values()))
    )
    stable = not steps or _upward_closed(edge_of, g.q_size, g.p_size)
    return shifted, ShiftTrace(steps=tuple(steps), stable=stable)


def extend_link_matching(order: OrderedPartite, link_pm: Matching) -> Matching:
    """Extend a perfect matching of the rank-0 link to the whole graph.

    Link edges are sorted descending by their rank triples and the class
    vertices are attached in ascending rank order.  Every assembled edge
    must already be present (guaranteed when the graph is stable, since
    only the class rank grows); a missing edge raises
    :class:`ContractViolation`.
    """
    g = order.graph
    if link_pm.vertices() != frozenset(g.p_vertices()):
        raise ValueError("link matching must cover the non-class side exactly once")
    ranked = sorted(
        (tuple(sorted(order.p_rank(v) for v in e)), tuple(sorted(e)))
        for e in link_pm.edges
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
    graph: PartiteHypergraph, timeout: Optional[float] = DEFAULT_TIMEOUT
) -> PipelineResult:
    """Decide fractional perfect matchability constructively.

    Computes a minimum fractional cover, closes the graph upward under
    the cover's own order, shifts it to the paper's codegree bound
    ``extremal_adjacent_degree_sum(p)``, and extends a perfect matching
    of the lowest class vertex's link, which is searched on the other
    class's vertices in the graph's own ids.  A perfect matching of the
    shifted graph has full fractional value, and when the original edges
    survived the shift the fractional matching number of the input must
    equal the class size; ``value_check`` records that cross-check
    against the optimum of the cover LP, whose value equals the
    fractional matching number by LP duality.  Every stage, the shift
    included, runs on the time left of one ``timeout``.

    ``found`` reports the construction only.  When the shift deletes
    input edges, the link can lack a perfect matching although tau* = q,
    so ``found`` false does not prove tau* < q; ``cover_value`` decides.
    A found construction implies tau* = q, since tau* <= q always holds.
    """
    if not graph.balanced:
        raise ValueError("pipeline needs a balanced partite graph")
    deadline = _deadline(timeout)
    tau, cover = min_fractional_cover(graph, timeout=timeout)
    closure = cover_closure(graph, cover)
    shifted, trace = stable_shift(
        closure,
        extremal_adjacent_degree_sum(graph.p_size),
        timeout=_time_left(deadline, "shift pipeline"),
    )
    containment_ok = set(graph.edges) <= set(shifted.graph.edges)

    matching = None
    if graph.q_size == 0:
        found = True
        matching = Matching(edges=())
    else:
        link = shifted.graph.link(shifted.q_order[0])
        left = _time_left(deadline, "shift pipeline")
        found, link_pm = has_perfect_matching(
            link, timeout=left, vertices=graph.p_vertices()
        )
        if found:
            matching = extend_link_matching(shifted, link_pm)

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
