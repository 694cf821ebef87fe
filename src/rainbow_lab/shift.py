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
it is stable by construction.  The shift ranks each edge once, into
one int key, and counts its pair degrees in a list indexed by class
rank and rank.  The keys are bucketed by (class rank, rank pair)
triple, so a round's doomed edges are one bucket, but only at the class
ranks whose triples can ever be deficient; on most closures there are
none, and the shift runs no round, builds no bucket and returns its
input.  The deficient triples wait in a heap, so a round costs the
edges it deletes and the triples they touch, not a scan of every
bucket.  One predicate, :func:`_upward_closed`, checks the input's
stability on the int keys and, when a round deleted edges, the
result's.  The pipeline shifts at the paper's one codegree bound,
``extremal_adjacent_degree_sum(p)``, and its one deadline reaches every
stage, the cover closure and the shift's set-up and rounds included.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, nsmallest
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


# Edges a shift's set-up handles between two polls of its deadline.
_SETUP_STRIDE = 4096


def _polled(items, deadline: float):
    """The items, polling the deadline after every ``_SETUP_STRIDE``."""
    for n, item in enumerate(items, 1):
        if not n % _SETUP_STRIDE:
            _time_left(deadline, "stability shift")
        yield item


def _upward_closed(keys, q_size: int, p_size: int, deadline: float) -> bool:
    """Upward closure of a collection of int rank keys under the shift
    order, the key of class rank i and other-class ranks a < b < c being
    ``((i * p + a) * p + b) * p + c``.

    Checked through single-rank-step successors, which generate the
    order, so this is equivalent to the all-pairs definition: a step
    adds ``p^3``, ``p^2``, ``p`` or 1 to a key.  The deadline is polled
    after every ``_SETUP_STRIDE`` keys.
    """
    p = p_size
    p2 = p * p
    p3 = p2 * p
    top = (q_size - 1) * p3
    for key in _polled(keys, deadline):
        a, bc = divmod(key % p3, p2)
        b, c = divmod(bc, p)
        if (
            key < top and key + p3 not in keys
            or a + 1 < b and key + p2 not in keys
            or b + 1 < c and key + p not in keys
            or c + 1 < p and key + 1 not in keys
        ):
            return False
    return True


def cover_closure(
    graph: PartiteHypergraph,
    cover: FractionalCover,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> OrderedPartite:
    """All partite 4-sets whose cover weight reaches 1, each class ranked
    by ascending cover weight, ties by vertex id.

    Weights are compared as the integers of :meth:`FractionalCover.scaled`,
    where an absent weight counts as 0; a cover it rejects raises
    ``ValueError``.  Raising a vertex's rank never lowers its weight, so
    the edge set is upward closed, hence stable under the order returned
    with it, and it contains every edge of the covered graph.  The edges
    are generated in canonical sorted order, so the graph is built
    without re-validation.  The deadline is polled once per class
    vertex: a closure that runs out of ``timeout`` raises
    :class:`SolverTimeout`.
    """
    deadline = _deadline(timeout)
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
        _time_left(deadline, "cover closure")
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

    Each edge is ranked once, into the int key
    ``((i * p + a) * p + b) * p + c`` of its class rank i and other
    ranks a < b < c; ``alive`` holds the keys of the surviving edges and
    ``pair_deg[i * p + j]`` the degree of the pair of ranks (i, j).
    ``through[t]`` buckets the keys by triple ``t = (i * p + j) * p + k``
    (j < k): a triple spans an edge while its bucket is non-empty, and
    the bucket of the selected triple is exactly the edges a round
    deletes.  Buckets are built only at *weak* class ranks, whose two
    smallest pair degrees sum to at most ``threshold``: no triple
    elsewhere is deficient, and pair degrees fall only in rounds at a
    deficient triple's class rank, so none becomes deficient later.

    The deficient triples wait in a heap ordered by
    ``(rank sum, i, j, k)``, packed into one int.  Pair degrees only
    fall and buckets only shrink, so a deficient triple stays deficient
    until its bucket empties, and an emptied triple is popped when it
    reaches the top.  After a round at class rank i, only a triple
    (i, x, y) with x a rank whose pair degree fell can have become
    deficient: ``with_rank[i * p + x]`` lists those triples, and each
    that now is deficient is pushed, once, as ``queued`` records.  So
    the heap's top is the triple a rescan of every bucket would select.

    The input is checked to be upward closed, and ``stable`` checks the
    survivors by the same predicate; a shift that runs no round returns
    its input itself, stable without a second scan.  The survivors are
    edges of the validated input, taken in its order, so the result is
    built without re-validation.  The deadline is polled once per round
    and, during the set-up, after every ``_SETUP_STRIDE`` edges: a shift
    that runs out of ``timeout`` raises :class:`SolverTimeout`.
    """
    deadline = _deadline(timeout)
    g = start.graph
    p = g.p_size
    p2 = p * p
    pair_deg = [0] * (g.q_size * p)
    keys = []
    for e in _polled(g.edges, deadline):
        i, (a, b, c) = start.rank_key(e)
        ip = i * p
        pair_deg[ip + a] += 1
        pair_deg[ip + b] += 1
        pair_deg[ip + c] += 1
        keys.append(((ip + a) * p + b) * p + c)
    alive = set(keys)
    if not _upward_closed(alive, g.q_size, p, deadline):
        raise ValueError("shift input must be stable under the given order")
    weak = [
        sum(nsmallest(2, filter(None, pair_deg[i * p : i * p + p]))) <= threshold
        for i in range(g.q_size)
    ]
    through: dict[int, set[int]] = {}
    with_rank: dict[int, list[int]] = {}
    for key in _polled(keys, deadline) if any(weak) else ():
        iab, c = divmod(key, p)
        ia, b = divmod(iab, p)
        i, a = divmod(ia, p)
        if not weak[i]:
            continue
        ip = i * p
        for x, y in ((a, b), (a, c), (b, c)):
            t = (ip + x) * p + y
            if t not in through:
                through[t] = set()
                with_rank.setdefault(ip + x, []).append(t)
                with_rank.setdefault(ip + y, []).append(t)
            through[t].add(key)

    # (rank sum, i, j, k) as one int: t orders triples by (i, j, k).
    span = g.q_size * p2
    heap = []
    for t in through:
        i, jk = divmod(t, p2)
        j, k = divmod(jk, p)
        if pair_deg[i * p + j] + pair_deg[i * p + k] <= threshold:
            heap.append((i + j + k) * span + t)
    heapify(heap)
    queued = {h % span for h in heap}
    steps: list[ShiftStep] = []
    while heap:
        t = heap[0] % span
        doomed = through[t]
        if not doomed:
            heappop(heap)
            continue
        _time_left(deadline, "stability shift")
        heappop(heap)
        i, jk = divmod(t, p2)
        j, k = divmod(jk, p)
        ip = i * p
        fell = set()
        for key in doomed:
            alive.remove(key)
            iab, c = divmod(key, p)
            a, b = divmod(iab - ip * p, p)
            pair_deg[ip + a] -= 1
            pair_deg[ip + b] -= 1
            pair_deg[ip + c] -= 1
            fell.update((a, b, c))
            for other in (iab, (ip + a) * p + c, (ip + b) * p + c):
                if other != t:
                    through[other].remove(key)
        steps.append(ShiftStep(i, j, k, removed=len(doomed)))
        doomed.clear()
        for x in fell:
            for other in with_rank[ip + x]:
                if other in queued or not through[other]:
                    continue
                y, z = divmod(other - ip * p, p)
                if pair_deg[ip + y] + pair_deg[ip + z] <= threshold:
                    queued.add(other)
                    heappush(heap, (i + y + z) * span + other)

    if not steps:
        return start, ShiftTrace(steps=(), stable=True)
    survivors = [e for e, key in zip(g.edges, keys) if key in alive]
    shifted = start.with_graph(PartiteHypergraph._trusted(g.q_size, p, survivors))
    stable = _upward_closed(alive, g.q_size, p, deadline)
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
    fractional matching number by LP duality.  Every stage, the closure
    and the shift included, runs on the time left of one ``timeout``.

    ``found`` reports the construction only.  When the shift deletes
    input edges, the link can lack a perfect matching although tau* = q,
    so ``found`` false does not prove tau* < q; ``cover_value`` decides.
    A found construction implies tau* = q, since tau* <= q always holds.
    """
    if not graph.balanced:
        raise ValueError("pipeline needs a balanced partite graph")
    deadline = _deadline(timeout)
    tau, cover = min_fractional_cover(graph, timeout=timeout)
    closure = cover_closure(
        graph, cover, timeout=_time_left(deadline, "shift pipeline")
    )
    shifted, trace = stable_shift(
        closure,
        extremal_adjacent_degree_sum(graph.p_size),
        timeout=_time_left(deadline, "shift pipeline"),
    )
    containment_ok = all(map(shifted.graph._has, graph.edges))

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
