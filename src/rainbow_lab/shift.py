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
it is stable by construction.

A round at class rank i deletes only class-i edges and lowers only
class-i pair degrees, so the shift is one independent shift per class
vertex's link, and equal links run equal rounds.  The shift reads which
class vertices share a link from :meth:`PartiteHypergraph._link_classes`,
ranks each distinct link's trios once, off the run of its first class
vertex, into one int key each, and shifts each distinct link on its
own: its pair degrees sit in a list indexed by rank, and its keys are
bucketed by rank pair, but only when some pair can ever be deficient;
on most closures none can, and the shift runs no round, builds no
bucket and returns its input.  The deficient pairs wait in a heap, so a
round costs the edges it deletes and the pairs they touch, not a scan
of every bucket.  The global trace merges the links' rounds,
one sequence per class rank.  One predicate, :func:`_stable`, checks the
input's stability on the links' keys and, when a round deleted edges,
the result's.  The pipeline shifts at the paper's one codegree bound,
``extremal_adjacent_degree_sum(p)``, and its one deadline reaches every
stage: the cover closure polls it once per class vertex, and the shift
once per round, once per class vertex as the partition yields it, and
once before each other unit of its set-up.  A missing
extension edge is a fault and raises ``AssertionError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace, nsmallest
from itertools import combinations
from typing import Optional

from .constructions import PartiteHypergraph, extremal_adjacent_degree_sum
from .fractional import FractionalCover, min_fractional_cover
from .kernel import _deadline, _time_left
from .solvers import DEFAULT_TIMEOUT, Matching, has_perfect_matching

Edge = tuple[int, ...]


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
            self, "_p_rank", {v: r for r, v in enumerate(self.p_order)}
        )

    def p_rank(self, v: int) -> int:
        return self._p_rank[v]

    def with_graph(self, graph: PartiteHypergraph) -> "OrderedPartite":
        return OrderedPartite(graph=graph, q_order=self.q_order, p_order=self.p_order)


def identity_order(graph: PartiteHypergraph) -> OrderedPartite:
    return OrderedPartite(
        graph=graph,
        q_order=tuple(graph.q_vertices()),
        p_order=tuple(graph.p_vertices()),
    )


def _rank_link(
    run: tuple[Edge, ...], rank: dict[int, int], p: int
) -> tuple[list[int], list[int]]:
    """The key ``(a * p + b) * p + c`` of each edge's trio, a < b < c its
    vertices' ranks, and the link's degree at each rank.  ``run`` is a
    class vertex's run; its class column is skipped, not sliced off."""
    keys = []
    deg = [0] * p
    for _, x, y, z in run:
        a, b, c = sorted((rank[x], rank[y], rank[z]))
        deg[a] += 1
        deg[b] += 1
        deg[c] += 1
        keys.append((a * p + b) * p + c)
    return keys, deg


def _stable(links: list[set[int]], at_rank: list[int], p: int, deadline: float) -> bool:
    """Upward closure, under the shift order, of the 4-sets whose class
    rank i and trio key lie in ``links[at_rank[i]]``.

    Checked through single-rank-step successors, which generate the
    order, so this is equivalent to the all-pairs definition: each
    distinct link is upward closed under a step of one of its three
    ranks, which adds ``p^2``, ``p`` or 1 to a key, and the class-rank
    step holds when each class rank's link lies inside the next one's,
    checked only where the two links differ.  The deadline is polled
    before each link's scan and each nesting check.
    """
    p2 = p * p
    for keys in links:
        _time_left(deadline, "stability shift")
        for key in keys:
            a, bc = divmod(key, p2)
            b, c = divmod(bc, p)
            if (
                a + 1 < b and key + p2 not in keys
                or b + 1 < c and key + p not in keys
                or c + 1 < p and key + 1 not in keys
            ):
                return False
    for low, high in zip(at_rank, at_rank[1:]):
        if low != high:
            _time_left(deadline, "stability shift")
            if not links[low] <= links[high]:
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
    with it, and it contains every edge of the covered graph.  The trios
    are filtered once per distinct class weight, and the edges are
    generated in canonical sorted order, so the graph is built without
    re-validation.  The deadline is polled once per class vertex: a
    closure that runs out of ``timeout`` raises :class:`SolverTimeout`.
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
    links: dict[int, list[Edge]] = {}
    edges = []
    for u in graph.q_vertices():
        _time_left(deadline, "cover closure")
        need = den - at[u]
        if need not in links:
            links[need] = [trio for trio, total in trios if total >= need]
        edges.extend((u,) + trio for trio in links[need])
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


def _shift_link(
    keys: list[int],
    alive: set[int],
    deg: list[int],
    threshold: int,
    deadline: float,
) -> list[tuple[int, int, int]]:
    """The rounds ``(j, k, removed)`` of one link's shift, in order.

    ``alive``, the set of the link's keys, keeps the survivors, and
    ``deg``, the link's degree at each rank, falls with the deletions.

    Runs no round, and builds nothing, unless the link is *weak*: its
    two smallest nonzero degrees sum to at most ``threshold``.  No pair
    of a link that is not weak is deficient, and degrees fall only in
    its own rounds, so none becomes deficient later.  ``through[t]``
    buckets the keys by rank pair ``t = j * p + k`` (j < k): a pair
    spans an edge while its bucket is non-empty, and the bucket of the
    selected pair is exactly the edges a round deletes.

    The deficient pairs wait in a heap ordered by ``(j + k, j, k)``,
    packed into one int.  Degrees only fall and buckets only shrink, so
    a deficient pair stays deficient until its bucket empties, and an
    emptied pair is popped when it reaches the top.  After a round, only
    a pair (x, y) with x a rank whose degree fell can have become
    deficient: ``with_rank[x]`` lists those pairs, and each that now is
    deficient is pushed, once, as ``queued`` records.  So the heap's top
    is the pair a rescan of every bucket would select.
    """
    if not keys or sum(nsmallest(2, filter(None, deg))) > threshold:
        return []
    p = len(deg)
    p2 = p * p
    _time_left(deadline, "stability shift")
    through: dict[int, set[int]] = {}
    with_rank: dict[int, list[int]] = {}
    for key in keys:
        ab, c = divmod(key, p)
        a, b = divmod(ab, p)
        for x, y in ((a, b), (a, c), (b, c)):
            t = x * p + y
            if t not in through:
                through[t] = set()
                with_rank.setdefault(x, []).append(t)
                with_rank.setdefault(y, []).append(t)
            through[t].add(key)

    heap = []
    for t in through:
        j, k = divmod(t, p)
        if deg[j] + deg[k] <= threshold:
            heap.append((j + k) * p2 + t)
    heapify(heap)
    queued = {h % p2 for h in heap}
    rounds = []
    while heap:
        t = heap[0] % p2
        doomed = through[t]
        if not doomed:
            heappop(heap)
            continue
        _time_left(deadline, "stability shift")
        heappop(heap)
        fell = set()
        for key in doomed:
            alive.remove(key)
            ab, c = divmod(key, p)
            a, b = divmod(ab, p)
            deg[a] -= 1
            deg[b] -= 1
            deg[c] -= 1
            fell.update((a, b, c))
            for other in (ab, a * p + c, b * p + c):
                if other != t:
                    through[other].remove(key)
        rounds.append((*divmod(t, p), len(doomed)))
        doomed.clear()
        for x in fell:
            for other in with_rank[x]:
                if other in queued or not through[other]:
                    continue
                y, z = divmod(other, p)
                if deg[y] + deg[z] <= threshold:
                    queued.add(other)
                    heappush(heap, (y + z) * p2 + other)
    return rounds


def _merged(
    rounds: list[list[tuple[int, int, int]]], at_rank: list[int]
) -> tuple[ShiftStep, ...]:
    """The global trace: class rank i repeats the rounds of its link
    ``at_rank[i]``, and the trace repeatedly takes the class rank whose
    next round has the least ``(rank sum, i, j, k)``.

    A link's rounds need not come in that order, since a round can make
    a lower pair deficient, so this is no merge of sorted sequences: it
    compares only the class ranks' next rounds, each the least deficient
    triple at its class rank.
    """
    heads = []
    for i, h in enumerate(at_rank):
        if rounds[h]:
            j, k, _ = rounds[h][0]
            heads.append((i + j + k, i, j, k, 0))
    heapify(heads)
    steps = []
    while heads:
        _, i, j, k, n = heads[0]
        mine = rounds[at_rank[i]]
        steps.append(ShiftStep(i, j, k, removed=mine[n][2]))
        if n + 1 < len(mine):
            j, k, _ = mine[n + 1]
            heapreplace(heads, (i + j + k, i, j, k, n + 1))
        else:
            heappop(heads)
    return tuple(steps)


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

    A round at class rank i deletes only class-i edges, lowers only
    class-i pair degrees, and whether a class-i triple is deficient
    depends only on those.  So each class vertex's link shifts on its
    own, and links that are equal shift alike.  Which class vertices
    share a link is :meth:`PartiteHypergraph._link_classes`'s to say;
    each distinct link's trios are ranked once, when its first class
    vertex comes, straight off that vertex's run, into the int key
    ``(a * p + b) * p + c`` of their ranks a < b < c, and shifted once by
    :func:`_shift_link`.  Class rank i then repeats its link's rounds,
    and the global trace repeatedly takes the class rank whose next
    round has the least ``(rank sum, i, j, k)``: that round is the least
    deficient triple of all, since each class rank's next round is its
    least.

    The input is checked to be stable by :func:`_stable`, and ``stable``
    checks the survivors by the same predicate; a shift that runs no
    round returns its input itself, stable without a second scan.  The
    survivors are each class vertex's run in input order, less what its
    link lost, so the result is built without re-validation.  The
    deadline is polled once per round, and during the set-up once per
    class vertex as the partition yields it and once before each other
    unit of work: a distinct link's ranking, stability scan or
    bucketing, and a nesting check.  A shift that runs out of
    ``timeout`` raises :class:`SolverTimeout`, in its set-up too.
    """
    deadline = _deadline(timeout)
    g = start.graph
    p = g.p_size
    link_of, ranked = [], []
    for u, h in enumerate(g._link_classes()):
        _time_left(deadline, "stability shift")
        link_of.append(h)
        if h == len(ranked):
            _time_left(deadline, "stability shift")
            ranked.append(_rank_link(g._run(u), start._p_rank, p))
    at_rank = [link_of[u] for u in start.q_order]
    alive = [set(keys) for keys, _ in ranked]
    if not _stable(alive, at_rank, p, deadline):
        raise ValueError("shift input must be stable under the given order")

    rounds = [
        _shift_link(keys, kept, deg, threshold, deadline)
        for (keys, deg), kept in zip(ranked, alive)
    ]
    steps = _merged(rounds, at_rank)
    if not steps:
        return start, ShiftTrace(steps=(), stable=True)
    survivors = []
    for u, h in enumerate(link_of):
        kept, keys = alive[h], ranked[h][0]
        if len(kept) == len(keys):
            survivors.extend(g._run(u))
        elif kept:
            survivors.extend(e for e, key in zip(g._run(u), keys) if key in kept)
    result = start.with_graph(PartiteHypergraph._trusted(g.q_size, p, survivors))
    stable = _stable(alive, at_rank, p, deadline)
    return result, ShiftTrace(steps=steps, stable=stable)


def extend_link_matching(order: OrderedPartite, link_pm: Matching) -> Matching:
    """Extend a perfect matching of the rank-0 link to the whole graph.

    Link edges are sorted descending by their rank triples and the class
    vertices are attached in ascending rank order.  Every assembled edge
    must already be present (guaranteed when the graph is stable, since
    only the class rank grows, and the pipeline extends only stable
    graphs), so a missing edge is a fault and raises ``AssertionError``.
    Each link edge is sorted once, when it is ranked; the class vertex
    precedes every class-P vertex, so ``(u,) + e`` is sorted already.
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
        full = (u,) + e
        if not g._has(full):
            raise AssertionError(
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
