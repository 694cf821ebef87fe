"""Absorbing gadgets: 24-sets that swallow a balanced 4-set.

A body T absorbs a target A when both the subgraph induced on T and the
one induced on A union T have perfect matchings: the matching reserved
on T can be locally rewired to also cover A.  The constructor follows a
fixed double-matching wiring (six edges covering T, seven covering
A union T, overlapping on six class vertices); the verifier only cares
about the induced perfect matchings, not the wiring.  The constructor
searches on bitsets: each bridge's candidates are one int, and each
vertex's row (the edges through it, as candidates) is tested once per
call.  Every body and target is built by ``BalancedSet.from_vertices``,
the one check of their ids and balance.  Each induced subgraph is
searched on the graph itself, through the solvers' ``vertices`` input,
so no subgraph is built or relabelled.  Absorption searches only where
no proof is stored: a leftover piece that is an unused gadget's own
target takes the joint matching that gadget already holds, before any
other gadget is tried, and any other piece is searched on a gadget's
body plus the piece.  Stored and assembled matchings are checked
against the graph by the one matching check,
:func:`~rainbow_lab.solvers.is_matching_of`.

:func:`absorb_scenario` runs the whole procedure on a balanced graph:
one gadget per target, a maximum matching of the vertices the bodies
leave, and absorption of that matching's leftover through the pool.
It checks the balance before any search, since a leftover of an
unbalanced graph cannot be split into balanced 4-sets.  Its helper
candidates come from each class vertex's run of edges by the same
anchor rule as :func:`popular_vertices`, with no family built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, compress, permutations, repeat
from typing import Iterable, Optional, Sequence

from .constructions import HypergraphFamily, PartiteHypergraph
from .hypergraph import Hypergraph
from .kernel import _deadline, _time_left
from .solvers import (
    DEFAULT_TIMEOUT,
    Matching,
    SolverTimeout,
    has_perfect_matching,
    is_matching_of,
    is_perfect_matching_of,
    max_matching,
)

Edge = tuple[int, ...]

BODY_Q = 6
BODY_P = 18
BODY_SIZE = BODY_Q + BODY_P  # 24 vertices: 6 class + 18 others

# A gadget search node costs ~7 us on a sparse n = 24, q = 8 graph
# (p = 0.06, seed 3 of the gadget pins, which no budget up to 10**5
# decides; one Intel Xeon core, Python 3.11), so this budget runs out in
# ~0.7 s, far within ``DEFAULT_TIMEOUT``, and names the stop.
DEFAULT_NODE_BUDGET = 10**5


class AbsorptionError(RuntimeError):
    """No unused gadget absorbs some 4-set of the leftover."""

    def __init__(self, unabsorbed: tuple[int, ...]):
        super().__init__(f"no available gadget absorbs {unabsorbed}")
        self.unabsorbed = unabsorbed


@dataclass(frozen=True)
class BalancedSet:
    """A vertex set with three non-class vertices per class vertex.  The
    parts are sorted and repeat-free when built by :meth:`from_vertices`,
    whose id check ensures it; the constructor checks only the balance."""

    q_part: tuple[int, ...]
    p_part: tuple[int, ...]

    def __post_init__(self):
        if 3 * len(self.q_part) != len(self.p_part):
            raise ValueError(
                f"unbalanced set: {len(self.q_part)} class vertices vs "
                f"{len(self.p_part)} others"
            )

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.q_part + self.p_part))

    def __len__(self) -> int:
        return len(self.q_part) + len(self.p_part)

    @classmethod
    def from_vertices(
        cls, vertices: Iterable[int], graph: PartiteHypergraph, name: str = "vertex set"
    ) -> "BalancedSet":
        """``name`` labels the set in the id check's messages."""
        vs = graph._check_vertices(vertices, name)
        q = tuple(v for v in vs if v < graph.q_size)
        p = tuple(v for v in vs if v >= graph.q_size)
        return cls(q_part=q, p_part=p)


@dataclass(frozen=True)
class AbsorberGadget:
    """Body T with its reserved matching and the rewiring for target A."""

    target: BalancedSet
    body: BalancedSet
    pm_body: Matching
    pm_joint: Matching

    def __post_init__(self):
        tv = set(self.target.vertices())
        bv = set(self.body.vertices())
        if tv & bv:
            raise ValueError("gadget body overlaps its target")
        if len(self.target) != 4 or len(self.body) != BODY_SIZE:
            raise ValueError("gadget must pair a 4-set with a 24-set")
        if self.pm_body.vertices() != bv:
            raise ValueError("reserved matching must cover exactly the body")
        if self.pm_joint.vertices() != tv | bv:
            raise ValueError("joint matching must cover body and target")


def is_absorbing(
    body: Iterable[int],
    target: Iterable[int],
    graph: PartiteHypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> tuple[bool, Optional[tuple[Matching, Matching]]]:
    """Do both induced subgraphs (body, body+target) have perfect matchings?"""
    deadline = _deadline(timeout)
    body_v = BalancedSet.from_vertices(body, graph, "body").vertices()
    target_v = BalancedSet.from_vertices(target, graph, "target").vertices()
    if len(body_v) != BODY_SIZE:
        raise ValueError(f"body must have {BODY_SIZE} vertices, got {len(body_v)}")
    if len(target_v) != 4:
        raise ValueError(f"target must have 4 vertices, got {len(target_v)}")
    if set(body_v) & set(target_v):
        raise ValueError("body and target overlap")
    found, pm_body = has_perfect_matching(graph, timeout=timeout, vertices=body_v)
    if not found:
        return False, None
    left = _time_left(deadline, "absorbing check")
    found, pm_joint = has_perfect_matching(
        graph, timeout=left, vertices=sorted(body_v + target_v)
    )
    if not found:
        return False, None
    return True, (pm_body, pm_joint)


def _anchor(
    edges: Sequence[tuple[int, ...]], vertices: range
) -> tuple[int, tuple[int, ...]]:
    """The anchor rule: a vertex of ``vertices`` of least degree in
    ``edges`` (ties to the smallest id), and the vertices of ``vertices``
    that share an edge with it.  Edge vertices outside ``vertices`` (a
    class vertex heading its run) are not counted."""
    if not vertices:
        raise ValueError("anchor needs at least one vertex")
    deg = Counter(chain.from_iterable(edges))
    anchor = min(vertices, key=lambda v: (deg[v], v))
    reach = set(chain.from_iterable(e for e in edges if anchor in e))
    return anchor, tuple(v for v in vertices if v in reach and v != anchor)


def low_degree_anchor(member: Hypergraph) -> tuple[int, tuple[int, ...]]:
    """A minimum-degree vertex and everything adjacent to it.

    Ties go to the smallest id.  An isolated anchor has an empty
    neighborhood.
    """
    return _anchor(member.edges, range(member.n_vertices))


def _popular(reaches: Iterable[tuple[int, ...]], threshold: int) -> tuple[int, ...]:
    """The vertices in at least ``threshold`` of the anchors' reaches."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    counts = Counter(chain.from_iterable(reaches))
    return tuple(sorted(v for v, c in counts.items() if c >= threshold))


def popular_vertices(
    family: HypergraphFamily, threshold: int
) -> tuple[int, ...]:
    """Vertices adjacent to at least ``threshold`` members' anchors."""
    return _popular((low_degree_anchor(m)[1] for m in family.members), threshold)


# The set bits of each byte value, for ``_bits``.
_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


def _bits(mask: int) -> list[int]:
    """The set bits of a nonnegative ``mask``, ascending, in time linear
    in its bytes plus its set bits: the zero bytes are skipped in C.
    ``kernel._vertices`` clears one bit per step, so its cost grows with
    the width times the set bits, which is fine for vertex masks but not
    for candidate masks of thousands of bits."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    out: list[int] = []
    for i in compress(range(len(data)), data):
        out += map((i << 3).__add__, _BYTE_BITS[data[i]])
    return out


def build_gadget(
    target: Iterable[int],
    graph: PartiteHypergraph,
    candidates: Iterable[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> Optional[AbsorberGadget]:
    """Search for an absorbing 24-set for the target.

    Returns None when no gadget of this wiring exists among the
    candidates, and raises :class:`SolverTimeout` when ``node_budget``
    or ``timeout`` runs out before the search is decided.  Target and
    candidates must be vertex sets of the graph (``ValueError``).

    The wiring: three helper vertices c1..c3 from the candidate pool,
    one edge of the target class vertex's link for the rewire, then six
    bridge edges (one fresh class vertex + two fresh others each), where
    bridge i must form an edge with both its left partner (target or
    helper vertex) and its right partner (helper or rewire vertex).  The
    bridges are placed by a recursive search, and the body is the vertex
    set of the bridges' reserved matching ``pm_body``.  All choices are
    explored in canonical order under a node budget, so the result is
    deterministic.

    A bridge's candidates (u, x, y) are one int, bit ``k * C(p, 2) + r``
    for u the k-th class vertex other than the target's and (x, y) the
    r-th pair of other vertices, so bit order is tuple order.  A
    vertex's row marks the (u, x, y) with u, x, y and the vertex forming
    an edge; rows are tested only on the pairs that the rewire edges
    tried so far leave free, and kept until the call returns.
    """
    target_set = BalancedSet.from_vertices(target, graph, "target")
    if len(target_set) != 4:
        raise ValueError("target must be a balanced 4-set")
    if graph.q_size < 1 + BODY_Q or graph.p_size < 3 + BODY_P:
        raise ValueError(
            f"graph too small for a gadget: need >= {1 + BODY_Q} class and "
            f">= {3 + BODY_P} other vertices"
        )
    (u_target,), a_part = target_set.q_part, target_set.p_part

    pool = sorted(set(graph._check_vertices(candidates, "candidates")) - set(a_part))
    pool = [v for v in pool if v >= graph.q_size]
    # Not the one edge lookup, Hypergraph._has: the rows test thousands
    # of candidate edges per call, and with graph._has here the seed-1
    # absorb-dense gadget searches took a median 10.8 ms instead of
    # 3.8 ms, and its scenarios 16.7 ms instead of 8.5 ms (3 passes each,
    # 2-CPU Xeon, Python 3.11).
    edge_set = set(graph.edges)
    q_free = [u for u in graph.q_vertices() if u != u_target]
    nodes_left = node_budget
    deadline = _deadline(timeout)

    run = graph._run(u_target)

    pairs = list(combinations(graph.p_vertices(), 2))
    n_pairs = len(pairs)
    n_slots = len(q_free) * n_pairs
    xs, ys = zip(*pairs)
    # touch[v]: the pairs holding v.  slots[v]: the candidates holding v,
    # so a pick's clash mask is the OR over its three vertices.
    touch = [0] * graph.n_vertices
    for r, (x, y) in enumerate(pairs):
        touch[x] |= 1 << r
        touch[y] |= 1 << r
    bit = [1 << r for r in range(n_pairs)]
    every_pair = (1 << n_pairs) - 1
    spread = sum(1 << k * n_pairs for k in range(len(q_free)))
    slots = [t * spread for t in touch]
    for k, u in enumerate(q_free):
        slots[u] = every_pair << k * n_pairs
    rows = [0] * graph.n_vertices
    tested = [0] * graph.n_vertices  # the pairs each row is correct on

    def row(v: int, free: int) -> int:
        new = free & ~tested[v]
        if new:
            tested[v] |= new
            rs = _bits(new)
            # v placed among x < y, by column: after u, the sorted edge
            # u + {v, x, y}.
            cols = list(zip(*[
                (v, x, y) if v < x else (x, v, y) if v < y else (x, y, v)
                for x, y in map(pairs.__getitem__, rs)
            ]))
            for k, u in enumerate(q_free):
                hits = compress(rs, map(edge_set.__contains__, zip(repeat(u), *cols)))
                rows[v] |= sum(map(bit.__getitem__, hits)) << k * n_pairs
        return rows[v]

    def spend() -> None:
        nonlocal nodes_left
        nodes_left -= 1
        if nodes_left < 0:
            raise SolverTimeout(f"gadget search exceeded {node_budget} nodes")
        _time_left(deadline, "gadget search")

    def place(live: dict[int, int]) -> Optional[dict[int, int]]:
        # One pick per open bridge in ``live``, pairwise disjoint, by
        # recursion: each pick hands the rest their masks less the pick's
        # clash mask, so a failed pick has nothing to undo.  The most
        # constrained bridge is filled first and candidates are ordered
        # by how many of the other bridges' remaining candidates share a
        # vertex with them (ties canonical); scarce vertices then get
        # rationed greedily instead of being discovered by exponential
        # backtracking.
        if not live:
            return {}
        pivot = min(live, key=lambda j: (live[j].bit_count(), j))
        cands = live.pop(pivot)
        if not cands:
            return None
        use = [0] * graph.n_vertices
        for v, held in enumerate(slots):
            if cands & held:
                use[v] = sum((m & held).bit_count() for m in live.values())
        # (usage, slot) as one int, so that no key tuple is built.
        order = sorted([
            (use[q_free[s // n_pairs]] + use[xs[s % n_pairs]] + use[ys[s % n_pairs]])
            * n_slots + s
            for s in _bits(cands)
        ])
        for key in order:
            spend()
            k, r = divmod(key % n_slots, n_pairs)
            clash = slots[q_free[k]] | slots[xs[r]] | slots[ys[r]]
            got = place({j: m & ~clash for j, m in live.items()})
            if got is not None:
                got[pivot] = (q_free[k], xs[r], ys[r])
                return got
        return None

    for helpers in permutations(pool, 3):
        left = (*a_part, *helpers)
        taken = set(left)
        for edge in run:
            # Every edge of the run holds u_target, which left does not,
            # so only the rewire edges, disjoint from left, are sliced.
            if not taken.isdisjoint(edge):
                continue
            e = edge[1:]
            # The six orders of the rewire edge share the free pairs, and
            # so each vertex's row on them.
            free = every_pair
            for v in (*left, *e):
                free &= ~touch[v]
            free_slots = free * spread
            free_row = {v: row(v, free) & free_slots for v in (*left, *e)}
            for rewire in permutations(e):
                spend()
                right = helpers + rewire
                got = place({j: free_row[left[j]] & free_row[right[j]] for j in range(6)})
                if got is None:
                    continue
                pm_body = Matching(edges=tuple(sorted(
                    tuple(sorted(b + (right[j],))) for j, b in got.items()
                )))
                # u_target is below every other vertex, so its edge is sorted.
                pm_joint = Matching(edges=tuple(sorted(
                    [tuple(sorted(b + (left[j],))) for j, b in got.items()]
                    + [(u_target,) + e]
                )))
                return AbsorberGadget(
                    target=target_set,
                    body=BalancedSet.from_vertices(pm_body.vertices(), graph),
                    pm_body=pm_body,
                    pm_joint=pm_joint,
                )
    return None


def absorb(
    pool: Sequence[AbsorberGadget],
    leftover: BalancedSet,
    graph: PartiteHypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> Matching:
    """Perfect matching of the leftover plus all gadget bodies.

    The leftover is split into balanced 4-sets by pairing the t-th
    smallest class vertex with the next three unused others.  A 4-set
    that is the target of an unused gadget takes the first such
    gadget's stored ``pm_joint``, with no search.  Any other 4-set
    greedily takes the first unused gadget, in pool order, whose body
    absorbs it: the subgraph induced on the body plus the 4-set has a
    perfect matching.  Unused gadgets keep their reserved matchings.
    Every gadget matching and the result pass :func:`is_matching_of`.
    Raises :class:`AbsorptionError` when some 4-set finds no gadget,
    and ``ValueError`` when a gadget's matchings are not matchings of
    the graph, or when bodies or leftover overlap.
    """
    deadline = _deadline(timeout)
    left = timeout
    body_vertices: set[int] = set()
    for i, g in enumerate(pool):
        if not all(is_matching_of(graph, m) for m in (g.pm_body, g.pm_joint)):
            raise ValueError(f"gadget {i} of the pool has a matching edge outside the graph")
        bv = set(g.body.vertices())
        if bv & body_vertices:
            raise ValueError("gadget bodies must be pairwise disjoint")
        body_vertices |= bv
    leftover_v = set(leftover.vertices())
    if leftover_v & body_vertices:
        raise ValueError("leftover overlaps the reserved gadget bodies")

    pieces = [
        (leftover.q_part[t],) + leftover.p_part[3 * t : 3 * t + 3]
        for t in range(len(leftover.q_part))
    ]
    free = list(pool)  # unused gadgets, in pool order
    edges: list[Edge] = []
    for piece in pieces:
        # Only the joint matching is kept: the body's own matching is
        # already reserved in g.pm_body.  A gadget whose own target the
        # piece is takes the rewiring it stores, checked against the
        # graph above; otherwise the free gadgets are searched in order.
        i = next((i for i, g in enumerate(free) if piece == g.target.vertices()), None)
        if i is not None:
            joint = free[i].pm_joint
        else:
            for i, g in enumerate(free):
                found, joint = has_perfect_matching(
                    graph, timeout=left, vertices=sorted(g.body.vertices() + piece)
                )
                left = _time_left(deadline, "absorption")
                if found:
                    break
            else:
                raise AbsorptionError(tuple(piece))
        del free[i]
        edges.extend(joint.edges)
    for g in free:
        edges.extend(g.pm_body.edges)
    result = Matching(edges=tuple(sorted(edges)))
    spans = result.vertices() == leftover_v | body_vertices
    if not spans or not is_matching_of(graph, result):
        raise AssertionError("assembled matching does not match leftover + bodies in the graph")
    return result


def absorb_scenario(
    graph: PartiteHypergraph,
    targets: Sequence[Sequence[int]],
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> tuple[Matching, list]:
    """Pool -> max matching -> absorb -> verified perfect matching.

    The graph must be balanced and the targets pairwise disjoint
    (``ValueError``, before any search).  Builds one gadget per target
    (failing loudly when none is found), drawing helper vertices from
    the vertices adjacent to the low-degree anchor of some class
    vertex's link (:func:`popular_vertices` at threshold 1), reserves
    the bodies, matches the remaining vertices exhaustively, and
    absorbs the leftover through the pool.  Each gadget is searched
    on the edges that miss the bodies built before it and every other
    target, so the bodies are pairwise disjoint and miss every target.
    Returns the assembled perfect matching and the pool.
    """
    if not graph.balanced:
        raise ValueError(
            f"absorb scenario needs a balanced graph; got |Q|={graph.q_size}, "
            f"|P|={graph.p_size}"
        )
    deadline = _deadline(timeout)
    left = timeout
    target_sets = [graph._check_vertices(t, "target") for t in targets]
    if len(set(chain.from_iterable(target_sets))) != sum(map(len, target_sets)):
        raise ValueError("targets must be pairwise disjoint")
    # Class vertex u's run is member u of ``partite_to_family(graph)``
    # with u in front and every id shifted by q; the shift keeps the
    # rule's ties, so these are that family's popular vertices, shifted.
    # One anchor per class vertex, not per distinct link: reading the
    # links off PartiteHypergraph._link_classes cut the complete graph's
    # anchors from 4.9-6.0 to 2.2-2.4 ms, but on the seed-1 random dense
    # graphs, whose eight links all differ, it saved nothing and cost up
    # to 0.4 ms more (once 1.6 ms; min of 5 timeit repeats, same box).
    candidates = _popular(
        (_anchor(graph._run(u), graph.p_vertices())[1] for u in graph.q_vertices()), 1
    )
    pool = []
    reserved: set[int] = set()
    for i, target in enumerate(target_sets):
        avoid = reserved.union(*target_sets[:i], *target_sets[i + 1 :])
        host = graph if not avoid else PartiteHypergraph._trusted(
            graph.q_size, graph.p_size, [e for e in graph.edges if avoid.isdisjoint(e)]
        )
        helpers = [v for v in candidates if v not in avoid]
        gadget = build_gadget(target, host, helpers, timeout=left)
        if gadget is None:
            raise AbsorptionError(target)
        reserved |= set(gadget.body.vertices())
        pool.append(gadget)
        left = _time_left(deadline, "absorb scenario")

    rest = set(range(graph.n_vertices)) - reserved
    m1 = max_matching(graph, timeout=left, vertices=rest)
    leftover = BalancedSet.from_vertices(rest - m1.vertices(), graph)
    left = _time_left(deadline, "absorb scenario")
    absorbed = absorb(pool, leftover, graph, timeout=left)
    combined = Matching(edges=tuple(sorted(m1.edges + absorbed.edges)))
    if not is_perfect_matching_of(graph, combined):
        raise AssertionError("assembled matching is not perfect")
    return combined, pool
