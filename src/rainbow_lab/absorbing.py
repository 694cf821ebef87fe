"""Absorbing gadgets: 24-sets that swallow a balanced 4-set.

A body T absorbs a target A when both the subgraph induced on T and the
one induced on A union T have perfect matchings: the matching reserved
on T can be locally rewired to also cover A.  The constructor follows a
fixed double-matching wiring (six edges covering T, seven covering
A union T, overlapping on six class vertices); the verifier only cares
about the induced perfect matchings, not the wiring.  Every body and
target is built by ``BalancedSet.from_vertices``, the one check of
their ids and balance.  Each induced subgraph is searched on the graph
itself, through the solvers' ``vertices`` input, so no subgraph is
built or relabelled.  Absorption searches only where no proof is
stored: a leftover piece that is an unused gadget's own target takes
the joint matching that gadget already holds, before any other gadget
is tried, and any other piece is searched on a gadget's body plus the
piece.  Stored and assembled matchings are checked against the graph
by the one matching check, :func:`~rainbow_lab.solvers.is_matching_of`.

:func:`absorb_scenario` runs the whole procedure on a balanced graph:
one gadget per target, a maximum matching of the vertices the bodies
leave, and absorption of that matching's leftover through the pool.
It checks the balance before any search, since a leftover of an
unbalanced graph cannot be split into balanced 4-sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, combinations, permutations
from typing import Iterable, Optional, Sequence

from .constructions import HypergraphFamily, PartiteHypergraph, partite_to_family
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

# A gadget search node costs 0.24-0.29 ms on a sparse n = 24, q = 8
# graph (p = 0.06; one Intel Xeon core), so this budget runs out in ~27 s,
# within ``DEFAULT_TIMEOUT``; 10**6 nodes would take ~270 s.
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


def low_degree_anchor(member: Hypergraph) -> tuple[int, tuple[int, ...]]:
    """A minimum-degree vertex and everything adjacent to it.

    Ties go to the smallest id.  An isolated anchor has an empty
    neighborhood.
    """
    if member.n_vertices == 0:
        raise ValueError("anchor needs at least one vertex")
    deg = Counter(chain.from_iterable(member.edges))
    anchor = min(range(member.n_vertices), key=lambda v: (deg[v], v))
    reach = {v for e in member.edges if anchor in e for v in e}
    reach.discard(anchor)
    return anchor, tuple(sorted(reach))


def popular_vertices(
    family: HypergraphFamily, threshold: int
) -> tuple[int, ...]:
    """Vertices adjacent to at least ``threshold`` members' anchors."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    counts = Counter(
        v for member in family.members for v in low_degree_anchor(member)[1]
    )
    return tuple(sorted(v for v, c in counts.items() if c >= threshold))


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
    edge_set = set(graph.edges)
    q_free_all = [u for u in graph.q_vertices() if u != u_target]
    nodes_left = node_budget
    deadline = _deadline(timeout)

    link_edges = graph.link(u_target).edges

    def spend() -> None:
        nonlocal nodes_left
        nodes_left -= 1
        if nodes_left < 0:
            raise SolverTimeout(f"gadget search exceeded {node_budget} nodes")
        _time_left(deadline, "gadget search")

    def bridge_candidates(
        lv: int, rv: int, used_p: set
    ) -> list[tuple[int, int, int]]:
        free = [p for p in graph.p_vertices() if p not in used_p]
        out = []
        # Each edge is sorted by placing lv or rv among x < y: the class
        # vertex u lies below every other vertex, and lv, rv outside
        # ``free``.
        for u in q_free_all:
            for x, y in combinations(free, 2):
                left_edge = (u, lv, x, y) if lv < x else (u, x, lv, y) if lv < y else (u, x, y, lv)
                if left_edge not in edge_set:
                    continue
                right_edge = (u, rv, x, y) if rv < x else (u, x, rv, y) if rv < y else (u, x, y, rv)
                if right_edge in edge_set:
                    out.append((u, x, y))
        return out

    def place(
        live: dict[int, list[tuple[int, int, int]]],
    ) -> Optional[dict[int, tuple[int, int, int]]]:
        # One pick per open bridge in ``live``, pairwise disjoint, by
        # recursion: each pick hands the rest a freshly filtered copy,
        # so a failed pick has nothing to undo.  The most constrained
        # bridge is filled first and candidates are ordered by how
        # little they collide with the other bridges' remaining options
        # (ties canonical); scarce vertices then get rationed greedily
        # instead of being discovered by exponential backtracking.
        if not live:
            return {}
        pivot = min(live, key=lambda j: (len(live[j]), j))
        rest = {j: cands for j, cands in live.items() if j != pivot}
        usage = Counter(chain.from_iterable(chain.from_iterable(rest.values())))
        for cand in sorted(
            live[pivot],
            key=lambda c: (usage[c[0]] + usage[c[1]] + usage[c[2]], c),
        ):
            spend()
            taken = set(cand)
            got = place({
                j: [c for c in cands if taken.isdisjoint(c)]
                for j, cands in rest.items()
            })
            if got is not None:
                got[pivot] = cand
                return got
        return None

    for helpers in permutations(pool, 3):
        left = (*a_part, *helpers)
        for e in link_edges:
            if not set(e).isdisjoint(left):
                continue
            # The six orders of the rewire edge share ``used_p``, and so
            # the candidates of each (left, right) pair: 12 pairs in all.
            pair_candidates = cache(partial(bridge_candidates, used_p={*left, *e}))
            for rewire in permutations(e):
                spend()
                right = helpers + rewire
                got = place({
                    j: pair_candidates(left[j], right[j]) for j in range(6)
                })
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
    the vertices popular among the members' low-degree anchors,
    reserves the bodies, matches the remaining vertices exhaustively,
    and absorbs the leftover through the pool.  Each gadget is searched
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
    candidates = [
        v + graph.q_size for v in popular_vertices(partite_to_family(graph), 1)
    ]
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
