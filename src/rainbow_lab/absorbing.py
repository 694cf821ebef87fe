"""Absorbing gadgets: 24-sets that swallow a balanced 4-set.

A body T absorbs a target A when both the subgraph induced on T and the
one induced on A union T have perfect matchings: the matching reserved
on T can be locally rewired to also cover A.  The constructor follows a
fixed double-matching wiring (six edges covering T, seven covering
A union T, overlapping on six class vertices); the verifier only cares
about the induced perfect matchings, not the wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence

from .constructions import HypergraphFamily, PartiteHypergraph
from .hypergraph import Hypergraph
from .solvers import DEFAULT_TIMEOUT, Matching, SolverTimeout, has_perfect_matching

Edge = tuple[int, ...]

BODY_Q = 6
BODY_P = 18
BODY_SIZE = BODY_Q + BODY_P  # 24 vertices: 6 class + 18 others

DEFAULT_NODE_BUDGET = 10**6


class AbsorptionError(RuntimeError):
    """No unused gadget absorbs some 4-set of the leftover."""

    def __init__(self, unabsorbed: tuple[int, ...]):
        super().__init__(f"no available gadget absorbs {unabsorbed}")
        self.unabsorbed = unabsorbed


@dataclass(frozen=True)
class BalancedSet:
    """A vertex set with three non-class vertices per class vertex."""

    q_part: tuple[int, ...]
    p_part: tuple[int, ...]

    def __post_init__(self):
        if list(self.q_part) != sorted(set(self.q_part)):
            raise ValueError("q_part must be sorted and duplicate-free")
        if list(self.p_part) != sorted(set(self.p_part)):
            raise ValueError("p_part must be sorted and duplicate-free")
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
        cls, vertices: Iterable[int], graph: PartiteHypergraph
    ) -> "BalancedSet":
        vs = sorted(set(vertices))
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
        if set(v for e in self.pm_body.edges for v in e) != bv:
            raise ValueError("reserved matching must cover exactly the body")
        if set(v for e in self.pm_joint.edges for v in e) != tv | bv:
            raise ValueError("joint matching must cover body and target")


def is_balanced(vertices: Iterable[int], graph: PartiteHypergraph) -> bool:
    """Three non-class vertices per class vertex."""
    vs = set(vertices)
    for v in vs:
        if not 0 <= v < graph.n_vertices:
            raise ValueError(f"vertex {v} out of range")
    in_q = sum(1 for v in vs if v < graph.q_size)
    return 3 * in_q == len(vs) - in_q


def _induced_pm(
    graph: PartiteHypergraph,
    vertices: Sequence[int],
    timeout: Optional[float],
) -> Optional[Matching]:
    sub, ids = graph.induced(vertices)
    found, pm = has_perfect_matching(sub, timeout=timeout)
    if not found or pm is None:
        return None
    return Matching(
        edges=tuple(
            sorted(tuple(sorted(ids[v] for v in e)) for e in pm.edges)
        )
    )


def is_absorbing(
    body: Iterable[int],
    target: Iterable[int],
    graph: PartiteHypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> tuple[bool, Optional[tuple[Matching, Matching]]]:
    """Do both induced subgraphs (body, body+target) have perfect matchings?"""
    body_v = sorted(set(body))
    target_v = sorted(set(target))
    if len(body_v) != BODY_SIZE:
        raise ValueError(f"body must have {BODY_SIZE} vertices, got {len(body_v)}")
    if len(target_v) != 4:
        raise ValueError(f"target must have 4 vertices, got {len(target_v)}")
    if set(body_v) & set(target_v):
        raise ValueError("body and target overlap")
    if not is_balanced(body_v, graph) or not is_balanced(target_v, graph):
        raise ValueError("body and target must both be balanced")
    pm_body = _induced_pm(graph, body_v, timeout)
    if pm_body is None:
        return False, None
    pm_joint = _induced_pm(graph, sorted(body_v + target_v), timeout)
    if pm_joint is None:
        return False, None
    return True, (pm_body, pm_joint)


def low_degree_anchor(member: Hypergraph) -> tuple[int, tuple[int, ...]]:
    """A minimum-degree vertex and everything adjacent to it.

    Ties go to the smallest id.  An isolated anchor has an empty
    neighborhood.
    """
    if member.n_vertices == 0:
        raise ValueError("anchor needs at least one vertex")
    anchor = min(range(member.n_vertices), key=lambda v: (member.degree((v,)), v))
    reach = tuple(
        v
        for v in range(member.n_vertices)
        if v != anchor and member.degree((min(v, anchor), max(v, anchor))) > 0
    )
    return anchor, reach


def popular_vertices(
    family: HypergraphFamily, threshold: int
) -> tuple[int, ...]:
    """Vertices adjacent to at least ``threshold`` members' anchors."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    counts: dict[int, int] = {}
    for member in family.members:
        _, reach = low_degree_anchor(member)
        for v in reach:
            counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(v for v, c in counts.items() if c >= threshold))


def build_gadget(
    target: Iterable[int],
    graph: PartiteHypergraph,
    candidates: Iterable[int],
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Optional[AbsorberGadget]:
    """Search for an absorbing 24-set for the target.

    Returns None when no gadget of this wiring exists among the
    candidates, and raises :class:`SolverTimeout` when ``node_budget``
    runs out before the search is decided.

    The wiring: three helper vertices c1..c3 from the candidate pool,
    one edge of the target class vertex's link for the rewire, then six
    bridge edges (one fresh class vertex + two fresh others each), where
    bridge i must form an edge with both its left partner (target or
    helper vertex) and its right partner (helper or rewire vertex).  All
    choices are explored in canonical order under a node budget, so the
    result is deterministic.
    """
    target_v = sorted(set(target))
    if len(target_v) != 4 or not is_balanced(target_v, graph):
        raise ValueError("target must be a balanced 4-set")
    if graph.q_size < 1 + BODY_Q or graph.p_size < 3 + BODY_P:
        raise ValueError(
            f"graph too small for a gadget: need >= {1 + BODY_Q} class and "
            f">= {3 + BODY_P} other vertices"
        )
    u_target = [v for v in target_v if v < graph.q_size][0]
    a_part = [v for v in target_v if v >= graph.q_size]

    pool = sorted(set(candidates) - set(target_v))
    pool = [v for v in pool if v >= graph.q_size]
    edge_set = set(graph.edges)
    q_free_all = [u for u in graph.q_vertices() if u != u_target]
    nodes_left = node_budget

    link_edges = [e[1:] for e in graph.edges if e[0] == u_target]

    def spend() -> None:
        nonlocal nodes_left
        nodes_left -= 1
        if nodes_left < 0:
            raise SolverTimeout(f"gadget search exceeded {node_budget} nodes")

    def bridge_candidates(
        lv: int, rv: int, used_p: set, used_q: set
    ) -> list[tuple[int, int, int]]:
        free = [p for p in graph.p_vertices() if p not in used_p]
        out = []
        for u in q_free_all:
            if u in used_q:
                continue
            for x, y in combinations(free, 2):
                if (
                    tuple(sorted((u, x, y, lv))) in edge_set
                    and tuple(sorted((u, x, y, rv))) in edge_set
                ):
                    out.append((u, x, y))
        return out

    def bridges(
        left: list[int],
        right: list[int],
        used_p: set[int],
        used_q: set[int],
    ) -> Optional[list[tuple[int, int, int]]]:
        # One pick per bridge, pairwise disjoint.  The most constrained
        # bridge is filled first and candidates are ordered by how
        # little they collide with the other bridges' remaining options
        # (ties canonical); scarce vertices then get rationed greedily
        # instead of being discovered by exponential backtracking.
        live: dict[int, list[tuple[int, int, int]]] = {
            j: bridge_candidates(left[j], right[j], used_p, used_q)
            for j in range(6)
        }
        chosen: dict[int, tuple[int, int, int]] = {}

        def place() -> bool:
            if len(chosen) == 6:
                return True
            open_bridges = [j for j in range(6) if j not in chosen]
            pivot = min(open_bridges, key=lambda j: (len(live[j]), j))
            if not live[pivot]:
                return False
            usage: dict[int, int] = {}
            for j in open_bridges:
                if j == pivot:
                    continue
                for cand in live[j]:
                    for v in cand:
                        usage[v] = usage.get(v, 0) + 1
            ordered = sorted(
                live[pivot],
                key=lambda c: (usage.get(c[0], 0) + usage.get(c[1], 0)
                               + usage.get(c[2], 0), c),
            )
            for cand in ordered:
                spend()
                taken = set(cand)
                saved = {
                    j: live[j]
                    for j in open_bridges
                    if j != pivot
                }
                for j in saved:
                    live[j] = [
                        c for c in saved[j] if not taken.intersection(c)
                    ]
                chosen[pivot] = cand
                if place():
                    return True
                del chosen[pivot]
                for j, old in saved.items():
                    live[j] = old
            return False

        if not place():
            return None
        return [chosen[j] for j in range(6)]

    for helpers in permutations(pool, 3):
        c1, c2, c3 = helpers
        for e in link_edges:
            if set(e) & set(helpers) or set(e) & set(a_part):
                continue
            for rewire in permutations(e):
                spend()
                r1, r2, r3 = rewire
                left = [a_part[0], a_part[1], a_part[2], c1, c2, c3]
                right = [c1, c2, c3, r1, r2, r3]
                used_p = set(helpers) | set(e) | set(a_part)
                got = bridges(left, right, used_p, set())
                if got is None:
                    continue
                body_q = tuple(sorted(u for u, _, _ in got))
                body_p = tuple(
                    sorted(
                        set(helpers)
                        | set(e)
                        | {v for _, x, y in got for v in (x, y)}
                    )
                )
                body = BalancedSet(q_part=body_q, p_part=body_p)
                pm_body = Matching(
                    edges=tuple(
                        sorted(
                            tuple(sorted((u, x, y, rv)))
                            for (u, x, y), rv in zip(got, right)
                        )
                    )
                )
                joint = [
                    tuple(sorted((u, x, y, lv)))
                    for (u, x, y), lv in zip(got, left)
                ]
                joint.append(tuple(sorted((u_target,) + e)))
                pm_joint = Matching(edges=tuple(sorted(joint)))
                return AbsorberGadget(
                    target=BalancedSet.from_vertices(target_v, graph),
                    body=body,
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
    smallest class vertex with the next three unused others; each 4-set
    greedily takes the first unused gadget whose body absorbs it.  Unused
    gadgets keep their reserved matchings.  Raises
    :class:`AbsorptionError` when some 4-set finds no gadget.
    """
    body_vertices: set[int] = set()
    for g in pool:
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
    used = [False] * len(pool)
    chosen: list[tuple[int, Matching]] = []
    for piece in pieces:
        placed = False
        for gi, g in enumerate(pool):
            if used[gi]:
                continue
            # Only the joint matching is kept: the body's own matching
            # is already reserved in g.pm_body.
            joint = _induced_pm(
                graph, sorted(g.body.vertices() + piece), timeout
            )
            if joint is not None:
                used[gi] = True
                chosen.append((gi, joint))
                placed = True
                break
        if not placed:
            raise AbsorptionError(tuple(piece))

    edges: list[Edge] = []
    for gi, joint in chosen:
        edges.extend(joint.edges)
    for gi, g in enumerate(pool):
        if not used[gi]:
            edges.extend(g.pm_body.edges)
    result = Matching(edges=tuple(sorted(edges)))
    expect = leftover_v | body_vertices
    if set(v for e in result.edges for v in e) != expect:
        raise AssertionError("assembled matching does not span leftover + bodies")
    for e in result.edges:
        if not graph.has_edge(e):
            raise AssertionError(f"assembled matching uses non-edge {e}")
    return result
