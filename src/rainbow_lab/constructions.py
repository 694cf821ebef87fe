"""Generators for the extremal instances and the family <-> partite reduction.

A family of 3-graphs F_1..F_t on a common vertex set P corresponds to a
(1,3)-partite 4-graph: attach a fresh class vertex u_i to every edge of
F_i.  Rainbow matchings of the family are exactly perfect matchings of
the reduction, which is what the solvers exploit.  The reduction is a
:class:`PartiteHypergraph`, itself a 4-graph whose class vertex is
``e[0]`` of every edge ``e``, so it goes to every 4-graph routine as is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .hypergraph import Hypergraph


@dataclass(frozen=True)
class HypergraphFamily:
    """Ordered 3-graphs on a shared vertex set; index doubles as color."""

    n_vertices: int
    members: tuple[Hypergraph, ...]

    def __post_init__(self):
        for i, member in enumerate(self.members):
            if member.k != 3:
                raise ValueError(f"family member {i} has uniformity {member.k}, expected 3")
            if member.n_vertices != self.n_vertices:
                raise ValueError(
                    f"family member {i} lives on {member.n_vertices} vertices, "
                    f"expected {self.n_vertices}"
                )

    def __len__(self) -> int:
        return len(self.members)

    def to_dict(self) -> dict:
        return {
            "n": self.n_vertices,
            "members": [m.to_dict() for m in self.members],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class PartiteHypergraph(Hypergraph):
    """(1,3)-partite 4-graph with class Q = [0, q) and P = [q, q+p).

    It is a 4-graph on q + p vertices in which every edge contains
    exactly one Q-vertex and three P-vertices; as ids in Q come first,
    the class vertex of an edge ``e`` is ``e[0]``.  Instances are
    immutable, and never equal to a plain :class:`Hypergraph`.
    """

    __slots__ = ("q_size", "p_size")

    def __init__(self, q_size: int, p_size: int, edges: Iterable[Iterable[int]]):
        if q_size < 0 or p_size < 0:
            raise ValueError("class sizes must be nonnegative")
        super().__init__(4, q_size + p_size, edges)
        for e in self.edges:
            in_q = sum(1 for v in e if v < q_size)
            if in_q != 1:
                raise ValueError(f"edge {e} has {in_q} class-Q vertices, expected 1")
        object.__setattr__(self, "q_size", q_size)
        object.__setattr__(self, "p_size", p_size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        # A plain 4-graph on the same edges is still not partite.
        return (
            isinstance(other, PartiteHypergraph)
            and self.q_size == other.q_size
            and self.p_size == other.p_size
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.q_size, self.p_size, self.edges))

    def __repr__(self) -> str:
        return (
            f"PartiteHypergraph(q={self.q_size}, p={self.p_size}, "
            f"edges=<{len(self.edges)}>)"
        )

    @property
    def balanced(self) -> bool:
        return 3 * self.q_size == self.p_size

    def q_vertices(self) -> range:
        return range(self.q_size)

    def p_vertices(self) -> range:
        return range(self.q_size, self.q_size + self.p_size)

    def as_hypergraph(self) -> Hypergraph:
        """The graph itself, already a 4-graph; ``perfbench`` still calls this."""
        return self

    def to_dict(self) -> dict:
        return {
            "q": self.q_size,
            "p": self.p_size,
            "edges": [list(e) for e in self.edges],
        }


def extremal_graph(n: int, s: int, ell: int) -> Hypergraph:
    """The 3-graph on n vertices with no matching of size s.

    The blocking set T is the first ``s*ell - 1`` vertex ids and the edges
    are all triples with at least ``ell`` vertices inside T.  Any s
    pairwise disjoint edges would need at least ``s*ell`` T-vertices.
    """
    if ell not in (1, 2, 3):
        raise ValueError(f"ell must be 1, 2 or 3, got {ell}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    t_size = s * ell - 1
    if t_size > n:
        raise ValueError(f"need s*ell-1 = {t_size} <= n = {n}")
    # i vertices from T and 3 - i from the rest, so the time is linear
    # in the edges kept rather than in all C(n, 3) triples.
    edges = [
        inside + outside
        for i in range(ell, 4)
        for inside in combinations(range(t_size), i)
        for outside in combinations(range(t_size, n), 3 - i)
    ]
    return Hypergraph(3, n, edges)


def extremal_adjacent_degree_sum(n: int) -> int:
    """Closed form (2n^2 - 8n + 6) / 3 for the tight degree-sum bound.

    This is the minimum degree sum over adjacent pairs of
    ``extremal_graph(n, n // 3, 2)``; n must be divisible by 3 for the
    instance (and the division) to be exact.
    """
    if n % 3 != 0:
        raise ValueError(f"n must be divisible by 3, got {n}")
    value, rem = divmod(2 * n * n - 8 * n + 6, 3)
    assert rem == 0
    return value


def family_to_partite(family: HypergraphFamily) -> PartiteHypergraph:
    """Attach class vertex u_i to every edge of member i.

    Member ids become Q = [0, t); the shared vertex set becomes
    P = [t, t+n), shifted by t.
    """
    t = len(family.members)
    n = family.n_vertices
    edges = []
    for i, member in enumerate(family.members):
        for e in member.edges:
            edges.append((i,) + tuple(v + t for v in e))
    return PartiteHypergraph(t, n, edges)


def partite_to_family(graph: PartiteHypergraph) -> HypergraphFamily:
    """Inverse of family_to_partite: member i is the link of u_i.

    Class vertices with no edges yield empty members, so the round trip
    is total.
    """
    q = graph.q_size
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(q)]
    for e in graph.edges:
        u = e[0]
        buckets[u].append(tuple(v - q for v in e[1:]))
    members = tuple(
        Hypergraph(3, graph.p_size, bucket) for bucket in buckets
    )
    return HypergraphFamily(n_vertices=graph.p_size, members=members)


def extremal_partite(n: int) -> PartiteHypergraph:
    """Reduction of n/3 copies of the tight extremal 3-graph on n vertices."""
    if n % 3 != 0:
        raise ValueError(f"n must be divisible by 3, got {n}")
    t = n // 3
    member = extremal_graph(n, t, 2)
    family = HypergraphFamily(n_vertices=n, members=(member,) * t)
    return family_to_partite(family)


def complete_partite(q_size: int, p_size: int) -> PartiteHypergraph:
    """All (1,3)-partite 4-sets."""
    edges = [
        (u,) + trio
        for u in range(q_size)
        for trio in combinations(range(q_size, q_size + p_size), 3)
    ]
    return PartiteHypergraph(q_size, p_size, edges)
