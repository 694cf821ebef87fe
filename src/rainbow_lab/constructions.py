"""Generators for the extremal instances and the family <-> partite reduction.

A family of 3-graphs F_1..F_t on a common vertex set P corresponds to a
(1,3)-partite 4-graph: attach a fresh class vertex u_i to every edge of
F_i.  Rainbow matchings of the family are exactly perfect matchings of
the reduction, which is what the solvers exploit.  The reduction is a
:class:`PartiteHypergraph`, itself a 4-graph whose class vertex is
``e[0]`` of every edge ``e``, so it goes to every 4-graph routine as is.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import Iterable, Iterator

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


class PartiteHypergraph(Hypergraph):
    """(1,3)-partite 4-graph with class Q = [0, q) and P = [q, q+p).

    It is a 4-graph on q + p vertices in which every edge contains
    exactly one Q-vertex and three P-vertices; as ids in Q come first,
    the class vertex of an edge ``e`` is ``e[0]``.  Instances are
    immutable, and never equal to a plain :class:`Hypergraph`.

    A class vertex's edges are its run; its link, member i of the
    family when it is u_i, is the run with the vertex removed
    (:meth:`link`).  Which class vertices share a link is decided in
    one place, :meth:`_link_classes`, read by both the stability shift
    and the partite perfect-matching search.
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

    @classmethod
    def _trusted(
        cls, q_size: int, p_size: int, edges: Iterable[tuple[int, ...]]
    ) -> "PartiteHypergraph":
        """``Hypergraph._trusted`` with k = 4; the caller also guarantees
        that ``e[0]`` is each edge's only class vertex."""
        graph = super()._trusted(4, q_size + p_size, edges)
        object.__setattr__(graph, "q_size", q_size)
        object.__setattr__(graph, "p_size", p_size)
        return graph

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

    def link(self, u: int) -> Hypergraph:
        """The 3-graph of the edges through class vertex u, u removed.

        Vertex ids are preserved; u is the least vertex of each of its
        edges, so they are its run.  Only a class vertex has a link here
        (``ValueError`` otherwise).
        """
        if not 0 <= u < self.q_size:
            raise ValueError(f"vertex {u} is not a class vertex in [0, {self.q_size})")
        return Hypergraph._trusted(3, self.n_vertices, [e[1:] for e in self._run(u)])

    def _link_classes(self) -> Iterator[int]:
        """For each class vertex in order, the index of its link among the
        distinct links, numbered by first appearance: the package's one
        rule for which class vertices share a link.  One index is yielded
        per vertex, so that a caller can poll a deadline in between.

        A link is its vertex's run (:meth:`Hypergraph._run`) without the
        class column, so two links are equal when the runs' other three
        columns are.  A run whose length no other run has is a link of
        its own, keyed by that length alone; only the others are
        flattened, and their columns cut from the flat run by strides.
        No edge is sliced, and no object is built per edge.
        """
        runs = [self._run(u) for u in self.q_vertices()]
        lengths = Counter(map(len, runs))
        index: dict[object, int] = {}
        for run in runs:
            flat = tuple(chain.from_iterable(run)) if lengths[len(run)] > 1 else ()
            key = len(run), flat[1::4], flat[2::4], flat[3::4]
            yield index.setdefault(key, len(index))

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


def _extremal_edge_count(n: int, s: int, ell: int) -> int:
    """The edge count of ``extremal_graph(n, s, ell)`` in closed form, so
    that it can be bounded before any edge is built; 0 for arguments
    that ``extremal_graph`` refuses."""
    t_size = s * ell - 1
    if ell not in (1, 2, 3) or not 0 <= t_size <= n:
        return 0
    return sum(comb(t_size, i) * comb(n - t_size, 3 - i) for i in range(ell, 4))


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
    # Members are 3-graphs, as the family checks.
    edges = [
        (i, a + t, b + t, c + t)
        for i, member in enumerate(family.members)
        for a, b, c in member.edges
    ]
    return PartiteHypergraph._trusted(t, family.n_vertices, edges)


def partite_to_family(graph: PartiteHypergraph) -> HypergraphFamily:
    """Inverse of family_to_partite: member i is the link of u_i, read
    off its run with every id shifted down by q.

    Class vertices with no edges yield empty members, so the round trip
    is total.
    """
    q, p = graph.q_size, graph.p_size
    members = tuple(
        Hypergraph._trusted(3, p, [(a - q, b - q, c - q) for _, a, b, c in graph._run(u)])
        for u in graph.q_vertices()
    )
    return HypergraphFamily(n_vertices=p, members=members)


def _tight_class_count(n: int) -> int:
    """n // 3, the class size of ``extremal_partite(n)``; ``ValueError``
    unless n >= 3 and 3 divides n, so that a caller can bound the
    instance before building it."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if n % 3 != 0:
        raise ValueError(f"n must be divisible by 3, got {n}")
    return n // 3


def extremal_partite(n: int) -> PartiteHypergraph:
    """Reduction of n/3 copies of the tight extremal 3-graph on n vertices.

    n = 3 gives the edgeless graph: one copy, whose blocking set of one
    vertex holds two vertices of no triple.
    """
    t = _tight_class_count(n)
    return family_to_partite(HypergraphFamily(n, (extremal_graph(n, t, 2),) * t))


def complete_partite(q_size: int, p_size: int) -> PartiteHypergraph:
    """All (1,3)-partite 4-sets."""
    edges = [
        (u,) + trio
        for u in range(q_size)
        for trio in combinations(range(q_size, q_size + p_size), 3)
    ]
    return PartiteHypergraph(q_size, p_size, edges)
