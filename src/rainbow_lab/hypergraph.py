"""Canonical k-uniform hypergraphs and their degree statistics.

Vertices are the integers ``0 .. n_vertices-1``.  Edges are stored as
strictly increasing tuples and the edge list is kept sorted
lexicographically, so equal hypergraphs have identical in-memory and
serialized representations.  Instances are immutable after construction
and safe to share between threads.

Constructors validate every edge; a graph derived from validated ones
(the family reduction, closures, shifts, a class vertex's link and
:meth:`Hypergraph.induced`) is built by the private ``_trusted``, which
checks nothing again.  The solvers search an induced subproblem on the
parent graph itself, given its vertex set, so they build no graph for it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Optional


def canonical_edge(vertices: Iterable[int]) -> tuple[int, ...]:
    """Sort a vertex collection into canonical (strictly increasing) form.

    Raises ValueError if the collection contains repeats.
    """
    edge = tuple(sorted(vertices))
    for a, b in zip(edge, edge[1:]):
        if a == b:
            raise ValueError(f"edge {edge} repeats vertex {a}")
    return edge


@dataclass(frozen=True)
class DegreeSumMinima:
    """Minimum degree sums over pair classes of a hypergraph.

    Each component is None when its pair class is empty (for example
    ``nonadjacent`` on a complete hypergraph); this is deliberately kept
    distinct from both 0 and infinity.
    """

    adjacent: Optional[int]
    all_pairs: Optional[int]
    nonadjacent: Optional[int]


class Hypergraph:
    """Immutable k-uniform hypergraph; degrees are counted on demand.

    No degree index is kept: most derived graphs (closures, links) are
    only searched.  ``degrees(size)`` counts every ``size``-set in one
    pass, vertex degrees (size 1) over the flattened edge list without
    forming subsets; the degree of a sorted set ``s`` is
    ``degrees(len(s))[s]``, so a vertex's is ``degrees(1)[(v,)]``.
    """

    __slots__ = ("k", "n_vertices", "edges")

    def __init__(self, k: int, n_vertices: int, edges: Iterable[Iterable[int]]):
        if k < 2:
            raise ValueError(f"uniformity must be >= 2, got {k}")
        if n_vertices < 0:
            raise ValueError("n_vertices must be nonnegative")
        canon = sorted(canonical_edge(e) for e in edges)
        for e in canon:
            if len(e) != k:
                raise ValueError(f"edge {e} has {len(e)} vertices, expected {k}")
            if e[0] < 0 or e[-1] >= n_vertices:
                raise ValueError(f"edge {e} out of range [0, {n_vertices})")
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", tuple(canon))

    @classmethod
    def _trusted(
        cls, k: int, n_vertices: int, edges: Iterable[tuple[int, ...]]
    ) -> "Hypergraph":
        """The graph on edges the caller guarantees valid, unchecked:
        each edge strictly increasing, of size k and in [0, n_vertices),
        and the edge sequence strictly increasing.  Both hold for a
        monotone relabeling of some edges of a validated graph, and for
        the run of a validated graph's vertex with that vertex removed
        (``PartiteHypergraph.link``): removing the first vertex, which
        every edge of the run shares, keeps a strictly increasing list
        of sorted tuples strictly increasing."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "k", k)
        object.__setattr__(graph, "n_vertices", n_vertices)
        object.__setattr__(graph, "edges", tuple(edges))
        return graph

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Hypergraph is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.k == other.k
            and self.n_vertices == other.n_vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.k, self.n_vertices, self.edges))

    def __repr__(self) -> str:
        return (
            f"Hypergraph(k={self.k}, n_vertices={self.n_vertices}, "
            f"edges=<{len(self.edges)}>)"
        )

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def _has(self, edge: tuple[int, ...]) -> bool:
        """Is the tuple, exactly as given, one of ``edges``?  The package's
        one edge lookup, by bisection in the sorted ``edges``; an unsorted
        tuple is never an edge."""
        edges = self.edges
        i = bisect_left(edges, edge)
        return i < len(edges) and edges[i] == edge

    def _run(self, a: int) -> tuple[tuple[int, ...], ...]:
        """The edges whose least vertex is ``a``.  The edges are sorted,
        so they form one contiguous run, found by bisection."""
        edges = self.edges
        return edges[bisect_left(edges, (a,)) : bisect_left(edges, (a + 1,))]

    def _check_vertices(
        self, vertices: Iterable[int], name: str = "vertex set"
    ) -> tuple[int, ...]:
        """The sorted ids of the set ``name``: each a vertex, none twice."""
        vs = tuple(sorted(vertices))
        if vs and (vs[0] < 0 or vs[-1] >= self.n_vertices):
            raise ValueError(f"{name} has a vertex out of range [0, {self.n_vertices})")
        if len(set(vs)) != len(vs):
            raise ValueError(f"{name} repeats a vertex id")
        return vs

    def degrees(self, size: int) -> Counter:
        """Degree of every ``size``-set, as sorted tuples; absent means 0.

        Vertex degrees count the flattened edge list in one pass; larger
        sets count each edge's ``size``-subsets."""
        if size == 1:
            counts = Counter(chain.from_iterable(self.edges))
            return Counter({(v,): d for v, d in counts.items()})
        return Counter(
            chain.from_iterable(combinations(e, size) for e in self.edges)
        )

    def min_degree(self, size: int) -> int:
        """Minimum degree over all vertex subsets of the given size."""
        if not 1 <= size < self.k:
            raise ValueError(f"subset size must be in [1, {self.k - 1}], got {size}")
        if self.n_vertices < size:
            raise ValueError(
                f"degrees of {size}-sets need at least {size} vertices, "
                f"got {self.n_vertices}"
            )
        deg = self.degrees(size)
        return min(deg[sub] for sub in combinations(range(self.n_vertices), size))

    def degree_sum_minima(self) -> DegreeSumMinima:
        """Minimum degree sums over adjacent / all / non-adjacent pairs."""
        if self.n_vertices < 2:
            raise ValueError("degree sums need at least two vertices")
        deg = self.degrees(1)
        pair_deg = self.degrees(2)
        adj: Optional[int] = None
        allp: Optional[int] = None
        non: Optional[int] = None
        for u, v in combinations(range(self.n_vertices), 2):
            s = deg[(u,)] + deg[(v,)]
            allp = s if allp is None else min(allp, s)
            if pair_deg[(u, v)] > 0:
                adj = s if adj is None else min(adj, s)
            else:
                non = s if non is None else min(non, s)
        return DegreeSumMinima(adjacent=adj, all_pairs=allp, nonadjacent=non)

    def isolated_vertices(self) -> tuple[int, ...]:
        """All vertices of degree zero, in increasing order."""
        deg = self.degrees(1)
        return tuple(v for v in range(self.n_vertices) if deg[(v,)] == 0)

    def induced(self, vertices: Iterable[int]) -> tuple["Hypergraph", tuple[int, ...]]:
        """Subgraph induced on a vertex set, relabeled to 0..len-1.

        Returns the induced hypergraph together with the sorted original
        ids, so position i of the tuple is the original id of new vertex i.
        """
        keep = self._check_vertices(vertices)
        keep_set = set(keep)
        relabel = {v: i for i, v in enumerate(keep)}
        edges = [
            tuple(relabel[v] for v in e)
            for e in self.edges
            if keep_set.issuperset(e)
        ]
        return Hypergraph._trusted(self.k, len(keep), edges), keep

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n_vertices,
            "edges": [list(e) for e in self.edges],
        }


def complete_hypergraph(k: int, n: int) -> Hypergraph:
    """All k-subsets of [0, n)."""
    return Hypergraph(k, n, combinations(range(n), k))


def empty_hypergraph(k: int, n: int) -> Hypergraph:
    return Hypergraph(k, n, [])
