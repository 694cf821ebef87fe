"""Canonical k-uniform hypergraphs and their degree statistics.

Vertices are the integers ``0 .. n_vertices-1``.  Edges are stored as
strictly increasing tuples and the edge list is kept sorted
lexicographically, so equal hypergraphs have identical in-memory and
serialized representations.  Instances are immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional


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
    """Immutable k-uniform hypergraph with indexed degree queries.

    Vertex and pair degrees (subsets of size 1..min(2, k-1)) are indexed
    at construction: degree sums, codegree checks and low-degree anchors
    ask for them many times.  A k-set degree is an edge lookup, and any
    other size is a scan of the edges.
    """

    __slots__ = ("k", "n_vertices", "edges", "_index")

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
        index: dict[tuple[int, ...], int] = {}
        for e in canon:
            for size in range(1, min(2, k - 1) + 1):
                for sub in combinations(e, size):
                    index[sub] = index.get(sub, 0) + 1
        object.__setattr__(self, "_index", index)

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

    def vertices(self) -> Iterator[int]:
        return iter(range(self.n_vertices))

    def has_edge(self, edge: Iterable[int]) -> bool:
        canon = canonical_edge(edge)
        i = bisect_left(self.edges, canon)
        return i < len(self.edges) and self.edges[i] == canon

    def _check_vertices(self, vertices: Iterable[int]) -> tuple[int, ...]:
        canon = canonical_edge(vertices)
        if canon and (canon[0] < 0 or canon[-1] >= self.n_vertices):
            raise ValueError(f"vertex set {canon} out of range [0, {self.n_vertices})")
        return canon

    def degree(self, vertices: Iterable[int]) -> int:
        """Number of edges containing every vertex of the given set.

        The empty set is contained in every edge, so its degree is the
        edge count.  Sets larger than k are rejected.
        """
        sub = self._check_vertices(vertices)
        if len(sub) > self.k:
            raise ValueError(f"subset size {len(sub)} exceeds uniformity {self.k}")
        if not sub:
            return len(self.edges)
        if len(sub) <= min(2, self.k - 1):
            return self._index.get(sub, 0)
        if len(sub) == self.k:
            return 1 if self.has_edge(sub) else 0
        want = set(sub)
        return sum(1 for e in self.edges if want.issubset(e))

    def min_degree(self, size: int) -> int:
        """Minimum degree over all vertex subsets of the given size."""
        if not 1 <= size < self.k:
            raise ValueError(f"subset size must be in [1, {self.k - 1}], got {size}")
        return min(
            self.degree(sub) for sub in combinations(range(self.n_vertices), size)
        )

    def link(self, u: int) -> "Hypergraph":
        """The (k-1)-graph of edge remainders over edges containing u.

        Vertex ids are preserved; u itself becomes isolated in the link.
        """
        if not 0 <= u < self.n_vertices:
            raise ValueError(f"vertex {u} out of range")
        remainders = [
            tuple(v for v in e if v != u) for e in self.edges if u in e
        ]
        return Hypergraph(self.k - 1, self.n_vertices, remainders)

    def adjacent(self, u: int, v: int) -> bool:
        """True when some edge contains both u and v."""
        if u == v:
            raise ValueError("adjacency is defined for distinct vertices")
        return self.degree((u, v)) > 0

    def degree_sum_minima(self) -> DegreeSumMinima:
        """Minimum degree sums over adjacent / all / non-adjacent pairs."""
        if self.n_vertices < 2:
            raise ValueError("degree sums need at least two vertices")
        deg = [self.degree((v,)) for v in range(self.n_vertices)]
        adj: Optional[int] = None
        allp: Optional[int] = None
        non: Optional[int] = None
        for u, v in combinations(range(self.n_vertices), 2):
            s = deg[u] + deg[v]
            allp = s if allp is None else min(allp, s)
            if self._index.get((u, v), 0) > 0:
                adj = s if adj is None else min(adj, s)
            else:
                non = s if non is None else min(non, s)
        return DegreeSumMinima(adjacent=adj, all_pairs=allp, nonadjacent=non)

    def isolated_vertices(self) -> tuple[int, ...]:
        """All vertices of degree zero, in increasing order."""
        return tuple(
            v for v in range(self.n_vertices) if self._index.get((v,), 0) == 0
        )

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
        return Hypergraph(self.k, len(keep), edges), keep

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n_vertices,
            "edges": [list(e) for e in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def complete_hypergraph(k: int, n: int) -> Hypergraph:
    """All k-subsets of [0, n)."""
    return Hypergraph(k, n, combinations(range(n), k))


def empty_hypergraph(k: int, n: int) -> Hypergraph:
    return Hypergraph(k, n, [])
