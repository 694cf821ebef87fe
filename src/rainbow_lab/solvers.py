"""Exact matching solvers: maximum, perfect, and rainbow matchings.

All searches are exhaustive backtracking over canonically ordered edges
with vertex-occupancy bitmasks, so results are deterministic: the same
instance bytes always yield the same witness.  A wall-clock timeout
(default 60 s) aborts a search with :class:`SolverTimeout`, which is an
explicit "unknown" outcome, distinct from "no matching exists".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import kernel
from .constructions import HypergraphFamily, PartiteHypergraph
from .hypergraph import Hypergraph

DEFAULT_TIMEOUT = 60.0

Edge = tuple[int, ...]


class SolverTimeout(RuntimeError):
    """Search aborted before completion; existence is unknown."""


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edges."""

    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for e in self.edges:
            for v in e:
                if v in seen:
                    raise ValueError(f"matching reuses vertex {v}")
                seen.add(v)

    def __len__(self) -> int:
        return len(self.edges)

    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def to_list(self) -> list[list[int]]:
        return [list(e) for e in self.edges]


@dataclass(frozen=True)
class RainbowMatching:
    """Disjoint edges tagged with distinct color (family member) indices."""

    pairs: tuple[tuple[int, Edge], ...]

    def __post_init__(self):
        colors = [c for c, _ in self.pairs]
        if len(set(colors)) != len(colors):
            raise ValueError("rainbow matching repeats a color")
        Matching(edges=tuple(e for _, e in self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def matching(self) -> Matching:
        return Matching(edges=tuple(e for _, e in self.pairs))

    def to_list(self) -> list[dict]:
        return [{"color": c, "edge": list(e)} for c, e in self.pairs]


def edge_mask(edge: Iterable[int]) -> int:
    mask = 0
    for v in edge:
        mask |= 1 << v
    return mask


def _deadline(timeout: Optional[float]) -> float:
    return time.monotonic() + timeout if timeout else 0.0


def is_matching_of(graph: Hypergraph, edges: Sequence[Edge]) -> bool:
    """Check pairwise disjointness and membership in the graph."""
    seen: set[int] = set()
    edge_set = set(graph.edges)
    for e in edges:
        if tuple(e) not in edge_set:
            return False
        for v in e:
            if v in seen:
                return False
            seen.add(v)
    return True


def is_perfect_matching_of(graph: Hypergraph, edges: Sequence[Edge]) -> bool:
    return is_matching_of(graph, edges) and sum(
        len(e) for e in edges
    ) == graph.n_vertices


def max_matching(
    graph: Hypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    node_budget: int = 0,
) -> Matching:
    """A maximum-cardinality matching, by exhaustive branch and bound."""
    masks = [edge_mask(e) for e in graph.edges]
    status, picks, _ = kernel.max_disjoint_edges(
        masks,
        graph.k,
        graph.n_vertices,
        node_budget=node_budget,
        deadline=_deadline(timeout),
    )
    if status == kernel.ABORTED:
        raise SolverTimeout("maximum-matching search exceeded its budget")
    return Matching(edges=tuple(graph.edges[i] for i in picks))


def has_perfect_matching(
    graph: Hypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    node_budget: int = 0,
) -> tuple[bool, Optional[Matching]]:
    """Perfect-matching decision with witness.

    A perfect matching is an exact cover of the vertex set by edges;
    the search branches on the most constrained uncovered vertex.
    """
    n = graph.n_vertices
    if n % graph.k != 0:
        return False, None
    masks = [edge_mask(e) for e in graph.edges]
    status, picks, _ = kernel.exact_cover(
        masks,
        n_vertices=n,
        node_budget=node_budget,
        deadline=_deadline(timeout),
    )
    if status == kernel.ABORTED:
        raise SolverTimeout("perfect-matching search exceeded its budget")
    if status == kernel.NONE:
        return False, None
    return True, Matching(edges=tuple(sorted(graph.edges[i] for i in picks)))


def rainbow_matching(
    family: HypergraphFamily,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    node_budget: int = 0,
) -> Optional[RainbowMatching]:
    """One edge per family member, pairwise disjoint, or None.

    Backtracks over colors in index order and candidate edges in
    canonical order, pruning any branch that starves a later color.
    A family with more members than a third of its vertices has no
    room for disjoint triples and is answered without a search.
    """
    if 3 * len(family.members) > family.n_vertices:
        return None
    color_masks = [[edge_mask(e) for e in m.edges] for m in family.members]
    status, picks, _ = kernel.rainbow_search(
        color_masks,
        node_budget=node_budget,
        deadline=_deadline(timeout),
    )
    if status == kernel.ABORTED:
        raise SolverTimeout("rainbow search exceeded its budget")
    if status == kernel.NONE:
        return None
    pairs = tuple(
        (c, family.members[c].edges[i]) for c, i in enumerate(picks)
    )
    return RainbowMatching(pairs=pairs)


def partite_perfect_matching(
    graph: PartiteHypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    node_budget: int = 0,
) -> Optional[Matching]:
    """Perfect matching of a balanced (1,3)-partite 4-graph, or None.

    Deliberately runs the generic exact-cover search on the flat
    4-graph rather than decomposing by class vertex, so its verdict is
    an independent cross-check on the rainbow solver.
    """
    if not graph.balanced:
        raise ValueError(
            f"perfect matchings need a balanced graph; got |Q|={graph.q_size}, "
            f"|P|={graph.p_size}"
        )
    found, matching = has_perfect_matching(
        graph, timeout=timeout, node_budget=node_budget
    )
    return matching if found else None
