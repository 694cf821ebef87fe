"""Exact matching solvers: maximum, perfect, and rainbow matchings.

Maximum and perfect matchings are exhaustive backtracking over
canonically ordered edges with vertex-occupancy bitmasks, so results
are deterministic: the same instance bytes always yield the same
witness.  A rainbow matching is decided in three stages: a search probe
bounded by the family's size, then, if the probe ran out of nodes, a
fractional-cover certificate of ``none`` (:func:`cover_refutation`:
a degree-ranked prefix cover, then the LP), and only then the full
search.  The probe and the full search scan the same tree in the same
order, so the witness is the full search's.

Maximum and perfect matchings of an induced subgraph are searched on
the parent graph, given the subgraph's ``vertices``: the kernel sees
the parent's edges inside the set, in order, each as a bitmask over
the positions of its vertices in the sorted set.  That relabel is
monotone, so the masks, the picks and the witness are those of the
relabelled induced graph, and no graph is built for the subproblem.
Only the runs (:meth:`Hypergraph._run`) of the set's own vertices are
scanned, and the edges kept are those whose other vertices lie in the
set too.

``node_budget`` bounds the searches; the certificate spends no nodes.
A wall-clock timeout (default 60 s) bounds the whole call, all stages
together, and aborts with :class:`SolverTimeout`, which is an explicit
"unknown" outcome, distinct from "no matching exists".  Its message
names what stopped the search: the budget or the deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence

from . import kernel
from .constructions import HypergraphFamily, PartiteHypergraph, family_to_partite
from .fractional import FractionalCover, min_fractional_cover
from .hypergraph import Hypergraph
from .kernel import DEFAULT_TIMEOUT, SolverTimeout, _deadline, _time_left

# Nodes per edge of the family that the rainbow probe may scan.  Found
# instances finish within 11.5 per edge (random families, n = 9 to 24,
# p = 0.05 to 0.5, seeds 0 to 19); refutations of the tight families and
# their 5%-dropped copies take about 150 at n = 12, 1,050 at n = 15 and
# 7,200 at n = 18.
PROBE_NODES_PER_EDGE = 16

Edge = tuple[int, ...]


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edges.  Building one is the package's one
    disjointness check: a reused vertex raises ``ValueError``."""

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

    def to_list(self) -> list[dict]:
        return [{"color": c, "edge": list(e)} for c, e in self.pairs]


def is_matching_of(graph: Hypergraph, matching: Matching) -> bool:
    """Is every edge of the matching an edge of the graph?  Membership
    only, through :meth:`Hypergraph._has`: disjointness is the
    ``Matching``'s own, checked when it is built."""
    return all(map(graph._has, matching.edges))


def is_perfect_matching_of(graph: Hypergraph, matching: Matching) -> bool:
    return is_matching_of(graph, matching) and len(matching.vertices()) == graph.n_vertices


def _subproblem(
    graph: Hypergraph, vertices: Optional[Iterable[int]]
) -> tuple[Sequence[Edge], list[int], int]:
    """The edges of ``graph`` inside ``vertices`` (all vertices when None),
    in order, their bitmasks over the positions of their vertices in the
    sorted set, and the size of the set."""
    if vertices is None:
        keep: Sequence[int] = range(graph.n_vertices)
        edges: Sequence[Edge] = graph.edges
    else:
        keep = graph._check_vertices(vertices, "vertices")
        # Only the runs of kept vertices are filtered.
        inside = set(keep).issuperset
        edges = list(chain.from_iterable(filter(inside, graph._run(a)) for a in keep))
    bit = [0] * graph.n_vertices
    for i, v in enumerate(keep):
        bit[v] = 1 << i
    # The bits of one edge are distinct powers of two, so their sum is
    # the mask; the flat stream of bits is cut into edges k at a time.
    flat = map(bit.__getitem__, chain.from_iterable(edges))
    return edges, list(map(sum, zip(*[flat] * graph.k))), len(keep)


def _aborted(search: str, nodes: int, node_budget: int) -> SolverTimeout:
    """The error of a search the kernel aborted.  The kernel reports
    exactly ``node_budget`` nodes only when the budget stopped it, and
    fewer when the deadline did."""
    cause = "budget" if node_budget and nodes == node_budget else "deadline"
    return SolverTimeout(f"{search} exceeded its {cause}")


def max_matching(
    graph: Hypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    node_budget: int = 0,
    vertices: Optional[Iterable[int]] = None,
) -> Matching:
    """A maximum-cardinality matching, by exhaustive branch and bound.

    With ``vertices``, a maximum matching of the subgraph induced on
    them, in the graph's own vertex ids; a repeated or out-of-range
    vertex raises ``ValueError``.
    """
    edges, masks, n = _subproblem(graph, vertices)
    status, picks, nodes = kernel.max_disjoint_edges(
        masks,
        graph.k,
        n,
        node_budget=node_budget,
        deadline=_deadline(timeout),
    )
    if status == kernel.ABORTED:
        raise _aborted("maximum-matching search", nodes, node_budget)
    return Matching(edges=tuple(edges[i] for i in picks))


def has_perfect_matching(
    graph: Hypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    node_budget: int = 0,
    vertices: Optional[Iterable[int]] = None,
    *,
    _twins: Sequence[int] = (),
) -> tuple[bool, Optional[Matching]]:
    """Perfect-matching decision with witness.

    A perfect matching is an exact cover of the vertex set by edges;
    the search branches on the most constrained uncovered vertex.  With
    ``vertices``, the decision is for the subgraph induced on them and
    the witness is in the graph's own vertex ids; a repeated or
    out-of-range vertex raises ``ValueError``.  ``_twins`` is for
    :func:`partite_perfect_matching`, which passes no ``vertices``: the
    twin groups of ``kernel.exact_cover``, as bitmasks of vertex ids.
    """
    edges, masks, n = _subproblem(graph, vertices)
    if n % graph.k != 0:
        return False, None
    status, picks, nodes = kernel.exact_cover(
        masks,
        n_vertices=n,
        node_budget=node_budget,
        deadline=_deadline(timeout),
        groups=_twins,
    )
    if status == kernel.ABORTED:
        raise _aborted("perfect-matching search", nodes, node_budget)
    if status == kernel.NONE:
        return False, None
    return True, Matching(edges=tuple(sorted(edges[i] for i in picks)))


def rainbow_matching(
    family: HypergraphFamily,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    node_budget: int = 0,
) -> Optional[RainbowMatching]:
    """One edge per family member, pairwise disjoint, or None.

    The search backtracks over colors in index order and candidate
    edges in canonical order, pruning any branch that starves a later
    color.  It runs first as a probe of ``PROBE_NODES_PER_EDGE`` nodes
    per edge (or ``node_budget``, if smaller), which decides found
    instances.  A probe that runs out of nodes hands the time left to
    :func:`cover_refutation`, whose cover (a prefix cover, then the
    LP's) proves None; without one, the search runs again in full.
    ``node_budget`` bounds each search, not the certificate, and
    ``timeout`` bounds all three stages.

    A family with more members than a third of its vertices has no
    room for disjoint triples and is answered without a search.
    """
    if 3 * len(family.members) > family.n_vertices:
        return None
    deadline = _deadline(timeout)
    color_masks = [_subproblem(m, None)[1] for m in family.members]
    # At least 1: a budget of 0 would mean an unbounded probe.
    probe = max(1, PROBE_NODES_PER_EDGE * sum(map(len, color_masks)))
    if node_budget:
        probe = min(probe, node_budget)
    status, picks, nodes = kernel.rainbow_search(
        color_masks, node_budget=probe, deadline=deadline
    )
    # The kernel reports exactly ``probe`` nodes only when the budget,
    # not the deadline, stopped it.
    if status == kernel.ABORTED and nodes == probe:
        if cover_refutation(family, _time_left(deadline, "rainbow search")) is not None:
            return None
        if probe != node_budget:
            status, picks, nodes = kernel.rainbow_search(
                color_masks, node_budget=node_budget, deadline=deadline
            )
    if status == kernel.ABORTED:
        raise _aborted("rainbow search", nodes, node_budget)
    if status == kernel.NONE:
        return None
    pairs = tuple(
        (c, family.members[c].edges[i]) for c, i in enumerate(picks)
    )
    return RainbowMatching(pairs=pairs)


def cover_refutation(
    family: HypergraphFamily,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> Optional[FractionalCover]:
    """A fractional cover of value below t that proves no rainbow matching.

    A rainbow matching of the t members is a matching of t edges in
    ``family_to_partite(family)``, and no matching outgrows a fractional
    cover, so a cover of value below t refutes it: the space barrier of
    the paper's tight family.  The prefix cover (:func:`_prefix_cover`)
    is tried first, then the LP; None when the optimal cover value is at
    least t.  The cover returned is a certificate, not necessarily the
    LP optimum.

    The cover is checked before it is returned by the one cover check,
    :meth:`FractionalCover.scaled`, and by sum(y) < t * L on its integers.
    A failed check is a fault of the package, not of the input, and
    raises :class:`AssertionError`; a call that outlasts ``timeout``
    raises :class:`SolverTimeout`.
    """
    t = len(family.members)
    deadline = _deadline(timeout)
    graph = family_to_partite(family)
    cover = _prefix_cover(graph)
    if cover is None:
        value, cover = min_fractional_cover(graph, _time_left(deadline, "cover refutation"))
        if value >= t:
            return None
    scaled = cover.scaled(graph)
    if scaled is None or sum(scaled[1]) >= t * scaled[0]:
        raise AssertionError("fractional cover failed its integer check")
    return cover


def _prefix_cover(graph: PartiteHypergraph) -> Optional[FractionalCover]:
    """Weight 1/l on a prefix S of the class-P vertices ranked by degree
    (ties to the smaller id) that holds l vertices of every edge, for the
    first l in 1, 2, 3 with |S| < l * t; None if no l has one, and for
    an edgeless graph, which the LP covers by nothing.

    That is a cover of value |S| / l < t: the space barrier, where every
    edge has at least l vertices in a set of fewer than l * t.  The
    shortest such prefix ends at the largest l-th smallest rank over the
    edges, so one pass over the edges sizes all three.
    """
    t = graph.q_size
    deg = graph.degrees(1)
    order = sorted(graph.p_vertices(), key=lambda v: (-deg[(v,)], v))
    rank = [0] * graph.n_vertices
    for i, v in enumerate(order):
        rank[v] = i
    lows = [sorted((rank[a], rank[b], rank[c])) for _, a, b, c in graph.edges]
    for ell, col in enumerate(zip(*lows), 1):
        size = max(col) + 1
        if size < ell * t:
            return FractionalCover(weights=dict.fromkeys(order[:size], Fraction(1, ell)))
    return None


def partite_perfect_matching(
    graph: PartiteHypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    node_budget: int = 0,
) -> Optional[Matching]:
    """Perfect matching of a balanced (1,3)-partite 4-graph, or None.

    Deliberately runs the generic exact-cover search on the flat
    4-graph rather than decomposing by class vertex, so its verdict is
    an independent cross-check on the rainbow solver.  The one thing it
    tells the search about the graph is its twin classes
    (:func:`_twin_classes`), the class vertices that share a link by
    :meth:`PartiteHypergraph._link_classes`, the partition the stability
    shift reads too: swapping two twins is an automorphism, so
    the search may treat a covered set as dead when an image of it is.
    That prunes only dead states, so the witness and the verdict are
    those of the plain search; only the node count falls.
    """
    if not graph.balanced:
        raise ValueError(
            f"perfect matchings need a balanced graph; got |Q|={graph.q_size}, "
            f"|P|={graph.p_size}"
        )
    found, matching = has_perfect_matching(
        graph, timeout=timeout, node_budget=node_budget, _twins=_twin_classes(graph)
    )
    return matching if found else None


def _twin_classes(graph: PartiteHypergraph) -> list[int]:
    """The classes of two or more class vertices with equal links, each
    as a bitmask of vertex ids, in order of first appearance.  Every
    edge holds one class vertex, so swapping two twins maps the edges
    onto themselves.  Which links are equal is
    :meth:`PartiteHypergraph._link_classes`'s to say."""
    masks = [0] * graph.q_size
    for u, h in enumerate(graph._link_classes()):
        masks[h] |= 1 << u
    return [m for m in masks if m.bit_count() > 1]
