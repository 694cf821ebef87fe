"""Exact fractional matching and vertex cover from one simplex solve.

The matching LP (maximize total edge weight, every vertex load at most
1) is solved by a primal simplex from the slack basis, which is
feasible.  The tableau holds Python ints only: every entry is the true
rational entry times one common denominator ``den``, the pivot element
of the previous step (1 at the start).  Pivoting is fraction-free in the
manner of Bareiss (1968), so each update divides exactly and entries
stay bounded by subdeterminants of the constraint matrix.  There is no
floating point and no rounding, so optimal values are bit-exact.

Both certificates come from the final tableau: the basic edge columns
give the matching, and the negated reduced costs of the vertex slacks
give the cover (the LP dual).  Their optimality is not taken on trust:
callers check that the matching and the cover are feasible and that
their values agree, which by weak duality proves both optimal.

Optimal faces are generally not singletons: ties are broken by Bland's
smallest-index rule, and callers should assert values and certificate
feasibility, never specific weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .hypergraph import Hypergraph
from .solvers import DEFAULT_TIMEOUT, SolverTimeout, _deadline

Edge = tuple[int, ...]

ZERO = Fraction(0)


@dataclass(frozen=True)
class FractionalMatching:
    """Edge weights in [0,1] with per-vertex load at most 1."""

    weights: dict[Edge, Fraction]

    def value(self) -> Fraction:
        return sum(self.weights.values(), ZERO)

    def vertex_load(self, graph: Hypergraph) -> list[Fraction]:
        load = [ZERO] * graph.n_vertices
        for e, w in self.weights.items():
            for v in e:
                load[v] += w
        return load

    def is_feasible(self, graph: Hypergraph) -> bool:
        edge_set = set(graph.edges)
        if any(e not in edge_set for e in self.weights):
            return False
        if any(w < 0 or w > 1 for w in self.weights.values()):
            return False
        return all(l <= 1 for l in self.vertex_load(graph))

    def saturates(self, graph: Hypergraph) -> bool:
        return all(l == 1 for l in self.vertex_load(graph))


@dataclass(frozen=True)
class FractionalCover:
    """Vertex weights in [0,1] with every edge weighted to at least 1."""

    weights: dict[int, Fraction]

    def value(self) -> Fraction:
        return sum(self.weights.values(), ZERO)

    def is_feasible(self, graph: Hypergraph) -> bool:
        if any(w < 0 or w > 1 for w in self.weights.values()):
            return False
        get = self.weights.get
        return all(
            sum((get(v, ZERO) for v in e), ZERO) >= 1 for e in graph.edges
        )


def _solve(
    graph: Hypergraph, timeout: Optional[float]
) -> tuple[Fraction, FractionalMatching, FractionalCover]:
    """Optimal value, matching and cover of the matching LP.

    Columns are the m edges, then the n vertex slacks, then the rhs.
    Bland's rule picks the entering column; the leaving row minimizes
    rhs/entry, ties to the smaller basic index.  ``den`` stays positive
    because every pivot element is, so signs of stored ints are signs of
    the true entries and ratios compare by cross-multiplication.
    """
    deadline = _deadline(timeout)
    edges = graph.edges
    m = len(edges)
    n = graph.n_vertices
    rows = []
    for v in range(n):
        row = [0] * (m + n + 1)
        for j, e in enumerate(edges):
            if v in e:
                row[j] = 1
        row[m + v] = 1
        row[-1] = 1
        rows.append(row)
    cbar = [1] * m + [0] * (n + 1)  # reduced costs, then -objective
    basis = [m + v for v in range(n)]
    den = 1
    ncols = m + n
    while True:
        enter = next((j for j in range(ncols) if cbar[j] > 0), None)
        if enter is None:
            break
        if deadline and time.monotonic() > deadline:
            raise SolverTimeout("fractional LP exceeded its deadline")
        leave = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = row[-1] * rows[leave][enter]
                rhs = rows[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("LP unbounded; malformed instance")
        prow = rows[leave]
        piv = prow[enter]
        for i, row in enumerate(rows):
            if i != leave:
                rows[i] = _bareiss(row, prow, piv, den, enter)
        cbar = _bareiss(cbar, prow, piv, den, enter)
        basis[leave] = enter
        den = piv

    weights = {e: ZERO for e in edges}
    for i, b in enumerate(basis):
        if b < m:
            weights[edges[b]] = Fraction(rows[i][-1], den)
    cover = {v: Fraction(-cbar[m + v], den) for v in range(n)}
    return (
        Fraction(-cbar[-1], den),
        FractionalMatching(weights=weights),
        FractionalCover(weights=cover),
    )


def _bareiss(
    row: list[int], prow: list[int], piv: int, den: int, enter: int
) -> list[int]:
    """One non-pivot row after pivoting on ``prow[enter] == piv``.

    The divisions are exact (Bareiss): every result is a subdeterminant
    of the original tableau.
    """
    f = row[enter]
    if f:
        return [(piv * x - f * p) // den for x, p in zip(row, prow)]
    if piv == den:
        return row
    return [x * piv // den for x in row]


def max_fractional_matching(
    graph: Hypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> tuple[Fraction, FractionalMatching]:
    """Optimal fractional matching: max total weight, loads at most 1.

    Raises :class:`SolverTimeout` when the solve outlasts ``timeout``.
    """
    value, matching, _ = _solve(graph, timeout)
    return value, matching


def min_fractional_cover(
    graph: Hypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> tuple[Fraction, FractionalCover]:
    """Optimal fractional vertex cover: min total weight, edges covered.

    Raises :class:`SolverTimeout` when the solve outlasts ``timeout``.
    """
    value, _, cover = _solve(graph, timeout)
    return value, cover


def verify_duality(
    graph: Hypergraph, timeout: Optional[float] = DEFAULT_TIMEOUT
) -> bool:
    """Both certificates feasible, with equal values: both are optimal."""
    value, matching, cover = _solve(graph, timeout)
    return (
        matching.is_feasible(graph)
        and cover.is_feasible(graph)
        and matching.value() == cover.value() == value
    )


def fractional_perfect_matching(
    graph: Hypergraph,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
) -> tuple[bool, Optional[FractionalMatching]]:
    """Fractional matching saturating every vertex, when one exists.

    Exists exactly when the optimal value reaches n/k, in which case the
    loads of an optimal matching are forced to 1 everywhere; that is
    asserted before returning.
    """
    value, matching = max_fractional_matching(graph, timeout)
    if graph.n_vertices == 0:
        return True, matching
    if value != Fraction(graph.n_vertices, graph.k):
        return False, None
    if not matching.saturates(graph):
        raise AssertionError("optimal matching at n/k failed to saturate")
    return True, matching
