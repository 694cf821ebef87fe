"""Exact fractional matching and vertex cover from one simplex solve.

The matching LP (maximize total edge weight, every vertex load at most
1) is solved by a primal simplex from the slack basis, which is
feasible.  All arithmetic is on Python ints: every stored entry is the
true rational entry times one common denominator ``den``, the pivot
element of the previous step (1 at the start).  Pivoting is
fraction-free in the manner of Bareiss (1968), so each update divides
exactly and entries stay bounded by subdeterminants of the constraint
matrix.  There is no floating point and no rounding, so optimal values
are bit-exact.

The simplex is revised (Azulay and Pique, ACM TOMS 27(3), 2001): of
the n x (m + n + 1) tableau it keeps only the n x (n + 1) block
``den * B^-1 | den * rhs`` and the n + 1 slack reduced costs.  Each of
the m edge columns has k ones, so its column and its reduced cost are
sums over its k vertices, and only the entering edge's column is formed.

Both packed stores below, the edge prices and the columns, hold signed
integers in the lanes of one Python int, lane j in bits ``j * w`` up,
each read as its w bits less ``half = 2^(w - 1)``.  One rule,
:func:`_lane_width`, sizes a lane for integers of absolute value at
most a bound: the bound's bit length plus a sign bit, rounded up to 16,
32 or 64 bits, and beyond 64 bits to a whole number of bytes.  One
decoder, :func:`_unpack_lanes`, reads the lanes: through :mod:`struct`
up to 64 bits, one ``int.from_bytes`` slice per lane beyond.  Whole
bytes rather than 64-bit words keep wide lanes narrow (a 68-bit lane
takes 72 bits, not 128), and every big-int update of the simplex is as
wide as its lanes.

Every edge is priced at every pivot, in one pass over packed lanes.
With ``inc[v]`` the int that has a 1 in lane j for each edge j through
v, lane j of ``(den + half) * ones + sum(cbar[v] * inc[v])`` is edge j's
reduced cost ``den + sum(cbar[v] for v in edge j)`` plus ``half``: n
big-int multiply-adds and one decode, where a list pass makes k * m
Python additions.  An edge's reduced cost is at most
``den + k * max|cbar[v]|`` in absolute value, so each pivot takes its
lane width from that bound, and ``inc`` is built once per solve and
width, in O(k * m).  (A width fixed by Hadamard's bound would exceed 64
bits on sparse 80-vertex graphs whose costs fit in far fewer.)  The
first largest lane is the edge that a list pass picks, so the pivot
path and every stored integer are those of full pricing.  An early exit
that entered the first edge whose vertices all have reduced cost 0
measured no faster than this pass, so pricing has this one path.

The block is stored by column, each of its n + 1 columns one Python
int whose lane i of w bits holds the column's row i.  Only the n rows
of ``[A | I | 1]`` are packed (the constraint matrix A, the slacks and
the rhs); the reduced costs stay a list.  So every packed integer (an
entry of ``den * B^-1``, of the rhs or of an entering column) is, by
Cramer's rule, a minor of order at most n of ``[A | I | 1]``, and
Hadamard's inequality bounds it by the product of its column norms: at
most sqrt(k) for an edge, 1 for a slack and sqrt(n) for the rhs, which
a minor uses at most once.  Its square is thus at most
``k^(n - 1) * max(n, k)``, and w, fixed once per solve, is the lane
width for that bound's integer square root.  Packing is linear, so a
column is updated as a whole: an edge's column is the sum of its k
vertices' columns, and a pivot maps each column C, with entry p in the
pivot row, to ``(piv * C - p * E') // den``.  Each lane of the
dividend is the Bareiss update of that row, an exact multiple of
``den``, so the whole int divides exactly and lane by lane; the
dividend's lanes may outgrow w bits, but only the quotient, a stored
integer, is ever decoded.  E' is the entering column with ``den``
taken from the pivot lane, which keeps the pivot row's entries.  A
pivot thus makes n + 1 big-int updates where a store by row makes
n(n + 1) small ones.  Every lane decodes to the integer a store by row
holds, and pricing, the ratio test and the certificates read only
decoded values, so the pivot path and both certificates are those of
the dense tableau.

Pivots follow Dantzig's rule, the largest reduced cost enters, with
the lexicographic ratio test of Dantzig, Orden and Wolfe (Pacific J.
Math. 5, 1955): the leaving row is the lexicographic minimum of
``(rhs, B^-1 row) / entry``.  The slack basis starts every such vector
lexicographically positive, so no basis repeats and the method
terminates without Bland's smallest-index rule (Math. Oper. Res. 2(2),
1977), in far fewer pivots on the degenerate covers of the extremal
graphs.

Both certificates come from the final state: the basic edge rows give
the matching (only their non-zero weights, so at most n edges), and the
negated reduced costs of the vertex slacks give the cover (the LP
dual).  Their optimality is not taken on trust:
callers check that the matching and the cover are feasible (the cover
by :meth:`FractionalCover.scaled`, the package's one cover check) and
that their values agree, which by weak duality proves both optimal.
:func:`verify_duality` makes all three checks and hands over the
certificates it verified.

Optimal faces are generally not singletons, and which optimal vertex
the pivot rule reaches is an accident of that rule: callers should
assert values and certificate feasibility, never specific weights.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import isqrt, lcm
from typing import Optional, Sequence

from .hypergraph import Hypergraph
from .kernel import DEFAULT_TIMEOUT, _deadline, _time_left

Edge = tuple[int, ...]

ZERO = Fraction(0)


@dataclass(frozen=True)
class FractionalMatching:
    """Edge weights in [0,1] with per-vertex load at most 1; an absent
    edge weighs 0."""

    weights: dict[Edge, Fraction]

    def value(self) -> Fraction:
        return sum(self.weights.values(), ZERO)

    def vertex_load(self, graph: Hypergraph) -> list[Fraction]:
        load = [ZERO] * graph.n_vertices
        for e, w in self.weights.items():
            if w:
                for v in e:
                    load[v] += w
        return load

    def is_feasible(self, graph: Hypergraph) -> bool:
        """Every key an edge of the graph (:meth:`Hypergraph._has`, so an
        unsorted key is not one), every weight in [0, 1] and every vertex
        load at most 1."""
        return all(
            graph._has(e) and 0 <= w <= 1 for e, w in self.weights.items()
        ) and all(l <= 1 for l in self.vertex_load(graph))

    def saturates(self, graph: Hypergraph) -> bool:
        return all(l == 1 for l in self.vertex_load(graph))


@dataclass(frozen=True)
class FractionalCover:
    """Vertex weights in [0,1] with every edge weighted to at least 1."""

    weights: dict[int, Fraction]

    def value(self) -> Fraction:
        return sum(self.weights.values(), ZERO)

    def is_feasible(self, graph: Hypergraph) -> bool:
        return self.scaled(graph) is not None

    def scaled(self, graph: Hypergraph) -> Optional[tuple[int, list[int]]]:
        """``(L, y)``: L the weights' common denominator, y[v] L times the
        weight of v (0 if absent); None unless every key is a vertex,
        0 <= y <= L and every edge sums to at least L."""
        w = self.weights
        if not set(w).issubset(range(graph.n_vertices)):
            return None
        den = lcm(*(x.denominator for x in w.values()))
        y = [0] * graph.n_vertices
        for v, x in w.items():
            y[v] = x.numerator * (den // x.denominator)
        # The flattened edge list's weights, k at a time: each edge's sum.
        loads = map(y.__getitem__, chain.from_iterable(graph.edges))
        if (
            not all(0 <= a <= den for a in y)
            or min(map(sum, zip(*[loads] * graph.k)), default=den) < den
        ):
            return None
        return den, y


# struct codes of the lane widths up to 64 bits
_LANE_CODES = {16: "H", 32: "I", 64: "Q"}


def _lane_width(bound: int) -> int:
    """Bits per lane for signed integers of absolute value at most
    ``bound``: the lane rule of the module docstring."""
    w = bound.bit_length() + 1
    for width in _LANE_CODES:
        if w <= width:
            return width
    return -(-w // 8) * 8


def _unpack_lanes(packed: int, count: int, width: int) -> Sequence[int]:
    """The ``count`` unsigned ``width``-bit lanes of a non-negative int,
    lane 0 lowest: through :mod:`struct` up to 64 bits, one byte slice
    per lane beyond."""
    data = packed.to_bytes(count * width // 8, "little")
    if width in _LANE_CODES:
        return struct.unpack(f"<{count}{_LANE_CODES[width]}", data)
    step = width // 8
    return [
        int.from_bytes(data[at : at + step], "little")
        for at in range(0, len(data), step)
    ]


def _edge_prices(
    graph: Hypergraph,
    costs: list[int],
    den: int,
    incidence: dict[int, tuple[int, list[int]]],
) -> tuple[Sequence[int], int]:
    """``(lanes, half)``: lane j is ``half`` plus the reduced cost
    ``den + sum(costs[v] for v in graph.edges[j])`` of edge j, all priced
    in one packed pass (see the module docstring).  Every lane lies in
    ``[0, 2 * half)``, so the sum decodes lane by lane whatever the
    borrows between its partial sums.  ``incidence`` keeps
    ``(ones, inc)`` by lane width for the caller's next pass.
    """
    edges = graph.edges
    width = _lane_width(den + graph.k * max(map(abs, costs), default=0))
    if width not in incidence:
        step = width // 8
        rows = [bytearray(len(edges) * step) for _ in costs]
        for at, e in zip(range(0, len(edges) * step, step), edges):
            for v in e:
                rows[v][at] = 1
        incidence[width] = (
            int.from_bytes(b"\x01".ljust(step, b"\x00") * len(edges), "little"),
            [int.from_bytes(row, "little") for row in rows],
        )
    ones, inc = incidence[width]
    half = 1 << width - 1
    total = (den + half) * ones
    for c, row in zip(costs, inc):
        if c:
            total += c * row
    return _unpack_lanes(total, len(edges), width), half


def _solve(
    graph: Hypergraph, timeout: Optional[float]
) -> tuple[Fraction, FractionalMatching, FractionalCover]:
    """Optimal value, matching and cover of the matching LP.

    The dense tableau has the m edge columns, the n vertex slacks and
    the rhs; this stores only the slack block ``den * B^-1`` and the rhs
    column, packed one int per column in ``cols`` (rhs last), and the
    slack reduced costs followed by ``-den`` times the objective, as the
    list ``cbar``.  ``cols[j]`` is ``sum(x_i << i * w)`` over its rows
    x_i, so a negative lane borrows 1 from the lane above it.  Adding
    ``bias``, ``half = 2^(w - 1)`` in every lane, makes every lane
    non-negative without a carry, since ``|x_i| < half``, and lane i
    then reads as its w bits minus ``half``.

    An edge column of the dense tableau is the sum of the slack columns
    of its vertices, and its reduced cost is ``den`` plus the sum of
    their reduced costs.  Both identities hold exactly in the stored
    integers, because every Bareiss step is linear in the columns and
    each of its divisions is exact, so an edge's entries are computed
    when it is priced and never stored.  A basic edge prices to 0, so
    the basis needs no membership set.

    The largest positive reduced cost enters, ties to the lowest column
    (edges before slacks): :func:`_edge_prices` prices every edge in one
    packed pass, its first largest lane is the edge candidate, and a
    slack enters only when its reduced cost is larger still.  All stored
    ints share the factor ``den``, so they compare as they are.  The
    leaving row is the lexicographic minimum of
    ``(rhs, den * B^-1 row) / entry`` over the positive entries: rhs
    ratios first, then, only on a tie, lanes i and ``leave`` of the B^-1
    columns in column order.  B^-1 is nonsingular, so no two rows are
    proportional and the minimum is unique.  ``den`` stays positive
    because every pivot element is, so signs of stored ints are signs
    of the true entries and ratios compare by cross-multiplication.

    The pivot on ``piv`` in row ``leave`` maps row i of a column with
    pivot-row entry p to ``(piv * x_i - p * e_i) // den``, e the
    entering column, for every row but ``leave``, which keeps p.  In
    ``e'``, e less ``den`` in lane ``leave``, the same formula gives
    ``(piv * p - p * (piv - den)) // den = p`` there too, so each column
    updates as ``(piv * col - p * e') // den`` in one exact division.
    A column with p = 0 only rescales, and stays when ``piv == den``.
    """
    deadline = _deadline(timeout)
    edges = graph.edges
    m = len(edges)
    n = graph.n_vertices
    w = _lane_width(isqrt(graph.k ** max(n - 1, 0) * max(n, graph.k)))
    shifts = range(0, n * w, w)
    half = 1 << w - 1
    mask = (1 << w) - 1
    ones = sum(1 << s for s in shifts)
    bias = half * ones

    def decode(col: int) -> list[int]:
        return [x - half for x in _unpack_lanes(col + bias, n, w)]

    cols = [1 << s for s in shifts] + [ones]
    cbar = [0] * (n + 1)  # den * (-y), then -den * objective
    basis = [m + v for v in range(n)]
    den = 1
    incidence: dict[int, tuple[int, list[int]]] = {}
    while True:
        costs = cbar[:n]
        slack = max(costs, default=0)
        lanes, lane_half = _edge_prices(graph, costs, den, incidence)
        top = max(lanes, default=lane_half)
        f = top - lane_half
        if slack > f:
            f = slack
            enter = m + costs.index(slack)
        elif f > 0:
            enter = lanes.index(top)
        else:
            break
        if enter < m:
            entering = sum(map(cols.__getitem__, edges[enter]))
        else:
            entering = cols[enter - m]
        col = decode(entering)
        rhs_biased = cols[n] + bias
        _time_left(deadline, "fractional LP")
        leave = None
        for i, a in enumerate(col):
            if a > 0:
                x = (rhs_biased >> i * w & mask) - half
                if leave is None:
                    leave, b, y = i, a, x
                    continue
                lhs, rhs = x * b, y * a
                if lhs == rhs:
                    si, sl = i * w, leave * w
                    for c in cols:
                        c += bias
                        lhs = ((c >> si & mask) - half) * b
                        rhs = ((c >> sl & mask) - half) * a
                        if lhs != rhs:
                            break
                if lhs < rhs:
                    leave, b, y = i, a, x
        if leave is None:
            raise ArithmeticError("LP unbounded; malformed instance")
        piv = col[leave]
        s = leave * w
        prow = [((c + bias) >> s & mask) - half for c in cols]
        entering -= den << s
        for j, (c, p) in enumerate(zip(cols, prow)):
            if p:
                cols[j] = (piv * c - p * entering) // den
            elif piv != den:
                cols[j] = c * piv // den
        cbar = [(piv * c - f * p) // den for c, p in zip(cbar, prow)]
        basis[leave] = enter
        den = piv

    rhs = decode(cols[n])
    weights = {
        edges[b]: Fraction(rhs[i], den) for i, b in enumerate(basis) if b < m and rhs[i]
    }
    cover = {v: Fraction(-cbar[v], den) for v in range(n)}
    return (
        Fraction(-cbar[-1], den),
        FractionalMatching(weights=weights),
        FractionalCover(weights=cover),
    )


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
) -> Optional[tuple[Fraction, FractionalMatching, FractionalCover]]:
    """The one solve's ``(value, matching, cover)``, once both
    certificates are feasible and their values equal ``value``, which
    proves both optimal; None when any of the three checks fails.

    The tuple is truthy even when the value is 0, so the result reads
    as the verdict.
    """
    value, matching, cover = _solve(graph, timeout)
    if (
        matching.is_feasible(graph)
        and cover.is_feasible(graph)
        and matching.value() == cover.value() == value
    ):
        return value, matching, cover
    return None


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
    if value != Fraction(graph.n_vertices, graph.k):
        return False, None
    if not matching.saturates(graph):
        raise AssertionError("optimal matching at n/k failed to saturate")
    return True, matching
