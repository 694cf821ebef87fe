"""Brute-force oracles, independent of the package's search kernels.

These recompute expected values by plain enumeration with no pruning
beyond disjointness, so they stay honest cross-checks for the solvers.
Only usable at small sizes.
"""

from __future__ import annotations

from itertools import combinations, product


def brute_degree(edges, subset) -> int:
    want = set(subset)
    return sum(1 for e in edges if want.issubset(e))


def brute_max_matching_size(edges) -> int:
    """DFS over increasing edge indices; no bounding."""
    best = 0

    def go(start: int, used: frozenset, count: int) -> None:
        nonlocal best
        best = max(best, count)
        for j in range(start, len(edges)):
            e = edges[j]
            if not (used & set(e)):
                go(j + 1, used | set(e), count + 1)

    go(0, frozenset(), 0)
    return best


def brute_pm_exists(edges, n_vertices: int, k: int) -> bool:
    """Cover the lowest uncovered vertex at each step."""
    if n_vertices % k != 0:
        return False
    target = frozenset(range(n_vertices))

    def go(used: frozenset) -> bool:
        if used == target:
            return True
        low = min(target - used)
        for e in edges:
            se = set(e)
            if low in se and not (se & used):
                if go(used | se):
                    return True
        return False

    return go(frozenset())


def brute_rainbow_exists(member_edges) -> bool:
    """Try every combination of one edge per member."""
    def go(idx: int, used: frozenset) -> bool:
        if idx == len(member_edges):
            return True
        for e in member_edges[idx]:
            se = set(e)
            if not (se & used):
                if go(idx + 1, used | se):
                    return True
        return False

    return go(0, frozenset())


def all_partite_four_sets(q_size: int, p_size: int):
    for u in range(q_size):
        for trio in combinations(range(q_size, q_size + p_size), 3):
            yield (u,) + trio


def brute_is_stable(order) -> bool:
    """Definitional check: every dominating 4-set of an edge is an edge."""
    from rainbow_lab.shift import edge_precedes

    g = order.graph
    edge_set = set(g.edges)
    for e in g.edges:
        for f in all_partite_four_sets(g.q_size, g.p_size):
            if edge_precedes(e, tuple(sorted(f)), order):
                if tuple(sorted(f)) not in edge_set:
                    return False
    return True


def float_lp_matching_value(edges, n_vertices: int) -> float:
    """Floating-point LP oracle for the fractional matching optimum."""
    from scipy.optimize import linprog

    m = len(edges)
    if m == 0:
        return 0.0
    a_ub = [[1.0 if v in e else 0.0 for e in edges] for v in range(n_vertices)]
    res = linprog(
        [-1.0] * m,
        A_ub=a_ub,
        b_ub=[1.0] * n_vertices,
        bounds=[(0, None)] * m,
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def float_lp_cover_value(edges, n_vertices: int) -> float:
    """Floating-point LP oracle for the fractional cover optimum."""
    from scipy.optimize import linprog

    if not edges:
        return 0.0
    a_ub = [[-1.0 if v in e else 0.0 for v in range(n_vertices)] for e in edges]
    res = linprog(
        [1.0] * n_vertices,
        A_ub=a_ub,
        b_ub=[-1.0] * len(edges),
        bounds=[(0, None)] * n_vertices,
        method="highs",
    )
    assert res.status == 0
    return res.fun
