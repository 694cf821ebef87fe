"""Exact-rational LP: optima, certificates, duality.

Optimal certificates are degenerate in general, so assertions cover
values and feasibility, never specific weights.  A floating-point LP
solver serves as the independent oracle for optimal values.  The one
exception is the agreement test with the dense tableau in ``_oracles``,
which fixes the solver's pivot path and so its exact certificates.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbow_lab import fractional
from rainbow_lab.constructions import (
    HypergraphFamily,
    PartiteHypergraph,
    complete_partite,
    extremal_graph,
    extremal_partite,
    family_to_partite,
)
from rainbow_lab.fractional import (
    FractionalCover,
    FractionalMatching,
    fractional_perfect_matching,
    max_fractional_matching,
    min_fractional_cover,
    verify_duality,
)
from rainbow_lab.hypergraph import Hypergraph, complete_hypergraph, empty_hypergraph
from rainbow_lab.solvers import SolverTimeout, has_perfect_matching, max_matching

from _oracles import (
    all_partite_four_sets,
    dense_solve,
    float_lp_cover_value,
    float_lp_matching_value,
    fraction_is_matching,
    random_3graph,
)


TRIANGLE = Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)])


class TestMatchingSide:
    def test_complete_nine(self):
        value, fm = max_fractional_matching(complete_hypergraph(3, 9))
        assert value == 3 and fm.is_feasible(complete_hypergraph(3, 9))

    def test_single_edge(self):
        h = Hypergraph(3, 3, [(0, 1, 2)])
        value, _ = max_fractional_matching(h)
        assert value == 1

    def test_wide_extremal_capped_by_blockers(self):
        value, fm = max_fractional_matching(extremal_graph(9, 3, 1))
        assert value == 2 and fm.is_feasible(extremal_graph(9, 3, 1))

    def test_triangle_half_integral(self):
        value, _ = max_fractional_matching(TRIANGLE)
        assert value == Fraction(3, 2)

    def test_empty(self):
        value, fm = max_fractional_matching(empty_hypergraph(3, 4))
        assert value == 0 and fm.weights == {}


class TestCoverSide:
    def test_triangle_half_integral(self):
        value, fc = min_fractional_cover(TRIANGLE)
        assert value == Fraction(3, 2) and fc.is_feasible(TRIANGLE)

    def test_complete_six(self):
        value, fc = min_fractional_cover(complete_hypergraph(3, 6))
        assert value == 2 and fc.is_feasible(complete_hypergraph(3, 6))

    def test_empty(self):
        value, fc = min_fractional_cover(empty_hypergraph(3, 5))
        assert value == 0 and fc.is_feasible(empty_hypergraph(3, 5))

    def test_wide_extremal_blockers_suffice(self):
        h = extremal_graph(9, 3, 1)
        value, fc = min_fractional_cover(h)
        assert value == 2 and fc.is_feasible(h)


class TestDuality:
    def test_tight_extremal(self):
        assert verify_duality(extremal_graph(9, 3, 2))

    def test_empty(self):
        assert verify_duality(empty_hypergraph(3, 4))

    def test_random_instances_exact(self):
        rng = random.Random(13)
        for _ in range(30):
            h = random_3graph(rng, rng.randint(4, 10), rng.uniform(0.05, 0.8))
            assert verify_duality(h)

    def test_values_match_float_oracle(self):
        rng = random.Random(14)
        for _ in range(15):
            h = random_3graph(rng, rng.randint(4, 9), rng.uniform(0.1, 0.7))
            exact, _ = max_fractional_matching(h)
            approx = float_lp_matching_value(h.edges, h.n_vertices)
            assert abs(float(exact) - approx) < 1e-7
            tau, fc = min_fractional_cover(h)
            approx_tau = float_lp_cover_value(h.edges, h.n_vertices)
            assert abs(float(tau) - approx_tau) < 1e-7
            assert fc.is_feasible(h)
            assert abs(float(fc.value()) - approx_tau) < 1e-7

    @pytest.mark.parametrize("fault", ["matching", "cover", "value"])
    def test_each_fault_fails_on_its_own(self, fault, monkeypatch):
        # one certificate made infeasible at the same value (an unsorted
        # edge key, a cover weight off the vertex set), or a wrong optimum
        h = extremal_graph(9, 3, 2)
        value, matching, cover = fractional._solve(h, None)
        assert matching.weights and cover.weights
        if fault == "matching":
            matching = FractionalMatching({e[::-1]: w for e, w in matching.weights.items()})
        elif fault == "cover":
            cover = FractionalCover({v + h.n_vertices: w for v, w in cover.weights.items()})
        else:
            value += 1
        monkeypatch.setattr(fractional, "_solve", lambda graph, timeout: (value, matching, cover))
        assert verify_duality(h) is None

    @pytest.mark.parametrize(
        "h", [extremal_graph(9, 3, 2), empty_hypergraph(3, 4)], ids=["tight", "empty"]
    )
    def test_hands_over_the_certificates(self, h):
        # truthy even at value 0, and the one solve's certificates
        certified = verify_duality(h)
        assert certified
        value, matching, cover = certified
        assert value == matching.value() == cover.value() == max_fractional_matching(h)[0]
        assert matching.is_feasible(h) and cover.is_feasible(h)

    def test_integral_below_fractional(self):
        rng = random.Random(15)
        for _ in range(15):
            h = random_3graph(rng, rng.randint(4, 9), rng.uniform(0.1, 0.7))
            nu, _ = max_fractional_matching(h)
            assert len(max_matching(h)) <= nu
            assert nu <= Fraction(h.n_vertices, h.k)


class TestTightPartite:
    def test_eighteen_vertex_family(self):
        # 56 pivots on 24 rows (test_pivot_count): well inside 5 s even
        # on a shared 2-CPU box
        h = extremal_partite(18)
        value, fc = min_fractional_cover(h, timeout=5.0)
        assert value == Fraction(11, 2)
        assert fc.is_feasible(h) and fc.value() == value

    # Pivot counts are deterministic, so they gate where wall time
    # cannot; n = 18 must stay within 100.
    @pytest.mark.parametrize("n, pivots", [(9, 19), (12, 25), (15, 35), (18, 56)])
    def test_pivot_count(self, n, pivots, monkeypatch):
        # the LP polls its deadline once per pivot
        calls = []
        time_left = fractional._time_left

        def counting_time_left(deadline, stage):
            if stage == "fractional LP":
                calls.append(None)
            return time_left(deadline, stage)

        monkeypatch.setattr(fractional, "_time_left", counting_time_left)
        fractional._solve(extremal_partite(n), None)
        assert len(calls) == pivots
        assert pivots <= 100


class TestCertificates:
    def test_matching_weights_in_range(self):
        rng = random.Random(16)
        for _ in range(10):
            h = random_3graph(rng, 8, 0.4)
            _, fm = max_fractional_matching(h)
            assert all(0 <= w <= 1 for w in fm.weights.values())

    def test_cover_weights_in_range(self):
        rng = random.Random(17)
        for _ in range(10):
            h = random_3graph(rng, 8, 0.4)
            _, fc = min_fractional_cover(h)
            assert all(0 <= w <= 1 for w in fc.weights.values())

    def test_matching_stores_only_nonzero_basic_weights(self):
        h = complete_partite(4, 12)
        value, fm, _ = fractional._solve(h, None)
        assert len(fm.weights) <= h.n_vertices
        assert all(fm.weights.values())
        assert fm.value() == value
        assert fm.is_feasible(h)
        assert verify_duality(h)

    def test_scaled_accepts_any_cover_of_an_edgeless_graph(self):
        cover = FractionalCover(weights={0: Fraction(1, 3), 4: Fraction(0)})
        assert cover.scaled(empty_hypergraph(3, 5)) == (3, [1, 0, 0, 0, 0])
        assert FractionalCover(weights={}).scaled(empty_hypergraph(3, 0)) == (1, [])

    def test_scaled_checks_the_last_edge(self):
        # the edges are sorted, so (2, 3, 4) is last; the second cover
        # weighs it 3/4 and every other edge at least 1
        h = Hypergraph(3, 5, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (1, 2, 4), (2, 3, 4)])
        assert h.edges[-1] == (2, 3, 4)
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        even = FractionalCover(weights=dict.fromkeys(range(5), half))
        assert even.scaled(h) == (2, [1, 1, 1, 1, 1])
        low = FractionalCover(weights={0: Fraction(1), 1: half, 2: quarter, 3: quarter, 4: quarter})
        assert all(sum(low.weights[v] for v in e) >= 1 for e in h.edges[:-1])
        assert low.scaled(h) is None

    def test_feasibility_rejects_bad_certificates(self):
        h = complete_hypergraph(3, 6)
        bad_matching = FractionalMatching(
            weights={e: Fraction(1) for e in h.edges}
        )
        assert not bad_matching.is_feasible(h)
        bad_cover = FractionalCover(weights={v: Fraction(0) for v in range(6)})
        assert not bad_cover.is_feasible(h)


class TestFractionalPerfectMatching:
    def test_complete_six(self):
        found, fm = fractional_perfect_matching(complete_hypergraph(3, 6))
        assert found and fm.saturates(complete_hypergraph(3, 6))

    def test_empty_graph_is_matched_by_nothing(self):
        found, fm = fractional_perfect_matching(empty_hypergraph(3, 0))
        assert found and fm.weights == {}

    def test_tight_partite_blocked(self):
        # the three blocking vertices can carry total load at most 3,
        # but every edge needs two of them: value caps at 3/2 < 2
        h = extremal_partite(6)
        found, fm = fractional_perfect_matching(h)
        assert not found and fm is None
        value, _ = max_fractional_matching(h)
        assert value == Fraction(3, 2)

    def test_isolated_vertex_blocks(self):
        h = Hypergraph(3, 6, [(0, 1, 2)])
        found, _ = fractional_perfect_matching(h)
        assert not found

    def test_integral_pm_implies_fractional(self):
        rng = random.Random(18)
        for _ in range(15):
            h = random_3graph(rng, 9, rng.uniform(0.1, 0.6))
            if has_perfect_matching(h)[0]:
                assert fractional_perfect_matching(h)[0]


class TestDeadline:
    @pytest.mark.parametrize(
        "solve",
        [
            max_fractional_matching,
            min_fractional_cover,
            verify_duality,
            fractional_perfect_matching,
        ],
    )
    def test_expired_deadline_raises(self, solve):
        with pytest.raises(SolverTimeout):
            solve(complete_hypergraph(3, 6), timeout=1e-9)

    def test_already_optimal_needs_no_clock(self):
        # no pivot, so no deadline check: an empty graph always answers
        value, _ = max_fractional_matching(empty_hypergraph(3, 4), timeout=1e-9)
        assert value == 0


CLEAN, NON_EDGE, OUT_OF_UNIT, OVERLOADED = range(4)


def seeded_fractional_matching(seed):
    """A 3-graph and edge weights over it, with one kind of fault.

    Every edge has a key, as in the LP's certificates, and about a third
    carry a non-zero weight, scaled so that the largest vertex load is at
    most 1.  The fault (by ``seed % 4``) is none, a key that is not an
    edge (a missing 3-set, an edge reversed, or one off the graph), a
    weight outside [0, 1], or one vertex loaded above 1.
    """
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    graph = random_3graph(rng, n, rng.uniform(0.2, 0.8))
    den = rng.randint(1, 6)
    w = {
        e: Fraction(rng.randint(1, den), den) if rng.random() < 0.35 else Fraction(0)
        for e in graph.edges
    }
    top = max(FractionalMatching(weights=w).vertex_load(graph))
    if top > 1:
        w = {e: x / top for e, x in w.items()}
    fault = seed % 4
    if fault == NON_EDGE:
        missing = [e for e in combinations(range(n), 3) if not graph._has(e)]
        keys = [(0, 1, n)] + missing[:1] + [e[::-1] for e in graph.edges[:1]]
        w[rng.choice(keys)] = rng.choice([Fraction(0), Fraction(1, 2)])
    elif fault == OUT_OF_UNIT and graph.edges:
        w[rng.choice(graph.edges)] = rng.choice([Fraction(-1, den), Fraction(den + 1, den)])
    elif fault == OVERLOADED:
        v = rng.randrange(n)
        through = [e for e in graph.edges if v in e]
        for e in through[:2]:
            w[e] = Fraction(2, 3)
    return graph, FractionalMatching(weights=w)


@pytest.mark.parametrize("seed", range(200))
def test_matching_feasibility_agrees_with_the_fraction_oracle(seed):
    graph, fm = seeded_fractional_matching(seed)
    assert fm.is_feasible(graph) == fraction_is_matching(fm.weights, graph)


def test_matching_feasibility_faults():
    h = complete_hypergraph(3, 5)
    zero = {e: Fraction(0) for e in h.edges}
    assert FractionalMatching(weights=zero).is_feasible(h)
    assert not FractionalMatching(weights={**zero, (0, 1, 5): Fraction(0)}).is_feasible(h)
    assert not FractionalMatching(weights={**zero, (2, 1, 0): Fraction(0)}).is_feasible(h)
    assert not FractionalMatching(weights={**zero, (0, 1, 2): Fraction(-1, 3)}).is_feasible(h)
    assert not FractionalMatching(weights={**zero, (0, 1, 2): Fraction(4, 3)}).is_feasible(h)
    overloaded = {**zero, (0, 1, 2): Fraction(1, 2), (0, 3, 4): Fraction(2, 3)}
    assert not FractionalMatching(weights=overloaded).is_feasible(h)


# -- agreement with the dense tableau ------------------------------------------


@st.composite
def lp_graphs(draw):
    """Random k-graphs (k = 2, 3, 4, n <= 12) and partite graphs (q <= 3).

    Edge sizes, vertex counts and densities come from the drawn seed, so
    they spread evenly instead of clustering at the small values
    Hypothesis favours.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = rng.uniform(0.05, 0.9)
    if draw(st.booleans()):
        q, p = rng.randint(1, 3), rng.randint(3, 9)
        sets = all_partite_four_sets(q, p)
        return PartiteHypergraph(
            q, p, [e for e in sets if rng.random() < density]
        )
    k = rng.randint(2, 4)
    n = rng.randint(k, 12)
    sets = combinations(range(n), k)
    return Hypergraph(k, n, [e for e in sets if rng.random() < density])


@settings(max_examples=300, deadline=None)
@given(lp_graphs())
def test_solve_matches_dense_tableau(graph):
    value, matching, cover = fractional._solve(graph, None)
    want_value, want_matching, want_cover = dense_solve(graph, None)
    assert value == want_value
    assert matching.weights == want_matching.weights
    assert cover.weights == want_cover.weights


def _dropped_tight_partite(seed: int) -> PartiteHypergraph:
    """The tight n=12 family (l=2, four members) with about 5% of each
    member's edges dropped, as a partite graph."""
    rng = random.Random(seed)
    tight = extremal_graph(12, 4, 2)
    members = tuple(
        Hypergraph(3, 12, [e for e in tight.edges if rng.random() >= 0.05])
        for _ in range(4)
    )
    return family_to_partite(HypergraphFamily(12, members))


# The shapes the shift-pipeline and refute-tight benchmarks solve: most
# of their pivots enter an edge through the zero set of reduced costs.
@pytest.mark.parametrize(
    "build",
    [
        lambda: complete_partite(3, 9),
        lambda: extremal_partite(9),
        lambda: extremal_partite(12),
        lambda: _dropped_tight_partite(5),
    ],
    ids=["complete-3-9", "extremal-9", "extremal-12", "dropped-tight-12"],
)
def test_solve_matches_dense_tableau_on_benchmark_shapes(build):
    graph = build()
    value, matching, cover = fractional._solve(graph, None)
    want_value, want_matching, want_cover = dense_solve(graph, None)
    assert value == want_value
    assert matching.weights == want_matching.weights
    assert cover.weights == want_cover.weights


def _sparse_partite(seed: int, q: int, p: int) -> PartiteHypergraph:
    """A (q, p) partite graph with four random draws of an edge through
    each class vertex (a repeated draw adds no edge)."""
    rng = random.Random(seed)
    side = range(q, q + p)
    return PartiteHypergraph(
        q, p, {(u, *sorted(rng.sample(side, 3))) for u in range(q) for _ in range(4)}
    )


# The packed columns' lane width grows with the vertex count: 64 bits at
# 40 vertices (struct decode) and 72 at 64 (byte-slice decode).
@pytest.mark.parametrize("q", [10, 16], ids=["lanes-64", "lanes-72"])
def test_solve_matches_dense_tableau_on_wide_lanes(q):
    graph = _sparse_partite(q, q, 3 * q)
    # a deadline turns a decode fault that cycles into a failure
    value, matching, cover = fractional._solve(graph, 10.0)
    want_value, want_matching, want_cover = dense_solve(graph, None)
    assert value == want_value
    assert matching.weights == want_matching.weights
    assert cover.weights == want_cover.weights


# -- the lane codec --------------------------------------------------------------


# Each width with the one after it: lanes of 16, 32 and 64 bits decode
# through struct, wider ones take whole bytes and decode by byte slices.
@pytest.mark.parametrize(
    "width, after", [(16, 32), (32, 64), (64, 72), (72, 80), (88, 96), (144, 152)]
)
def test_lane_width_is_the_smallest_that_holds_a_sign(width, after):
    # a bound of bit length ``width - 1`` fills the lane with its sign bit
    assert fractional._lane_width((1 << width - 1) - 1) == width
    assert fractional._lane_width(1 << width - 1) == after


@pytest.mark.parametrize("width", [16, 32, 64, 72, 88, 144])
def test_unpack_lanes_matches_shift_and_mask(width):
    rng = random.Random(width)
    mask = (1 << width) - 1
    randoms = [rng.getrandbits(width) for _ in range(9)]
    for lanes in ([], [mask], [0, mask, 0], [*randoms, mask, 0]):
        packed = sum(x << i * width for i, x in enumerate(lanes))
        want = [packed >> i * width & mask for i in range(len(lanes))]
        assert list(fractional._unpack_lanes(packed, len(lanes), width)) == want


# -- packed pricing --------------------------------------------------------------


def list_prices(graph, costs, den):
    return [den + sum(costs[v] for v in e) for e in graph.edges]


# Costs up to 2^bits in absolute value take lanes of ``width`` bits; no
# LP of the suite prices on lanes over 64 bits, so a byte width beyond
# them (70-bit costs on four vertices need 74 bits) is reached here.
@pytest.mark.parametrize("bits, width", [(8, 16), (20, 32), (40, 64), (70, 80)])
def test_edge_prices_decode_as_list_pricing(bits, width):
    rng = random.Random(bits)
    graph = Hypergraph(4, 12, [e for e in combinations(range(12), 4) if rng.random() < 0.3])
    top = 1 << bits
    for trial in range(20):
        costs = [rng.randint(-top, top) for _ in range(12)]
        costs[trial % 12] = rng.choice((-top, top))
        den = rng.randint(1, top)
        incidence = {}
        lanes, half = fractional._edge_prices(graph, costs, den, incidence)
        assert [x - half for x in lanes] == list_prices(graph, costs, den)
        assert list(incidence) == [width]


# Past 64 bits a lane takes whole bytes: 72 is the first such width.
@pytest.mark.parametrize("width", [16, 32, 64, 72, 128])
def test_edge_prices_at_the_lane_bound(width):
    # den + max|cost| just fits a lane of this width, but an edge sums k
    # costs, so every lane is sized for den + k * max|cost|: equal costs
    # on all four vertices reach that bound in both directions
    graph = complete_hypergraph(4, 8)
    top = (1 << width - 2) - 2
    for costs in ([-top] * 8, [top] * 8, [top, -top] * 4):
        lanes, half = fractional._edge_prices(graph, costs, 1, {})
        assert [x - half for x in lanes] == list_prices(graph, costs, 1)


def test_edge_prices_keep_one_incidence_per_width():
    graph = complete_hypergraph(3, 7)
    incidence = {}
    for top, den in ((5, 1), (1 << 40, 3), (7, 2)):
        costs = [top, -top, 0, 1, 0, -1, top]
        lanes, half = fractional._edge_prices(graph, costs, den, incidence)
        assert [x - half for x in lanes] == list_prices(graph, costs, den)
    assert sorted(incidence) == [16, 64]


def test_edge_prices_of_an_edgeless_graph():
    lanes, _ = fractional._edge_prices(empty_hypergraph(3, 4), [1, -2, 0, 3], 5, {})
    assert list(lanes) == []
