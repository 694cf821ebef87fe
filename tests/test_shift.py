"""Edge order, stability, the shift, and the matching pipeline."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from rainbow_lab import fractional, shift
from rainbow_lab.constructions import (
    PartiteHypergraph,
    complete_partite,
    extremal_adjacent_degree_sum,
    extremal_partite,
    partite_to_family,
)
from rainbow_lab.experiments import ExperimentConfig, run_shift_suite
from rainbow_lab.fractional import (
    FractionalCover,
    max_fractional_matching,
    min_fractional_cover,
)
from rainbow_lab.shift import (
    OrderedPartite,
    cover_closure,
    extend_link_matching,
    fractional_pm_pipeline,
    identity_order,
    stable_shift,
)
from rainbow_lab.solvers import (
    Matching,
    SolverTimeout,
    has_perfect_matching,
    is_perfect_matching_of,
)

from _oracles import (
    all_partite_four_sets,
    brute_is_stable,
    cover_order,
    edge_precedes,
    is_stable,
    rank_key,
    reference_stable_shift,
)


def random_partite(rng, q, p, prob):
    edges = [
        (u,) + trio
        for u in range(q)
        for trio in combinations(range(q, q + p), 3)
        if rng.random() < prob
    ]
    return PartiteHypergraph(q, p, edges)


def random_cover(rng, n):
    """Weights i/d in [0, 1], with its own denominator d <= 7 per vertex."""
    weights = {}
    for v in range(n):
        d = rng.randint(1, 7)
        weights[v] = Fraction(rng.randint(0, d), d)
    return FractionalCover(weights=weights)


def upward_closure(trios, p):
    """The rank trios at or above some given one, componentwise."""
    return sorted(
        t for t in combinations(range(p), 3)
        if any(all(x <= y for x, y in zip(s, t)) for s in trios)
    )


def uniform_cover(graph, value):
    return FractionalCover(
        weights={v: Fraction(value) for v in range(graph.n_vertices)}
    )


class TestEdgeOrder:
    def setup_method(self):
        self.order = identity_order(complete_partite(2, 6))

    def test_reflexive(self):
        e = (0, 2, 3, 4)
        assert edge_precedes(e, e, self.order)

    def test_componentwise_shift(self):
        assert edge_precedes((0, 2, 3, 4), (1, 3, 4, 5), self.order)

    def test_incomparable_pair(self):
        e, f = (0, 2, 6, 7), (0, 3, 4, 5)
        assert not edge_precedes(e, f, self.order)
        assert not edge_precedes(f, e, self.order)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            edge_precedes((0, 1, 2, 3), (0, 2, 3, 4), self.order)  # two class ids

    def test_partial_order_axioms(self):
        sets = [tuple(sorted(e)) for e in all_partite_four_sets(2, 4)]
        order = identity_order(complete_partite(2, 4))
        for e in sets:
            assert edge_precedes(e, e, order)
            for f in sets:
                ef = edge_precedes(e, f, order)
                fe = edge_precedes(f, e, order)
                if ef and fe:
                    assert e == f
                for g in sets:
                    if ef and edge_precedes(f, g, order):
                        assert edge_precedes(e, g, order)


    @pytest.mark.parametrize(
        "q_order, p_order, name",
        [
            ((0, 0), (2, 3, 4, 5, 6, 7), "q_order"),
            ((0, 2), (1, 3, 4, 5, 6, 7), "q_order"),
            ((1, 0), (2, 3, 4, 5, 6, 6), "p_order"),
            ((1, 0), (2, 3, 4, 5, 6), "p_order"),
        ],
    )
    def test_order_must_permute_its_class(self, q_order, p_order, name):
        with pytest.raises(ValueError, match=f"{name} is not a permutation"):
            OrderedPartite(complete_partite(2, 6), q_order=q_order, p_order=p_order)


class TestStability:
    def test_complete_is_stable(self):
        assert is_stable(identity_order(complete_partite(2, 6)))

    def test_single_low_edge_not_stable(self):
        pg = PartiteHypergraph(2, 6, [(0, 2, 3, 4)])
        assert not is_stable(identity_order(pg))

    def test_single_top_edge_stable(self):
        pg = PartiteHypergraph(2, 6, [(1, 5, 6, 7)])
        assert is_stable(identity_order(pg))

    def test_matches_definitional_oracle(self):
        rng = random.Random(23)
        for _ in range(40):
            pg = random_partite(rng, 2, 5, rng.uniform(0.1, 0.9))
            order = identity_order(pg)
            assert is_stable(order) == brute_is_stable(order)


class TestOrderByCover:
    """``cover_closure`` ranks each class by its cover's weights."""

    def test_uniform_weights_give_identity(self):
        pg = complete_partite(2, 6)
        closed = cover_closure(pg, uniform_cover(pg, Fraction(1, 4)))
        assert closed.q_order == (0, 1)
        assert closed.p_order == tuple(range(2, 8))

    def test_sorts_ascending(self):
        pg = PartiteHypergraph(1, 3, [(0, 1, 2, 3)])
        cover = FractionalCover(
            weights={
                0: Fraction(1, 10),
                1: Fraction(1, 2),
                2: Fraction(1, 10),
                3: Fraction(3, 10),
            }
        )
        closed = cover_closure(pg, cover)
        assert closed.p_order == (2, 3, 1)

    def test_blockers_of_tight_instance_rank_last(self):
        pg = extremal_partite(6)
        _, cover = min_fractional_cover(pg)
        closed = cover_closure(pg, cover)
        # the three blocking vertices carry all the cover weight
        assert set(closed.p_order[-3:]) == {2, 3, 4}

    def test_missing_weight_ranks_as_zero(self):
        # an absent weight counts as 0, as in FractionalCover.scaled
        pg = complete_partite(1, 3)
        cover = FractionalCover(weights={0: Fraction(1, 2), 2: Fraction(1, 2)})
        closed = cover_closure(pg, cover)
        assert closed.p_order == (1, 3, 2)
        assert (closed.q_order, closed.p_order) == cover_order(pg, cover)


class TestCoverClosure:
    def test_quarter_weights_close_to_complete(self):
        pg = PartiteHypergraph(2, 6, [(0, 2, 3, 4)])
        cover = uniform_cover(pg, Fraction(1, 4))
        closed = cover_closure(pg, cover)
        assert closed.graph.n_edges == complete_partite(2, 6).n_edges

    def test_zero_weights_on_empty_graph(self):
        pg = PartiteHypergraph(2, 6, [])
        closed = cover_closure(pg, uniform_cover(pg, 0))
        assert closed.graph.n_edges == 0

    def test_zero_weights_rejected_on_nonempty(self):
        pg = PartiteHypergraph(2, 6, [(0, 2, 3, 4)])
        with pytest.raises(ValueError):
            cover_closure(pg, uniform_cover(pg, 0))

    def test_matches_fraction_brute_force(self):
        # LP covers, and arbitrary covers over mixed denominators
        rng = random.Random(31)
        for trial in range(40):
            q, p = rng.randint(1, 3), rng.randint(3, 9)
            if trial % 2:
                pg = random_partite(rng, q, p, rng.uniform(0.1, 0.9))
                _, cover = min_fractional_cover(pg)
            else:
                cover = random_cover(rng, q + p)
                pg = PartiteHypergraph(q, p, [
                    f for f in all_partite_four_sets(q, p)
                    if sum(cover.weights[v] for v in f) >= 1 and rng.random() < 0.5
                ])
            closed = cover_closure(pg, cover)
            w = cover.weights
            assert list(closed.graph.edges) == [
                f for f in all_partite_four_sets(q, p) if sum(w[v] for v in f) >= 1
            ]
            assert (closed.q_order, closed.p_order) == cover_order(pg, cover)
            assert is_stable(closed)

    @pytest.mark.parametrize("bad", [Fraction(-1, 3), Fraction(4, 3)])
    def test_weight_outside_unit_interval_rejected(self, bad):
        pg = PartiteHypergraph(1, 3, [])
        cover = uniform_cover(pg, 0)
        cover.weights[2] = bad
        with pytest.raises(ValueError):
            cover_closure(pg, cover)

    def test_contains_input_and_stable(self):
        rng = random.Random(29)
        for _ in range(10):
            pg = random_partite(rng, 2, 6, rng.uniform(0.2, 0.8))
            _, cover = min_fractional_cover(pg)
            closed = cover_closure(pg, cover)
            assert set(pg.edges) <= set(closed.graph.edges)
            assert is_stable(closed)


class TestStableShift:
    def test_satisfied_threshold_is_noop(self):
        order = identity_order(complete_partite(2, 6))
        shifted, trace = stable_shift(order, threshold=0)
        assert shifted.graph == order.graph
        assert trace.steps == () and trace.stable

    def test_empty_graph(self):
        order = identity_order(PartiteHypergraph(2, 6, []))
        shifted, trace = stable_shift(order, threshold=100)
        assert shifted.graph.n_edges == 0 and trace.steps == ()

    def test_no_round_returns_the_input_itself(self):
        # p = 0 leaves no 4-set at all; the complete graph has no
        # deficient triple at threshold 0
        for order in (
            identity_order(PartiteHypergraph(2, 0, [])),
            identity_order(complete_partite(2, 6)),
        ):
            shifted, trace = stable_shift(order, 0)
            assert shifted is order and trace.steps == () and trace.stable
        assert fractional_pm_pipeline(PartiteHypergraph(0, 0, [])).found

    def test_rejects_unstable_input(self):
        pg = PartiteHypergraph(2, 6, [(0, 2, 3, 4)])
        with pytest.raises(ValueError):
            stable_shift(identity_order(pg), 1)

    def test_deadline_is_polled_each_round(self):
        # the tight closure loses every edge over several rounds; a spent
        # deadline stops the shift in its set-up, before its first class
        # vertex's link, whether or not a round would run.  The polls of
        # each round are counted in tests/test_deadlines.py.
        pg = extremal_partite(9)
        closure = cover_closure(pg, min_fractional_cover(pg)[1])
        threshold = extremal_adjacent_degree_sum(9)
        assert stable_shift(closure, threshold)[1].steps
        with pytest.raises(SolverTimeout, match="stability shift exceeded its deadline"):
            stable_shift(closure, threshold, timeout=1e-9)
        assert stable_shift(closure, 0)[1].steps == ()
        with pytest.raises(SolverTimeout, match="stability shift exceeded its deadline"):
            stable_shift(closure, 0, timeout=1e-9)

    def test_postconditions_on_tight_closure(self):
        pg = extremal_partite(6)
        _, cover = min_fractional_cover(pg)
        closure = cover_closure(pg, cover)
        shifted, trace = stable_shift(closure, threshold=10)
        assert trace.stable and is_stable(shifted)
        assert set(shifted.graph.edges) <= set(closure.graph.edges)
        assert trace.edges_removed == closure.graph.n_edges - shifted.graph.n_edges
        flat = shifted.graph
        pair_deg = flat.degrees(2)
        for e in flat.edges:
            u = e[0]
            for a, b in combinations(e[1:], 2):
                assert pair_deg[(u, a)] + pair_deg[(u, b)] > 10

    def test_matches_reference_shift(self):
        # Closures of random covers.  A pair-degree sum is at most
        # (p - 1)(p - 2), so thresholds up to 3p^2 mostly delete every
        # edge; three trials in four stay where the shift can stop early.
        rng = random.Random(47)
        for trial in range(300):
            q = rng.randint(1, 3)
            p = 3 * q + rng.randint(0, 3)
            pg = PartiteHypergraph(q, p, [])
            cover = random_cover(rng, q + p)
            closure = cover_closure(pg, cover)
            top = 3 * p * p if trial % 4 == 0 else (p - 1) * (p - 2)
            threshold = rng.randint(0, top)
            shifted, trace = stable_shift(closure, threshold)
            want, want_trace = reference_stable_shift(closure, threshold)
            assert shifted.graph.edges == want.graph.edges
            assert trace == want_trace

    def test_matches_reference_at_bucket_boundary(self):
        # A class rank's triples can be deficient only when the sum of
        # its two smallest pair degrees is at most the threshold, so the
        # shift builds buckets for it only then: try each class rank's
        # sum and one less.
        rng = random.Random(53)
        closures = []
        for _ in range(6):
            pg = PartiteHypergraph(3, 9, [])
            cover = random_cover(rng, 12)
            closures.append(cover_closure(pg, cover))
        pg = extremal_partite(9)
        _, cover = min_fractional_cover(pg)
        closures.append(cover_closure(pg, cover))
        rounds = set()
        for closure in closures:
            g = closure.graph
            pair_deg = g.degrees(2)
            for u in g.q_vertices():
                degs = sorted(
                    d for d in (pair_deg[(u, v)] for v in g.p_vertices()) if d
                )
                if len(degs) < 2:
                    continue
                for threshold in (degs[0] + degs[1], degs[0] + degs[1] - 1):
                    shifted, trace = stable_shift(closure, threshold)
                    want, want_trace = reference_stable_shift(closure, threshold)
                    assert shifted.graph.edges == want.graph.edges
                    assert trace == want_trace
                    rounds.add(bool(trace.steps))
        assert rounds == {False, True}

    def test_matches_reference_when_triples_turn_deficient(self):
        # The heap starts with the triples deficient on the input; the
        # others must be pushed when a round lowers one of their pair
        # degrees.  The tight closure and two of the random ones select
        # a triple that was not deficient on the input.
        rng = random.Random(59)
        closures = []
        for _ in range(12):
            q = rng.randint(2, 3)
            p = 3 * q + rng.randint(0, 2)
            closure = cover_closure(PartiteHypergraph(q, p, []), random_cover(rng, q + p))
            closures.append((closure, rng.randint(0, (p - 1) * (p - 2))))
        pg = extremal_partite(9)
        tight = cover_closure(pg, min_fractional_cover(pg)[1])
        closures.append((tight, extremal_adjacent_degree_sum(9)))
        late = 0
        for closure, threshold in closures:
            shifted, trace = stable_shift(closure, threshold)
            want, want_trace = reference_stable_shift(closure, threshold)
            assert shifted.graph.edges == want.graph.edges
            assert trace == want_trace
            pair_deg = closure.graph.degrees(2)
            u = closure.q_order
            v = closure.p_order
            late += any(
                pair_deg[u[s.q_rank], v[s.p_rank_low]] + pair_deg[u[s.q_rank], v[s.p_rank_high]]
                > threshold
                for s in trace.steps
            )
        assert late >= 3

    def test_ranks_each_distinct_link_once(self, monkeypatch):
        # the tight n = 9 closure has three equal links of 50 trios, so
        # 50 of its 150 edges' trios are ranked, in one call
        pg = extremal_partite(9)
        _, cover = min_fractional_cover(pg)
        closure = cover_closure(pg, cover)
        calls = []
        rank_link = shift._rank_link

        def counting_rank_link(run, rank, p):
            calls.append(len(run))
            return rank_link(run, rank, p)

        monkeypatch.setattr(shift, "_rank_link", counting_rank_link)
        _, trace = stable_shift(closure, threshold=35)
        assert len(trace.steps) > 1
        links = {tuple(e[1:] for e in closure.graph._run(u)) for u in pg.q_vertices()}
        assert calls == [50] and sum(map(len, links)) == 50
        assert closure.graph.n_edges == 150

    def test_matches_reference_on_several_class_weights(self):
        # class weights drawn apart, so most closures have several
        # distinct links; the trace interleaves their rounds
        rng = random.Random(61)
        distinct = interleaved = 0
        for _ in range(60):
            q = rng.randint(2, 3)
            p = 3 * q + rng.randint(0, 2)
            cover = random_cover(rng, q + p)
            for u in range(q):
                cover.weights[u] = Fraction(rng.randint(0, 4), 4)
            closure = cover_closure(PartiteHypergraph(q, p, []), cover)
            g = closure.graph
            links = {tuple(e[1:] for e in g._run(u)) for u in g.q_vertices()}
            distinct += len(links) > 1
            threshold = rng.randint(0, (p - 1) * (p - 2))
            shifted, trace = stable_shift(closure, threshold)
            want, want_trace = reference_stable_shift(closure, threshold)
            assert shifted.graph.edges == want.graph.edges
            assert trace == want_trace
            ranks = [s.q_rank for s in trace.steps]
            interleaved += any(a > b for a, b in zip(ranks, ranks[1:]))
        assert distinct >= 30 and interleaved >= 5

    def test_matches_reference_on_shared_and_distinct_links(self):
        # stable inputs that are no cover closure: class ranks 0 and 1
        # share an upward closed link, class rank 2 has a larger one,
        # and neither class is ranked by vertex id
        rng = random.Random(67)
        q_order, p = (2, 0, 1), 7
        rounds = set()
        differ = 0
        for _ in range(20):
            p_order = tuple(rng.sample(range(3, 3 + p), p))
            low = upward_closure(rng.sample(list(combinations(range(p), 3)), 2), p)
            high = upward_closure(
                list(low) + rng.sample(list(combinations(range(p), 3)), 2), p
            )
            differ += high != low
            edges = [
                (u,) + tuple(sorted(p_order[r] for r in trio))
                for u, link in zip(q_order, (low, low, high))
                for trio in link
            ]
            order = OrderedPartite(PartiteHypergraph(3, p, edges), q_order, p_order)
            assert is_stable(order)
            for threshold in range(0, 30, 3):
                shifted, trace = stable_shift(order, threshold)
                want, want_trace = reference_stable_shift(order, threshold)
                assert shifted.graph.edges == want.graph.edges
                assert trace == want_trace
                rounds.add(frozenset(s.q_rank for s in trace.steps))
        assert frozenset({0, 1, 2}) in rounds and frozenset() in rounds
        assert differ >= 10

    def test_matches_reference_when_a_link_runs_out_of_order(self):
        # on this upward closed link, at threshold 12, the round at rank
        # pair (2, 3) lowers pair (0, 4) into deficiency: the link's
        # rounds are not sorted by (rank sum, j, k), so the trace cannot
        # be a sort of the two class ranks' rounds
        link = upward_closure([(0, 4, 5), (2, 3, 4)], 7)
        pg = PartiteHypergraph(
            2, 7, [(u,) + tuple(2 + r for r in t) for u in range(2) for t in link]
        )
        order = identity_order(pg)
        shifted, trace = stable_shift(order, 12)
        want, want_trace = reference_stable_shift(order, 12)
        assert shifted.graph.edges == want.graph.edges
        assert trace == want_trace
        ranks = [(s.p_rank_low + s.p_rank_high, s.p_rank_low) for s in trace.steps]
        assert ranks[:2] == [(5, 2), (4, 0)]
        assert [s.q_rank for s in trace.steps] != sorted(s.q_rank for s in trace.steps)

    def test_rejects_links_that_do_not_nest(self):
        # each link is upward closed, but class rank 0's is not inside
        # class rank 1's
        pg = PartiteHypergraph(2, 6, [(0, 4, 6, 7), (0, 5, 6, 7), (1, 5, 6, 7)])
        order = identity_order(pg)
        assert not is_stable(order)
        assert is_stable(identity_order(PartiteHypergraph(2, 6, pg.edges[1:])))
        with pytest.raises(ValueError, match="must be stable"):
            stable_shift(order, 0)

    def test_removals_deterministic(self):
        # class weights 0, 1/4, 1/2 and four of the nine P-vertices at
        # 1/2: at threshold 30 the shift deletes some edges, not all
        weights = {0: Fraction(0), 1: Fraction(1, 4), 2: Fraction(1, 2)}
        weights.update({v: Fraction(1, 2) if v < 7 else Fraction(0) for v in range(3, 12)})
        pg = PartiteHypergraph(3, 9, [])
        cover = FractionalCover(weights=weights)
        closure = cover_closure(pg, cover)
        first = stable_shift(closure, threshold=30)
        second = stable_shift(closure, threshold=30)
        assert 0 < first[1].edges_removed < closure.graph.n_edges
        assert first == second
        assert first == reference_stable_shift(closure, 30)

    def test_trusted_graphs_equal_validated(self):
        # closure and shift build their graphs without re-validating
        # the edges; the validating constructor must agree on each
        rng = random.Random(47)
        for trial in range(100):
            q = rng.randint(1, 3)
            p = 3 * q + rng.randint(0, 3)
            if trial % 2:
                pg = random_partite(rng, q, p, rng.uniform(0.1, 0.9))
                _, cover = min_fractional_cover(pg)
            else:
                pg = PartiteHypergraph(q, p, [])
                cover = random_cover(rng, q + p)
            closure = cover_closure(pg, cover)
            shifted, _ = stable_shift(closure, rng.randint(0, (p - 1) * (p - 2)))
            for graph in (closure.graph, shifted.graph):
                validated = PartiteHypergraph(q, p, graph.edges)
                assert graph == validated and hash(graph) == hash(validated)
                assert type(graph.edges) is tuple


class TestExtension:
    def test_complete_graph_extends_any_link_pm(self):
        pg = complete_partite(3, 9)
        order = identity_order(pg)
        link = partite_to_family(pg).members[order.q_order[0]]
        found, link_pm = has_perfect_matching(link)
        assert found
        mapped = Matching(edges=tuple(tuple(v + pg.q_size for v in e) for e in link_pm.edges))
        pm = extend_link_matching(order, mapped)
        assert is_perfect_matching_of(pg, pm)

    def test_unstable_graph_raises_contract_error(self):
        pg = PartiteHypergraph(2, 6, [(0, 2, 3, 4), (0, 5, 6, 7)])
        with pytest.raises(AssertionError, match="extension edge .* is missing"):
            extend_link_matching(identity_order(pg), Matching(edges=((2, 3, 4), (5, 6, 7))))

    def test_partial_cover_rejected(self):
        pg = complete_partite(2, 6)
        with pytest.raises(ValueError, match="exactly once"):
            extend_link_matching(identity_order(pg), Matching(edges=((2, 3, 4),)))


class TestPipeline:
    def test_complete_graph_found(self):
        res = fractional_pm_pipeline(complete_partite(3, 9))
        assert res.found and res.containment_ok and res.value_check
        assert is_perfect_matching_of(res.shifted.graph, res.matching)

    def test_tight_instance_not_found(self):
        res = fractional_pm_pipeline(extremal_partite(6))
        assert not res.found
        value, _ = max_fractional_matching(extremal_partite(6))
        assert value < 2

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            fractional_pm_pipeline(PartiteHypergraph(2, 5, []))

    def test_containment_reports_deleted_input_edges(self):
        # the tight graph loses input edges to the shift; the complete one keeps all
        for graph, kept in ((extremal_partite(6), False), (complete_partite(2, 6), True)):
            res = fractional_pm_pipeline(graph)
            assert (set(graph.edges) <= set(res.shifted.graph.edges)) is kept
            assert res.containment_ok is kept

    def test_value_check_sees_a_wrong_optimum(self, monkeypatch):
        # a found construction proves tau* = q, so a cover LP that
        # reports less is caught by the cross-check
        def off_by_one(graph, timeout=None):
            tau, cover = min_fractional_cover(graph, timeout=timeout)
            return tau - 1, cover

        monkeypatch.setattr(shift, "min_fractional_cover", off_by_one)
        res = fractional_pm_pipeline(complete_partite(3, 9))
        assert res.found and res.containment_ok
        assert res.value_check is False

    def test_timeout_bounds_the_lp_stages(self):
        # the link search is too small to reach its deadline check, so
        # only a deadline inside the cover LP can stop this run
        with pytest.raises(SolverTimeout):
            fractional_pm_pipeline(extremal_partite(9), timeout=1e-9)

    @pytest.mark.parametrize(
        "graph", [extremal_partite(9), complete_partite(3, 9)], ids=["tight", "complete"]
    )
    def test_one_lp_solve_per_call(self, graph, monkeypatch):
        # the complete graph reaches the value check, which reuses the cover's value
        calls = []
        solve = fractional._solve

        def counting_solve(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(fractional, "_solve", counting_solve)
        res = fractional_pm_pipeline(graph)
        assert len(calls) == 1
        assert res.value_check is (True if res.found else None)

    def test_shift_suite_lp_solves(self, monkeypatch):
        # 7 pipeline cover LPs plus nu* of the shifted graph on the 3 rows
        # with q <= 3 and containment; nu* of the input is the cover's value
        calls = []
        solve = fractional._solve

        def counting_solve(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(fractional, "_solve", counting_solve)
        report = run_shift_suite(ExperimentConfig(seed=0, trials=7))
        assert report.aggregate == "pass"
        assert len(calls) == 10

    def test_found_matchings_are_perfect(self):
        # holds under any optimal cover, so under any pivot rule
        rng = random.Random(53)
        found = contained = 0
        for trial in range(120):
            q = 2 + trial % 2
            pg = random_partite(rng, q, 3 * q, rng.uniform(0.1, 0.9))
            res = fractional_pm_pipeline(pg)
            if not res.found:
                continue
            found += 1
            assert is_perfect_matching_of(res.shifted.graph, res.matching)
            if res.containment_ok:
                contained += 1
                assert res.value_check is True
                assert res.cover_value == q
        assert found and contained  # the sweep must reach both branches

    def test_value_preserved_when_contained(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(12):
            pg = random_partite(rng, 3, 9, rng.uniform(0.3, 0.9))
            res = fractional_pm_pipeline(pg)
            if not res.containment_ok:
                continue
            checked += 1
            nu_in, _ = max_fractional_matching(pg)
            nu_out, _ = max_fractional_matching(res.shifted.graph)
            assert nu_in == nu_out
            if res.found:
                assert res.value_check
        assert checked  # the sweep must exercise the preserved branch

    def test_truncated_deletion_preserves_value(self):
        """Replaying the trace prefix by prefix keeps the optimum fixed.

        Instances whose own edges fall to the shift (containment lost)
        are outside the preservation guarantee and are skipped.
        """
        rng = random.Random(41)
        contained = 0
        for _ in range(20):
            pg = random_partite(rng, 2, 6, rng.uniform(0.25, 0.7))
            _, cover = min_fractional_cover(pg)
            closure = cover_closure(pg, cover)
            threshold = 10
            shifted, trace = stable_shift(closure, threshold)
            if not set(pg.edges) <= set(shifted.graph.edges):
                continue
            contained += 1
            nu_in, _ = max_fractional_matching(pg)
            working = set(closure.graph.edges)
            for step in trace.steps:
                doomed = set()
                for e in working:
                    i, ranks = rank_key(closure, e)
                    if (
                        i == step.q_rank
                        and step.p_rank_low in ranks
                        and step.p_rank_high in ranks
                    ):
                        doomed.add(e)
                assert len(doomed) == step.removed
                working -= doomed
                stage = PartiteHypergraph(
                    pg.q_size, pg.p_size, sorted(working)
                )
                assert set(pg.edges) <= set(stage.edges)
                nu_stage, _ = max_fractional_matching(stage)
                assert nu_stage == nu_in
            nu_end, _ = max_fractional_matching(shifted.graph)
            assert nu_end == nu_in
        assert contained  # the sweep must hit the preservation branch

    def test_sandwich_preserves_value(self):
        """Any graph between the input and its closure shares the optimum."""
        rng = random.Random(43)
        exercised = 0
        for _ in range(10):
            pg = random_partite(rng, 2, 6, rng.uniform(0.2, 0.6))
            nu_in, _ = max_fractional_matching(pg)
            _, cover = min_fractional_cover(pg)
            closure = cover_closure(pg, cover)
            slack = sorted(set(closure.graph.edges) - set(pg.edges))
            if not slack:
                continue
            for _ in range(3):
                keep = [e for e in slack if rng.random() < 0.5]
                stage = PartiteHypergraph(
                    pg.q_size, pg.p_size, sorted(set(pg.edges) | set(keep))
                )
                nu_stage, _ = max_fractional_matching(stage)
                assert nu_stage == nu_in
                exercised += 1
        assert exercised
