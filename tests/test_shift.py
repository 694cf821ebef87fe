"""Edge order, stability, the shift, and the matching pipeline."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from rainbow_lab import fractional
from rainbow_lab.constructions import (
    PartiteHypergraph,
    complete_partite,
    extremal_partite,
)
from rainbow_lab.fractional import (
    FractionalCover,
    max_fractional_matching,
    min_fractional_cover,
)
from rainbow_lab.shift import (
    ContractViolation,
    OrderedPartite,
    cover_closure,
    edge_precedes,
    extend_link_matching,
    fractional_pm_pipeline,
    identity_order,
    is_stable,
    link_of_lowest,
    order_by_cover,
    stable_shift,
)
from rainbow_lab.solvers import (
    SolverTimeout,
    has_perfect_matching,
    is_perfect_matching_of,
)

from _oracles import all_partite_four_sets, brute_is_stable


def random_partite(rng, q, p, prob):
    edges = [
        (u,) + trio
        for u in range(q)
        for trio in combinations(range(q, q + p), 3)
        if rng.random() < prob
    ]
    return PartiteHypergraph(q, p, edges)


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
    def test_uniform_weights_give_identity(self):
        pg = complete_partite(2, 6)
        order = order_by_cover(pg, uniform_cover(pg, Fraction(1, 4)))
        assert order.q_order == (0, 1)
        assert order.p_order == tuple(range(2, 8))

    def test_sorts_ascending(self):
        pg = PartiteHypergraph(1, 3, [(0, 1, 2, 3)])
        cover = FractionalCover(
            weights={
                0: Fraction(0),
                1: Fraction(1, 2),
                2: Fraction(1, 10),
                3: Fraction(3, 10),
            }
        )
        order = order_by_cover(pg, cover)
        assert order.p_order == (2, 3, 1)

    def test_blockers_of_tight_instance_rank_last(self):
        pg = extremal_partite(6)
        _, cover = min_fractional_cover(pg.as_hypergraph())
        order = order_by_cover(pg, cover)
        # the three blocking vertices carry all the cover weight
        assert set(order.p_order[-3:]) == {2, 3, 4}

    def test_missing_weight_rejected(self):
        pg = complete_partite(1, 3)
        with pytest.raises(ValueError):
            order_by_cover(pg, FractionalCover(weights={0: Fraction(1)}))


class TestCoverClosure:
    def test_quarter_weights_close_to_complete(self):
        pg = PartiteHypergraph(2, 6, [(0, 2, 3, 4)])
        cover = uniform_cover(pg, Fraction(1, 4))
        closed = cover_closure(pg, cover, identity_order(pg))
        assert closed.graph.n_edges == complete_partite(2, 6).n_edges

    def test_zero_weights_on_empty_graph(self):
        pg = PartiteHypergraph(2, 6, [])
        closed = cover_closure(pg, uniform_cover(pg, 0), identity_order(pg))
        assert closed.graph.n_edges == 0

    def test_zero_weights_rejected_on_nonempty(self):
        pg = PartiteHypergraph(2, 6, [(0, 2, 3, 4)])
        with pytest.raises(ValueError):
            cover_closure(pg, uniform_cover(pg, 0), identity_order(pg))

    def test_contains_input_and_stable(self):
        rng = random.Random(29)
        for _ in range(10):
            pg = random_partite(rng, 2, 6, rng.uniform(0.2, 0.8))
            _, cover = min_fractional_cover(pg.as_hypergraph())
            order = order_by_cover(pg, cover)
            closed = cover_closure(pg, cover, order)
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

    def test_rejects_unstable_input(self):
        pg = PartiteHypergraph(2, 6, [(0, 2, 3, 4)])
        with pytest.raises(ValueError):
            stable_shift(identity_order(pg), 1)

    def test_postconditions_on_tight_closure(self):
        pg = extremal_partite(6)
        _, cover = min_fractional_cover(pg.as_hypergraph())
        order = order_by_cover(pg, cover)
        closure = cover_closure(pg, cover, order)
        shifted, trace = stable_shift(closure, threshold=10)
        assert trace.stable and is_stable(shifted)
        assert set(shifted.graph.edges) <= set(closure.graph.edges)
        assert trace.edges_removed == closure.graph.n_edges - shifted.graph.n_edges
        flat = shifted.graph
        for e in flat.edges:
            u = e[0]
            for a, b in combinations(e[1:], 2):
                assert flat.degree((u, a)) + flat.degree((u, b)) > 10

    def test_removals_deterministic(self):
        rng = random.Random(31)
        pg = random_partite(rng, 3, 9, 0.6)
        _, cover = min_fractional_cover(pg.as_hypergraph())
        order = order_by_cover(pg, cover)
        closure = cover_closure(pg, cover, order)
        first = stable_shift(closure, threshold=25)
        second = stable_shift(closure, threshold=25)
        assert first == second


class TestExtension:
    def test_complete_graph_extends_any_link_pm(self):
        pg = complete_partite(3, 9)
        order = identity_order(pg)
        link, ids = link_of_lowest(order)
        found, link_pm = has_perfect_matching(link)
        assert found
        mapped = [tuple(sorted(ids[v] for v in e)) for e in link_pm.edges]
        pm = extend_link_matching(order, mapped)
        assert is_perfect_matching_of(pg.as_hypergraph(), pm.edges)

    def test_unstable_graph_raises_contract_error(self):
        pg = PartiteHypergraph(2, 6, [(0, 2, 3, 4), (0, 5, 6, 7)])
        with pytest.raises(ContractViolation):
            extend_link_matching(identity_order(pg), [(2, 3, 4), (5, 6, 7)])

    def test_partial_cover_rejected(self):
        pg = complete_partite(2, 6)
        with pytest.raises(ValueError):
            extend_link_matching(identity_order(pg), [(2, 3, 4)])


class TestPipeline:
    def test_complete_graph_found(self):
        res = fractional_pm_pipeline(complete_partite(3, 9))
        assert res.found and res.containment_ok and res.value_check
        assert is_perfect_matching_of(
            res.shifted.graph.as_hypergraph(), res.matching.edges
        )

    def test_tight_instance_not_found(self):
        res = fractional_pm_pipeline(extremal_partite(6))
        assert not res.found
        value, _ = max_fractional_matching(extremal_partite(6).as_hypergraph())
        assert value < 2

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            fractional_pm_pipeline(PartiteHypergraph(2, 5, []))

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

    def test_value_preserved_when_contained(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(12):
            pg = random_partite(rng, 3, 9, rng.uniform(0.3, 0.9))
            res = fractional_pm_pipeline(pg)
            if not res.containment_ok:
                continue
            checked += 1
            nu_in, _ = max_fractional_matching(pg.as_hypergraph())
            nu_out, _ = max_fractional_matching(
                res.shifted.graph.as_hypergraph()
            )
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
            _, cover = min_fractional_cover(pg.as_hypergraph())
            order = order_by_cover(pg, cover)
            closure = cover_closure(pg, cover, order)
            threshold = 10
            shifted, trace = stable_shift(closure, threshold)
            if not set(pg.edges) <= set(shifted.graph.edges):
                continue
            contained += 1
            nu_in, _ = max_fractional_matching(pg.as_hypergraph())
            working = set(closure.graph.edges)
            for step in trace.steps:
                doomed = set()
                for e in working:
                    i, ranks = closure.rank_key(e)
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
                nu_stage, _ = max_fractional_matching(stage.as_hypergraph())
                assert nu_stage == nu_in
            nu_end, _ = max_fractional_matching(
                shifted.graph.as_hypergraph()
            )
            assert nu_end == nu_in
        assert contained  # the sweep must hit the preservation branch

    def test_sandwich_preserves_value(self):
        """Any graph between the input and its closure shares the optimum."""
        rng = random.Random(43)
        exercised = 0
        for _ in range(10):
            pg = random_partite(rng, 2, 6, rng.uniform(0.2, 0.6))
            nu_in, _ = max_fractional_matching(pg.as_hypergraph())
            _, cover = min_fractional_cover(pg.as_hypergraph())
            order = order_by_cover(pg, cover)
            closure = cover_closure(pg, cover, order)
            slack = sorted(set(closure.graph.edges) - set(pg.edges))
            if not slack:
                continue
            for _ in range(3):
                keep = [e for e in slack if rng.random() < 0.5]
                stage = PartiteHypergraph(
                    pg.q_size, pg.p_size, sorted(set(pg.edges) | set(keep))
                )
                nu_stage, _ = max_fractional_matching(stage.as_hypergraph())
                assert nu_stage == nu_in
                exercised += 1
        assert exercised
