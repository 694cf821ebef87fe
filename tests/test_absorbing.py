"""Absorbing 24-sets: predicate, constructor, greedy absorption."""

from __future__ import annotations

import dataclasses
import random
import time
from itertools import combinations

import pytest

from rainbow_lab import absorbing
from rainbow_lab.absorbing import (
    AbsorberGadget,
    AbsorptionError,
    BalancedSet,
    absorb,
    absorb_scenario,
    build_gadget,
    is_absorbing,
    low_degree_anchor,
    popular_vertices,
)
from rainbow_lab.constructions import (
    HypergraphFamily,
    PartiteHypergraph,
    complete_partite,
    extremal_graph,
    family_to_partite,
    partite_to_family,
)
from rainbow_lab.hypergraph import Hypergraph, complete_hypergraph
from rainbow_lab.solvers import (
    Matching,
    SolverTimeout,
    has_perfect_matching,
    is_perfect_matching_of,
    max_matching,
)

from _oracles import brute_degree


def standard_body(graph):
    """6 class + 18 other vertices, skipping the first of each class."""
    q = list(graph.q_vertices())[1:7]
    p = list(graph.p_vertices())[3:21]
    return q + p


def first_target(graph):
    return [0] + list(graph.p_vertices())[:3]


def wide_pool(graph):
    """Two gadgets on ``complete_partite(14, 42)``, both for the target
    (0, 14, 15, 16), with disjoint bodies."""
    target = BalancedSet.from_vertices([0, 14, 15, 16], graph)
    pool = []
    for q0, p0 in ((2, 20), (8, 38)):
        body = BalancedSet(q_part=tuple(range(q0, q0 + 6)), p_part=tuple(range(p0, p0 + 18)))
        ok, pms = is_absorbing(body.vertices(), target.vertices(), graph)
        assert ok
        pool.append(AbsorberGadget(target=target, body=body, pm_body=pms[0], pm_joint=pms[1]))
    return pool


# Only class vertex 0 lies on edges: every helper and rewire choice is
# tried, and each one fails at the bridges, far beyond any test's patience.
LONE_CLASS = PartiteHypergraph(8, 24, [(0,) + t for t in combinations(range(8, 32), 3)])


class TestBalanced:
    def test_empty(self):
        assert len(BalancedSet.from_vertices([], complete_partite(2, 6))) == 0

    def test_one_to_three(self):
        got = BalancedSet.from_vertices([4, 0, 3, 2], complete_partite(2, 6))
        assert got == BalancedSet(q_part=(0,), p_part=(2, 3, 4))

    def test_two_to_three(self):
        with pytest.raises(ValueError, match="unbalanced"):
            BalancedSet.from_vertices([0, 1, 2, 3, 4], complete_partite(2, 6))

    def test_balanced_set_type_enforces_ratio(self):
        with pytest.raises(ValueError):
            BalancedSet(q_part=(0, 1), p_part=(2, 3, 4))

    @pytest.mark.parametrize("vertices", [[0, 2, 2, 3, 4], [0, 2, 3, 99]])
    def test_from_vertices_rejects_bad_ids(self, vertices):
        with pytest.raises(ValueError):
            BalancedSet.from_vertices(vertices, complete_partite(2, 6))


class TestGadgetFields:
    """Each field of a built gadget, replaced by a bad one, is rejected
    by its own check."""

    @pytest.fixture(scope="class")
    def built(self):
        graph = complete_partite(8, 24)
        return graph, build_gadget(first_target(graph), graph, graph.p_vertices())

    def test_target_inside_the_body(self, built):
        graph, gadget = built
        inside = gadget.body.q_part[:1] + gadget.body.p_part[:3]
        with pytest.raises(ValueError, match="overlaps its target"):
            dataclasses.replace(gadget, target=BalancedSet.from_vertices(inside, graph))

    def test_target_of_eight(self, built):
        graph, gadget = built
        spare = sorted(set(range(graph.n_vertices)) - set(gadget.body.vertices()))
        assert len(spare) == 8
        with pytest.raises(ValueError, match="4-set with a 24-set"):
            dataclasses.replace(gadget, target=BalancedSet.from_vertices(spare, graph))

    def test_reserved_matching_off_the_body(self, built):
        _, gadget = built
        with pytest.raises(ValueError, match="reserved matching"):
            dataclasses.replace(gadget, pm_body=gadget.pm_joint)

    def test_joint_matching_off_body_and_target(self, built):
        _, gadget = built
        with pytest.raises(ValueError, match="joint matching"):
            dataclasses.replace(gadget, pm_joint=gadget.pm_body)


class TestIsAbsorbing:
    def test_complete_graph_always_absorbs(self):
        graph = complete_partite(7, 21)
        ok, pms = is_absorbing(standard_body(graph), first_target(graph), graph)
        assert ok
        pm_body, pm_joint = pms
        assert len(pm_body) == 6 and len(pm_joint) == 7

    def test_isolated_body_vertex_blocks(self):
        # delete every edge through one body vertex
        full = complete_partite(7, 21)
        dead = 10
        graph = PartiteHypergraph(
            7, 21, [e for e in full.edges if dead not in e]
        )
        body = standard_body(graph)
        assert dead in body
        ok, pms = is_absorbing(body, first_target(graph), graph)
        assert not ok and pms is None

    def test_size_validation(self):
        graph = complete_partite(7, 21)
        with pytest.raises(ValueError):
            is_absorbing([0, 8, 9, 10], first_target(graph), graph)

    def test_overlap_validation(self):
        graph = complete_partite(7, 21)
        body = standard_body(graph)
        with pytest.raises(ValueError, match="body and target overlap"):
            is_absorbing(body, body[:1] + list(graph.p_vertices())[:3], graph)

    def test_balance_validation(self):
        graph = complete_partite(7, 22)
        body = standard_body(graph)
        swapped = body[:-1] + [list(graph.p_vertices())[21]]
        with pytest.raises(ValueError):
            is_absorbing(swapped[:23] + [0], first_target(graph), graph)

    def test_repeated_id_rejected(self):
        # a repeat used to be dropped, so 25 ids were checked as a 24-set
        graph = complete_partite(7, 21)
        body, target = standard_body(graph), first_target(graph)
        with pytest.raises(ValueError, match="body repeats"):
            is_absorbing(body + body[-1:], target, graph)
        with pytest.raises(ValueError, match="target repeats"):
            is_absorbing(body, target + target[-1:], graph)


class TestAnchors:
    def test_complete_graph(self):
        anchor, reach = low_degree_anchor(complete_hypergraph(3, 5))
        assert anchor == 0 and reach == (1, 2, 3, 4)

    def test_isolated_vertex_wins(self):
        h = Hypergraph(3, 5, [(1, 2, 3), (1, 2, 4)])
        anchor, reach = low_degree_anchor(h)
        assert anchor == 0 and reach == ()

    def test_tight_extremal_anchor_sits_outside(self):
        anchor, reach = low_degree_anchor(extremal_graph(6, 2, 2))
        assert anchor == 3 and reach == (0, 1, 2)

    def test_popular_complete_family(self):
        fam = HypergraphFamily(6, (complete_hypergraph(3, 6),) * 2)
        assert popular_vertices(fam, 2) == (1, 2, 3, 4, 5)

    def test_popular_high_threshold_empty(self):
        fam = HypergraphFamily(6, (complete_hypergraph(3, 6),) * 2)
        assert popular_vertices(fam, 3) == ()

    def test_popular_tight_family(self):
        fam = HypergraphFamily(6, (extremal_graph(6, 2, 2),) * 2)
        assert popular_vertices(fam, 2) == (0, 1, 2)

    def test_threshold_validated(self):
        fam = HypergraphFamily(6, (complete_hypergraph(3, 6),))
        with pytest.raises(ValueError):
            popular_vertices(fam, 0)

    def test_matches_the_min_degree_definition(self):
        # a minimum-degree vertex (ties to the smallest id) and the
        # vertices sharing a pair degree with it; sparse graphs leave
        # vertices isolated
        rng = random.Random(5)
        for trial in range(60):
            n = rng.randint(1, 9)
            prob = rng.choice((0.05, 0.2, 0.5))
            edges = [e for e in combinations(range(n), 3) if rng.random() < prob]
            h = Hypergraph(3, n, edges)
            anchor = min(range(n), key=lambda v: (brute_degree(edges, (v,)), v))
            reach = tuple(
                v for v in range(n) if v != anchor and brute_degree(edges, (v, anchor))
            )
            assert low_degree_anchor(h) == (anchor, reach), (trial, edges)


class TestBuildGadget:
    def test_complete_graph(self):
        graph = complete_partite(8, 24)
        target = first_target(graph)
        gadget = build_gadget(target, graph, graph.p_vertices())
        assert gadget is not None
        assert len(gadget.pm_body) == 6 and len(gadget.pm_joint) == 7
        ok, _ = is_absorbing(gadget.body.vertices(), target, graph)
        assert ok

    def test_rewire_edge_appears_in_joint_only(self):
        graph = complete_partite(8, 24)
        target = first_target(graph)
        gadget = build_gadget(target, graph, graph.p_vertices())
        extra = set(gadget.pm_joint.edges) - set(gadget.pm_body.edges)
        u_target = target[0]
        assert any(u_target in e for e in extra)

    def test_no_candidates_gives_none(self):
        graph = complete_partite(8, 24)
        assert build_gadget(first_target(graph), graph, []) is None

    def test_budget_exhaustion_raises(self):
        # a gadget exists (see test_complete_graph), so None would claim a false "none"
        with pytest.raises(SolverTimeout):
            build_gadget((0, 8, 9, 10), complete_partite(8, 24), range(8, 32), node_budget=1)

    def test_deadline_raises(self):
        start = time.monotonic()
        with pytest.raises(SolverTimeout):
            build_gadget((0, 8, 9, 10), LONE_CLASS, LONE_CLASS.p_vertices(), timeout=0.2)
        assert time.monotonic() - start < 2.0

    def test_scenario_passes_its_deadline_to_the_gadget_search(self):
        start = time.monotonic()
        with pytest.raises(SolverTimeout):
            absorb_scenario(LONE_CLASS, [(0, 8, 9, 10)], timeout=0.2)
        assert time.monotonic() - start < 2.0

    def test_deterministic(self):
        graph = complete_partite(8, 24)
        target = first_target(graph)
        a = build_gadget(target, graph, graph.p_vertices())
        b = build_gadget(target, graph, graph.p_vertices())
        assert a == b

    @pytest.mark.parametrize("outside", [-5, 32, 1000])
    def test_candidate_outside_graph_rejected(self, outside):
        # such an id used to be dropped (negative) or kept as a helper
        # that can lie on no edge
        graph = complete_partite(8, 24)
        with pytest.raises(ValueError, match="out of range"):
            build_gadget(first_target(graph), graph, [outside, *graph.p_vertices()])

    def test_repeated_target_id_rejected(self):
        graph = complete_partite(8, 24)
        with pytest.raises(ValueError, match="target repeats"):
            build_gadget([0, 8, 8, 9, 10], graph, graph.p_vertices())

    @pytest.mark.parametrize("target", [[8, 9, 10, 11], [0, 1, 8, 9, 10, 11, 12, 13]])
    def test_target_not_a_balanced_four_set_rejected(self, target):
        graph = complete_partite(8, 24)
        with pytest.raises(ValueError, match="unbalanced set|must be a balanced 4-set"):
            build_gadget(target, graph, graph.p_vertices())

    def test_too_small_graph_rejected(self):
        graph = complete_partite(6, 24)
        with pytest.raises(ValueError):
            build_gadget(first_target(graph), graph, graph.p_vertices())

    def test_dense_extremal_family_reduction(self):
        member = extremal_graph(24, 8, 2)
        fam = HypergraphFamily(24, (member,) * 8)
        graph = family_to_partite(fam)
        # target inside the blocking side, where the member graphs are dense
        candidates = [v + 8 for v in popular_vertices(fam, 1)]
        target = [0, 8, 9, 10]
        gadget = build_gadget(target, graph, candidates)
        assert gadget is not None
        ok, _ = is_absorbing(gadget.body.vertices(), target, graph)
        assert ok


class TestAbsorb:
    def test_empty_leftover_returns_reserved_matchings(self):
        graph = complete_partite(7, 21)
        target = first_target(graph)
        gadget = build_gadget(target, graph, graph.p_vertices())
        empty = BalancedSet(q_part=(), p_part=())
        result = absorb([gadget], empty, graph)
        assert result == gadget.pm_body

    def test_single_piece_uses_joint_matching(self):
        graph = complete_partite(7, 21)
        target = first_target(graph)
        gadget = build_gadget(target, graph, graph.p_vertices())
        leftover = BalancedSet.from_vertices(target, graph)
        result = absorb([gadget], leftover, graph)
        assert len(result.edges) == 7
        covered = {v for e in result.edges for v in e}
        assert covered == set(gadget.body.vertices()) | set(target)
        assert result == gadget.pm_joint

    def test_own_target_runs_no_search(self, monkeypatch):
        graph = complete_partite(7, 21)
        target = first_target(graph)
        gadget = build_gadget(target, graph, graph.p_vertices())

        def no_search(*args, **kwargs):
            raise AssertionError("searched a gadget's own target")

        monkeypatch.setattr(absorbing, "has_perfect_matching", no_search)
        leftover = BalancedSet.from_vertices(target, graph)
        assert absorb([gadget], leftover, graph) == gadget.pm_joint

    def test_foreign_piece_searched_once_per_gadget_tried(self, monkeypatch):
        graph = complete_partite(14, 42)
        pool = wide_pool(graph)
        searched = []

        def counted(g, **kwargs):
            searched.append(tuple(kwargs["vertices"]))
            return has_perfect_matching(g, **kwargs)

        monkeypatch.setattr(absorbing, "has_perfect_matching", counted)
        # (0, 14, 15, 16) is the first gadget's own target, (1, 17, 18, 19)
        # no gadget's: only the second piece is searched, on the one
        # gadget left, which absorbs it.
        leftover = BalancedSet(q_part=(0, 1), p_part=(14, 15, 16, 17, 18, 19))
        absorb(pool, leftover, graph)
        assert searched == [tuple(sorted(pool[1].body.vertices() + (1, 17, 18, 19)))]
        # A foreign piece alone tries the first gadget, which absorbs it.
        searched.clear()
        absorb(pool, BalancedSet(q_part=(1,), p_part=(17, 18, 19)), graph)
        assert searched == [tuple(sorted(pool[0].body.vertices() + (1, 17, 18, 19)))]

    @pytest.mark.parametrize("own_target", [False, True])
    @pytest.mark.parametrize("missing", ["pm_body", "pm_joint"])
    def test_gadget_of_another_graph_rejected(self, own_target, missing):
        graph = complete_partite(7, 21)
        target = first_target(graph)
        gadget = build_gadget(target, graph, graph.p_vertices())
        # an edge of the reserved matching, or one that only the joint
        # matching holds
        only_joint = set(gadget.pm_joint.edges) - set(gadget.pm_body.edges)
        drop = min(gadget.pm_body.edges) if missing == "pm_body" else min(only_joint)
        other = PartiteHypergraph(7, 21, [e for e in graph.edges if e != drop])
        leftover = BalancedSet.from_vertices(target if own_target else [], graph)
        with pytest.raises(ValueError, match="gadget 0 of the pool"):
            absorb([gadget], leftover, other)

    def test_two_pieces_on_wide_complete_graph(self):
        graph = complete_partite(14, 42)
        gadgets = wide_pool(graph)
        leftover = BalancedSet(q_part=(0, 1), p_part=(14, 15, 16, 17, 18, 19))
        result = absorb(gadgets, leftover, graph)
        expect = set(leftover.vertices())
        for g in gadgets:
            expect |= set(g.body.vertices())
        assert {v for e in result.edges for v in e} == expect
        assert len(result.edges) == len(expect) // 4

    def test_piece_takes_the_gadget_it_targets(self, monkeypatch):
        # Class vertex 1 lies only on edges inside P = 20..37, the first
        # gadget's body.  Its piece can be absorbed by the first gadget
        # alone, and the piece (0, 14, 15, 16) by either; the second
        # gadget, whose target that piece is, must take it.
        full = complete_partite(14, 42)
        graph = PartiteHypergraph(
            14, 42, [e for e in full.edges if e[0] != 1 or (e[1] >= 20 and e[3] <= 37)]
        )
        pool = []
        for (q0, p0), target in (((2, 20), (1, 17, 18, 19)), ((8, 38), (0, 14, 15, 16))):
            body = BalancedSet(q_part=tuple(range(q0, q0 + 6)), p_part=tuple(range(p0, p0 + 18)))
            ok, pms = is_absorbing(body.vertices(), target, graph)
            assert ok
            pool.append(AbsorberGadget(
                target=BalancedSet.from_vertices(target, graph),
                body=body,
                pm_body=pms[0],
                pm_joint=pms[1],
            ))

        leftover = BalancedSet(q_part=(0, 1), p_part=(14, 15, 16, 17, 18, 19))
        result = absorb(pool, leftover, graph)
        assert len(result) == 14
        assert result == Matching(edges=tuple(sorted(pool[0].pm_joint.edges + pool[1].pm_joint.edges)))

        def no_search(*args, **kwargs):
            raise AssertionError("searched a piece that is a gadget's own target")

        monkeypatch.setattr(absorbing, "has_perfect_matching", no_search)
        assert absorb(pool, leftover, graph) == result

    def test_pool_exhaustion_reports_piece(self):
        graph = complete_partite(10, 30)
        target = first_target(graph)
        gadget = build_gadget(target, graph, graph.p_vertices())
        spare_q = sorted(set(graph.q_vertices()) - set(gadget.body.q_part) - {0})
        spare_p = sorted(
            set(graph.p_vertices()) - set(gadget.body.p_part) - set(target[1:])
        )
        leftover = BalancedSet(
            q_part=(0, spare_q[0]),
            p_part=tuple(target[1:] + spare_p[:3]),
        )
        with pytest.raises(AbsorptionError) as exc:
            absorb([gadget], leftover, graph)
        assert len(exc.value.unabsorbed) == 4

    def test_overlapping_leftover_rejected(self):
        graph = complete_partite(7, 21)
        target = first_target(graph)
        gadget = build_gadget(target, graph, graph.p_vertices())
        bad = BalancedSet.from_vertices(
            [gadget.body.q_part[0]] + list(gadget.body.p_part[:3]), graph
        )
        with pytest.raises(ValueError, match="leftover overlaps"):
            absorb([gadget], bad, graph)

    def test_overlapping_bodies_rejected(self):
        graph = complete_partite(7, 21)
        gadget = build_gadget(first_target(graph), graph, graph.p_vertices())
        empty = BalancedSet(q_part=(), p_part=())
        with pytest.raises(ValueError, match="pairwise disjoint"):
            absorb([gadget, gadget], empty, graph)


class TestScenario:
    """Several targets: the bodies are disjoint and miss every target."""

    def test_two_targets_on_room_for_two(self):
        graph = complete_partite(14, 42)
        targets = [(0, 14, 15, 16), (1, 17, 18, 19)]
        combined, pool = absorb_scenario(graph, targets)
        assert len(combined) == 14 and is_perfect_matching_of(graph, combined)
        first, second = (set(g.body.vertices()) for g in pool)
        assert not first & second
        assert all(set(t).isdisjoint(first | second) for t in targets)
        assert [g.target.vertices() for g in pool] == targets

    def test_two_targets_on_room_for_one(self):
        # 32 vertices hold one body and both targets, so the second
        # target finds no gadget
        targets = [(0, 8, 9, 10), (1, 11, 12, 13)]
        with pytest.raises(AbsorptionError) as exc:
            absorb_scenario(complete_partite(8, 24), targets)
        assert exc.value.unabsorbed == (1, 11, 12, 13)

    @pytest.mark.parametrize("q, p", [(8, 25), (8, 26), (9, 24)])
    def test_unbalanced_graph_rejected_before_any_search(self, monkeypatch, q, p):
        def forbidden(*args, **kwargs):
            raise AssertionError("searched an unbalanced graph")

        monkeypatch.setattr(absorbing, "build_gadget", forbidden)
        monkeypatch.setattr(absorbing, "max_matching", forbidden)
        with pytest.raises(ValueError, match=rf"absorb scenario needs a balanced graph; got \|Q\|={q}, \|P\|={p}"):
            absorb_scenario(complete_partite(q, p), [(0, q, q + 1, q + 2)])

    @pytest.mark.parametrize("seed, prob", [(1, 0.02), (2, 0.05), (3, 0.1), (4, 0.6)])
    def test_helper_candidates_are_the_members_anchor_reaches(self, monkeypatch, seed, prob):
        # The scenario reads each anchor off a class vertex's run; its
        # helpers must be those of the family the graph reduces to.  Class
        # vertex 0 lies on no edge, and class vertex u leaves u % 3 random
        # P vertices at degree 0 in its link, so isolated anchors, empty
        # reaches and ties to the smallest id all occur.
        rng = random.Random(seed)
        edges = []
        for u in range(1, 8):
            isolated = set(rng.sample(range(8, 32), u % 3))
            edges += [
                (u, *t) for t in combinations(range(8, 32), 3)
                if isolated.isdisjoint(t) and rng.random() < prob
            ]
        graph = PartiteHypergraph(8, 24, edges)
        seen = []

        def record(target, host, helpers, **kwargs):
            seen.append(list(helpers))

        monkeypatch.setattr(absorbing, "build_gadget", record)
        with pytest.raises(AbsorptionError):
            absorb_scenario(graph, [(0, 8, 9, 10)])
        assert seen == [[v + 8 for v in popular_vertices(partite_to_family(graph), 1)]]

    def test_targets_sharing_a_vertex_rejected(self):
        targets = [(0, 8, 9, 10), (0, 11, 12, 13)]
        with pytest.raises(ValueError, match="targets must be pairwise disjoint"):
            absorb_scenario(complete_partite(8, 24), targets)


class TestEndToEnd:
    def test_reserved_plus_rest_forms_perfect_matching(self):
        graph = complete_partite(8, 24)
        target = first_target(graph)
        gadget = build_gadget(target, graph, graph.p_vertices())
        reserved = set(gadget.body.vertices())
        rest = sorted(set(range(graph.n_vertices)) - reserved)
        sub, ids = graph.induced(rest)
        m1 = max_matching(sub)
        m1_edges = tuple(
            sorted(tuple(sorted(ids[v] for v in e)) for e in m1.edges)
        )
        covered = {v for e in m1_edges for v in e}
        leftover = BalancedSet.from_vertices(
            sorted(set(rest) - covered), graph
        )
        absorbed = absorb([gadget], leftover, graph)
        combined = Matching(edges=tuple(sorted(m1_edges + absorbed.edges)))
        assert is_perfect_matching_of(graph, combined)
