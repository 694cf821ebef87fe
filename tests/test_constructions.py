"""Extremal generators and the family <-> partite reduction."""

from __future__ import annotations

import json
import random
from itertools import combinations
from math import comb

import pytest

from rainbow_lab.constructions import (
    HypergraphFamily,
    PartiteHypergraph,
    _extremal_edge_count,
    complete_partite,
    extremal_adjacent_degree_sum,
    extremal_graph,
    extremal_partite,
    family_to_partite,
    partite_to_family,
)
from rainbow_lab.experiments import random_family, random_hypergraph
from rainbow_lab.hypergraph import Hypergraph, complete_hypergraph
from rainbow_lab.jsonio import canonical_json, load_instance
from rainbow_lab.shift import fractional_pm_pipeline
from rainbow_lab.solvers import max_matching

from _oracles import brute_max_matching_size


def random_partite(rng, q, p, prob):
    edges = [
        (u,) + trio
        for u in range(q)
        for trio in combinations(range(q, q + p), 3)
        if rng.random() < prob
    ]
    return PartiteHypergraph(q, p, edges)


class TestExtremalGraph:
    def test_edge_count_tight(self):
        h = extremal_graph(6, 2, 2)
        assert h.n_edges == comb(3, 2) * 3 + comb(3, 3) == 10

    def test_edge_count_inner_only(self):
        for n, s in [(9, 2), (12, 3)]:
            h = extremal_graph(n, s, 3)
            assert h.n_edges == comb(3 * s - 1, 3)

    def test_edge_count_wide(self):
        h = extremal_graph(9, 3, 1)
        assert h.n_edges == comb(9, 3) - comb(7, 3) == 49

    def test_blocking_set_is_low_ids(self):
        h = extremal_graph(6, 2, 2)
        for e in h.edges:
            assert sum(1 for v in e if v < 3) >= 2

    def test_size_constraint(self):
        with pytest.raises(ValueError):
            extremal_graph(4, 2, 3)
        with pytest.raises(ValueError):
            extremal_graph(6, 0, 2)
        with pytest.raises(ValueError):
            extremal_graph(6, 2, 4)

    def test_equals_the_filter_definition(self):
        for n in range(10):
            for s in range(1, 5):
                for ell in (1, 2, 3):
                    t_size = s * ell - 1
                    if t_size > n:
                        continue
                    want = tuple(
                        e for e in combinations(range(n), 3)
                        if sum(1 for v in e if v < t_size) >= ell
                    )
                    assert extremal_graph(n, s, ell).edges == want, (n, s, ell)

    def test_closed_form_count(self):
        # the count the generators bound before building; 0 where the
        # construction is refused
        for n in range(10):
            for s in range(0, 5):
                for ell in (0, 1, 2, 3, 4):
                    try:
                        want = extremal_graph(n, s, ell).n_edges
                    except ValueError:
                        want = 0
                    assert _extremal_edge_count(n, s, ell) == want, (n, s, ell)

    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("n,s", [(9, 3), (12, 4)])
    def test_matching_number_one_short(self, n, s, ell):
        if s * ell - 1 > n:
            pytest.skip("construction undefined")
        h = extremal_graph(n, s, ell)
        assert len(max_matching(h)) == s - 1
        assert brute_max_matching_size(h.edges) == s - 1


class TestDegreeSumFormula:
    @pytest.mark.parametrize(
        "n,expected", [(3, 0), (6, 10), (9, 32), (12, 66), (15, 112), (18, 170)]
    )
    def test_values(self, n, expected):
        assert extremal_adjacent_degree_sum(n) == expected

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            extremal_adjacent_degree_sum(7)

    @pytest.mark.parametrize("n", [6, 9, 12, 15, 18])
    def test_matches_generated_instance(self, n):
        stats = extremal_graph(n, n // 3, 2).degree_sum_minima()
        assert stats.adjacent == extremal_adjacent_degree_sum(n)


class TestReduction:
    def test_two_singleton_members(self):
        member = Hypergraph(3, 6, [(0, 1, 2)])
        family = HypergraphFamily(6, (member, member))
        pg = family_to_partite(family)
        assert pg.q_size == 2 and pg.p_size == 6
        assert pg.edges == ((0, 2, 3, 4), (1, 2, 3, 4))

    def test_edge_count_is_sum(self):
        rng = random.Random(5)
        for _ in range(10):
            members = tuple(
                Hypergraph(
                    3,
                    7,
                    [e for e in combinations(range(7), 3) if rng.random() < 0.3],
                )
                for _ in range(3)
            )
            family = HypergraphFamily(7, members)
            assert family_to_partite(family).n_edges == sum(
                m.n_edges for m in members
            )

    def test_extremal_partite_shape(self):
        pg = extremal_partite(6)
        assert pg.q_size == 2 and pg.p_size == 6 and pg.balanced
        assert pg.n_edges == 2 * 10

    @pytest.mark.parametrize("n", [0, 1, 2, -3])
    def test_extremal_partite_refuses_fewer_than_three(self, n):
        # n = 0 must not reach extremal_graph(0, 0, 2), whose error names s.
        with pytest.raises(ValueError, match=rf"^n must be >= 3, got {n}$"):
            extremal_partite(n)

    def test_extremal_partite_three_is_edgeless(self):
        pg = extremal_partite(3)
        assert (pg.q_size, pg.p_size, pg.edges) == (1, 3, ())

    def test_round_trip_family(self):
        pg = extremal_partite(6)
        assert family_to_partite(partite_to_family(pg)) == pg

    def test_empty_partite_gives_empty_members(self):
        pg = PartiteHypergraph(3, 9, [])
        family = partite_to_family(pg)
        assert len(family) == 3
        assert all(m.n_edges == 0 for m in family.members)

    def test_members_equal_links(self):
        rng = random.Random(9)
        for _ in range(10):
            pg = random_partite(rng, 3, 6, 0.3)
            family = partite_to_family(pg)
            for i, member in enumerate(family.members):
                link_edges = {
                    tuple(v - pg.q_size for v in e)
                    for e in pg.link(i).edges
                }
                assert set(member.edges) == link_edges

    def test_mixed_uniformity_rejected(self):
        with pytest.raises(ValueError):
            HypergraphFamily(5, (complete_hypergraph(2, 5),))

    def test_mismatched_vertex_sets_rejected(self):
        with pytest.raises(ValueError):
            HypergraphFamily(
                5, (complete_hypergraph(3, 5), complete_hypergraph(3, 6))
            )


class TestReductionAdjacency:
    """Triple degrees in the reduction mirror member adjacency."""

    def test_triple_degree_iff_member_adjacency(self):
        rng = random.Random(3)
        for _ in range(10):
            pg = random_partite(rng, 3, 6, 0.35)
            family = partite_to_family(pg)
            triple_deg = pg.degrees(3)
            for i, member in enumerate(family.members):
                deg, pair_deg = member.degrees(1), member.degrees(2)
                for vj, vk in combinations(range(pg.p_size), 2):
                    spanned = triple_deg[(i, vj + pg.q_size, vk + pg.q_size)] > 0
                    if deg[(vj,)] and deg[(vk,)]:
                        assert spanned == (pair_deg[(vj, vk)] > 0)
                    else:
                        assert not spanned

    def test_member_isolation_iff_nonadjacent_class_vertex(self):
        rng = random.Random(4)
        for _ in range(10):
            pg = random_partite(rng, 3, 6, 0.25)
            family = partite_to_family(pg)
            pair_deg = pg.degrees(2)
            for i, member in enumerate(family.members):
                deg = member.degrees(1)
                for vj in range(pg.p_size):
                    isolated = deg[(vj,)] == 0
                    assert isolated == (pair_deg[(i, vj + pg.q_size)] == 0)


class TestPartiteType:
    def test_rejects_two_class_vertices(self):
        with pytest.raises(ValueError):
            PartiteHypergraph(2, 4, [(0, 1, 2, 3)])

    def test_rejects_zero_class_vertices(self):
        with pytest.raises(ValueError):
            PartiteHypergraph(2, 4, [(2, 3, 4, 5)])

    # The constructor is the one partite-edge check: the shift's rank
    # keys and the links trust the edges it stores.
    @pytest.mark.parametrize(
        "edge",
        [
            (0, 2, 2, 3),  # repeated other-class vertex
            (0, 0, 2, 3),  # repeated class vertex
            (0, 2, 3),
            (0, 2, 3, 4, 5),
            (0, 1, 2, 3),  # two class vertices
            (2, 3, 4, 5),  # no class vertex
            (0, 2, 3, 8),  # ids outside the graph
            (-1, 2, 3, 4),
            (1, 3, 2, 99),
        ],
    )
    def test_rejects_malformed_edge(self, edge):
        with pytest.raises(ValueError):
            PartiteHypergraph(2, 6, [edge])

    def test_balanced_flag(self):
        assert PartiteHypergraph(2, 6, []).balanced
        assert not PartiteHypergraph(2, 5, []).balanced

    def test_complete_partite_count(self):
        pg = complete_partite(2, 6)
        assert pg.n_edges == 2 * comb(6, 3)

    def test_never_equals_the_plain_graph(self):
        pg = complete_partite(2, 6)
        plain = Hypergraph(4, 8, pg.edges)
        assert pg != plain and plain != pg
        assert not pg == plain and not plain == pg
        same = PartiteHypergraph(2, 6, list(pg.edges))
        assert pg == same and hash(pg) == hash(same)
        assert len({pg, same}) == 1
        assert len({pg, same, plain}) == 2

    def test_round_trip_json(self):
        pg = extremal_partite(6)
        assert load_instance(json.loads(canonical_json(pg.to_dict()))) == pg


class TestTrustedEqualsValidated:
    """Graphs derived without re-validation equal their validated twins."""

    @staticmethod
    def assert_same(graph, validated):
        assert type(graph) is type(validated)
        assert graph == validated and hash(graph) == hash(validated)
        assert type(graph.edges) is tuple

    def test_induced_subgraphs(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(0, 9)
            graph = random_hypergraph(rng, n, rng.uniform(0.1, 0.9), rng.randint(2, 4))
            if rng.random() < 0.5:
                q = rng.randint(1, 3)
                graph = random_partite(rng, q, 3 * q + rng.randint(0, 2), rng.uniform(0.1, 0.9))
            keep = rng.sample(range(graph.n_vertices), rng.randint(0, graph.n_vertices))
            sub, ids = graph.induced(keep)
            relabel = {v: i for i, v in enumerate(ids)}
            kept = [
                [relabel[v] for v in e] for e in graph.edges if set(e) <= set(keep)
            ]
            self.assert_same(sub, Hypergraph(graph.k, len(keep), kept))

    def test_reduction_both_ways(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(3, 8)
            family = random_family(rng, n, rng.randint(0, 4), rng.uniform(0.1, 0.9))
            pg = family_to_partite(family)
            t = len(family)
            edges = [
                [i] + [v + t for v in e]
                for i, member in enumerate(family.members)
                for e in member.edges
            ]
            self.assert_same(pg, PartiteHypergraph(t, n, edges))
            for i, member in enumerate(partite_to_family(pg).members):
                link = [[v - t for v in e] for e in pg.link(i).edges]
                self.assert_same(member, Hypergraph(3, n, link))

    def test_pipeline_link(self):
        rng = random.Random(14)
        for _ in range(20):
            q = rng.randint(1, 3)
            pg = random_partite(rng, q, 3 * q, rng.uniform(0.1, 0.9))
            shifted = fractional_pm_pipeline(pg).shifted
            u = shifted.q_order[0]
            link = partite_to_family(shifted.graph).members[u]
            remainders = [[v - q for v in e] for e in shifted.graph.link(u).edges]
            self.assert_same(link, Hypergraph(3, 3 * q, remainders))
