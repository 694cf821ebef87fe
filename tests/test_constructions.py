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
    complete_partite,
    extremal_adjacent_degree_sum,
    extremal_graph,
    extremal_partite,
    family_to_partite,
    partite_to_family,
)
from rainbow_lab.hypergraph import Hypergraph, complete_hypergraph
from rainbow_lab.jsonio import load_instance
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
            flat = pg.as_hypergraph()
            for i, member in enumerate(family.members):
                link_edges = {
                    tuple(v - pg.q_size for v in e)
                    for e in flat.link(i).edges
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
            flat = pg.as_hypergraph()
            for i, member in enumerate(family.members):
                for vj, vk in combinations(range(pg.p_size), 2):
                    spanned = (
                        flat.degree((i, vj + pg.q_size, vk + pg.q_size)) > 0
                    )
                    if member.degree((vj,)) and member.degree((vk,)):
                        assert spanned == member.adjacent(vj, vk)
                    else:
                        assert not spanned

    def test_member_isolation_iff_nonadjacent_class_vertex(self):
        rng = random.Random(4)
        for _ in range(10):
            pg = random_partite(rng, 3, 6, 0.25)
            family = partite_to_family(pg)
            flat = pg.as_hypergraph()
            for i, member in enumerate(family.members):
                for vj in range(pg.p_size):
                    isolated = member.degree((vj,)) == 0
                    assert isolated == (not flat.adjacent(i, vj + pg.q_size))


class TestPartiteType:
    def test_rejects_two_class_vertices(self):
        with pytest.raises(ValueError):
            PartiteHypergraph(2, 4, [(0, 1, 2, 3)])

    def test_rejects_zero_class_vertices(self):
        with pytest.raises(ValueError):
            PartiteHypergraph(2, 4, [(2, 3, 4, 5)])

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
        assert load_instance(json.loads(pg.to_json())) == pg
