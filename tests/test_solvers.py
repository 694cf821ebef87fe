"""Exact solvers against brute-force enumeration oracles."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from rainbow_lab.constructions import (
    HypergraphFamily,
    PartiteHypergraph,
    complete_partite,
    extremal_graph,
    extremal_partite,
    family_to_partite,
)
from rainbow_lab.hypergraph import Hypergraph, complete_hypergraph, empty_hypergraph
from rainbow_lab.solvers import (
    Matching,
    RainbowMatching,
    SolverTimeout,
    has_perfect_matching,
    is_matching_of,
    is_perfect_matching_of,
    max_matching,
    partite_perfect_matching,
    rainbow_matching,
)

from _oracles import (
    brute_max_matching_size,
    brute_pm_exists,
    brute_rainbow_exists,
)


def random_3graph(rng, n, prob):
    return Hypergraph(
        3, n, [e for e in combinations(range(n), 3) if rng.random() < prob]
    )


class TestTypes:
    def test_matching_rejects_overlap(self):
        with pytest.raises(ValueError):
            Matching(edges=((0, 1, 2), (2, 3, 4)))

    def test_rainbow_rejects_repeated_color(self):
        with pytest.raises(ValueError):
            RainbowMatching(pairs=((0, (0, 1, 2)), (0, (3, 4, 5))))


class TestMaxMatching:
    def test_complete_nine(self):
        assert len(max_matching(complete_hypergraph(3, 9))) == 3

    def test_tight_extremal(self):
        h = extremal_graph(9, 3, 2)
        assert len(max_matching(h)) == 2 == brute_max_matching_size(h.edges)

    def test_empty(self):
        assert len(max_matching(empty_hypergraph(3, 6))) == 0

    def test_witness_is_matching(self):
        h = extremal_graph(12, 4, 1)
        m = max_matching(h)
        assert is_matching_of(h, m.edges)

    def test_against_oracle_random(self):
        rng = random.Random(21)
        for _ in range(25):
            h = random_3graph(rng, rng.randint(4, 9), rng.uniform(0.1, 0.7))
            assert len(max_matching(h)) == brute_max_matching_size(h.edges)

    def test_deterministic(self):
        rng = random.Random(2)
        h = random_3graph(rng, 9, 0.5)
        assert max_matching(h) == max_matching(h)


class TestPerfectMatching:
    def test_complete_six(self):
        found, pm = has_perfect_matching(complete_hypergraph(3, 6))
        assert found and is_perfect_matching_of(complete_hypergraph(3, 6), pm.edges)

    def test_tight_extremal_has_none(self):
        found, pm = has_perfect_matching(extremal_graph(12, 4, 2))
        assert not found and pm is None
        assert not brute_pm_exists(extremal_graph(12, 4, 2).edges, 12, 3)

    def test_indivisible_order(self):
        found, _ = has_perfect_matching(complete_hypergraph(3, 7))
        assert not found

    def test_empty_graph_trivially_perfect(self):
        found, pm = has_perfect_matching(empty_hypergraph(3, 0))
        assert found and len(pm) == 0

    def test_against_oracle_random(self):
        rng = random.Random(33)
        for _ in range(25):
            h = random_3graph(rng, 9, rng.uniform(0.05, 0.5))
            found, pm = has_perfect_matching(h)
            assert found == brute_pm_exists(h.edges, 9, 3)
            if found:
                assert is_perfect_matching_of(h, pm.edges)


class TestRainbow:
    def test_two_complete_members(self):
        fam = HypergraphFamily(6, (complete_hypergraph(3, 6),) * 2)
        rm = rainbow_matching(fam)
        assert rm is not None and len(rm) == 2

    def test_two_tight_members_blocked(self):
        fam = HypergraphFamily(6, (extremal_graph(6, 2, 2),) * 2)
        assert rainbow_matching(fam) is None
        assert not brute_rainbow_exists([m.edges for m in fam.members])

    def test_single_member_single_edge(self):
        member = Hypergraph(3, 5, [(1, 2, 4)])
        rm = rainbow_matching(HypergraphFamily(5, (member,)))
        assert rm is not None and rm.pairs == ((0, (1, 2, 4)),)

    def test_member_without_edges_blocks(self):
        fam = HypergraphFamily(
            6, (complete_hypergraph(3, 6), empty_hypergraph(3, 6))
        )
        assert rainbow_matching(fam) is None

    def test_empty_family(self):
        rm = rainbow_matching(HypergraphFamily(6, ()))
        assert rm is not None and len(rm) == 0

    def test_colors_match_members(self):
        rng = random.Random(8)
        fam = HypergraphFamily(
            9, tuple(random_3graph(rng, 9, 0.5) for _ in range(3))
        )
        rm = rainbow_matching(fam)
        assert rm is not None
        for color, edge in rm.pairs:
            assert edge in fam.members[color].edges

    def test_against_oracle_random(self):
        rng = random.Random(44)
        for _ in range(25):
            fam = HypergraphFamily(
                6, tuple(random_3graph(rng, 6, rng.uniform(0.1, 0.8)) for _ in range(2))
            )
            expect = brute_rainbow_exists([m.edges for m in fam.members])
            assert (rainbow_matching(fam) is not None) == expect


class TestPartitePerfectMatching:
    def test_reduction_of_complete_members(self):
        fam = HypergraphFamily(6, (complete_hypergraph(3, 6),) * 2)
        pm = partite_perfect_matching(family_to_partite(fam))
        assert pm is not None and len(pm) == 2

    def test_tight_partite_blocked(self):
        assert partite_perfect_matching(extremal_partite(6)) is None

    def test_isolated_other_side_vertex(self):
        # all edges avoid vertex 7: no perfect matching can cover it
        edges = [
            (u,) + trio
            for u in range(2)
            for trio in combinations(range(2, 8), 3)
            if 7 not in trio
        ]
        pg = PartiteHypergraph(2, 6, edges)
        assert partite_perfect_matching(pg) is None

    def test_unbalanced_rejected(self):
        with pytest.raises(ValueError):
            partite_perfect_matching(PartiteHypergraph(2, 5, []))

    def test_matches_rainbow_on_random_families(self):
        rng = random.Random(55)
        for _ in range(40):
            fam = HypergraphFamily(
                6, tuple(random_3graph(rng, 6, rng.uniform(0.1, 0.9)) for _ in range(2))
            )
            rb = rainbow_matching(fam)
            pm = partite_perfect_matching(family_to_partite(fam))
            assert (rb is None) == (pm is None)


class TestWideInstances:
    """More than 64 vertices: masks wider than a machine word."""

    def test_rainbow_and_max_matching_past_bit_64(self):
        h = Hypergraph(3, 70, [(67, 68, 69)])
        rm = rainbow_matching(HypergraphFamily(70, (h,)))
        assert rm is not None and rm.pairs == ((0, (67, 68, 69)),)
        assert max_matching(h).edges == ((67, 68, 69),)

    def test_perfect_matching_past_bit_64(self):
        triples = [(i, i + 1, i + 2) for i in range(0, 72, 3)]
        found, pm = has_perfect_matching(Hypergraph(3, 72, triples))
        assert found and pm.edges == tuple(triples)
        found, _ = has_perfect_matching(Hypergraph(3, 72, triples[:-1]))
        assert not found


class TestTimeout:
    def test_budget_exhaustion_raises(self):
        h = extremal_graph(12, 4, 2)
        with pytest.raises(SolverTimeout):
            has_perfect_matching(h, node_budget=50)

    def test_budget_exhaustion_rainbow(self):
        fam = HypergraphFamily(12, (extremal_graph(12, 4, 2),) * 4)
        with pytest.raises(SolverTimeout):
            rainbow_matching(fam, node_budget=50)

    def test_budget_exhaustion_max_matching(self):
        h = complete_hypergraph(3, 12)
        with pytest.raises(SolverTimeout):
            max_matching(h, node_budget=10)
