"""Core hypergraph type: degrees, links, adjacency, serialization."""

from __future__ import annotations

import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbow_lab.hypergraph import (
    Hypergraph,
    complete_hypergraph,
    empty_hypergraph,
)
from rainbow_lab.constructions import extremal_graph
from rainbow_lab.jsonio import load_instance

from _oracles import brute_degree


def random_3graph(rng: random.Random, n: int, prob: float) -> Hypergraph:
    edges = [e for e in combinations(range(n), 3) if rng.random() < prob]
    return Hypergraph(3, n, edges)


@st.composite
def small_hypergraphs(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    all_edges = list(combinations(range(n), 3))
    edges = draw(st.lists(st.sampled_from(all_edges), unique=True, max_size=20))
    return Hypergraph(3, n, edges)


class TestConstruction:
    def test_rejects_wrong_edge_size(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 5, [(0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 4, [(0, 1, 4)])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 5, [(0, 1, 1)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 5, [(0, 1, 2), (2, 1, 0)])

    def test_rejects_low_uniformity(self):
        with pytest.raises(ValueError):
            Hypergraph(1, 5, [(0,)])

    def test_edges_are_canonical(self):
        h = Hypergraph(3, 6, [(5, 3, 1), (0, 2, 4)])
        assert h.edges == ((0, 2, 4), (1, 3, 5))


class TestDegree:
    def test_complete_graph_single_vertex(self):
        h = complete_hypergraph(3, 5)
        assert h.degree((0,)) == 6  # C(4,2)

    def test_empty_subset_counts_all_edges(self):
        h = complete_hypergraph(3, 5)
        assert h.degree(()) == h.n_edges

    def test_extremal_blocking_vertex(self):
        # one more blocking vertex (2 choices) x 3 outside, plus the
        # all-blocking triple: 6 + 1 = 7
        h = extremal_graph(6, 2, 2)
        for t in range(3):
            assert h.degree((t,)) == brute_degree(h.edges, (t,)) == 7

    def test_subset_too_large(self):
        h = complete_hypergraph(3, 5)
        with pytest.raises(ValueError):
            h.degree((0, 1, 2, 3))

    def test_invalid_vertex(self):
        h = complete_hypergraph(3, 5)
        with pytest.raises(ValueError):
            h.degree((7,))

    def test_full_edge_membership(self):
        h = extremal_graph(6, 2, 2)
        assert h.degree((0, 1, 2)) == 1
        assert h.degree((3, 4, 5)) == 0


class TestMinDegree:
    def test_complete_six(self):
        assert complete_hypergraph(3, 6).min_degree(1) == 10

    def test_isolated_vertex(self):
        h = Hypergraph(3, 5, [(0, 1, 2)])
        assert h.min_degree(1) == 0

    def test_wide_extremal(self):
        # outside vertices meet the 2-vertex blocking set in 2*6 + 1 ways
        h = extremal_graph(9, 3, 1)
        assert h.min_degree(1) == 13
        assert min(brute_degree(h.edges, (v,)) for v in range(9)) == 13

    def test_size_out_of_range(self):
        h = complete_hypergraph(3, 6)
        with pytest.raises(ValueError):
            h.min_degree(0)
        with pytest.raises(ValueError):
            h.min_degree(3)


class TestLink:
    def test_complete_four(self):
        link = complete_hypergraph(3, 4).link(0)
        assert link.k == 2
        assert link.edges == ((1, 2), (1, 3), (2, 3))

    def test_isolated_vertex_has_empty_link(self):
        h = Hypergraph(3, 5, [(1, 2, 3)])
        assert h.link(0).n_edges == 0

    def test_link_size_matches_degree(self):
        rng = random.Random(11)
        for _ in range(20):
            h = random_3graph(rng, 7, 0.4)
            for v in range(7):
                assert h.link(v).n_edges == h.degree((v,))


class TestAdjacency:
    def test_complete(self):
        h = complete_hypergraph(3, 5)
        assert h.adjacent(0, 4)

    def test_empty(self):
        assert not empty_hypergraph(3, 5).adjacent(0, 4)

    def test_outside_vertices_never_adjacent(self):
        # every edge has at most one vertex outside the blocking set
        h = extremal_graph(6, 2, 2)
        for u, v in combinations(range(3, 6), 2):
            assert not h.adjacent(u, v)
            assert brute_degree(h.edges, (u, v)) == 0

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            complete_hypergraph(3, 5).adjacent(2, 2)


class TestDegreeSumMinima:
    def test_tight_extremal_instance(self):
        stats = extremal_graph(12, 4, 2).degree_sum_minima()
        assert stats.adjacent == 66
        assert stats.all_pairs == 42
        assert stats.nonadjacent == 42

    def test_complete_six(self):
        stats = complete_hypergraph(3, 6).degree_sum_minima()
        assert stats.adjacent == 20
        assert stats.all_pairs == 20
        assert stats.nonadjacent is None

    def test_single_edge(self):
        stats = Hypergraph(3, 3, [(0, 1, 2)]).degree_sum_minima()
        assert stats.adjacent == 2
        assert stats.nonadjacent is None

    def test_too_small(self):
        with pytest.raises(ValueError):
            empty_hypergraph(3, 1).degree_sum_minima()


class TestIsolated:
    def test_complete(self):
        assert complete_hypergraph(3, 5).isolated_vertices() == ()

    def test_empty(self):
        assert empty_hypergraph(3, 5).isolated_vertices() == (0, 1, 2, 3, 4)

    def test_wide_extremal_has_none(self):
        assert extremal_graph(9, 3, 1).isolated_vertices() == ()


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(small_hypergraphs())
    def test_handshake(self, h):
        assert sum(h.degree((v,)) for v in range(h.n_vertices)) == 3 * h.n_edges

    @settings(max_examples=60, deadline=None)
    @given(small_hypergraphs(), st.data())
    def test_monotonicity(self, h, data):
        sub = data.draw(
            st.lists(
                st.integers(0, h.n_vertices - 1), unique=True, min_size=1, max_size=3
            )
        )
        smaller = sub[:-1]
        assert h.degree(smaller) >= h.degree(sub)

    @settings(max_examples=60, deadline=None)
    @given(small_hypergraphs())
    def test_sigma_inequalities(self, h):
        stats = h.degree_sum_minima()
        assert stats.all_pairs is not None
        if stats.adjacent is not None:
            assert stats.all_pairs <= stats.adjacent
            assert stats.adjacent >= 2 * h.min_degree(1)
        if stats.nonadjacent is not None:
            assert stats.all_pairs <= stats.nonadjacent

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_every_subset_size_matches_oracle(self, k):
        # indexed sizes, the k-set edge lookup and the scan in between
        rng = random.Random(k)
        n = 8
        h = Hypergraph(
            k, n, [e for e in combinations(range(n), k) if rng.random() < 0.4]
        )
        for size in range(k + 1):
            for sub in combinations(range(n), size):
                assert h.degree(sub) == brute_degree(h.edges, sub), sub

    @settings(max_examples=40, deadline=None)
    @given(small_hypergraphs(), st.data())
    def test_degree_matches_oracle(self, h, data):
        sub = data.draw(
            st.lists(
                st.integers(0, h.n_vertices - 1), unique=True, max_size=3
            )
        )
        assert h.degree(sub) == brute_degree(h.edges, sub)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        h = extremal_graph(9, 3, 2)
        again = load_instance(json.loads(h.to_json()))
        assert again == h
        assert again.to_json() == h.to_json()

    def test_reader_rejects_unsorted(self):
        with pytest.raises(ValueError):
            load_instance({"k": 3, "n": 4, "edges": [[2, 1, 0]]})

    def test_reader_rejects_duplicates(self):
        with pytest.raises(ValueError):
            load_instance(
                {"k": 3, "n": 4, "edges": [[0, 1, 2], [0, 1, 2]]}
            )

    def test_normalize_repairs(self):
        h = load_instance(
            {"k": 3, "n": 4, "edges": [[2, 1, 0], [0, 1, 2], [1, 2, 3]]},
            normalize=True,
        )
        assert h.edges == ((0, 1, 2), (1, 2, 3))
