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
from rainbow_lab.constructions import (
    PartiteHypergraph,
    complete_partite,
    extremal_adjacent_degree_sum,
    extremal_graph,
    extremal_partite,
)
from rainbow_lab.experiments import random_partite
from rainbow_lab.fractional import min_fractional_cover
from rainbow_lab.shift import cover_closure, stable_shift
from rainbow_lab.solvers import partite_perfect_matching
from rainbow_lab.jsonio import canonical_json, load_instance

from _oracles import all_partite_four_sets, brute_degree, random_3graph, repeated_families


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


class TestHasEdge:
    def test_finds_edges_only(self):
        # (0, 1, 3) sorts between the two edges, so bisection lands inside
        # the edge list: only the equality test rejects it.
        h = Hypergraph(3, 6, [(0, 1, 2), (0, 1, 4)])
        assert h._has((0, 1, 2)) and h._has((0, 1, 4))
        assert not h._has((0, 1, 3)) and not h._has((3, 4, 5))

    def test_lookup_is_exact(self):
        # The package's one lookup takes the tuple as given: an unsorted
        # tuple is never an edge, so callers pass sorted tuples.
        h = complete_hypergraph(3, 6)
        assert h._has((0, 1, 2)) and not h._has((2, 1, 0))


class TestCheckVertices:
    """The package's one vertex-set check."""

    def test_sorts_the_ids(self):
        assert complete_hypergraph(3, 5)._check_vertices([4, 0, 2]) == (0, 2, 4)

    def test_repeat_rejected(self):
        with pytest.raises(ValueError, match="body repeats a vertex id"):
            complete_hypergraph(3, 5)._check_vertices([2, 0, 2], "body")

    @pytest.mark.parametrize("v", [-1, 5])
    def test_out_of_range_rejected(self, v):
        with pytest.raises(ValueError, match="out of range"):
            complete_hypergraph(3, 5)._check_vertices([0, v])


class TestRun:
    def test_run_is_the_edges_whose_least_vertex_is_a(self):
        rng = random.Random(5)
        h = random_3graph(rng, 8, 0.5)
        for a in range(-1, 9):
            assert h._run(a) == tuple(e for e in h.edges if e[0] == a), a


class TestDegree:
    def test_complete_graph_single_vertex(self):
        h = complete_hypergraph(3, 5)
        assert h.degrees(1)[(0,)] == 6  # C(4,2)

    def test_empty_subset_counts_all_edges(self):
        h = complete_hypergraph(3, 5)
        assert h.degrees(0)[()] == h.n_edges

    def test_extremal_blocking_vertex(self):
        # one more blocking vertex (2 choices) x 3 outside, plus the
        # all-blocking triple: 6 + 1 = 7
        h = extremal_graph(6, 2, 2)
        for t in range(3):
            assert h.degrees(1)[(t,)] == brute_degree(h.edges, (t,)) == 7

    def test_full_edge_membership(self):
        h = extremal_graph(6, 2, 2)
        assert h.degrees(3)[(0, 1, 2)] == 1
        assert h.degrees(3)[(3, 4, 5)] == 0

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_brute_force_count(self, data):
        # k = 2, 3, 4 with possibly isolated vertices and possibly no edges;
        # every size-set with a non-zero count is keyed, and no other is.
        k = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(0, 7))
        edges = data.draw(
            st.lists(st.sampled_from(list(combinations(range(n), k))), unique=True)
            if n >= k
            else st.just([])
        )
        h = Hypergraph(k, n, edges)
        for size in range(1, k):
            want = {
                sub: brute_degree(h.edges, sub)
                for sub in combinations(range(n), size)
                if brute_degree(h.edges, sub)
            }
            assert dict(h.degrees(size)) == want, size

    def test_empty_graph_has_no_degrees(self):
        for size in (1, 2):
            assert empty_hypergraph(3, 5).degrees(size) == {}
            assert Hypergraph(3, 0, []).degrees(size) == {}


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

    @pytest.mark.parametrize("n, size", [(1, 2), (0, 1), (0, 2)])
    def test_too_few_vertices(self, n, size):
        with pytest.raises(ValueError, match=f"need at least {size} vertices, got {n}"):
            Hypergraph(3, n, []).min_degree(size)

    def test_as_many_vertices_as_the_size(self):
        assert Hypergraph(3, 2, []).min_degree(2) == 0


class TestLink:
    """``PartiteHypergraph.link``: a class vertex's run, that vertex removed."""

    def test_complete_four(self):
        # complete_partite(1, 3) is the complete 4-graph on four vertices
        link = complete_partite(1, 3).link(0)
        assert type(link) is Hypergraph and link.k == 3 and link.n_vertices == 4
        assert link.edges == ((1, 2, 3),)

    def test_isolated_vertex_has_empty_link(self):
        pg = PartiteHypergraph(2, 3, [(1, 2, 3, 4)])
        assert pg.link(0).n_edges == 0
        assert pg.link(1).edges == ((2, 3, 4),)

    @pytest.mark.parametrize("u", [-1, 5])
    def test_vertex_out_of_range_rejected(self, u):
        # not an empty link: no such vertex exists
        with pytest.raises(ValueError, match="not a class vertex"):
            complete_partite(2, 3).link(u)

    @pytest.mark.parametrize("u", [2, 3, 4])
    def test_other_class_vertex_rejected(self, u):
        # not an empty link: such a vertex is no edge's least vertex, so
        # its run is empty although its degree is not
        with pytest.raises(ValueError, match="not a class vertex"):
            complete_partite(2, 3).link(u)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_link_equals_the_validated_remainders(self, data):
        # the link is built unchecked; the validating constructor must
        # accept its remainders and give the same graph
        q = data.draw(st.integers(min_value=1, max_value=3))
        p = data.draw(st.integers(min_value=3, max_value=6))
        sets = list(all_partite_four_sets(q, p))
        pg = PartiteHypergraph(q, p, data.draw(st.lists(st.sampled_from(sets), unique=True)))
        u = data.draw(st.integers(0, q - 1))
        remainders = [tuple(v for v in e if v != u) for e in pg.edges if u in e]
        assert pg.link(u) == Hypergraph(3, q + p, remainders)

    def test_link_size_matches_degree(self):
        rng = random.Random(11)
        for _ in range(20):
            pg = random_partite(rng, 3, 6, 0.4)
            deg = pg.degrees(1)
            for u in pg.q_vertices():
                assert pg.link(u).n_edges == deg[(u,)]


class TestLinkClasses:
    """``PartiteHypergraph._link_classes`` against pairwise equality of
    the class vertices' links."""

    @staticmethod
    def assert_partition(graph):
        got = list(graph._link_classes())
        links = [graph.link(u).edges for u in graph.q_vertices()]
        assert len(got) == graph.q_size
        for u, v in combinations(graph.q_vertices(), 2):
            assert (got[u] == got[v]) == (links[u] == links[v])
        # numbered by first appearance
        firsts = [h for i, h in enumerate(got) if h not in got[:i]]
        assert firsts == list(range(len(firsts)))
        return got, links

    @staticmethod
    def equal_lengths(rng, count):
        """Graphs whose class vertices mostly have runs of one length,
        drawn from few trios so that some links repeat and others only
        share the length; half of them leave class vertices edgeless."""
        for i in range(count):
            q, p = rng.randint(3, 7), rng.randint(4, 6)
            trios = rng.sample(list(combinations(range(q, q + p), 3)), 4)
            size = rng.randint(1, 2)
            edges = []
            for u in range(q):
                if i % 2 == 0 and rng.random() < 0.5:
                    continue
                edges += [(u,) + t for t in rng.sample(trios, size)]
            yield PartiteHypergraph(q, p, edges)

    @staticmethod
    def tight_closures():
        for n in (9, 12, 15, 18, 21):
            graph = extremal_partite(n)
            yield cover_closure(graph, min_fractional_cover(graph)[1]).graph

    def test_equals_pairwise_link_equality(self):
        rng = random.Random(36)
        graphs = [
            *repeated_families(rng, 30),
            *self.equal_lengths(rng, 30),
            *self.tight_closures(),
        ]
        repeated = same_length_apart = edgeless = 0
        for graph in graphs:
            got, links = self.assert_partition(graph)
            repeated += len(set(got)) < len(got)
            same_length_apart += any(
                len(a) == len(b) and a != b for a, b in combinations(links, 2)
            )
            edgeless += sum(not link for link in links) > 1
        assert len(graphs) >= 60
        assert min(repeated, same_length_apart, edgeless) >= 5

    def test_tight_closures_have_one_link(self):
        for graph in self.tight_closures():
            assert list(graph._link_classes()) == [0] * graph.q_size

    def test_unique_lengths_and_edgeless_vertices(self):
        # 0 and 3 are edgeless; 1 and 4 share a link; 2 has a length of
        # its own; 5 has 1's length and a link of its own
        graph = PartiteHypergraph(6, 5, [
            (1, 6, 7, 8), (4, 6, 7, 8),
            (2, 6, 7, 9), (2, 6, 7, 10),
            (5, 6, 7, 9),
        ])
        assert list(graph._link_classes()) == [0, 1, 2, 0, 1, 3]
        assert list(PartiteHypergraph(0, 3, [])._link_classes()) == []

    def test_shift_and_partite_search_read_it_once_per_call(self, monkeypatch):
        calls = []
        real = PartiteHypergraph._link_classes

        def counting(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(PartiteHypergraph, "_link_classes", counting)
        graph = extremal_partite(9)
        closure = cover_closure(graph, min_fractional_cover(graph)[1])
        _, trace = stable_shift(closure, extremal_adjacent_degree_sum(9))
        assert trace.steps and calls == [closure.graph]
        calls.clear()
        assert partite_perfect_matching(graph) is None
        assert calls == [graph]


class TestAdjacency:
    def test_complete(self):
        h = complete_hypergraph(3, 5)
        assert h.degrees(2)[(0, 4)] > 0

    def test_empty(self):
        assert empty_hypergraph(3, 5).degrees(2)[(0, 4)] == 0

    def test_outside_vertices_never_adjacent(self):
        # every edge has at most one vertex outside the blocking set
        h = extremal_graph(6, 2, 2)
        for u, v in combinations(range(3, 6), 2):
            assert h.degrees(2)[(u, v)] == 0
            assert brute_degree(h.edges, (u, v)) == 0


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

    def test_two_graph_pairs_are_adjacent_through_their_edges(self):
        # path 0-1-2: degrees 1, 2, 1; {0, 2} is the only non-adjacent pair
        stats = Hypergraph(2, 3, [(0, 1), (1, 2)]).degree_sum_minima()
        assert stats.adjacent == 3
        assert stats.all_pairs == 2
        assert stats.nonadjacent == 2


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
        deg = h.degrees(1)
        assert sum(deg[(v,)] for v in range(h.n_vertices)) == 3 * h.n_edges

    @settings(max_examples=60, deadline=None)
    @given(small_hypergraphs(), st.data())
    def test_monotonicity(self, h, data):
        sub = data.draw(
            st.lists(
                st.integers(0, h.n_vertices - 1), unique=True, min_size=1, max_size=3
            )
        )
        smaller = tuple(sorted(sub[:-1]))
        sub = tuple(sorted(sub))
        assert h.degrees(len(smaller))[smaller] >= h.degrees(len(sub))[sub]

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
        # one table per size, from the empty set to k-sets
        rng = random.Random(k)
        n = 8
        h = Hypergraph(
            k, n, [e for e in combinations(range(n), k) if rng.random() < 0.4]
        )
        for size in range(k + 1):
            table = h.degrees(size)
            for sub in combinations(range(n), size):
                assert table[sub] == brute_degree(h.edges, sub), sub

    @settings(max_examples=40, deadline=None)
    @given(small_hypergraphs(), st.data())
    def test_degree_matches_oracle(self, h, data):
        sub = tuple(sorted(data.draw(
            st.lists(
                st.integers(0, h.n_vertices - 1), unique=True, max_size=3
            )
        )))
        assert h.degrees(len(sub))[sub] == brute_degree(h.edges, sub)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        h = extremal_graph(9, 3, 2)
        again = load_instance(json.loads(canonical_json(h.to_dict())))
        assert again == h
        assert canonical_json(again.to_dict()) == canonical_json(h.to_dict())

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
