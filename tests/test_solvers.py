"""Exact solvers against brute-force enumeration oracles."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbow_lab import kernel, solvers
from rainbow_lab.constructions import (
    HypergraphFamily,
    PartiteHypergraph,
    extremal_graph,
    extremal_partite,
    family_to_partite,
)
from rainbow_lab.fractional import min_fractional_cover
from rainbow_lab.hypergraph import Hypergraph, complete_hypergraph, empty_hypergraph
from rainbow_lab.solvers import (
    Matching,
    RainbowMatching,
    SolverTimeout,
    cover_refutation,
    has_perfect_matching,
    is_matching_of,
    is_perfect_matching_of,
    max_matching,
    partite_perfect_matching,
    rainbow_matching,
)

from _oracles import (
    all_partite_four_sets,
    brute_max_matching_size,
    brute_pm_exists,
    brute_rainbow_exists,
    parity_family,
    random_3graph,
    repeated_families,
)


def tight_family(n):
    return HypergraphFamily(n, (extremal_graph(n, n // 3, 2),) * (n // 3))


class TestTypes:
    def test_matching_rejects_overlap(self):
        with pytest.raises(ValueError):
            Matching(edges=((0, 1, 2), (2, 3, 4)))

    def test_rainbow_rejects_repeated_color(self):
        with pytest.raises(ValueError):
            RainbowMatching(pairs=((0, (0, 1, 2)), (0, (3, 4, 5))))


class TestMatchingCheck:
    GRAPH = Hypergraph(3, 9, [(0, 1, 2), (0, 1, 4), (3, 4, 5), (6, 7, 8)])

    def test_membership(self):
        assert is_matching_of(self.GRAPH, Matching(edges=((0, 1, 2), (3, 4, 5))))
        # (0, 1, 3) sorts between two edges of the graph.
        assert not is_matching_of(self.GRAPH, Matching(edges=((0, 1, 3), (6, 7, 8))))
        assert not is_matching_of(complete_hypergraph(3, 6), Matching(edges=((2, 1, 0),)))

    def test_perfect_needs_every_vertex(self):
        m = Matching(edges=((0, 1, 2), (3, 4, 5)))
        assert not is_perfect_matching_of(self.GRAPH, m)
        assert is_perfect_matching_of(self.GRAPH, Matching(edges=m.edges + ((6, 7, 8),)))


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
        assert is_matching_of(h, m)

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
        assert found and is_perfect_matching_of(complete_hypergraph(3, 6), pm)

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
                assert is_perfect_matching_of(h, pm)


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

    def test_overfull_family_answered_without_search(self):
        # 3t > n: no room for t disjoint triples, however dense the members.
        fam = HypergraphFamily(15, (complete_hypergraph(3, 15),) * 6)
        start = time.monotonic()
        assert rainbow_matching(fam) is None
        assert time.monotonic() - start < 1.0

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

    def test_tight_partite_blocked_at_eighteen(self):
        assert partite_perfect_matching(extremal_partite(18)) is None

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


class TestTwinClasses:
    """``_twin_classes`` and the search keyed modulo twins."""

    def test_grouped_search_agrees_with_the_plain_one(self):
        seen = set()
        for graph in repeated_families(random.Random(34), 80):
            twins = solvers._twin_classes(graph)
            masks = [sum(1 << v for v in e) for e in graph.edges]
            plain = kernel.exact_cover(masks, graph.n_vertices)
            grouped = kernel.exact_cover(masks, graph.n_vertices, groups=twins)
            assert grouped[:2] == plain[:2]
            assert grouped[2] <= plain[2]
            pm = partite_perfect_matching(graph)
            assert pm == has_perfect_matching(graph)[1]
            seen.add((bool(twins), plain[0], grouped[2] < plain[2]))
        # Twins and none, with and without a saving; twins and found;
        # no twins and both answers.
        assert {
            (True, kernel.NONE, True),
            (True, kernel.NONE, False),
            (True, kernel.FOUND, False),
            (False, kernel.NONE, False),
            (False, kernel.FOUND, False),
        } <= seen

    def test_every_swap_is_an_automorphism(self):
        edges_seen = 0
        for graph in repeated_families(random.Random(35), 40):
            edges = set(graph.edges)
            for group in solvers._twin_classes(graph):
                members = [u for u in graph.q_vertices() if group >> u & 1]
                assert len(members) >= 2
                for u, v in combinations(members, 2):
                    swap = {u: v, v: u}
                    image = {tuple(sorted(swap.get(x, x) for x in e)) for e in edges}
                    assert image == edges
                    edges_seen += len(edges)
        assert edges_seen

    def test_groups_are_the_classes_of_equal_links(self):
        # Class vertices 0 and 2 share a link; 1 and 3 have links of the
        # same length that differ from it and from each other; 4 and 5
        # share a shorter one.
        q = 6
        links = {
            0: [(6, 7, 8), (6, 7, 9)],
            1: [(6, 7, 8), (6, 7, 10)],
            2: [(6, 7, 8), (6, 7, 9)],
            3: [(6, 7, 9), (6, 7, 10)],
            4: [(6, 7, 8)],
            5: [(6, 7, 8)],
        }
        graph = PartiteHypergraph(q, 3 * q, [(u,) + e for u, es in links.items() for e in es])
        assert sorted(solvers._twin_classes(graph)) == [0b000101, 0b110000]

    def test_equal_length_different_links_form_no_group(self):
        graph = PartiteHypergraph(2, 6, [(0, 2, 3, 4), (1, 2, 3, 5)])
        assert solvers._twin_classes(graph) == []

    def test_partite_search_passes_its_twins(self, monkeypatch):
        calls = []
        real = kernel.exact_cover

        def spy(*args, **kwargs):
            calls.append(kwargs["groups"])
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel, "exact_cover", spy)
        assert partite_perfect_matching(extremal_partite(12)) is None
        assert has_perfect_matching(extremal_partite(12)) == (False, None)
        assert calls == [[0b1111], ()]


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
        with pytest.raises(SolverTimeout):
            rainbow_matching(parity_family(), node_budget=50)

    def test_deadline_stops_rainbow_refutation(self):
        start = time.monotonic()
        with pytest.raises(SolverTimeout):
            rainbow_matching(parity_family(), timeout=1e-3)
        assert time.monotonic() - start < 0.5

    def test_certificate_spends_no_nodes(self):
        assert rainbow_matching(tight_family(12), node_budget=50) is None

    def test_deadline_stops_cover_refutation(self):
        # No prefix covers the parity barrier; without the deadline the
        # LP would answer.
        start = time.monotonic()
        with pytest.raises(SolverTimeout):
            cover_refutation(parity_family(18), timeout=1e-3)
        assert time.monotonic() - start < 0.5

    def test_deadline_stops_partite_refutation(self):
        # Without a deadline: 339,456 nodes in about 0.4 s, the seven
        # class vertices being twins (about 9.3M nodes without them).
        # The first deadline poll comes at 4,096 nodes, past 1 ms.
        start = time.monotonic()
        with pytest.raises(SolverTimeout):
            partite_perfect_matching(extremal_partite(21), timeout=1e-3)
        assert time.monotonic() - start < 0.5

    def test_budget_exhaustion_max_matching(self):
        h = complete_hypergraph(3, 12)
        with pytest.raises(SolverTimeout):
            max_matching(h, node_budget=10)

    def test_abort_names_the_deadline(self, monkeypatch):
        with pytest.raises(SolverTimeout, match="perfect-matching search exceeded its deadline"):
            has_perfect_matching(extremal_partite(21), timeout=1e-3)
        # a probe stopped short of its budget: only the deadline does that
        monkeypatch.setattr(
            kernel, "rainbow_search", lambda *a, **k: (kernel.ABORTED, None, 4096)
        )
        with pytest.raises(SolverTimeout, match="rainbow search exceeded its deadline"):
            rainbow_matching(tight_family(12), timeout=30.0)

    def test_abort_names_the_deadline_under_an_unspent_budget(self):
        # A budget is set but not reached: the deadline stopped the search.
        with pytest.raises(SolverTimeout, match="perfect-matching search exceeded its deadline"):
            has_perfect_matching(extremal_partite(21), timeout=1e-3, node_budget=10**9)

    def test_abort_names_the_budget(self):
        with pytest.raises(SolverTimeout, match="perfect-matching search exceeded its budget"):
            has_perfect_matching(extremal_partite(21), node_budget=1)
        with pytest.raises(SolverTimeout, match="rainbow search exceeded its budget"):
            rainbow_matching(parity_family(), node_budget=50)
        with pytest.raises(SolverTimeout, match="maximum-matching search exceeded its budget"):
            max_matching(complete_hypergraph(3, 12), node_budget=10)


@st.composite
def graphs_and_vertex_sets(draw):
    """A random 3-graph or partite 4-graph, and a vertex set of it (in
    any order, of any size, empty and full included)."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 9))
        edges = draw(st.lists(st.sampled_from(list(combinations(range(n), 3))), unique=True))
        graph = Hypergraph(3, n, edges)
    else:
        q, p = draw(st.integers(1, 3)), draw(st.integers(3, 9))
        edges = draw(st.lists(st.sampled_from(list(all_partite_four_sets(q, p))), unique=True))
        graph = PartiteHypergraph(q, p, edges)
    everything = list(range(graph.n_vertices))
    vertices = draw(st.one_of(st.just(everything), st.sets(st.sampled_from(everything))))
    return graph, draw(st.permutations(sorted(vertices)))


class TestInducedSubproblems:
    """The solvers on ``vertices`` against ``Hypergraph.induced``."""

    @settings(max_examples=300, deadline=None)
    @given(graphs_and_vertex_sets())
    @example((complete_hypergraph(3, 6), []))
    @example((complete_hypergraph(3, 6), range(6)))
    @example((complete_hypergraph(3, 7), [6, 0, 1, 2, 3]))
    def test_same_edges_in_the_same_order_as_the_induced_graph(self, case):
        graph, vertices = case
        sub, ids = graph.induced(vertices)

        def back(matching):
            return tuple(tuple(ids[v] for v in e) for e in matching.edges)

        found, pm = has_perfect_matching(sub)
        got_found, got_pm = has_perfect_matching(graph, vertices=vertices)
        assert got_found == found
        assert (got_pm and got_pm.edges) == (pm and back(pm))
        assert max_matching(graph, vertices=vertices).edges == back(max_matching(sub))

    def test_runs_of_the_kept_vertices_only(self):
        # (0, 3, 4) and (2, 3, 4) have their least vertex outside the set
        # and the rest inside; (1, 2, 3) its least vertex inside and
        # another outside; 4 and 5 are kept but no edge starts at either.
        graph = Hypergraph(3, 6, [
            (0, 1, 3), (0, 3, 4), (1, 2, 3), (1, 3, 4), (1, 3, 5), (2, 3, 4), (3, 4, 5),
        ])
        edges, masks, n = solvers._subproblem(graph, [5, 4, 3, 1])
        assert list(edges) == [(1, 3, 4), (1, 3, 5), (3, 4, 5)]
        assert masks == [0b0111, 0b1011, 0b1110] and n == 4
        edges, masks, n = solvers._subproblem(graph, [4, 5])
        assert list(edges) == [] and masks == [] and n == 2

    @pytest.mark.parametrize("vertices", [[0, 0, 1], [-1, 0, 1], [0, 1, 6]])
    def test_bad_vertex_set_rejected(self, vertices):
        graph = complete_hypergraph(3, 6)
        with pytest.raises(ValueError):
            has_perfect_matching(graph, vertices=vertices)
        with pytest.raises(ValueError):
            max_matching(graph, vertices=vertices)


def integer_cover_check(family, cover) -> bool:
    """The cover's weights as integers over one denominator L: each in
    [0, L], each edge of the partite graph at least L, the sum below t*L."""
    graph = family_to_partite(family)
    weights = [Fraction(cover.weights.get(v, 0)) for v in range(graph.n_vertices)]
    scale = 1
    for w in weights:
        scale = scale * w.denominator // gcd(scale, w.denominator)
    y = [w.numerator * scale // w.denominator for w in weights]
    t = len(family.members)
    return (
        min(y) >= 0
        and max(y) <= scale
        and all(y[a] + y[b] + y[c] + y[d] >= scale for a, b, c, d in graph.edges)
        and sum(y) < t * scale
    )


def dropped_copies(n, seed):
    """n/3 copies of the tight member, each missing about 5% of its edges."""
    rng = random.Random(seed)
    member = extremal_graph(n, n // 3, 2)
    return HypergraphFamily(
        n,
        tuple(
            Hypergraph(3, n, [e for e in member.edges if rng.random() >= 0.05])
            for _ in range(n // 3)
        ),
    )


class TestCoverRefutation:
    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("n", [12, 15, 18])
    def test_space_barrier_is_certified_by_a_prefix(self, monkeypatch, n, ell):
        # every edge has ell vertices in a set of t * ell - 1
        t = n // 3
        fam = HypergraphFamily(n, (extremal_graph(n, t, ell),) * t)
        monkeypatch.setattr(solvers, "min_fractional_cover", forbidden)
        cover = cover_refutation(fam)
        assert cover is not None and cover.value() == Fraction(t * ell - 1, ell)
        assert integer_cover_check(fam, cover)

    @pytest.mark.parametrize("n", [12, 15, 18])
    def test_tight_family_is_certified(self, n):
        fam = tight_family(n)
        cover = cover_refutation(fam)
        assert cover is not None and cover.value() == Fraction(2 * (n // 3) - 1, 2)
        assert integer_cover_check(fam, cover)
        assert rainbow_matching(fam) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_dropped_copies_are_certified(self, seed):
        fam = dropped_copies(12, seed)
        cover = cover_refutation(fam)
        assert cover is not None and integer_cover_check(fam, cover)
        # the prefix cover is optimal here, though it need not be
        assert cover.value() == min_fractional_cover(family_to_partite(fam))[0]
        assert rainbow_matching(fam) is None

    def test_no_cover_below_t_on_parity_barrier(self):
        assert cover_refutation(parity_family()) is None
        assert rainbow_matching(parity_family()) is None

    def test_parity_barrier_searched_in_full_at_fifteen(self):
        assert cover_refutation(parity_family(15)) is None
        assert rainbow_matching(parity_family(15)) is None

    def test_sound_against_oracle(self):
        rng = random.Random(13)
        prefixed = certified = refuted = 0
        for trial in range(320):
            n, t = (6, 2) if trial % 2 else (9, 3)
            fam = HypergraphFamily(
                n,
                tuple(random_3graph(rng, n, rng.uniform(0.05, 0.5)) for _ in range(t)),
            )
            exists = brute_rainbow_exists([m.edges for m in fam.members])
            cover = cover_refutation(fam)
            if cover is not None:
                assert not exists
                assert integer_cover_check(fam, cover)
                certified += 1
            if solvers._prefix_cover(family_to_partite(fam)) is not None:
                assert not exists
                prefixed += 1
            refuted += not exists
            assert (rainbow_matching(fam) is not None) == exists
            # A one-node probe leaves the answer to the certificate.
            try:
                rm = rainbow_matching(fam, node_budget=1)
            except SolverTimeout:
                assert cover is None
            else:
                assert (rm is not None) == exists
        # Every kind of none occurs: certified by a prefix, by the LP
        # only, and integrality gaps.
        assert 0 < prefixed < certified < refuted


def forbidden(*args, **kwargs):
    raise AssertionError("this stage must not run")


class TestRainbowStages:
    """Probe, then the cover certificate, then the full search."""

    def record_budgets(self, monkeypatch):
        budgets = []
        search = kernel.rainbow_search

        def recording(color_masks, node_budget=0, deadline=0.0):
            budgets.append(node_budget)
            return search(color_masks, node_budget=node_budget, deadline=deadline)

        monkeypatch.setattr(kernel, "rainbow_search", recording)
        return budgets

    def test_found_instance_decided_by_probe(self, monkeypatch):
        budgets = self.record_budgets(monkeypatch)
        monkeypatch.setattr(solvers, "cover_refutation", forbidden)
        fam = HypergraphFamily(9, (complete_hypergraph(3, 9),) * 3)
        assert rainbow_matching(fam) is not None
        assert budgets == [solvers.PROBE_NODES_PER_EDGE * 3 * 84]

    def test_uncertified_refutation_searched_in_full(self, monkeypatch):
        budgets = self.record_budgets(monkeypatch)
        assert rainbow_matching(parity_family()) is None
        assert budgets == [solvers.PROBE_NODES_PER_EDGE * 4 * 105, 0]

    def test_caller_budget_caps_the_probe_and_is_not_spent_twice(self, monkeypatch):
        budgets = self.record_budgets(monkeypatch)
        with pytest.raises(SolverTimeout):
            rainbow_matching(parity_family(), node_budget=50)
        assert budgets == [50]

    def test_edgeless_family_gets_a_bounded_probe(self, monkeypatch):
        budgets = self.record_budgets(monkeypatch)
        fam = HypergraphFamily(6, (empty_hypergraph(3, 6),) * 2)
        assert rainbow_matching(fam) is None
        assert budgets == [1]

    def test_certificate_gets_the_time_left(self, monkeypatch):
        timeouts = []

        def recording(family, timeout):
            timeouts.append(timeout)
            return cover_refutation(family, timeout)

        monkeypatch.setattr(solvers, "cover_refutation", recording)
        assert rainbow_matching(tight_family(12), timeout=30.0) is None
        assert rainbow_matching(tight_family(12), timeout=None) is None
        assert 0 < timeouts[0] <= 30.0 and timeouts[1] is None

    def test_no_time_left_skips_the_lp(self, monkeypatch):
        def slow_probe(color_masks, node_budget=0, deadline=0.0):
            while time.monotonic() <= deadline:
                time.sleep(1e-3)
            return kernel.ABORTED, None, node_budget

        monkeypatch.setattr(kernel, "rainbow_search", slow_probe)
        monkeypatch.setattr(solvers, "min_fractional_cover", forbidden)
        with pytest.raises(SolverTimeout):
            rainbow_matching(tight_family(12), timeout=0.01)

    def test_probe_stopped_by_deadline_raises(self, monkeypatch):
        monkeypatch.setattr(
            kernel, "rainbow_search", lambda *a, **k: (kernel.ABORTED, None, 4096)
        )
        monkeypatch.setattr(solvers, "min_fractional_cover", forbidden)
        with pytest.raises(SolverTimeout):
            rainbow_matching(tight_family(12), timeout=30.0)
