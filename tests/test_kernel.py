"""Exact ``(status, picks, nodes)`` of the search kernel.

Candidate order and node accounting are part of the kernel's contract:
witnesses, experiment digests and the benchmark's node counts follow
from them, so any change to either shows here.  Fixed inputs are pinned.
The reference kernel in ``_oracles`` specifies the search tree; the
kernel scans it minus the subtrees in its dead-end table, so on random
inputs it must give the reference's status and picks in at most the
reference's nodes, and abort only where the reference aborts too.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbow_lab import kernel
from rainbow_lab.constructions import complete_partite, extremal_graph, extremal_partite
from rainbow_lab.hypergraph import Hypergraph

from _oracles import scalar_exact_cover, scalar_rainbow_search


def edge_mask(edge):
    return sum(1 << v for v in edge)


def masks_of(graph):
    return [edge_mask(e) for e in graph.edges]


def test_exact_cover_refutes_tight_partite():
    h = extremal_partite(9)
    assert kernel.exact_cover(masks_of(h), h.n_vertices) == (kernel.NONE, None, 210)


def test_exact_cover_refutes_tight_partite_twelve():
    h = extremal_partite(12)
    assert kernel.exact_cover(masks_of(h), h.n_vertices) == (kernel.NONE, None, 3864)


@pytest.mark.parametrize("n, nodes", [(9, 90), (12, 924)])
def test_exact_cover_refutes_tight_partite_modulo_twins(n, nodes):
    # The n/3 class vertices are all twins: one group.
    h = extremal_partite(n)
    twins = [(1 << h.q_size) - 1]
    got = kernel.exact_cover(masks_of(h), h.n_vertices, groups=twins)
    assert got == (kernel.NONE, None, nodes)


def test_exact_cover_modulo_twins_keeps_the_witness():
    h = complete_partite(6, 18)
    got = kernel.exact_cover(masks_of(h), h.n_vertices, groups=[0b111111])
    assert got == (kernel.FOUND, [0, 1177, 2228, 3180, 4060, 4895], 6)


def test_rainbow_search_refutes_tight_family():
    g = extremal_graph(9, 3, 2)
    assert kernel.rainbow_search([masks_of(g)] * 3) == (kernel.NONE, None, 2550)


def test_rainbow_search_refutes_tight_family_twelve():
    g = extremal_graph(12, 4, 2)
    assert kernel.rainbow_search([masks_of(g)] * 4) == (kernel.NONE, None, 83440)


def test_rainbow_search_refutes_parity_barrier():
    # Every triple meets A = {0..4} in 0 or 2 vertices, so 4 disjoint
    # ones cannot cover the odd set A.
    a = set(range(5))
    g = Hypergraph(
        3, 12, [e for e in combinations(range(12), 3) if len(a & set(e)) in (0, 2)]
    )
    assert kernel.rainbow_search([masks_of(g)] * 4) == (kernel.NONE, None, 59640)


def test_rainbow_search_finds_after_backtracking():
    # Three tight members leave a matching of size 3 that must also miss
    # the fourth member's only edge.
    colors = [masks_of(extremal_graph(12, 4, 1))] * 3
    colors.append(masks_of(Hypergraph(3, 12, [(3, 4, 5)])))
    assert kernel.rainbow_search(colors) == (kernel.FOUND, [40, 94, 135, 0], 1905)


def test_rainbow_search_keys_dead_ends_by_level():
    # Edges of mixed sizes reach {0, 1, 3} twice: once with color 2 still
    # to place and no room for it, once with every color placed.
    colors = [[0b1, 0b1000], [0b1, 0b1010], [0b10]]
    assert kernel.rainbow_search(colors) == (kernel.FOUND, [1, 0, 0], 6)


def test_rainbow_search_without_colors():
    assert kernel.rainbow_search([]) == (kernel.FOUND, [], 0)


@pytest.mark.parametrize(
    "ell, picks, nodes", [(1, [19, 79, 126], 242843), (2, [0, 108, 136], 320127)]
)
def test_max_disjoint_edges_on_tight_graph(ell, picks, nodes):
    g = extremal_graph(12, 4, ell)
    assert kernel.max_disjoint_edges(masks_of(g), 3, g.n_vertices) == (
        kernel.FOUND,
        picks,
        nodes,
    )


def test_exact_cover_finds_complete_partite():
    h = complete_partite(6, 18)
    assert kernel.exact_cover(masks_of(h), h.n_vertices) == (
        kernel.FOUND,
        [0, 1177, 2228, 3180, 4060, 4895],
        6,
    )


def test_exact_cover_rejects_vertex_outside_range():
    with pytest.raises(ValueError):
        kernel.exact_cover([0b111, 0b1000], 3)


# -- agreement with the reference kernel -------------------------------------


def random_masks(rng, n):
    """Edges of one size on ``n`` vertices, each kept with a random density."""
    size = rng.randint(2, min(4, n))
    density = rng.uniform(0.1, 0.7)
    return [edge_mask(e) for e in combinations(range(n), size) if rng.random() < density]


# Hypothesis draws small values from a range far more often than large
# ones, so drawing n, the edge size and the density directly gives
# mostly near-empty inputs.  Only a seed is drawn; the shape of the
# input comes from a uniform stream, and empty and tiny inputs are
# explicit examples.
seeds = st.integers(0, 2**32 - 1).map(random.Random)
budgets = st.one_of(st.sampled_from([0, 1]), st.integers(2, 2000))


@st.composite
def rainbow_inputs(draw):
    rng = draw(seeds)
    n = rng.randint(3, 12)
    colors = [random_masks(rng, n) for _ in range(rng.randint(1, 4))]
    return colors, draw(budgets)


@st.composite
def cover_inputs(draw):
    rng = draw(seeds)
    n = rng.randint(3, 12)
    return random_masks(rng, n), n, draw(budgets)


def assert_agrees(got, reference, budget):
    """``got`` scans the reference's tree minus known dead ends."""
    status, picks, nodes = got
    if reference[0] != kernel.ABORTED:
        assert (status, picks) == reference[:2]
        assert nodes <= reference[2]
    if status == kernel.ABORTED:
        assert reference[0] == kernel.ABORTED
        assert nodes == budget


@settings(max_examples=500, deadline=None)
@given(rainbow_inputs())
@example(([], 0))
@example(([[]], 0))
@example(([[0b1], [0b10]], 1))
@example(([[0b111], [0b111]], 0))
def test_rainbow_search_matches_reference(case):
    colors, budget = case
    got = kernel.rainbow_search(colors, node_budget=budget)
    assert_agrees(got, scalar_rainbow_search(colors, node_budget=budget), budget)


@settings(max_examples=500, deadline=None)
@given(cover_inputs())
@example(([], 0, 0))
@example(([], 3, 0))
@example(([0b1, 0b10], 2, 0))
@example(([0b11, 0b110], 3, 1))
def test_exact_cover_matches_reference(case):
    masks, n, budget = case
    got = kernel.exact_cover(masks, n, node_budget=budget)
    assert_agrees(got, scalar_exact_cover(masks, n, node_budget=budget), budget)
