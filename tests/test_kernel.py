"""Exact ``(status, picks, nodes)`` of the search kernel on fixed inputs.

Candidate order and node accounting are part of the kernel's contract:
witnesses, experiment digests and the benchmark's node counts follow
from them, so any change to either shows here.
"""

from __future__ import annotations

import pytest

from rainbow_lab import kernel
from rainbow_lab.constructions import complete_partite, extremal_graph, extremal_partite
from rainbow_lab.solvers import edge_mask


def masks_of(graph):
    return [edge_mask(e) for e in graph.edges]


def test_exact_cover_refutes_tight_partite():
    h = extremal_partite(9).as_hypergraph()
    assert kernel.exact_cover(masks_of(h), h.n_vertices) == (kernel.NONE, None, 210)


def test_rainbow_search_refutes_tight_family():
    g = extremal_graph(9, 3, 2)
    assert kernel.rainbow_search([masks_of(g)] * 3) == (kernel.NONE, None, 2550)


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
    h = complete_partite(6, 18).as_hypergraph()
    assert kernel.exact_cover(masks_of(h), h.n_vertices) == (
        kernel.FOUND,
        [0, 1177, 2228, 3180, 4060, 4895],
        6,
    )
