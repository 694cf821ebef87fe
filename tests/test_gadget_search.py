"""Pinned witnesses and node accounting of the gadget search.

Each sparse case is a seeded sparse family of eight 3-graphs on 24
vertices, reduced by ``family_to_partite``, with a random balanced target
and the candidates from ``popular_vertices``.  The pins hold the gadget's
digest (None when no gadget exists) and the smallest deciding
``node_budget`` N: the search decides with N nodes and raises
``SolverTimeout`` with N - 1.  Every case that finds a gadget backtracks
inside the bridge search, and the last case exhausts the search, so a
change to the search order or to where a node is counted moves a pin.

The dense cases find their gadget in 7 nodes, one rewire order and one
pick per bridge, without backtracking.  There every bridge has hundreds of
candidates, so the witness shows the order in which they are tried: on
the seeded dense family, ordering them by slot alone, without the count
of the other bridges' candidates they share a vertex with, moves the
digest.
"""

from __future__ import annotations

import random

import pytest

from rainbow_lab.absorbing import build_gadget, popular_vertices
from rainbow_lab.constructions import complete_partite, family_to_partite
from rainbow_lab.experiments import random_family
from rainbow_lab.jsonio import matching_obj, sha256_of
from rainbow_lab.solvers import SolverTimeout

# (seed, edge probability, candidates kept or None for all, N, digest)
PINS = [
    (8, 0.06, None, 13, "304c040832d6639a7464f2bb32cd26a372df8cb30f968cb33d125b84c924fffe"),
    (2, 0.06, None, 55, "37ebc3ed29efb8cba5c9358bf03f95cac168ba3751985d2845f63afba1a0cddb"),
    (1, 0.06, None, 143, "5d6945459d33ac5036dd36304c9aa4e8e3f949620ce22acb7fff9176f237eb61"),
    (2, 0.04, None, 236, "9bdb207b0268654adb4af4cadee4c8e9fd0383237c9b8e582d8e4c0a619282c4"),
    (5, 0.06, None, 289, "573a7306dd2376066c76538e1e2b6c959c4b5937539a23464429477d10ef9fea"),
    (6, 0.02, 3, 396, None),
]


def complete_case():
    graph = complete_partite(8, 24)
    return (0, 8, 9, 10), graph, graph.p_vertices()


def dense_seeded_case():
    family = random_family(random.Random(11), 24, 8, 0.75)
    candidates = [v + 8 for v in popular_vertices(family, 1)]
    return (3, 9, 17, 30), family_to_partite(family), candidates


# (case, N, digest)
DENSE_PINS = [
    (complete_case, 7, "db792236ca9ba1bb78770ab1aa07830eae5ff3c21aa27e8f144bf4310507c609"),
    (dense_seeded_case, 7, "7985eabe35d2f15ecd61f177bb507eb78487ddb64a29c21d8a2a275b06c9c701"),
]


def seeded_case(seed, prob, kept):
    rng = random.Random(seed)
    family = random_family(rng, 24, 8, prob)
    target = [rng.randrange(8)] + sorted(rng.sample(range(8, 32), 3))
    candidates = [v + 8 for v in popular_vertices(family, 1)][:kept]
    return target, family_to_partite(family), candidates


def gadget_digest(gadget):
    if gadget is None:
        return None
    return sha256_of(
        {
            "target": list(gadget.target.vertices()),
            "body": list(gadget.body.vertices()),
            "pm_body": matching_obj(gadget.pm_body),
            "pm_joint": matching_obj(gadget.pm_joint),
        }
    )


def check_pin(case, nodes, digest):
    target, graph, candidates = case
    gadget = build_gadget(target, graph, candidates, node_budget=nodes, timeout=None)
    assert gadget_digest(gadget) == digest
    with pytest.raises(SolverTimeout, match=f"exceeded {nodes - 1} nodes"):
        build_gadget(target, graph, candidates, node_budget=nodes - 1, timeout=None)


@pytest.mark.parametrize("seed, prob, kept, nodes, digest", PINS)
def test_witness_and_smallest_deciding_budget(seed, prob, kept, nodes, digest):
    check_pin(seeded_case(seed, prob, kept), nodes, digest)


@pytest.mark.parametrize("case, nodes, digest", DENSE_PINS, ids=["complete", "seeded"])
def test_dense_witness_and_smallest_deciding_budget(case, nodes, digest):
    check_pin(case(), nodes, digest)


def test_long_search_is_stopped_by_its_budget():
    # Seed 3 at p = 0.06 is undecided after 3,000 nodes.  Each vertex's
    # row is tested once per free pair in a call, so those nodes take
    # tens of milliseconds, well under the deadline, and the budget
    # names the stop.
    target, graph, candidates = seeded_case(3, 0.06, None)
    with pytest.raises(SolverTimeout, match="exceeded 3000 nodes"):
        build_gadget(target, graph, candidates, node_budget=3000, timeout=30)
