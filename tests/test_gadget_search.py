"""Pinned witnesses and node accounting of the gadget search.

Each case is a seeded sparse family of eight 3-graphs on 24 vertices,
reduced by ``family_to_partite``, with a random balanced target and the
candidates from ``popular_vertices``.  The pins hold the gadget's digest
(None when no gadget exists) and the smallest deciding ``node_budget``
N: the search decides with N nodes and raises ``SolverTimeout`` with
N - 1.  Every case that finds a gadget backtracks inside the bridge
search, and the last case exhausts the search, so a change to the
search order or to where a node is counted moves a pin.
"""

from __future__ import annotations

import random

import pytest

from rainbow_lab.absorbing import build_gadget, popular_vertices
from rainbow_lab.constructions import family_to_partite
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


@pytest.mark.parametrize("seed, prob, kept, nodes, digest", PINS)
def test_witness_and_smallest_deciding_budget(seed, prob, kept, nodes, digest):
    target, graph, candidates = seeded_case(seed, prob, kept)
    gadget = build_gadget(target, graph, candidates, node_budget=nodes, timeout=None)
    assert gadget_digest(gadget) == digest
    with pytest.raises(SolverTimeout, match=f"exceeded {nodes - 1} nodes"):
        build_gadget(target, graph, candidates, node_budget=nodes - 1, timeout=None)


def test_long_search_is_stopped_by_its_budget():
    # Seed 3 at p = 0.06 is undecided after 3,000 nodes.  Each bridge's
    # candidates are computed once per rewire edge, so those nodes take
    # well under the deadline, and the budget names the stop.
    target, graph, candidates = seeded_case(3, 0.06, None)
    with pytest.raises(SolverTimeout, match="exceeded 3000 nodes"):
        build_gadget(target, graph, candidates, node_budget=3000, timeout=30)
