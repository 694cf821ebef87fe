"""One cover check: ``FractionalCover.scaled`` decides for every caller.

``is_feasible``, ``cover_closure`` and ``cover_refutation`` all read
the same integer check, so on any cover they agree with each other and
with the Fraction definition in ``_oracles.fraction_is_cover``.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction

import pytest

from rainbow_lab import solvers
from rainbow_lab.cli import EXIT_CRASH, main
from rainbow_lab.constructions import (
    PartiteHypergraph,
    complete_partite,
    family_to_partite,
)
from rainbow_lab.fractional import FractionalCover
from rainbow_lab.jsonio import canonical_json
from rainbow_lab.shift import cover_closure
from rainbow_lab.solvers import cover_refutation

from _oracles import all_partite_four_sets, fraction_is_cover, parity_family

CLEAN, OFF_GRAPH, OUT_OF_UNIT, UNDER_COVERED = range(4)


def seeded_cover(seed):
    """A partite graph and a sparse cover over it, with one kind of fault.

    Every vertex has a weight with probability 0.7; the graph keeps
    about half of the 4-sets the cover weighs to at least 1.  The fault
    (by ``seed % 4``) is none, a weight on an id outside the graph, a
    weight outside [0, 1], or one edge the cover weighs below 1.
    """
    rng = random.Random(seed)
    q, p = rng.randint(1, 3), rng.randint(3, 7)
    n = q + p
    den = rng.randint(1, 6)
    w = {v: Fraction(rng.randint(0, den), den) for v in range(n) if rng.random() < 0.7}

    def weight(f):
        return sum(w.get(v, 0) for v in f)

    four_sets = list(all_partite_four_sets(q, p))
    edges = [f for f in four_sets if weight(f) >= 1 and rng.random() < 0.5]
    fault = seed % 4
    if fault == OFF_GRAPH:
        w[rng.choice([-1, n, n + 5])] = Fraction(1, 2)
    elif fault == OUT_OF_UNIT:
        w[rng.randrange(n)] = rng.choice([Fraction(-1, den), Fraction(den + 1, den)])
    elif fault == UNDER_COVERED:
        under = [f for f in four_sets if weight(f) < 1]
        if under:
            edges.append(rng.choice(under))
    return PartiteHypergraph(q, p, edges), FractionalCover(weights=w)


@pytest.mark.parametrize("seed", range(200))
def test_feasibility_and_closure_agree_with_the_fraction_oracle(seed):
    graph, cover = seeded_cover(seed)
    expect = fraction_is_cover(cover.weights, graph)
    assert cover.is_feasible(graph) == expect
    try:
        closed = cover_closure(graph, cover)
    except ValueError:
        assert not expect
    else:
        assert expect
        get = cover.weights.get
        assert list(closed.graph.edges) == [
            f
            for f in all_partite_four_sets(graph.q_size, graph.p_size)
            if sum(get(v, 0) for v in f) >= 1
        ]


def test_every_fault_occurs_and_is_rejected():
    verdicts = {}
    for seed in range(200):
        graph, cover = seeded_cover(seed)
        verdicts.setdefault(seed % 4, set()).add(cover.is_feasible(graph))
    assert verdicts[CLEAN] == {True}
    assert verdicts[OFF_GRAPH] == verdicts[OUT_OF_UNIT] == {False}
    assert False in verdicts[UNDER_COVERED]


def test_sparse_cover_closes_to_its_one_edge():
    # an absent weight counts as 0, here as in is_feasible
    pg = complete_partite(1, 3)
    cover = FractionalCover(weights={0: Fraction(1)})
    assert cover.is_feasible(pg)
    assert cover.scaled(pg) == (1, [1, 0, 0, 0])
    closed = cover_closure(pg, cover)
    assert closed.graph.edges == ((0, 1, 2, 3),)


@pytest.mark.parametrize(
    "fault", ["under-covered", "off-graph", "value-too-high", "prefix-under-covered"]
)
def test_refutation_that_fails_its_check_is_an_internal_fault(monkeypatch, capsys, fault):
    # the cover comes from the package's own prefix or LP, so a bad one
    # is a bug (AssertionError, exit 4), not bad input (ValueError, exit
    # 3); no prefix covers the parity barrier, so there the LP runs
    fam = parity_family(12)
    n = family_to_partite(fam).n_vertices
    weights = {
        "under-covered": {},
        "off-graph": {n: Fraction(1)},
        "value-too-high": dict.fromkeys(range(n), Fraction(1)),
    }[fault.removeprefix("prefix-")]
    if fault.startswith("prefix-"):
        monkeypatch.setattr(
            solvers, "_prefix_cover", lambda graph: FractionalCover(weights=weights)
        )
    else:
        monkeypatch.setattr(
            solvers,
            "min_fractional_cover",
            lambda graph, timeout: (Fraction(0), FractionalCover(weights=weights)),
        )
    with pytest.raises(AssertionError, match="integer check"):
        cover_refutation(fam)
    monkeypatch.setattr("sys.stdin", io.StringIO(canonical_json(fam.to_dict())))
    assert main(["solve", "rainbow"]) == EXIT_CRASH
    assert "integer check" in capsys.readouterr().err
