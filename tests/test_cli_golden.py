"""Exact stdout bytes and exit code of every verb, for every outcome.

Each case runs ``main`` on one input and compares stdout byte for byte
with the recorded answer.  An ``unknown`` comes either from a one-node
search budget, installed with ``functools.partial`` on the solver the
verb calls, or from a timeout the exact LP cannot meet, so no case
depends on the speed of the machine.
"""

from __future__ import annotations

import functools
import io
import json
from typing import NamedTuple, Optional

import pytest

from rainbow_lab import absorbing, cli, experiments
from rainbow_lab.absorbing import AbsorptionError
from rainbow_lab.cli import EXIT_FOUND, EXIT_NONE, EXIT_UNKNOWN, main
from rainbow_lab.constructions import HypergraphFamily, PartiteHypergraph, complete_partite
from rainbow_lab.hypergraph import Hypergraph, complete_hypergraph, empty_hypergraph
from rainbow_lab.jsonio import canonical_json

K4 = canonical_json(complete_hypergraph(3, 4).to_dict())
K6 = canonical_json(complete_hypergraph(3, 6).to_dict())
EMPTY6 = canonical_json(empty_hypergraph(3, 6).to_dict())
TRIANGLE3 = canonical_json(Hypergraph(3, 3, [(0, 1, 2)]).to_dict())
TRIANGLE6 = canonical_json(Hypergraph(3, 6, [(0, 1, 2)]).to_dict())
PATH3 = canonical_json(Hypergraph(2, 3, [(0, 1), (1, 2)]).to_dict())
RAINBOW = canonical_json(HypergraphFamily(6, (complete_hypergraph(3, 6),) * 2).to_dict())
NO_RAINBOW = canonical_json(HypergraphFamily(6, (Hypergraph(3, 6, [(0, 1, 2)]),) * 2).to_dict())
PARTITE = canonical_json(complete_partite(2, 6).to_dict())
NO_PARTITE = canonical_json(PartiteHypergraph(2, 6, [(0, 2, 3, 4)]).to_dict())
# tau* = q, but the shift deletes input edges and the lowest link has no
# perfect matching: the construction fails and the answer is still found.
SHIFT_LOST = json.dumps({
    "q": 3,
    "p": 9,
    "edges": [
        [0, 4, 7, 11], [0, 5, 8, 10], [1, 3, 5, 7], [1, 4, 5, 10], [1, 4, 5, 11],
        [1, 4, 8, 9], [1, 6, 7, 9], [1, 8, 9, 10], [2, 3, 4, 7], [2, 3, 4, 11],
        [2, 4, 7, 11], [2, 4, 8, 10], [2, 4, 8, 11], [2, 5, 7, 9], [2, 7, 8, 11],
    ],
})

# 28 vertices: the smallest partite graph a gadget fits in.
DENSE = complete_partite(7, 21)
BODY = [1, 2, 3, 4, 5, 6] + list(range(10, 28))
TARGET = [0, 7, 8, 9]
# Vertex 27, in BODY, lies on no edge.
HOLED = PartiteHypergraph(7, 21, [e for e in DENSE.edges if 27 not in e])
# Class vertex 0, in TARGET, lies on no edge.
UNLINKED = PartiteHypergraph(7, 21, [e for e in DENSE.edges if e[0] != 0])


def scenario(graph: PartiteHypergraph) -> str:
    return json.dumps({"partite": graph.to_dict(), "targets": [TARGET]})


def budget(module, name):
    """Patch ``module.name`` to the same solver on a one-node budget."""
    return module, name, functools.partial(getattr(module, name), node_budget=1)


def _unabsorbable(graph, targets, timeout):
    raise AbsorptionError(tuple(targets[0]))


class Case(NamedTuple):
    name: str
    argv: list
    stdin: str = ""
    patch: Optional[tuple] = None


# File arguments: "@body", "@target" and "@none" name JSON vertex lists.
FILES = {"body": BODY, "target": TARGET, "none": []}

CASES = [
    Case("gen extremal", ["gen", "extremal", "--n", "6", "--s", "2", "--ell", "2"]),
    Case("gen partite-extremal", ["gen", "partite-extremal", "--n", "6"]),
    Case("gen reduce", ["gen", "reduce"], NO_RAINBOW),
    Case("stats", ["stats"], K4),
    Case("stats json", ["--json", "stats"], K4),
    Case("stats 2-graph", ["--json", "stats"], PATH3),
    # A partite instance is read as a 4-graph wherever a Hypergraph is expected.
    Case("stats partite", ["stats"], PARTITE),
    Case("solve pm partite", ["solve", "pm"], PARTITE),
    Case("solve pm found", ["solve", "pm"], K6),
    Case("solve pm none", ["solve", "pm"], EMPTY6),
    Case("solve pm unknown", ["solve", "pm"], K6, budget(cli, "has_perfect_matching")),
    Case("solve rainbow found", ["solve", "rainbow"], RAINBOW),
    Case("solve rainbow none", ["solve", "rainbow"], NO_RAINBOW),
    Case(
        "solve rainbow unknown",
        ["solve", "rainbow"],
        RAINBOW,
        budget(cli, "rainbow_matching"),
    ),
    Case("solve partite-pm found", ["solve", "partite-pm"], PARTITE),
    Case("solve partite-pm none", ["solve", "partite-pm"], NO_PARTITE),
    Case(
        "solve partite-pm unknown",
        ["solve", "partite-pm"],
        PARTITE,
        budget(cli, "partite_perfect_matching"),
    ),
    Case("frac nu-star found", ["frac", "nu-star"], K4),
    Case("frac nu-star partite", ["frac", "nu-star"], PARTITE),
    Case("frac nu-star unknown", ["--timeout", "1e-9", "frac", "nu-star"], K4),
    Case("frac tau-star found", ["frac", "tau-star"], K4),
    Case("frac tau-star unknown", ["--timeout", "1e-9", "frac", "tau-star"], K4),
    Case("frac check-duality found", ["frac", "check-duality"], K4),
    Case(
        "frac check-duality unknown",
        ["--timeout", "1e-9", "frac", "check-duality"],
        K4,
    ),
    Case("frac pm found", ["frac", "pm"], TRIANGLE3),
    Case("frac pm none", ["frac", "pm"], TRIANGLE6),
    Case("frac pm unknown", ["--timeout", "1e-9", "frac", "pm"], K6),
    Case("shift run", ["shift", "run", "--threshold", "12"], PARTITE),
    Case("shift pipeline found", ["shift", "pipeline"], PARTITE),
    Case("shift pipeline none", ["shift", "pipeline"], NO_PARTITE),
    Case("shift pipeline found without construction", ["shift", "pipeline"], SHIFT_LOST),
    Case(
        "shift pipeline unknown",
        ["--timeout", "1e-9", "shift", "pipeline"],
        PARTITE,
    ),
    Case(
        "absorb check found",
        ["absorb", "check", "--t", "@body", "--a", "@target"],
        canonical_json(DENSE.to_dict()),
    ),
    Case(
        "absorb check none",
        ["absorb", "check", "--t", "@body", "--a", "@target"],
        canonical_json(HOLED.to_dict()),
    ),
    Case(
        "absorb check unknown",
        ["absorb", "check", "--t", "@body", "--a", "@target"],
        canonical_json(DENSE.to_dict()),
        budget(absorbing, "has_perfect_matching"),
    ),
    Case(
        "absorb gadget found",
        ["absorb", "gadget", "--a", "@target"],
        canonical_json(DENSE.to_dict()),
    ),
    Case(
        "absorb gadget none",
        ["absorb", "gadget", "--a", "@target", "--candidates", "@none"],
        canonical_json(DENSE.to_dict()),
    ),
    Case(
        "absorb gadget unknown",
        ["absorb", "gadget", "--a", "@target"],
        canonical_json(DENSE.to_dict()),
        budget(cli, "build_gadget"),
    ),
    Case("absorb run found", ["absorb", "run"], scenario(DENSE)),
    Case("absorb run none", ["absorb", "run"], scenario(UNLINKED)),
    Case(
        "absorb run unknown",
        ["absorb", "run"],
        scenario(DENSE),
        budget(absorbing, "build_gadget"),
    ),
    Case("exp pass", ["exp", "sharpness", "--n-values", "6"]),
    Case(
        "exp fail",
        ["exp", "absorb"],
        patch=(experiments, "absorb_scenario", _unabsorbable),
    ),
    Case("exp unknown", ["--timeout", "1e-9", "exp", "shift"]),
]


def run_case(case: Case, monkeypatch, capsys, tmp_path) -> tuple[int, str]:
    if case.patch is not None:
        monkeypatch.setattr(*case.patch)
    argv = []
    for arg in case.argv:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(FILES[arg[1:]]))
            arg = str(path)
        argv.append(arg)
    monkeypatch.setattr("sys.stdin", io.StringIO(case.stdin))
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_golden_stdout_and_exit_code(monkeypatch, capsys, tmp_path, case):
    assert run_case(case, monkeypatch, capsys, tmp_path) == GOLDEN[case.name]


def test_every_outcome_is_covered():
    codes = {}
    for name, (code, _) in GOLDEN.items():
        codes.setdefault(name.split()[0], set()).add(code)
    for verb in ("solve", "frac", "shift", "absorb", "exp"):
        assert codes[verb] == {EXIT_FOUND, EXIT_NONE, EXIT_UNKNOWN}, verb


GOLDEN = {
    'gen extremal': (
        0,
        '{"edges": [[0, 1, 2], [0, 1, 3], [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 2, 5], [1, 2, 3], [1, 2, 4], [1, 2, 5]], "k": 3, "n": 6}\n',
    ),
    'gen partite-extremal': (
        0,
        '{"edges": [[0, 2, 3, 4], [0, 2, 3, 5], [0, 2, 3, 6], [0, 2, 3, 7], [0, 2, 4, 5], [0, 2, 4, 6], [0, 2, 4, 7], [0, 3, 4, 5], [0, 3, 4, 6], [0, 3, 4, 7], [1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 3, 6], [1, 2, 3, 7], [1, 2, 4, 5], [1, 2, 4, 6], [1, 2, 4, 7], [1, 3, 4, 5], [1, 3, 4, 6], [1, 3, 4, 7]], "p": 6, "q": 2}\n',
    ),
    'gen reduce': (
        0,
        '{"edges": [[0, 2, 3, 4], [1, 2, 3, 4]], "p": 6, "q": 2}\n',
    ),
    'stats': (
        0,
        "k: 3\nn: 4\nedges: 4\nisolated: []\nmin_degree_1: 3\ndegree_sum_min: {'adjacent': 6, 'all': 6, 'nonadjacent': None}\n",
    ),
    'stats json': (
        0,
        '{"degree_sum_min": {"adjacent": 6, "all": 6, "nonadjacent": null}, "edges": 4, "isolated": [], "k": 3, "min_degree_1": 3, "n": 4}\n',
    ),
    'stats 2-graph': (
        0,
        '{"degree_sum_min": {"adjacent": 3, "all": 2, "nonadjacent": 2}, "edges": 2, "isolated": [], "k": 2, "min_degree_1": 1, "n": 3}\n',
    ),
    'stats partite': (
        0,
        "k: 4\nn: 8\nedges: 40\nisolated: []\nmin_degree_1: 20\ndegree_sum_min: {'adjacent': 40, 'all': 40, 'nonadjacent': 40}\n",
    ),
    'solve pm partite': (
        0,
        '{"found": true, "witness": [[0, 2, 3, 4], [1, 5, 6, 7]]}\n',
    ),
    'solve pm found': (
        0,
        '{"found": true, "witness": [[0, 1, 2], [3, 4, 5]]}\n',
    ),
    'solve pm none': (
        1,
        '{"found": false, "witness": null}\n',
    ),
    'solve pm unknown': (
        2,
        '{"found": "unknown", "witness": null}\n',
    ),
    'solve rainbow found': (
        0,
        '{"found": true, "witness": [{"color": 0, "edge": [0, 1, 2]}, {"color": 1, "edge": [3, 4, 5]}]}\n',
    ),
    'solve rainbow none': (
        1,
        '{"found": false, "witness": null}\n',
    ),
    'solve rainbow unknown': (
        2,
        '{"found": "unknown", "witness": null}\n',
    ),
    'solve partite-pm found': (
        0,
        '{"found": true, "witness": [[0, 2, 3, 4], [1, 5, 6, 7]]}\n',
    ),
    'solve partite-pm none': (
        1,
        '{"found": false, "witness": null}\n',
    ),
    'solve partite-pm unknown': (
        2,
        '{"found": "unknown", "witness": null}\n',
    ),
    'frac nu-star found': (
        0,
        '{"value": "4/3", "weights": [{"edge": [0, 1, 2], "weight": "1/3"}, {"edge": [0, 1, 3], "weight": "1/3"}, {"edge": [0, 2, 3], "weight": "1/3"}, {"edge": [1, 2, 3], "weight": "1/3"}]}\n',
    ),
    'frac nu-star partite': (
        0,
        '{"value": "2/1", "weights": [{"edge": [0, 2, 6, 7], "weight": "1/2"}, {"edge": [0, 3, 4, 5], "weight": "1/2"}, {"edge": [1, 2, 3, 4], "weight": "1/2"}, {"edge": [1, 5, 6, 7], "weight": "1/2"}]}\n',
    ),
    'frac nu-star unknown': (
        2,
        '{"value": "unknown"}\n',
    ),
    'frac tau-star found': (
        0,
        '{"value": "4/3", "weights": {"0": "1/3", "1": "1/3", "2": "1/3", "3": "1/3"}}\n',
    ),
    'frac tau-star unknown': (
        2,
        '{"value": "unknown"}\n',
    ),
    'frac check-duality found': (
        0,
        '{"equal": true}\n',
    ),
    'frac check-duality unknown': (
        2,
        '{"equal": "unknown"}\n',
    ),
    'frac pm found': (
        0,
        '{"found": true, "weights": [{"edge": [0, 1, 2], "weight": "1/1"}]}\n',
    ),
    'frac pm none': (
        1,
        '{"found": false}\n',
    ),
    'frac pm unknown': (
        2,
        '{"found": "unknown"}\n',
    ),
    'shift run': (
        0,
        '{"edges_left": 40, "edges_removed": 0, "stable": true, "trace": []}\n',
    ),
    'shift pipeline found': (
        0,
        '{"containment": true, "cover_value": "2/1", "edges_removed": 0, "found": true, "matching": [[0, 5, 6, 7], [1, 2, 3, 4]], "stable": true, "value_check": true}\n',
    ),
    'shift pipeline none': (
        1,
        '{"containment": false, "cover_value": "1/1", "edges_removed": 20, "found": false, "matching": null, "stable": true, "value_check": null}\n',
    ),
    'shift pipeline found without construction': (
        0,
        '{"containment": false, "cover_value": "3/1", "edges_removed": 171, "found": false, "matching": null, "stable": true, "value_check": null}\n',
    ),
    'shift pipeline unknown': (
        2,
        '{"found": "unknown"}\n',
    ),
    'absorb check found': (
        0,
        '{"absorbing": true, "pm_body": [[1, 10, 11, 12], [2, 13, 14, 15], [3, 16, 17, 18], [4, 19, 20, 21], [5, 22, 23, 24], [6, 25, 26, 27]], "pm_joint": [[0, 7, 8, 9], [1, 10, 11, 12], [2, 13, 14, 15], [3, 16, 17, 18], [4, 19, 20, 21], [5, 22, 23, 24], [6, 25, 26, 27]]}\n',
    ),
    'absorb check none': (
        1,
        '{"absorbing": false}\n',
    ),
    'absorb check unknown': (
        2,
        '{"absorbing": "unknown"}\n',
    ),
    'absorb gadget found': (
        0,
        '{"body": [1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27], "found": true, "pm_body": [[1, 10, 16, 17], [2, 11, 18, 19], [3, 12, 20, 21], [4, 13, 22, 23], [5, 14, 24, 25], [6, 15, 26, 27]], "pm_joint": [[0, 13, 14, 15], [1, 7, 16, 17], [2, 8, 18, 19], [3, 9, 20, 21], [4, 10, 22, 23], [5, 11, 24, 25], [6, 12, 26, 27]], "target": [0, 7, 8, 9]}\n',
    ),
    'absorb gadget none': (
        1,
        '{"found": false}\n',
    ),
    'absorb gadget unknown': (
        2,
        '{"found": "unknown"}\n',
    ),
    'absorb run found': (
        0,
        '{"found": true, "matching": [[0, 7, 8, 9], [1, 10, 16, 17], [2, 11, 18, 19], [3, 12, 20, 21], [4, 13, 22, 23], [5, 14, 24, 25], [6, 15, 26, 27]], "pool_bodies": [[1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27]]}\n',
    ),
    'absorb run none': (
        1,
        '{"found": false, "unabsorbed": [0, 7, 8, 9]}\n',
    ),
    'absorb run unknown': (
        2,
        '{"found": "unknown"}\n',
    ),
    'exp pass': (
        0,
        'experiment: sharpness\n  n_values: [6]\n  rng: python-random-mt19937\n  seed: 0\n  timeout_seconds: 60.0\n  trial_seed: seed*2^32+trial\n  trials: 1\n idx  outcome  instance                            detail\n   0  pass     n=6 copies=2                        degree-sum bound 10, rainbow none, partite pm none\naggregate: pass  (digest 804181cd15f653fc)\n',
    ),
    'exp fail': (
        1,
        'experiment: absorb\n  rng: python-random-mt19937\n  seed: 0\n  timeout_seconds: 60.0\n  trial_seed: seed*2^32+trial\n  trials: 1\n idx  outcome  instance                            detail\n   0  fail     trial=0                             complete q=8 p=24: absorption failed at (0, 8, 9, 10)\naggregate: fail  (digest 2df39f77bd1d5834)\n',
    ),
    'exp unknown': (
        2,
        'experiment: shift\n  rng: python-random-mt19937\n  seed: 0\n  timeout_seconds: 1e-09\n  trial_seed: seed*2^32+trial\n  trials: 1\n idx  outcome  instance                            detail\n   0  unknown  trial=0                             timeout: fractional LP exceeded its deadline\naggregate: unknown  (digest 8e8fb3a24ef6dc28)\n',
    ),
}
