"""Seeded workloads for the benchmark: inputs, ops and answer checks.

An *op* is one instance decided through the public ``rainbow_lab`` API.
``build(name, seed)`` returns the fixed op list of a workload; the same
seed always gives the same inputs (see ``inputs_digest``).  Every op
carries an independent check of its answer, written here rather than
borrowed from the package, so a broken solver cannot vouch for itself.

Ops call the package through module attributes (``rl.rainbow_matching``,
``rl.experiments.absorb_scenario``) at call time, never through names
bound at import, so the traced run sees its wrappers.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional

import rainbow_lab as rl
import rainbow_lab.absorbing
import rainbow_lab.experiments
import rainbow_lab.shift

WORKLOADS = ("refute-tight", "shift-pipeline", "absorb-dense")

# Seed kept out of all tuning; a later performance claim must also hold on it.
HELD_OUT_SEED = 20250318

DROP_FRACTION = 0.05
DROPPED_FAMILIES = 14
DROPPED_PARTITE = 10
# (density, graphs): rungs of the ladder.  One LP's cost varies by ~20%
# between random graphs of one density, and more below 0.3; the two top
# rungs hold the median and the tail op, so those quantiles are taken
# over 20 graphs rather than over a few neighbouring rungs.
SHIFT_LADDER = ((0.2, 4), (0.3, 5), (0.4, 10), (0.5, 10))
ABSORB_DENSITIES = (0.75, 0.95)
ABSORB_RANDOM_GRAPHS = 5
ABSORB_TARGETS = 4
SCENARIOS_PER_GRAPH = 2


class WrongAnswer(Exception):
    """An op returned an answer that its check refutes."""


class Undecided(Exception):
    """An op ended without a decision (budget, timeout, or no result)."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    inputs: dict


# -- input generators (the benchmark's own, so inputs never drift) ----------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _drop_edges(rng: random.Random, graph: "rl.Hypergraph", frac: float):
    kept = [e for e in graph.edges if rng.random() >= frac]
    return rl.Hypergraph(graph.k, graph.n_vertices, kept)


def _random_partite(rng: random.Random, q: int, p: int, density: float):
    edges = [
        (u,) + trio
        for u in range(q)
        for trio in combinations(range(q, q + p), 3)
        if rng.random() < density
    ]
    return rl.PartiteHypergraph(q, p, edges)


def _random_family(rng: random.Random, n: int, members: int, density: float):
    return rl.HypergraphFamily(
        n_vertices=n,
        members=tuple(
            rl.Hypergraph(
                3, n, [e for e in combinations(range(n), 3) if rng.random() < density]
            )
            for _ in range(members)
        ),
    )


def _ladder(lo: float, hi: float, count: int) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


# -- independent answer checks ----------------------------------------------


def check_matching(edges, graph_edges, cover: Optional[set] = None) -> None:
    """Edges must be graph edges, pairwise disjoint, and span ``cover``."""
    seen: set[int] = set()
    for e in edges:
        if tuple(e) not in graph_edges:
            raise WrongAnswer(f"witness uses non-edge {tuple(e)}")
        for v in e:
            if v in seen:
                raise WrongAnswer(f"witness reuses vertex {v}")
            seen.add(v)
    if cover is not None and seen != cover:
        raise WrongAnswer(
            f"witness covers {len(seen)} vertices, expected {len(cover)}"
        )


def check_rainbow(family, pairs) -> None:
    """One edge per member, each from its own member, pairwise disjoint."""
    colors = sorted(c for c, _ in pairs)
    if colors != list(range(len(family.members))):
        raise WrongAnswer(f"rainbow witness has colors {colors}")
    for c, e in pairs:
        if tuple(e) not in set(family.members[c].edges):
            raise WrongAnswer(f"edge {tuple(e)} is not in member {c}")
    every_edge = {tuple(e) for _, e in pairs}
    check_matching([e for _, e in pairs], every_edge)


def check_fractional(graph, nu, matching, tau, cover) -> None:
    """Feasible matching and cover certificates with equal values."""
    edges = set(graph.edges)
    load = [Fraction(0)] * graph.n_vertices
    for e, w in matching.weights.items():
        if e not in edges or not 0 <= w <= 1:
            raise WrongAnswer(f"matching weight {w} on {e} is infeasible")
        for v in e:
            load[v] += w
    if any(x > 1 for x in load):
        raise WrongAnswer("fractional matching overloads a vertex")
    weights = cover.weights
    if any(not 0 <= w <= 1 for w in weights.values()):
        raise WrongAnswer("cover weight outside [0, 1]")
    for e in graph.edges:
        if sum((weights.get(v, 0) for v in e), Fraction(0)) < 1:
            raise WrongAnswer(f"cover leaves edge {e} under-covered")
    if sum(matching.weights.values(), Fraction(0)) != nu:
        raise WrongAnswer("matching weights do not sum to its value")
    if sum(weights.values(), Fraction(0)) != tau:
        raise WrongAnswer("cover weights do not sum to its value")
    if nu != tau:
        raise WrongAnswer(f"nu* = {nu} differs from tau* = {tau}")


def _expect_no_rainbow(family) -> Callable[[object], None]:
    def check(answer) -> None:
        if answer is not None:
            check_rainbow(family, answer.pairs)
            raise WrongAnswer("found a rainbow matching in a family that has none")

    return check


def _expect_no_pm(graph) -> Callable[[object], None]:
    def check(answer) -> None:
        if answer is not None:
            check_matching(answer.edges, set(graph.edges), set(range(graph.n_vertices)))
            raise WrongAnswer("found a perfect matching in a graph that has none")

    return check


# -- refute-tight -------------------------------------------------------------


def _refute_tight(seed: int) -> list[Op]:
    """The paper's hard inputs, where every answer is ``none``."""
    rng = _rng("refute-tight", seed)
    n, t = 12, 4
    ops: list[Op] = []

    def rainbow_op(kind: str, family) -> Op:
        return Op(
            kind=kind,
            run=lambda: rl.rainbow_matching(family),
            check=_expect_no_rainbow(family),
            inputs=family.to_dict(),
        )

    def partite_op(kind: str, graph) -> Op:
        return Op(
            kind=kind,
            run=lambda: rl.partite_perfect_matching(graph),
            check=_expect_no_pm(graph),
            inputs=graph.to_dict(),
        )

    tight = {ell: rl.extremal_graph(n, t, ell) for ell in (1, 2, 3)}
    for ell, member in tight.items():
        ops.append(rainbow_op(f"tight-l{ell}", rl.HypergraphFamily(n, (member,) * t)))
    ops.append(partite_op("tight-partite", rl.extremal_partite(n)))

    # Edge subsets of the tight (l=2) family still refute, but the members
    # are no longer identical, so identical-member symmetry breaking cannot
    # apply.  With 14 of them the median and the tail op both fall inside
    # their cluster rather than on the edge between two kinds of op.
    for i in range(DROPPED_FAMILIES):
        members = tuple(_drop_edges(rng, tight[2], DROP_FRACTION) for _ in range(t))
        family = rl.HypergraphFamily(n, members)
        ops.append(rainbow_op("dropped", family))
        if i < DROPPED_PARTITE:
            ops.append(partite_op("dropped-partite", rl.family_to_partite(family)))

    # Over-full: 3t > n, so no t disjoint triples exist at all.
    for size in (10, 11):
        full = rl.complete_hypergraph(3, size)
        ops.append(rainbow_op(f"overfull-n{size}", rl.HypergraphFamily(size, (full,) * t)))
    return ops


# -- shift-pipeline -----------------------------------------------------------


def _shift_op(kind: str, graph, tight: bool) -> Op:
    plain = graph.as_hypergraph()

    def run():
        result = rl.shift.fractional_pm_pipeline(graph)
        nu, matching = rl.max_fractional_matching(plain)
        tau, cover = rl.min_fractional_cover(plain)
        return result, nu, matching, tau, cover

    def check(answer) -> None:
        result, nu, matching, tau, cover = answer
        check_fractional(plain, nu, matching, tau, cover)
        if result.cover_value != tau:
            raise WrongAnswer(f"pipeline cover value {result.cover_value} != tau* {tau}")
        q = graph.q_size
        if result.found:
            if result.matching is None:
                raise WrongAnswer("pipeline reports found without a matching")
            shifted = result.shifted.graph
            check_matching(
                result.matching.edges, set(shifted.edges), set(range(shifted.n_vertices))
            )
            # G is inside the shifted graph, which is inside the cover
            # closure, so nu*(G) = nu*(shifted) = q once a PM exists.
            if result.containment_ok and (result.value_check is not True or nu != q):
                raise WrongAnswer(f"found a PM but nu* = {nu}, value_check = {result.value_check}")
        if tight and (result.found or nu >= q):
            raise WrongAnswer(f"tight instance reported found={result.found}, nu* = {nu}")

    return Op(kind=kind, run=run, check=check, inputs=graph.to_dict())


def _shift_pipeline(seed: int) -> list[Op]:
    """Random balanced (q=3, p=9) graphs up a density ladder, plus the tight one."""
    rng = _rng("shift-pipeline", seed)
    ops = [
        _shift_op(f"random-d{d:.1f}", _random_partite(rng, 3, 9, d), tight=False)
        for d, count in SHIFT_LADDER
        for _ in range(count)
    ]
    ops.append(_shift_op("tight-partite-9", rl.extremal_partite(9), tight=True))
    return ops


# -- absorb-dense -------------------------------------------------------------


def _absorb_graph_ops(label: str, graph, rng: random.Random) -> list[Op]:
    q = graph.q_size
    candidates = [v + q for v in rl.absorbing.popular_vertices(rl.partite_to_family(graph), 1)]
    edges = set(graph.edges)
    class_vertices = rng.sample(range(q), ABSORB_TARGETS)
    targets = [
        tuple(sorted([u] + rng.sample(range(q, graph.n_vertices), 3)))
        for u in class_vertices
    ]
    gadgets: dict[tuple, object] = {}
    ops: list[Op] = []

    for target in targets:

        def build(target=target):
            gadget = rl.absorbing.build_gadget(target, graph, candidates)
            gadgets[target] = gadget
            return gadget

        def check_gadget(gadget, target=target) -> None:
            if gadget is None:
                raise Undecided(f"no gadget found for {target}")
            body = set(gadget.body.vertices())
            if len(body) != 24 or body & set(target):
                raise WrongAnswer("gadget body is not a 24-set disjoint from its target")
            check_matching(gadget.pm_body.edges, edges, body)
            check_matching(gadget.pm_joint.edges, edges, body | set(target))

        def absorb(target=target):
            gadget = gadgets.pop(target, None)
            if gadget is None:
                raise Undecided(f"no gadget was built for {target}")
            leftover = rl.absorbing.BalancedSet.from_vertices(target, graph)
            return gadget, rl.absorbing.absorb([gadget], leftover, graph)

        def check_absorb(answer, target=target) -> None:
            gadget, matching = answer
            check_matching(matching.edges, edges, set(gadget.body.vertices()) | set(target))

        inputs = {"graph": label, "target": list(target), "candidates": candidates}
        ops.append(Op(f"gadget-{label}", build, check_gadget, inputs))
        ops.append(Op(f"absorb-{label}", absorb, check_absorb, inputs))

    def check_scenario(answer) -> None:
        matching, pool = answer
        if len(pool) != 1:
            raise WrongAnswer(f"scenario pool has {len(pool)} gadgets, expected 1")
        check_matching(matching.edges, edges, set(range(graph.n_vertices)))

    # Two scenarios per graph put the median op among the 12 scenarios,
    # between the cheap gadget searches and the absorptions.
    for target in targets[:SCENARIOS_PER_GRAPH]:
        inputs = {"graph": label, "target": list(target)}
        if target == targets[0]:
            inputs["edges"] = graph.to_dict()["edges"]
        ops.append(Op(
            f"scenario-{label}",
            lambda target=target: rl.experiments.absorb_scenario(graph, [target]),
            check_scenario,
            inputs,
        ))
    return ops


def _absorb_dense(seed: int) -> list[Op]:
    """Gadget search, absorption and the full scenario on dense n=24 graphs."""
    rng = _rng("absorb-dense", seed)
    graphs = [("complete", rl.complete_partite(8, 24))]
    for d in _ladder(*ABSORB_DENSITIES, ABSORB_RANDOM_GRAPHS):
        family = _random_family(rng, 24, 8, d)
        graphs.append((f"d{d:.2f}", rl.family_to_partite(family)))
    return [op for label, graph in graphs for op in _absorb_graph_ops(label, graph, rng)]


_BUILDERS = {
    "refute-tight": _refute_tight,
    "shift-pipeline": _shift_pipeline,
    "absorb-dense": _absorb_dense,
}


def build(workload: str, seed: int) -> list[Op]:
    """The fixed op list of a workload for a seed."""
    return _BUILDERS[workload](seed)


def inputs_digest(ops: list[Op]) -> str:
    """SHA-256 over every op's kind and inputs, in op order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.kind, op.inputs], sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()
