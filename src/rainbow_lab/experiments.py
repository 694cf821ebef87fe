"""Reproducible experiment suites exercising the solver stack.

This module holds the suites only: each trial builds its instance and
calls the package's procedures and checks where they live.

Every suite consumes an :class:`ExperimentConfig` and emits an
:class:`ExperimentReport` whose rows are deterministic functions of the
seed: instances come from a Mersenne-Twister stream (algorithm id
recorded in the header) keyed by ``seed * 2**32 + trial``.  A trial
has one deadline, ``timeout_seconds`` from its start: its first solver
call gets the whole timeout and each later call the time left.
Timeouts mark a row "unknown" and spoil the aggregate instead of
passing silently.  Wall-clock runtimes appear in rows but are excluded
from the determinism digest.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from math import comb
from typing import Callable, Optional

from .absorbing import AbsorptionError, absorb_scenario
from .constructions import (
    HypergraphFamily,
    PartiteHypergraph,
    _extremal_edge_count,
    complete_partite,
    extremal_adjacent_degree_sum,
    extremal_graph,
    extremal_partite,
    family_to_partite,
)
from .fractional import max_fractional_matching, verify_duality
from .hypergraph import Hypergraph
from .jsonio import bound_edges, canonical_json, sha256_of, vertex_count
from .kernel import _deadline, _time_left
from .shift import fractional_pm_pipeline
from .solvers import (
    DEFAULT_TIMEOUT,
    SolverTimeout,
    is_perfect_matching_of,
    max_matching,
    partite_perfect_matching,
    rainbow_matching,
)

RNG_ALGORITHM = "python-random-mt19937"

PASS = "pass"
FAIL = "fail"
UNKNOWN = "unknown"

# A trial's (passed, detail, witness digest), and a labelled trial.
Verdict = tuple[bool, str, Optional[str]]
Case = tuple[str, Callable[[], Verdict]]


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    n_values: tuple[int, ...] = ()
    trials: int = 1
    timeout_seconds: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for n in self.n_values:
            vertex_count(n)


@dataclass
class ExperimentRow:
    index: int
    instance: str
    outcome: str
    detail: str
    witness_sha256: Optional[str]
    runtime_ms: float

    def to_dict(self, include_runtime: bool = True) -> dict:
        data = {
            "index": self.index,
            "instance": self.instance,
            "outcome": self.outcome,
            "detail": self.detail,
            "witness_sha256": self.witness_sha256,
        }
        if include_runtime:
            data["runtime_ms"] = round(self.runtime_ms, 3)
        return data


@dataclass
class ExperimentReport:
    experiment: str
    header: dict
    rows: list[ExperimentRow] = field(default_factory=list)

    @property
    def aggregate(self) -> str:
        outcomes = {r.outcome for r in self.rows}
        if UNKNOWN in outcomes:
            return UNKNOWN
        if FAIL in outcomes:
            return FAIL
        return PASS

    def to_dict(self, include_runtime: bool = True) -> dict:
        return {
            "experiment": self.experiment,
            "header": self.header,
            "rows": [r.to_dict(include_runtime) for r in self.rows],
            "aggregate": self.aggregate,
        }

    def digest(self) -> str:
        """Hash of everything except wall-clock runtimes."""
        return sha256_of(self.to_dict(include_runtime=False))

    def to_json(self) -> str:
        data = self.to_dict()
        data["digest"] = self.digest()
        return canonical_json(data)

    def to_table(self) -> str:
        lines = [f"experiment: {self.experiment}"]
        for key in sorted(self.header):
            lines.append(f"  {key}: {self.header[key]}")
        lines.append(f"{'idx':>4}  {'outcome':7}  {'instance':34}  detail")
        for r in self.rows:
            lines.append(
                f"{r.index:>4}  {r.outcome:7}  {r.instance:34.34}  {r.detail}"
            )
        lines.append(f"aggregate: {self.aggregate}  (digest {self.digest()[:16]})")
        return "\n".join(lines)


def trial_rng(seed: int, index: int) -> random.Random:
    return random.Random((seed << 32) + index)


def random_hypergraph(rng: random.Random, n: int, prob: float, k: int = 3) -> Hypergraph:
    edges = [e for e in combinations(range(n), k) if rng.random() < prob]
    return Hypergraph(k, n, edges)


def random_family(
    rng: random.Random, n: int, members: int, prob: float
) -> HypergraphFamily:
    return HypergraphFamily(
        n_vertices=n,
        members=tuple(random_hypergraph(rng, n, prob) for _ in range(members)),
    )


def random_partite(
    rng: random.Random, q_size: int, p_size: int, prob: float
) -> PartiteHypergraph:
    edges = [
        (u,) + trio
        for u in range(q_size)
        for trio in combinations(range(q_size, q_size + p_size), 3)
        if rng.random() < prob
    ]
    return PartiteHypergraph(q_size, p_size, edges)


def _prob_ladder(index: int, total: int, low: float = 0.15, high: float = 0.85) -> float:
    if total <= 1:
        return (low + high) / 2
    return low + (high - low) * (index / (total - 1))


def _timed_row(index: int, instance: str, body: Callable[[], Verdict]) -> ExperimentRow:
    """The one place a trial's verdict becomes pass, fail or unknown."""
    start = time.perf_counter()
    try:
        passed, detail, witness = body()
    except SolverTimeout as exc:
        outcome, detail, witness = UNKNOWN, f"timeout: {exc}", None
    else:
        outcome = PASS if passed else FAIL
    runtime = (time.perf_counter() - start) * 1000
    return ExperimentRow(
        index=index,
        instance=instance,
        outcome=outcome,
        detail=detail,
        witness_sha256=witness,
        runtime_ms=runtime,
    )


def _report(name: str, cfg: ExperimentConfig, cases: list[Case], **header) -> ExperimentReport:
    """Run each ``(label, case)`` in order; ``case()`` gives the row's verdict."""
    header = {
        "rng": RNG_ALGORITHM,
        "trial_seed": "seed*2^32+trial",
        "seed": cfg.seed,
        "trials": cfg.trials,
        "timeout_seconds": cfg.timeout_seconds,
        **header,
    }
    rows = [_timed_row(i, label, case) for i, (label, case) in enumerate(cases)]
    return ExperimentReport(experiment=name, header=header, rows=rows)


def _trials(cfg: ExperimentConfig, trial: Callable[..., Verdict]) -> list[Case]:
    """Cases ``trial(cfg, i)`` for i below ``cfg.trials``."""
    return [(f"trial={i}", partial(trial, cfg, i)) for i in range(cfg.trials)]


def _sizes(
    cfg: ExperimentConfig,
    default: tuple[int, ...],
    suite: str,
    edges: Callable[[int], int],
) -> tuple[int, ...]:
    """The suite's sizes, each divisible by 3 and with at most
    ``MAX_EDGES`` edges to enumerate, as ``edges(n)`` counts them."""
    n_values = cfg.n_values or default
    for n in n_values:
        if n % 3 != 0:
            raise ValueError(f"{suite} sizes must be divisible by 3, got {n}")
        bound_edges(edges(n), f"{suite} at n={n}")
    return n_values


def _sharpness_trial(cfg: ExperimentConfig, n: int) -> Verdict:
    deadline = _deadline(cfg.timeout_seconds)
    member = extremal_graph(n, n // 3, 2)
    family = HypergraphFamily(n, (member,) * (n // 3))
    bound = extremal_adjacent_degree_sum(n)
    stats = member.degree_sum_minima()
    rb = rainbow_matching(family, timeout=cfg.timeout_seconds)
    pm = partite_perfect_matching(
        extremal_partite(n), timeout=_time_left(deadline, "sharpness trial")
    )
    ok = rb is None and pm is None and stats.adjacent == bound
    detail = (
        f"degree-sum bound {bound}, rainbow "
        f"{'none' if rb is None else 'found'}, partite pm "
        f"{'none' if pm is None else 'found'}"
    )
    witness = sha256_of(
        {"bound": bound, "rainbow": rb is None, "partite_pm": pm is None}
    )
    return ok, detail, witness


def run_sharpness(cfg: ExperimentConfig) -> ExperimentReport:
    """The tight construction defeats both solvers at every listed n."""
    for n in cfg.n_values:
        if n < 6:
            raise ValueError(
                f"sharpness sizes must be at least 6, got {n}: the tight "
                "member extremal_graph(n, n/3, 2) has no edge below n = 6"
            )
    # the partite graph: n/3 copies of the member's edges
    n_values = _sizes(
        cfg, (6, 9, 12), "sharpness", lambda n: n // 3 * _extremal_edge_count(n, n // 3, 2)
    )
    cases = [
        (f"n={n} copies={n // 3}", partial(_sharpness_trial, cfg, n))
        for n in n_values
    ]
    return _report("sharpness", cfg, cases, n_values=list(n_values))


def _equivalence_trial(cfg: ExperimentConfig, i: int, n: int, t: int) -> Verdict:
    deadline = _deadline(cfg.timeout_seconds)
    rng = trial_rng(cfg.seed, i)
    prob = _prob_ladder(t, cfg.trials)
    family = random_family(rng, n, n // 3, prob)
    rb = rainbow_matching(family, timeout=cfg.timeout_seconds)
    pm = partite_perfect_matching(
        family_to_partite(family), timeout=_time_left(deadline, "equivalence trial")
    )
    agree = (rb is None) == (pm is None)
    detail = (
        f"p={prob:.2f} rainbow={'none' if rb is None else 'found'} "
        f"partite={'none' if pm is None else 'found'}"
    )
    witness = sha256_of(
        {
            "rainbow": None if rb is None else rb.to_list(),
            "partite": None if pm is None else pm.to_list(),
        }
    )
    return agree, detail, witness


def run_equivalence(cfg: ExperimentConfig) -> ExperimentReport:
    """Rainbow existence must match partite perfect-matching existence."""
    # each of the n/3 random members tries every triple
    n_values = _sizes(cfg, (6, 9), "equivalence", lambda n: n // 3 * comb(n, 3))
    jobs = [(n, t) for n in n_values for t in range(cfg.trials)]
    cases = [
        (f"n={n} trial={t}", partial(_equivalence_trial, cfg, i, n, t))
        for i, (n, t) in enumerate(jobs)
    ]
    return _report("equivalence", cfg, cases, n_values=list(n_values))


def _duality_trial(cfg: ExperimentConfig, i: int) -> Verdict:
    deadline = _deadline(cfg.timeout_seconds)
    rng = trial_rng(cfg.seed, i)
    n = rng.randint(4, 10)
    prob = _prob_ladder(i % 7, 7, 0.1, 0.8)
    graph = random_hypergraph(rng, n, prob)
    certified = verify_duality(graph, timeout=cfg.timeout_seconds)
    left = _time_left(deadline, "duality trial")
    integral = len(max_matching(graph, timeout=left))
    if certified is None:
        return False, f"n={n} m={graph.n_edges} certificates rejected nu={integral}", None
    value = certified[0]
    detail = f"n={n} m={graph.n_edges} nu*={value} tau*={value} nu={integral}"
    witness = sha256_of({"value": str(value), "integral": integral})
    return integral <= value, detail, witness


def run_duality(cfg: ExperimentConfig) -> ExperimentReport:
    """Exact equality of the fractional matching and cover optima."""
    return _report("duality", cfg, _trials(cfg, _duality_trial))


def _codegree_floor(graph: PartiteHypergraph, threshold: int) -> bool:
    """Every spanned class-vertex pair-of-others beats the threshold."""
    codeg = graph.degrees(2)
    for e in graph.edges:
        u = e[0]
        for a, b in combinations(e[1:], 2):
            if codeg[(u, a)] + codeg[(u, b)] <= threshold:
                return False
    return True


def _shift_trial(cfg: ExperimentConfig, i: int) -> Verdict:
    deadline = _deadline(cfg.timeout_seconds)
    rng = trial_rng(cfg.seed, i)
    q_size = 2 + (i % 3)  # cycles 2, 3, 4
    p_size = 3 * q_size
    if i % 7 == 6:
        # tight construction: exercises actual deletions and the
        # containment-failure logging
        graph = extremal_partite(p_size)
        prob = 1.0
    else:
        prob = _prob_ladder(i % 5, 5, 0.15, 0.9)
        graph = random_partite(rng, q_size, p_size, prob)
    res = fractional_pm_pipeline(graph, timeout=cfg.timeout_seconds)
    threshold = extremal_adjacent_degree_sum(p_size)
    checks = {
        "stable": res.trace.stable,
        "contained_in_closure": all(
            map(res.closure.graph._has, res.shifted.graph.edges)
        ),
        "codegree_floor": _codegree_floor(res.shifted.graph, threshold),
        "trace_bookkeeping": res.trace.edges_removed
        == res.closure.graph.n_edges - res.shifted.graph.n_edges,
    }
    if res.found:
        checks["extension_pm"] = is_perfect_matching_of(res.shifted.graph, res.matching)
    if q_size <= 3 and res.containment_ok:
        # the cover LP optimum equals nu* of the input by LP duality
        nu_out, _ = max_fractional_matching(
            res.shifted.graph, timeout=_time_left(deadline, "shift trial")
        )
        checks["value_preserved"] = res.cover_value == nu_out
    ok = all(checks.values())
    skipped = (
        " preservation-skipped(containment-failed)"
        if q_size <= 3 and not res.containment_ok
        else ""
    )
    detail = (
        f"q={q_size} p={prob:.2f} edges={graph.n_edges} "
        f"closure={res.closure.graph.n_edges} "
        f"shifted={res.shifted.graph.n_edges} found={res.found}"
        f"{skipped}"
    )
    witness = sha256_of(
        {
            "checks": {k: bool(v) for k, v in checks.items()},
            "matching": None if res.matching is None else res.matching.to_list(),
        }
    )
    return ok, detail, witness


def run_shift_suite(cfg: ExperimentConfig) -> ExperimentReport:
    """Pipeline postconditions on random balanced partite instances."""
    return _report("shift", cfg, _trials(cfg, _shift_trial))


def _absorb_trial(cfg: ExperimentConfig, i: int) -> Verdict:
    rng = trial_rng(cfg.seed, i)
    if i == 0:
        graph = complete_partite(8, 24)
        kind = "complete q=8 p=24"
    else:
        prob = 0.75 + 0.2 * rng.random()
        family = random_family(rng, 24, 8, prob)
        graph = family_to_partite(family)
        kind = f"random dense n=24 p={prob:.2f}"
    target = (0,) + tuple(range(graph.q_size, graph.q_size + 3))
    try:
        combined, pool = absorb_scenario(graph, [target], timeout=cfg.timeout_seconds)
    except AbsorptionError as exc:
        return False, f"{kind}: absorption failed at {exc.unabsorbed}", None
    detail = f"{kind}: pm edges={len(combined.edges)} pool={len(pool)}"
    return True, detail, sha256_of(combined.to_list())


def run_absorb_suite(cfg: ExperimentConfig) -> ExperimentReport:
    """Gadget pool assembly on a dense instance ends in a perfect matching."""
    return _report("absorb", cfg, _trials(cfg, _absorb_trial))
