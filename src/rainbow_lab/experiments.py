"""Reproducible experiment suites exercising the solver stack.

Every suite consumes an :class:`ExperimentConfig` and emits an
:class:`ExperimentReport` whose rows are deterministic functions of the
seed: instances come from a Mersenne-Twister stream (algorithm id
recorded in the header) keyed by ``seed * 2**32 + trial``.  Timeouts
mark a row "unknown" and spoil the aggregate instead of passing
silently.  Wall-clock runtimes appear in rows but are excluded from the
determinism digest.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable, Optional, Sequence

from .absorbing import (
    AbsorptionError,
    BalancedSet,
    absorb,
    build_gadget,
    popular_vertices,
)
from .constructions import (
    HypergraphFamily,
    PartiteHypergraph,
    complete_partite,
    extremal_adjacent_degree_sum,
    extremal_graph,
    extremal_partite,
    family_to_partite,
    partite_to_family,
)
from . import fractional
from .fractional import max_fractional_matching
from .hypergraph import Hypergraph
from .jsonio import canonical_json, sha256_of, vertex_count
from .shift import fractional_pm_pipeline, is_stable
from .solvers import (
    Matching,
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
    timeout_seconds: float = 60.0
    threshold_override: Optional[int] = None

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


def _sizes(cfg: ExperimentConfig, default: tuple[int, ...], suite: str) -> tuple[int, ...]:
    n_values = cfg.n_values or default
    for n in n_values:
        if n % 3 != 0:
            raise ValueError(f"{suite} sizes must be divisible by 3, got {n}")
    return n_values


def _sharpness_trial(cfg: ExperimentConfig, n: int) -> Verdict:
    member = extremal_graph(n, n // 3, 2)
    family = HypergraphFamily(n, (member,) * (n // 3))
    bound = extremal_adjacent_degree_sum(n)
    stats = member.degree_sum_minima()
    rb = rainbow_matching(family, timeout=cfg.timeout_seconds)
    pm = partite_perfect_matching(extremal_partite(n), timeout=cfg.timeout_seconds)
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
    n_values = _sizes(cfg, (6, 9, 12), "sharpness")
    cases = [
        (f"n={n} copies={n // 3}", partial(_sharpness_trial, cfg, n))
        for n in n_values
    ]
    return _report("sharpness", cfg, cases, n_values=list(n_values))


def _equivalence_trial(cfg: ExperimentConfig, i: int, n: int, t: int) -> Verdict:
    rng = trial_rng(cfg.seed, i)
    prob = _prob_ladder(t, cfg.trials)
    family = random_family(rng, n, n // 3, prob)
    rb = rainbow_matching(family, timeout=cfg.timeout_seconds)
    pm = partite_perfect_matching(
        family_to_partite(family), timeout=cfg.timeout_seconds
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
    n_values = _sizes(cfg, (6, 9), "equivalence")
    jobs = [(n, t) for n in n_values for t in range(cfg.trials)]
    cases = [
        (f"n={n} trial={t}", partial(_equivalence_trial, cfg, i, n, t))
        for i, (n, t) in enumerate(jobs)
    ]
    return _report("equivalence", cfg, cases, n_values=list(n_values))


def _duality_trial(cfg: ExperimentConfig, i: int) -> Verdict:
    rng = trial_rng(cfg.seed, i)
    n = rng.randint(4, 10)
    prob = _prob_ladder(i % 7, 7, 0.1, 0.8)
    graph = random_hypergraph(rng, n, prob)
    # One solve gives both certificates; feasible with equal values,
    # they prove nu* = tau*.
    value, fm, fc = fractional._solve(graph, cfg.timeout_seconds)
    nu, tau = fm.value(), fc.value()
    integral = len(max_matching(graph, timeout=cfg.timeout_seconds))
    ok = (
        nu == tau == value
        and fm.is_feasible(graph)
        and fc.is_feasible(graph)
        and integral <= nu
    )
    detail = f"n={n} m={graph.n_edges} nu*={nu} tau*={tau} nu={integral}"
    witness = sha256_of({"value": str(value), "integral": integral})
    return ok, detail, witness


def run_duality(cfg: ExperimentConfig) -> ExperimentReport:
    """Exact equality of the fractional matching and cover optima."""
    return _report("duality", cfg, _trials(cfg, _duality_trial))


def _codegree_floor(graph: PartiteHypergraph, threshold: int) -> bool:
    """Every spanned class-vertex pair-of-others beats the threshold."""
    for e in graph.edges:
        u = e[0]
        for a, b in combinations(e[1:], 2):
            if graph.degree((u, a)) + graph.degree((u, b)) <= threshold:
                return False
    return True


def _shift_trial(cfg: ExperimentConfig, i: int) -> Verdict:
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
    threshold = (
        cfg.threshold_override
        if cfg.threshold_override is not None
        else extremal_adjacent_degree_sum(p_size)
    )
    res = fractional_pm_pipeline(
        graph,
        threshold=threshold,
        timeout=cfg.timeout_seconds,
    )
    checks = {
        "stable": res.trace.stable and is_stable(res.shifted),
        "contained_in_closure": set(res.shifted.graph.edges)
        <= set(res.closure.graph.edges),
        "codegree_floor": _codegree_floor(res.shifted.graph, threshold),
        "trace_bookkeeping": res.trace.edges_removed
        == res.closure.graph.n_edges - res.shifted.graph.n_edges,
    }
    if res.found and res.matching is not None:
        checks["extension_pm"] = is_perfect_matching_of(
            res.shifted.graph, res.matching.edges
        )
    if q_size <= 3 and res.containment_ok:
        # the cover LP optimum equals nu* of the input by LP duality
        nu_out, _ = max_fractional_matching(
            res.shifted.graph, timeout=cfg.timeout_seconds
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


def absorb_scenario(
    graph: PartiteHypergraph,
    targets: Sequence[Sequence[int]],
    timeout: Optional[float] = 60.0,
) -> tuple[Matching, list]:
    """Pool -> max matching -> absorb -> verified perfect matching.

    Builds one gadget per target (failing loudly when none is found),
    drawing helper vertices from the vertices popular among the
    members' low-degree anchors, reserves the bodies, matches the
    remaining vertices exhaustively, and absorbs the leftover through
    the pool.  Returns the assembled perfect matching and the pool.
    """
    candidates = [
        v + graph.q_size for v in popular_vertices(partite_to_family(graph), 1)
    ]
    pool = []
    reserved: set[int] = set()
    for target in targets:
        gadget = build_gadget(target, graph, candidates)
        if gadget is None:
            raise AbsorptionError(tuple(sorted(target)))
        overlap = reserved & set(gadget.body.vertices())
        if overlap:
            raise ValueError(f"gadget bodies overlap on {sorted(overlap)}")
        reserved |= set(gadget.body.vertices())
        pool.append(gadget)

    rest = sorted(set(range(graph.n_vertices)) - reserved)
    sub, ids = graph.induced(rest)
    m1 = max_matching(sub, timeout=timeout)
    m1_edges = tuple(
        sorted(tuple(sorted(ids[v] for v in e)) for e in m1.edges)
    )
    covered = {v for e in m1_edges for v in e}
    leftover = BalancedSet.from_vertices(
        sorted(set(rest) - covered), graph
    )
    absorbed = absorb(pool, leftover, graph, timeout=timeout)
    combined = Matching(edges=tuple(sorted(m1_edges + absorbed.edges)))
    if not is_perfect_matching_of(graph, combined.edges):
        raise AssertionError("assembled matching is not perfect")
    return combined, pool


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
