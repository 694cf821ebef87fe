"""Command-line interface.

Verbs: gen, stats, solve, frac, shift, absorb, exp.  Instances
travel as JSON on stdin/stdout.  Exit codes: solve-style verbs use
0 = found, 1 = none, 2 = unknown (timeout or budget); exp uses
0 = all pass, 1 = any fail, 2 = any unknown.  Malformed input exits 3,
and so does a usage error (an unknown verb, a bad option value); an
unexpected error prints its traceback on stderr and exits 4.

Each verb prints its answer through ``_outcome``.  A timeout or spent
budget anywhere below a verb is caught once, in ``main``, which prints
the ``unknown`` payload the verb declares next to its ``func``.  In
``shift pipeline`` the payload's ``found`` reports the construction,
while the exit code reports whether tau* = q (the cover LP optimum).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from typing import Optional

from . import __version__
from .absorbing import (
    AbsorptionError,
    absorb_scenario,
    build_gadget,
    is_absorbing,
)
from .constructions import (
    HypergraphFamily,
    PartiteHypergraph,
    _extremal_edge_count,
    _tight_class_count,
    extremal_graph,
    extremal_partite,
    family_to_partite,
)
from .experiments import (
    ExperimentConfig,
    run_absorb_suite,
    run_duality,
    run_equivalence,
    run_sharpness,
    run_shift_suite,
)
from .fractional import (
    fractional_perfect_matching,
    max_fractional_matching,
    min_fractional_cover,
    verify_duality,
)
from .hypergraph import Hypergraph
from .jsonio import (
    bound_edges,
    fraction_to_str,
    load_instance,
    load_vertices,
    matching_obj,
    rainbow_obj,
    vertex_count,
)
from .shift import (
    fractional_pm_pipeline,
    identity_order,
    stable_shift,
)
from .solvers import (
    DEFAULT_TIMEOUT,
    SolverTimeout,
    has_perfect_matching,
    partite_perfect_matching,
    rainbow_matching,
)

EXIT_FOUND = 0
EXIT_NONE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_CRASH = 4


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _outcome(found: bool, payload) -> int:
    _emit(payload)
    return EXIT_FOUND if found else EXIT_NONE


def _read_stdin_json():
    try:
        return json.load(sys.stdin)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"stdin is not valid JSON: {exc}") from exc


def _load(kind, normalize: bool):
    return load_instance(_read_stdin_json(), normalize=normalize, kind=kind)


def _load_vertex_file(path: str) -> list[int]:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"cannot read vertex set {path}: {exc}") from exc
    return load_vertices(data, path)


def _cmd_gen(args) -> int:
    # Bounded like instance input, so gen emits nothing load_instance
    # refuses, and by its edge count in closed form, so it never starts
    # enumerating more than MAX_EDGES edges.
    if args.what == "extremal":
        vertex_count(args.n)
        bound_edges(_extremal_edge_count(args.n, args.s, args.ell), "gen extremal")
        instance = extremal_graph(args.n, args.s, args.ell)
    elif args.what == "partite-extremal":
        t = _tight_class_count(args.n)
        vertex_count(args.n + t)
        bound_edges(t * _extremal_edge_count(args.n, t, 2), "gen partite-extremal")
        instance = extremal_partite(args.n)
    else:  # reduce
        instance = family_to_partite(_load(HypergraphFamily, args.normalize))
    return _outcome(True, instance.to_dict())


def _cmd_stats(args) -> int:
    graph = _load(Hypergraph, args.normalize)
    minima = graph.degree_sum_minima() if graph.n_vertices >= 2 else None
    payload = {
        "k": graph.k,
        "n": graph.n_vertices,
        "edges": graph.n_edges,
        "isolated": list(graph.isolated_vertices()),
        "min_degree_1": graph.min_degree(1) if graph.n_vertices else None,
        "degree_sum_min": None
        if minima is None
        else {
            "adjacent": minima.adjacent,
            "all": minima.all_pairs,
            "nonadjacent": minima.nonadjacent,
        },
    }
    if args.json:
        _emit(payload)
    else:
        for key in ("k", "n", "edges", "isolated", "min_degree_1"):
            print(f"{key}: {payload[key]}")
        print(f"degree_sum_min: {payload['degree_sum_min']}")
    return EXIT_FOUND


def _cmd_solve(args) -> int:
    if args.what == "pm":
        graph = _load(Hypergraph, args.normalize)
        found, pm = has_perfect_matching(graph, timeout=args.timeout)
        witness = matching_obj(pm)
    elif args.what == "rainbow":
        family = _load(HypergraphFamily, args.normalize)
        rm = rainbow_matching(family, timeout=args.timeout)
        found, witness = rm is not None, rainbow_obj(rm)
    else:
        family_graph = _load(PartiteHypergraph, args.normalize)
        pm = partite_perfect_matching(family_graph, timeout=args.timeout)
        found, witness = pm is not None, matching_obj(pm)
    return _outcome(found, {"found": found, "witness": witness})


def _edge_weights(fm) -> list[dict]:
    return [
        {"edge": list(e), "weight": fraction_to_str(w)}
        for e, w in sorted(fm.weights.items())
        if w
    ]


def _cmd_frac(args) -> int:
    graph = _load(Hypergraph, args.normalize)
    if args.what == "nu-star":
        value, fm = max_fractional_matching(graph, timeout=args.timeout)
        return _outcome(
            True, {"value": fraction_to_str(value), "weights": _edge_weights(fm)}
        )
    if args.what == "tau-star":
        value, fc = min_fractional_cover(graph, timeout=args.timeout)
        weights = {
            str(v): fraction_to_str(w) for v, w in sorted(fc.weights.items()) if w
        }
        return _outcome(True, {"value": fraction_to_str(value), "weights": weights})
    if args.what == "check-duality":
        ok = verify_duality(graph, timeout=args.timeout) is not None
        return _outcome(ok, {"equal": ok})
    found, fm = fractional_perfect_matching(graph, timeout=args.timeout)
    payload = {"found": found}
    if found:
        payload["weights"] = _edge_weights(fm)
    return _outcome(found, payload)


def _cmd_shift(args) -> int:
    graph = _load(PartiteHypergraph, args.normalize)
    if args.what == "run":
        shifted, trace = stable_shift(
            identity_order(graph), args.threshold, timeout=args.timeout
        )
        return _outcome(
            True, {**trace.to_dict(), "edges_left": shifted.graph.n_edges}
        )
    res = fractional_pm_pipeline(graph, timeout=args.timeout)
    payload = {
        "found": res.found,
        "containment": res.containment_ok,
        "cover_value": fraction_to_str(res.cover_value),
        "stable": res.trace.stable,
        "edges_removed": res.trace.edges_removed,
        "value_check": res.value_check,
        "matching": matching_obj(res.matching),
    }
    return _outcome(res.cover_value == graph.q_size, payload)


def _cmd_absorb(args) -> int:
    if args.what == "check":
        graph = _load(PartiteHypergraph, args.normalize)
        body = _load_vertex_file(args.t)
        target = _load_vertex_file(args.a)
        ok, pms = is_absorbing(body, target, graph, timeout=args.timeout)
        payload = {"absorbing": ok}
        if ok:
            payload["pm_body"] = matching_obj(pms[0])
            payload["pm_joint"] = matching_obj(pms[1])
        return _outcome(ok, payload)
    if args.what == "gadget":
        graph = _load(PartiteHypergraph, args.normalize)
        target = _load_vertex_file(args.a)
        candidates = (
            _load_vertex_file(args.candidates)
            if args.candidates
            else list(graph.p_vertices())
        )
        gadget = build_gadget(target, graph, candidates, timeout=args.timeout)
        if gadget is None:
            return _outcome(False, {"found": False})
        payload = {
            "found": True,
            "target": list(gadget.target.vertices()),
            "body": list(gadget.body.vertices()),
            "pm_body": matching_obj(gadget.pm_body),
            "pm_joint": matching_obj(gadget.pm_joint),
        }
        return _outcome(True, payload)
    # absorb run < scenario.json
    data = _read_stdin_json()
    if not isinstance(data, dict) or set(data) != {"partite", "targets"}:
        raise ValueError('scenario must be {"partite": ..., "targets": [[...], ...]}')
    graph = load_instance(data["partite"], args.normalize, kind=PartiteHypergraph)
    if not isinstance(data["targets"], list):
        raise ValueError("targets must be a list of vertex sets")
    targets = [load_vertices(t, "target") for t in data["targets"]]
    try:
        combined, pool = absorb_scenario(graph, targets, timeout=args.timeout)
    except AbsorptionError as exc:
        return _outcome(False, {"found": False, "unabsorbed": list(exc.unabsorbed)})
    payload = {
        "found": True,
        "matching": matching_obj(combined),
        "pool_bodies": [list(g.body.vertices()) for g in pool],
    }
    return _outcome(True, payload)


def _cmd_exp(args) -> int:
    ignored = {
        "--n-values": args.n_values is not None
        and args.what in ("duality", "shift", "absorb"),
        "--trials": args.trials != 1 and args.what == "sharpness",
    }
    for option, given in ignored.items():
        if given:
            raise ValueError(f"exp {args.what} does not read {option}")
    cfg = ExperimentConfig(
        seed=args.seed,
        n_values=tuple(args.n_values or ()),
        trials=args.trials,
        timeout_seconds=args.timeout,
    )
    runner = {
        "sharpness": run_sharpness,
        "equivalence": run_equivalence,
        "duality": run_duality,
        "shift": run_shift_suite,
        "absorb": run_absorb_suite,
    }[args.what]
    report = runner(cfg)
    if args.json:
        print(report.to_json())
    else:
        print(report.to_table())
    return {"pass": EXIT_FOUND, "fail": EXIT_NONE, "unknown": EXIT_UNKNOWN}[
        report.aggregate
    ]


def _int_list(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


class _Parser(argparse.ArgumentParser):
    """A malformed command line is malformed input: exit 3, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rainbow-lab",
        description="Exact rainbow-matching toolkit for 3-uniform hypergraphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--timeout", type=float, default=DEFAULT_TIMEOUT, help="solver timeout in seconds"
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    parser.add_argument(
        "--normalize",
        action="store_true",
        help="repair unsorted or duplicate edges when reading instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instances")
    gen_sub = gen.add_subparsers(dest="what", required=True)
    gen_ext = gen_sub.add_parser("extremal")
    gen_ext.add_argument("--n", type=int, required=True)
    gen_ext.add_argument("--s", type=int, required=True)
    gen_ext.add_argument("--ell", type=int, required=True, choices=(1, 2, 3))
    gen_pe = gen_sub.add_parser("partite-extremal")
    gen_pe.add_argument("--n", type=int, required=True)
    gen_sub.add_parser("reduce")
    gen.set_defaults(func=_cmd_gen)

    stats = sub.add_parser("stats", help="degree statistics of a hypergraph")
    stats.set_defaults(func=_cmd_stats)

    # ``unknown``: what a verb prints when its search or LP runs out of
    # time or budget.
    solve = sub.add_parser("solve", help="exact matching solvers")
    solve_sub = solve.add_subparsers(dest="what", required=True)
    for name in ("pm", "rainbow", "partite-pm"):
        solve_sub.add_parser(name)
    solve.set_defaults(func=_cmd_solve, unknown={"found": "unknown", "witness": None})

    frac = sub.add_parser("frac", help="exact fractional optima")
    frac_sub = frac.add_subparsers(dest="what", required=True)
    for name, key in (
        ("nu-star", "value"),
        ("tau-star", "value"),
        ("check-duality", "equal"),
        ("pm", "found"),
    ):
        frac_sub.add_parser(name).set_defaults(unknown={key: "unknown"})
    frac.set_defaults(func=_cmd_frac)

    shift = sub.add_parser("shift", help="stability shift and pipeline")
    shift_sub = shift.add_subparsers(dest="what", required=True)
    shift_run = shift_sub.add_parser("run")
    shift_run.add_argument("--threshold", type=int, required=True)
    shift_run.set_defaults(unknown={"stable": "unknown"})
    shift_sub.add_parser("pipeline").set_defaults(unknown={"found": "unknown"})
    shift.set_defaults(func=_cmd_shift)

    ab = sub.add_parser("absorb", help="absorbing gadgets")
    ab_sub = ab.add_subparsers(dest="what", required=True)
    ab_check = ab_sub.add_parser("check")
    ab_check.add_argument("--t", required=True, help="body vertex-set JSON file")
    ab_check.add_argument("--a", required=True, help="target vertex-set JSON file")
    ab_check.set_defaults(unknown={"absorbing": "unknown"})
    ab_gadget = ab_sub.add_parser("gadget")
    ab_gadget.add_argument("--a", required=True)
    ab_gadget.add_argument("--candidates", default=None)
    ab_gadget.set_defaults(unknown={"found": "unknown"})
    ab_sub.add_parser("run").set_defaults(unknown={"found": "unknown"})
    ab.set_defaults(func=_cmd_absorb)

    exp = sub.add_parser("exp", help="experiment suites")
    exp.add_argument(
        "what",
        choices=("sharpness", "equivalence", "duality", "shift", "absorb"),
    )
    exp.add_argument("--n-values", type=_int_list, default=None)
    exp.add_argument("--trials", type=int, default=1)
    exp.set_defaults(func=_cmd_exp)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not args.timeout > 0:
            raise ValueError(
                f"--timeout must be a positive number of seconds, got {args.timeout}"
            )
        try:
            return args.func(args)
        except SolverTimeout:
            _emit(args.unknown)
            return EXIT_UNKNOWN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
