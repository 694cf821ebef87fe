"""Command-line interface.

Verbs: gen, stats, solve, frac, shift, absorb, exp.  Instances
travel as JSON on stdin/stdout.  Exit codes: solve-style verbs use
0 = found, 1 = none, 2 = unknown (timeout); exp uses 0 = all pass,
1 = any fail, 2 = any unknown; malformed input exits 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .absorbing import (
    AbsorptionError,
    build_gadget,
    is_absorbing,
)
from .constructions import (
    HypergraphFamily,
    PartiteHypergraph,
    extremal_graph,
    extremal_partite,
    family_to_partite,
)
from .experiments import (
    ExperimentConfig,
    absorb_scenario,
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
    as_plain_hypergraph,
    fraction_to_str,
    load_instance,
    matching_obj,
    rainbow_obj,
)
from .shift import (
    fractional_pm_pipeline,
    identity_order,
    stable_shift,
)
from .solvers import (
    SolverTimeout,
    has_perfect_matching,
    partite_perfect_matching,
    rainbow_matching,
)

EXIT_FOUND = 0
EXIT_NONE = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3


class InputProblem(Exception):
    pass


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _read_stdin_json():
    try:
        return json.load(sys.stdin)
    except json.JSONDecodeError as exc:
        raise InputProblem(f"stdin is not valid JSON: {exc}") from exc


def _load(kind, normalize: bool):
    data = _read_stdin_json()
    try:
        instance = load_instance(data, normalize=normalize)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputProblem(str(exc)) from exc
    if kind is not None and not isinstance(instance, kind):
        raise InputProblem(
            f"expected a {kind.__name__} instance, got {type(instance).__name__}"
        )
    return instance


def _load_vertex_file(path: str) -> list[int]:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputProblem(f"cannot read vertex set {path}: {exc}") from exc
    if not isinstance(data, list) or not all(isinstance(v, int) for v in data):
        raise InputProblem(f"{path} must hold a JSON array of vertex ids")
    return data


def _cmd_gen(args) -> int:
    if args.what == "extremal":
        graph = extremal_graph(args.n, args.s, args.ell)
        _emit(graph.to_dict())
    elif args.what == "partite-extremal":
        _emit(extremal_partite(args.n).to_dict())
    else:  # reduce
        family = _load(HypergraphFamily, args.normalize)
        _emit(family_to_partite(family).to_dict())
    return EXIT_FOUND


def _cmd_stats(args) -> int:
    instance = _load(None, args.normalize)
    if isinstance(instance, HypergraphFamily):
        raise InputProblem("stats expects a single hypergraph, not a family")
    graph = as_plain_hypergraph(instance)
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


def _solve_outcome(found: bool, witness) -> int:
    _emit({"found": found, "witness": witness})
    return EXIT_FOUND if found else EXIT_NONE


def _cmd_solve(args) -> int:
    try:
        if args.what == "pm":
            graph = _load(None, args.normalize)
            if isinstance(graph, HypergraphFamily):
                raise InputProblem("solve pm expects a hypergraph")
            graph = as_plain_hypergraph(graph)
            found, pm = has_perfect_matching(graph, timeout=args.timeout)
            return _solve_outcome(found, matching_obj(pm))
        if args.what == "rainbow":
            family = _load(HypergraphFamily, args.normalize)
            rm = rainbow_matching(family, timeout=args.timeout)
            return _solve_outcome(rm is not None, rainbow_obj(rm))
        family_graph = _load(PartiteHypergraph, args.normalize)
        pm = partite_perfect_matching(family_graph, timeout=args.timeout)
        return _solve_outcome(pm is not None, matching_obj(pm))
    except SolverTimeout:
        _emit({"found": "unknown", "witness": None})
        return EXIT_UNKNOWN


def _cmd_frac(args) -> int:
    instance = _load(None, args.normalize)
    if isinstance(instance, HypergraphFamily):
        raise InputProblem("frac expects a hypergraph or partite instance")
    graph = as_plain_hypergraph(instance)
    try:
        return _frac_verb(args.what, graph, args.timeout)
    except SolverTimeout:
        key = {"check-duality": "equal", "pm": "found"}.get(args.what, "value")
        _emit({key: "unknown"})
        return EXIT_UNKNOWN


def _frac_verb(what: str, graph, timeout: float) -> int:
    if what == "nu-star":
        value, fm = max_fractional_matching(graph, timeout=timeout)
        _emit(
            {
                "value": fraction_to_str(value),
                "weights": [
                    {"edge": list(e), "weight": fraction_to_str(w)}
                    for e, w in sorted(fm.weights.items())
                    if w
                ],
            }
        )
        return EXIT_FOUND
    if what == "tau-star":
        value, fc = min_fractional_cover(graph, timeout=timeout)
        _emit(
            {
                "value": fraction_to_str(value),
                "weights": {
                    str(v): fraction_to_str(w)
                    for v, w in sorted(fc.weights.items())
                    if w
                },
            }
        )
        return EXIT_FOUND
    if what == "check-duality":
        ok = verify_duality(graph, timeout=timeout)
        _emit({"equal": ok})
        return EXIT_FOUND if ok else EXIT_NONE
    found, fm = fractional_perfect_matching(graph, timeout=timeout)
    payload = {"found": found}
    if found and fm is not None:
        payload["weights"] = [
            {"edge": list(e), "weight": fraction_to_str(w)}
            for e, w in sorted(fm.weights.items())
            if w
        ]
    _emit(payload)
    return EXIT_FOUND if found else EXIT_NONE


def _cmd_shift(args) -> int:
    graph = _load(PartiteHypergraph, args.normalize)
    if args.what == "run":
        try:
            shifted, trace = stable_shift(identity_order(graph), args.threshold)
        except ValueError as exc:
            raise InputProblem(str(exc)) from exc
        payload = trace.to_dict()
        payload["edges_left"] = shifted.graph.n_edges
        _emit(payload)
        return EXIT_FOUND
    try:
        res = fractional_pm_pipeline(
            graph, threshold=args.threshold, timeout=args.timeout
        )
    except SolverTimeout:
        _emit({"found": "unknown"})
        return EXIT_UNKNOWN
    payload = {
        "found": res.found,
        "containment": res.containment_ok,
        "cover_value": fraction_to_str(res.cover_value),
        "stable": res.trace.stable,
        "edges_removed": res.trace.edges_removed,
        "value_check": res.value_check,
        "matching": matching_obj(res.matching),
    }
    _emit(payload)
    return EXIT_FOUND if res.found else EXIT_NONE


def _cmd_absorb(args) -> int:
    if args.what == "check":
        graph = _load(PartiteHypergraph, args.normalize)
        body = _load_vertex_file(args.t)
        target = _load_vertex_file(args.a)
        try:
            ok, pms = is_absorbing(body, target, graph, timeout=args.timeout)
        except SolverTimeout:
            _emit({"absorbing": "unknown"})
            return EXIT_UNKNOWN
        payload = {"absorbing": ok}
        if ok and pms:
            payload["pm_body"] = matching_obj(pms[0])
            payload["pm_joint"] = matching_obj(pms[1])
        _emit(payload)
        return EXIT_FOUND if ok else EXIT_NONE
    if args.what == "gadget":
        graph = _load(PartiteHypergraph, args.normalize)
        target = _load_vertex_file(args.a)
        candidates = (
            _load_vertex_file(args.candidates)
            if args.candidates
            else list(graph.p_vertices())
        )
        gadget = build_gadget(target, graph, candidates)
        if gadget is None:
            _emit({"found": False})
            return EXIT_NONE
        _emit(
            {
                "found": True,
                "target": list(gadget.target.vertices()),
                "body": list(gadget.body.vertices()),
                "pm_body": matching_obj(gadget.pm_body),
                "pm_joint": matching_obj(gadget.pm_joint),
            }
        )
        return EXIT_FOUND
    # absorb run < scenario.json
    data = _read_stdin_json()
    try:
        graph = PartiteHypergraph.from_dict(data["partite"], normalize=args.normalize)
        targets = data["targets"]
    except (KeyError, ValueError, TypeError) as exc:
        raise InputProblem(f"bad scenario: {exc}") from exc
    try:
        combined, pool = absorb_scenario(graph, targets, timeout=args.timeout)
    except SolverTimeout:
        _emit({"found": "unknown"})
        return EXIT_UNKNOWN
    except AbsorptionError as exc:
        _emit({"found": False, "unabsorbed": list(exc.unabsorbed)})
        return EXIT_NONE
    _emit(
        {
            "found": True,
            "matching": matching_obj(combined),
            "pool_bodies": [list(g.body.vertices()) for g in pool],
        }
    )
    return EXIT_FOUND


def _cmd_exp(args) -> int:
    cfg = ExperimentConfig(
        seed=args.seed,
        n_values=tuple(args.n_values) if args.n_values else (),
        trials=args.trials,
        timeout_seconds=args.timeout,
        threshold_override=args.threshold,
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
    return [int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbow-lab",
        description="Exact rainbow-matching toolkit for 3-uniform hypergraphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--timeout", type=float, default=60.0, help="solver timeout in seconds"
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

    solve = sub.add_parser("solve", help="exact matching solvers")
    solve_sub = solve.add_subparsers(dest="what", required=True)
    for name in ("pm", "rainbow", "partite-pm"):
        solve_sub.add_parser(name)
    solve.set_defaults(func=_cmd_solve)

    frac = sub.add_parser("frac", help="exact fractional optima")
    frac_sub = frac.add_subparsers(dest="what", required=True)
    for name in ("nu-star", "tau-star", "check-duality", "pm"):
        frac_sub.add_parser(name)
    frac.set_defaults(func=_cmd_frac)

    shift = sub.add_parser("shift", help="stability shift and pipeline")
    shift_sub = shift.add_subparsers(dest="what", required=True)
    shift_run = shift_sub.add_parser("run")
    shift_run.add_argument("--threshold", type=int, required=True)
    shift_pipe = shift_sub.add_parser("pipeline")
    shift_pipe.add_argument("--threshold", type=int, default=None)
    shift.set_defaults(func=_cmd_shift)

    ab = sub.add_parser("absorb", help="absorbing gadgets")
    ab_sub = ab.add_subparsers(dest="what", required=True)
    ab_check = ab_sub.add_parser("check")
    ab_check.add_argument("--t", required=True, help="body vertex-set JSON file")
    ab_check.add_argument("--a", required=True, help="target vertex-set JSON file")
    ab_gadget = ab_sub.add_parser("gadget")
    ab_gadget.add_argument("--a", required=True)
    ab_gadget.add_argument("--candidates", default=None)
    ab_sub.add_parser("run")
    ab.set_defaults(func=_cmd_absorb)

    exp = sub.add_parser("exp", help="experiment suites")
    exp.add_argument(
        "what",
        choices=("sharpness", "equivalence", "duality", "shift", "absorb"),
    )
    exp.add_argument("--n-values", type=_int_list, default=None)
    exp.add_argument("--trials", type=int, default=1)
    exp.add_argument("--threshold", type=int, default=None)
    exp.set_defaults(func=_cmd_exp)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
