"""Command-line exit codes: every code, timeouts, budgets and malformed input."""

from __future__ import annotations

import dataclasses
import functools
import io
import json
import time
from itertools import combinations

import pytest

from rainbow_lab import cli, experiments, fractional, jsonio
from rainbow_lab.absorbing import build_gadget
from rainbow_lab.cli import (
    EXIT_CRASH,
    EXIT_FOUND,
    EXIT_INPUT,
    EXIT_NONE,
    EXIT_UNKNOWN,
    main,
)
from rainbow_lab.constructions import (
    HypergraphFamily,
    PartiteHypergraph,
    complete_partite,
    extremal_graph,
    extremal_partite,
)
from rainbow_lab.hypergraph import complete_hypergraph, empty_hypergraph
from rainbow_lab.jsonio import canonical_json

INSTANCE = canonical_json(complete_hypergraph(3, 6).to_dict())


def run(monkeypatch, capsys, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(INSTANCE))
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "verb, key",
    [
        ("nu-star", "value"),
        ("tau-star", "value"),
        ("check-duality", "equal"),
        ("pm", "found"),
    ],
)
def test_frac_timeout_is_unknown(monkeypatch, capsys, verb, key):
    code, out = run(monkeypatch, capsys, "--timeout", "1e-9", "frac", verb)
    assert code == EXIT_UNKNOWN
    assert out == {key: "unknown"}


def test_frac_within_timeout_answers(monkeypatch, capsys):
    code, out = run(monkeypatch, capsys, "frac", "tau-star")
    assert code == EXIT_FOUND
    assert out["value"] == "2/1"


@pytest.mark.parametrize("timeout", ["0", "-1", "-0.5", "nan"])
@pytest.mark.parametrize("verb", [("solve", "pm"), ("frac", "nu-star")], ids=" ".join)
def test_nonpositive_timeout_is_input_error(monkeypatch, capsys, timeout, verb):
    monkeypatch.setattr("sys.stdin", io.StringIO(INSTANCE))
    assert main(["--timeout", timeout, *verb]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--timeout" in captured.err


def run_raw(monkeypatch, capsys, stdin, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Malformed inputs that used to crash with exit 1 (which means "none"),
# pass as a valid instance, or hang building a huge vertex set.
MALFORMED = [
    ('{"k":3,"n":6.0,"edges":[[0,1,2]]}', ["stats"]),
    ('{"k":3,"n":6,"edges":[[0,1,2.0]]}', ["solve", "pm"]),
    ('{"k":3,"n":6,"edges":[[0,true,2],[3,4,5]]}', ["--normalize", "solve", "pm"]),
    ('{"k":3.5,"n":6,"edges":[]}', ["solve", "pm"]),
    ('{"q":1,"p":3.0,"edges":[[0,1,2,3]]}', ["solve", "partite-pm"]),
    ('{"q":true,"p":3,"edges":[[0,1,2,3]]}', ["solve", "partite-pm"]),
    ('{"partite":{"q":1,"p":3,"edges":[[0,1,2,3]]},"targets":5}', ["absorb", "run"]),
    (
        '{"n":6,"members":[{"k":3,"n":6,"edges":[[0,1,2]]}],"q":1}',
        ["solve", "rainbow"],
    ),
    ('{"k":3,"n":100000000,"edges":[]}', ["stats"]),
]


@pytest.mark.parametrize("stdin, argv", MALFORMED, ids=[" ".join(a) for _, a in MALFORMED])
def test_malformed_input_exits_3(monkeypatch, capsys, stdin, argv):
    code, out, err = run_raw(monkeypatch, capsys, stdin, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "extremal", "--n", "3000", "--s", "1", "--ell", "1"],
        ["gen", "extremal", "--n", "-1", "--s", "1", "--ell", "1"],
        ["gen", "partite-extremal", "--n", "3000"],
        ["gen", "partite-extremal", "--n", "1023"],
    ],
    ids=" ".join,
)
def test_gen_rejects_vertex_count_outside_bound(monkeypatch, capsys, argv):
    code, out, err = run_raw(monkeypatch, capsys, "", *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: vertex count")


@pytest.mark.parametrize("n", ["0", "1"])
def test_gen_partite_extremal_refuses_n_below_three(monkeypatch, capsys, n):
    code, out, err = run_raw(monkeypatch, capsys, "", "gen", "partite-extremal", "--n", n)
    assert (code, out, err) == (EXIT_INPUT, "", f"error: n must be >= 3, got {n}\n")


@pytest.mark.parametrize("n", [-3, -1, 2, 4, 10])
def test_gen_partite_extremal_names_the_n_given(monkeypatch, capsys, n):
    # n is checked by extremal_partite's own rule before the instance is
    # bounded, so the error names the n given, not the vertex count
    # n + n // 3 (-4 for n = -3), and nothing is built
    with pytest.raises(ValueError) as refused:
        extremal_partite(n)
    monkeypatch.setattr(cli, "extremal_partite", forbidden)
    code, out, err = run_raw(monkeypatch, capsys, "", "gen", "partite-extremal", "--n", str(n))
    assert (code, out, err) == (EXIT_INPUT, "", f"error: {refused.value}\n")
    assert str(refused.value).endswith(f"got {n}")


def test_gen_partite_extremal_three_is_edgeless(monkeypatch, capsys):
    code, out, _ = run_raw(monkeypatch, capsys, "", "gen", "partite-extremal", "--n", "3")
    assert code == EXIT_FOUND
    assert json.loads(out) == {"edges": [], "p": 3, "q": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ["exp", "sharpness", "--n-values", "3000"],
        ["exp", "equivalence", "--n-values", "6,1026"],
    ],
    ids=" ".join,
)
def test_exp_rejects_vertex_count_outside_bound(monkeypatch, capsys, argv):
    code, out, err = run_raw(monkeypatch, capsys, "", *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: vertex count")


# argparse's own usage errors exit 2, which would read as "unknown".  An
# explicit empty --n-values is one: it must not run the default sizes.
# The pipeline shifts at the paper's bound; only ``shift run`` takes one.
@pytest.mark.parametrize(
    "argv",
    [
        ["exp", "sharpness", "--n-values", "x"],
        ["solve", "nosuch"],
        ["--timeout", "abc", "solve", "pm"],
        ["gen", "extremal", "--n", "6"],
        ["exp", "equivalence", "--n-values", ","],
        ["shift", "pipeline", "--threshold", "5"],
    ],
    ids=" ".join,
)
def test_usage_error_exits_3(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: rainbow-lab")
    assert "error: " in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["--version"]], ids=" ".join)
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    assert capsys.readouterr().out != ""


@pytest.mark.parametrize(
    "argv, vertices",
    [
        (["gen", "extremal", "--n", "12", "--s", "4", "--ell", "2"], 12),
        (["gen", "extremal", "--n", "13", "--s", "4", "--ell", "2"], None),
        (["gen", "partite-extremal", "--n", "9"], 12),
        (["gen", "partite-extremal", "--n", "12"], None),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else None,
)
def test_gen_bound_is_the_input_bound(monkeypatch, capsys, argv, vertices):
    monkeypatch.setattr(jsonio, "MAX_VERTICES", 12)
    code, out, _ = run_raw(monkeypatch, capsys, "", *argv)
    if vertices is None:
        assert code == EXIT_INPUT and out == ""
    else:
        assert code == EXIT_FOUND
        assert jsonio.load_instance(json.loads(out)).n_vertices == vertices


def test_gen_extremal_time_follows_the_edges_kept(monkeypatch, capsys):
    # T is empty, so no triple is kept out of C(1024, 3)
    start = time.perf_counter()
    code, out, _ = run_raw(
        monkeypatch, capsys, "", "gen", "extremal", "--n", "1024", "--s", "1", "--ell", "1"
    )
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_FOUND
    assert json.loads(out) == {"edges": [], "k": 3, "n": 1024}


def forbidden(*args, **kwargs):
    raise AssertionError("started enumerating an oversized instance")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "extremal", "--n", "1024", "--s", "341", "--ell", "3"],
        ["gen", "partite-extremal", "--n", "768"],
        ["exp", "sharpness", "--n-values", "150"],
        ["exp", "equivalence", "--n-values", "150"],
    ],
    ids=" ".join,
)
def test_oversized_instances_exit_3_before_enumerating(monkeypatch, capsys, argv):
    # 177M, 14.2G, 20.2M and 27.6M edges: each is refused by its closed-form
    # count, so no builder runs
    for module, name in [
        (cli, "extremal_graph"),
        (cli, "extremal_partite"),
        (experiments, "extremal_graph"),
        (experiments, "extremal_partite"),
        (experiments, "random_family"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    start = time.perf_counter()
    code, out, err = run_raw(monkeypatch, capsys, "", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ") and f"edges, above the bound {jsonio.MAX_EDGES}" in err


@pytest.mark.parametrize(
    "argv, edges",
    [
        (["gen", "extremal", "--n", "12", "--s", "4", "--ell", "2"], 140),
        (["gen", "partite-extremal", "--n", "12"], 4 * 140),
        (["exp", "sharpness", "--n-values", "12"], 4 * 140),
        (["exp", "equivalence", "--n-values", "6", "--trials", "1"], 2 * 20),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else None,
)
def test_edge_bound_is_exact(monkeypatch, capsys, argv, edges):
    monkeypatch.setattr(jsonio, "MAX_EDGES", edges)
    code, _, _ = run_raw(monkeypatch, capsys, "", *argv)
    assert code == EXIT_FOUND
    monkeypatch.setattr(jsonio, "MAX_EDGES", edges - 1)
    code, out, _ = run_raw(monkeypatch, capsys, "", *argv)
    assert code == EXIT_INPUT and out == ""


@pytest.mark.parametrize(
    "argv, option",
    [
        (["exp", "duality", "--n-values", "7", "--trials", "1"], "--n-values"),
        (["exp", "shift", "--n-values", "6"], "--n-values"),
        (["exp", "absorb", "--n-values", "24"], "--n-values"),
        (["exp", "sharpness", "--trials", "4", "--n-values", "6"], "--trials"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else None,
)
def test_exp_rejects_an_option_its_suite_ignores(monkeypatch, capsys, argv, option):
    code, out, err = run_raw(monkeypatch, capsys, "", *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: exp {argv[1]} does not read {option}\n"


@pytest.mark.parametrize("what", ["sharpness", "equivalence", "duality", "shift", "absorb"])
def test_exp_has_no_threshold_option(capsys, what):
    # The shift suite's threshold is the paper's, per trial; only
    # ``shift run`` takes one.
    with pytest.raises(SystemExit) as stop:
        main(["exp", what, "--threshold", "5"])
    assert stop.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --threshold 5" in captured.err


def test_shift_run_timeout_is_unknown(monkeypatch, capsys):
    # every class-vertex pair degree of complete_partite(3, 9) is
    # C(8, 2) = 28, so at threshold 56 every triple is deficient and the
    # shift has rounds; the first one finds the deadline spent
    stdin = canonical_json(complete_partite(3, 9).to_dict())
    code, out, _ = run_raw(
        monkeypatch, capsys, stdin, "--timeout", "1e-9", "shift", "run", "--threshold", "56"
    )
    assert code == EXIT_UNKNOWN
    assert json.loads(out) == {"stable": "unknown"}


def test_exp_json_carries_runtimes_outside_its_digest(monkeypatch, capsys):
    # the digest's first 16 characters are those of the "exp pass" golden table
    code, out, err = run_raw(
        monkeypatch, capsys, "", "--json", "exp", "sharpness", "--n-values", "6"
    )
    assert (code, err) == (EXIT_FOUND, "")
    report = json.loads(out)
    digest = report.pop("digest")
    assert digest == "804181cd15f653fccfe25a3bcc202332ec3a6ba347c46593dd501dd386ff9a92"
    assert report["rows"] and all("runtime_ms" in row for row in report["rows"])
    for row in report["rows"]:
        del row["runtime_ms"]
    assert jsonio.sha256_of(report) == digest


def test_exp_sharpness_accepts_one_trial(monkeypatch, capsys):
    code, out, _ = run_raw(
        monkeypatch, capsys, "", "exp", "sharpness", "--trials", "1", "--n-values", "6"
    )
    assert code == EXIT_FOUND
    assert "trials: 1" in out


@pytest.mark.parametrize("n_values", ["0", "3,6"])
def test_exp_sharpness_refuses_sizes_below_six(monkeypatch, capsys, n_values):
    # below n = 6 the tight member has no edge, so its degree-sum minimum
    # is None, not the closed form: the suite refuses such a size before
    # any trial runs, rather than printing a fail row or an error about
    # an argument the user never gave
    monkeypatch.setattr(experiments, "rainbow_matching", None)
    code, out, err = run_raw(
        monkeypatch, capsys, "", "exp", "sharpness", "--n-values", n_values
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert err == (
        f"error: sharpness sizes must be at least 6, got {n_values[0]}: the tight "
        "member extremal_graph(n, n/3, 2) has no edge below n = 6\n"
    )


def test_deeply_nested_json_exits_3(monkeypatch, capsys):
    code, out, err = run_raw(monkeypatch, capsys, "[" * 100000 + "]" * 100000, "stats")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: stdin is not valid JSON")


def test_vertex_file_rejects_bools(monkeypatch, capsys, tmp_path):
    target = tmp_path / "a.json"
    target.write_text("[0, 8, 9, 10]")
    candidates = tmp_path / "c.json"
    candidates.write_text(json.dumps([True] + list(range(11, 32))))
    stdin = canonical_json(complete_partite(8, 24).to_dict())
    code, out, err = run_raw(
        monkeypatch, capsys, stdin,
        "absorb", "gadget", "--a", str(target), "--candidates", str(candidates),
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert "vertex id" in err


def test_unreadable_vertex_file_exits_3(monkeypatch, capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    stdin = canonical_json(complete_partite(7, 21).to_dict())
    code, out, err = run_raw(
        monkeypatch, capsys, stdin, "absorb", "check", "--t", missing, "--a", missing
    )
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith(f"error: cannot read vertex set {missing}: ")


def test_scenario_of_the_wrong_shape_exits_3(monkeypatch, capsys):
    code, out, err = run_raw(monkeypatch, capsys, "[1, 2]", "absorb", "run")
    assert (code, out) == (EXIT_INPUT, "")
    assert err == 'error: scenario must be {"partite": ..., "targets": [[...], ...]}\n'


@pytest.mark.parametrize(
    "argv, files",
    [
        (
            ["absorb", "gadget"],
            {"--a": [0, 8, 9, 10], "--candidates": [1000, 1001, 1002, -5, 40, 41]},
        ),
        (["absorb", "gadget"], {"--a": [0, 8, 8, 9, 10]}),
        (
            ["absorb", "check"],
            {"--t": [*range(1, 7), *range(11, 29), 11], "--a": [0, 8, 9, 10]},
        ),
    ],
    ids=["candidates-outside", "target-repeats", "body-repeats"],
)
def test_bad_gadget_vertex_set_exits_3(monkeypatch, capsys, tmp_path, argv, files):
    # each used to search (60 s, then unknown) or answer for the de-duplicated set
    options = []
    for flag, ids in files.items():
        path = tmp_path / f"{flag.strip('-')}.json"
        path.write_text(json.dumps(ids))
        options += [flag, str(path)]
    stdin = canonical_json(complete_partite(8, 24).to_dict())
    code, out, err = run_raw(monkeypatch, capsys, stdin, "--timeout", "5", *argv, *options)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ")


def test_gadget_budget_exhaustion_is_unknown(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cli, "build_gadget", functools.partial(build_gadget, node_budget=1))
    target = tmp_path / "a.json"
    target.write_text("[0, 8, 9, 10]")
    stdin = canonical_json(complete_partite(8, 24).to_dict())
    code, out, _ = run_raw(monkeypatch, capsys, stdin, "absorb", "gadget", "--a", str(target))
    assert code == EXIT_UNKNOWN
    assert json.loads(out) == {"found": "unknown"}


def test_gadget_deadline_is_unknown(monkeypatch, capsys, tmp_path):
    # only class vertex 0 lies on edges, so the search would run for minutes
    graph = PartiteHypergraph(8, 24, [(0,) + t for t in combinations(range(8, 32), 3)])
    target = tmp_path / "a.json"
    target.write_text("[0, 8, 9, 10]")
    start = time.monotonic()
    code, out, _ = run_raw(
        monkeypatch, capsys, canonical_json(graph.to_dict()),
        "--timeout", "0.2", "absorb", "gadget", "--a", str(target),
    )
    assert time.monotonic() - start < 2.0
    assert code == EXIT_UNKNOWN
    assert json.loads(out) == {"found": "unknown"}


@pytest.mark.parametrize(
    "targets, code, out",
    [
        # room for one body only: the second target is unabsorbed, not malformed
        ([[0, 8, 9, 10], [1, 11, 12, 13]], EXIT_NONE, {"found": False, "unabsorbed": [1, 11, 12, 13]}),
        ([[0, 8, 9, 10], [0, 11, 12, 13]], EXIT_INPUT, None),
    ],
    ids=["room-for-one", "shared-vertex"],
)
def test_absorb_run_with_two_targets(monkeypatch, capsys, targets, code, out):
    stdin = json.dumps({"partite": complete_partite(8, 24).to_dict(), "targets": targets})
    got, printed, err = run_raw(monkeypatch, capsys, stdin, "absorb", "run")
    assert got == code
    if out is None:
        assert printed == "" and "targets must be pairwise disjoint" in err
    else:
        assert json.loads(printed) == out


def test_tight_rainbow_n18_is_none(monkeypatch, capsys):
    # Its cover value is 11/2 < 6: the certificate answers where the
    # search alone ran past the default timeout.
    family = HypergraphFamily(18, (extremal_graph(18, 6, 2),) * 6)
    start = time.monotonic()
    code, out, err = run_raw(monkeypatch, capsys, canonical_json(family.to_dict()), "solve", "rainbow")
    assert time.monotonic() - start < 10.0
    assert code == EXIT_NONE and err == ""
    assert json.loads(out) == {"found": False, "witness": None}


@pytest.mark.parametrize("argv", [["frac", "check-duality"], ["exp", "duality"]], ids=" ".join)
def test_rejected_lp_certificate_exits_4(monkeypatch, capsys, argv):
    # a certificate that fails the check is a fault of the package, never a none
    solve = fractional._solve

    def off_by_one(graph, timeout):
        optimum = solve(graph, timeout)
        return dataclasses.replace(optimum, value=optimum.value + 1)

    monkeypatch.setattr(fractional, "_solve", off_by_one)
    code, out, err = run_raw(monkeypatch, capsys, INSTANCE, *argv)
    assert (code, out) == (EXIT_CRASH, "")
    assert "AssertionError: LP certificates" in err


def _crash(args):
    raise RuntimeError("boom")


@pytest.mark.parametrize(
    "code, stdin, argv",
    [
        (EXIT_FOUND, INSTANCE, ["solve", "pm"]),
        (EXIT_NONE, canonical_json(empty_hypergraph(3, 6).to_dict()), ["solve", "pm"]),
        (EXIT_UNKNOWN, INSTANCE, ["--timeout", "1e-9", "frac", "nu-star"]),
        (EXIT_INPUT, "[]", ["stats"]),
        (EXIT_CRASH, INSTANCE, ["stats"]),
    ],
)
def test_exit_codes(monkeypatch, capsys, code, stdin, argv):
    if code == EXIT_CRASH:
        monkeypatch.setattr(cli, "_cmd_stats", _crash)
    got, out, err = run_raw(monkeypatch, capsys, stdin, *argv)
    assert got == code
    if code == EXIT_CRASH:
        assert out == ""
        assert "Traceback" in err and "RuntimeError: boom" in err
    elif code == EXIT_INPUT:
        assert out == "" and err.startswith("error: ")
    else:
        assert err == ""
        json.loads(out)
