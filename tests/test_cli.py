"""Command-line exit codes: every code, timeouts, budgets and malformed input."""

from __future__ import annotations

import functools
import io
import json
import time

import pytest

from rainbow_lab import cli, jsonio
from rainbow_lab.absorbing import build_gadget
from rainbow_lab.cli import (
    EXIT_CRASH,
    EXIT_FOUND,
    EXIT_INPUT,
    EXIT_NONE,
    EXIT_UNKNOWN,
    main,
)
from rainbow_lab.constructions import complete_partite
from rainbow_lab.hypergraph import complete_hypergraph, empty_hypergraph

INSTANCE = complete_hypergraph(3, 6).to_json()


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


# argparse's own usage errors exit 2, which would read as "unknown".
@pytest.mark.parametrize(
    "argv",
    [
        ["exp", "sharpness", "--n-values", "x"],
        ["solve", "nosuch"],
        ["--timeout", "abc", "solve", "pm"],
        ["gen", "extremal", "--n", "6"],
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


@pytest.mark.parametrize(
    "argv, option",
    [
        (["exp", "duality", "--n-values", "7", "--trials", "1"], "--n-values"),
        (["exp", "shift", "--n-values", "6"], "--n-values"),
        (["exp", "absorb", "--n-values", "24"], "--n-values"),
        (["exp", "absorb", "--threshold", "5"], "--threshold"),
        (["exp", "sharpness", "--threshold", "5"], "--threshold"),
        (["exp", "equivalence", "--threshold", "5"], "--threshold"),
        (["exp", "duality", "--threshold", "5"], "--threshold"),
        (["exp", "sharpness", "--trials", "4", "--n-values", "6"], "--trials"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else None,
)
def test_exp_rejects_an_option_its_suite_ignores(monkeypatch, capsys, argv, option):
    code, out, err = run_raw(monkeypatch, capsys, "", *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: exp {argv[1]} does not read {option}\n"


def test_exp_sharpness_accepts_one_trial(monkeypatch, capsys):
    code, out, _ = run_raw(
        monkeypatch, capsys, "", "exp", "sharpness", "--trials", "1", "--n-values", "6"
    )
    assert code == EXIT_FOUND
    assert "trials: 1" in out


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
    stdin = complete_partite(8, 24).to_json()
    code, out, err = run_raw(
        monkeypatch, capsys, stdin,
        "absorb", "gadget", "--a", str(target), "--candidates", str(candidates),
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert "vertex id" in err


def test_gadget_budget_exhaustion_is_unknown(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cli, "build_gadget", functools.partial(build_gadget, node_budget=1))
    target = tmp_path / "a.json"
    target.write_text("[0, 8, 9, 10]")
    stdin = complete_partite(8, 24).to_json()
    code, out, _ = run_raw(monkeypatch, capsys, stdin, "absorb", "gadget", "--a", str(target))
    assert code == EXIT_UNKNOWN
    assert json.loads(out) == {"found": "unknown"}


def _crash(args):
    raise RuntimeError("boom")


@pytest.mark.parametrize(
    "code, stdin, argv",
    [
        (EXIT_FOUND, INSTANCE, ["solve", "pm"]),
        (EXIT_NONE, empty_hypergraph(3, 6).to_json(), ["solve", "pm"]),
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
