"""Command-line exit codes: the exact LP verbs and the timeout option."""

from __future__ import annotations

import io
import json

import pytest

from rainbow_lab.cli import EXIT_FOUND, EXIT_INPUT, EXIT_UNKNOWN, main
from rainbow_lab.hypergraph import complete_hypergraph

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
