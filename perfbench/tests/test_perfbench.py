"""Tests of the benchmark's own arithmetic, generators and answer checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import rainbow_lab as rl  # noqa: E402


# -- percentile and spread arithmetic -----------------------------------------


def test_tail_has_exactly_ten_values_beyond():
    values = [float(v) for v in range(1, 31)]
    value, pct = metrics.tail(values)
    assert value == 20.0
    assert pct == 66
    assert sum(1 for v in values if v > value) == 10


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4
    assert metrics.tail(values) == metrics.tail(sorted(values))


def test_tail_without_enough_values_is_the_maximum():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100)
    assert metrics.tail([float(v) for v in range(10)]) == (9.0, 100)


def test_tail_with_eleven_values():
    assert metrics.tail([float(v) for v in range(11)]) == (0.0, 9)


def test_summarize_uses_per_op_medians():
    latencies = [[0.1, 0.3, 0.2], [1.0, 1.0, 5.0]]
    out = metrics.summarize(latencies)
    assert out["ops_per_s"] == pytest.approx(2 / (0.2 + 1.0))
    assert out["op_ms_p50"] == pytest.approx(600.0)


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert metrics.spread(values) == pytest.approx((q3 - q1) / q2)


def test_probe_runs_without_gc_and_restores_it():
    import gc

    assert gc.isenabled()
    assert metrics.probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        metrics.probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_scaled_divides_out_probe_speed():
    assert metrics.scaled(1.0, metrics.PROBE_REFERENCE_S) == pytest.approx(1.0)
    assert metrics.scaled(1.0, 2 * metrics.PROBE_REFERENCE_S) == pytest.approx(0.5)


# -- self time ----------------------------------------------------------------


def span(name, start, end, parent, op=0, counts=None):
    return [name, start, end, parent, op, counts]


def test_self_time_subtracts_union_of_children():
    spans = [
        span("op", 0, 100, -1),
        span("solvers.rainbow_matching", 10, 40, 0),
        span("solvers.has_perfect_matching", 30, 60, 0),  # overlaps the first
        span("kernel.exact_cover", 35, 55, 2),
    ]
    assert tracing.self_times(spans) == [50, 30, 10, 20]


def test_self_time_without_children_is_duration():
    assert tracing.self_times([span("op", 5, 17, -1)]) == [12]


def test_layer_metrics_shares_and_counts():
    spans = [
        span("op", 0, 1000, -1, op=0),
        span("solvers.rainbow_matching", 0, 1000, 0, op=0),
        span("kernel.rainbow_search", 100, 1000, 1, op=0, counts={"nodes": 450, "aborted": 0}),
        span("op", 2000, 2500, -1, op=1),
    ]
    m = tracing.layer_metrics(spans, {0})
    assert m["kernel.rainbow_search.calls"] == 1
    assert m["kernel.rainbow_search.nodes"] == 450
    assert m["kernel.rainbow_search.ns_per_node"] == pytest.approx(2.0)
    assert m["kernel.self_share"] == pytest.approx(0.9)
    assert m["solvers.self_share"] == pytest.approx(0.1)
    assert m["op.self_ms"] == 0
    both = tracing.layer_metrics(spans, {0, 1}, speed=2.0)
    assert both["op.self_ms"] == pytest.approx(2 * 500 / 1e6)


def test_tracer_wraps_every_binding_and_restores():
    import rainbow_lab.kernel as kernel
    import rainbow_lab.solvers as solvers

    originals = (kernel.exact_cover, solvers.has_perfect_matching, rl.Hypergraph.induced)
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.op = 0
        root = tracer.begin(tracing.ROOT)
        assert rl.partite_perfect_matching(rl.extremal_partite(6)) is None
        tracer.end(root)
    assert (kernel.exact_cover, solvers.has_perfect_matching, rl.Hypergraph.induced) == originals
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "solvers.partite_perfect_matching",
                     "solvers.has_perfect_matching", "kernel.exact_cover"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 2]
    assert tracer.spans[3][5]["nodes"] >= 0


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload):
    first = workloads.inputs_digest(workloads.build(workload, 7))
    again = workloads.inputs_digest(workloads.build(workload, 7))
    other = workloads.inputs_digest(workloads.build(workload, 8))
    assert first == again
    assert first != other


def test_refute_tight_op_list_is_fixed():
    kinds = [op.kind for op in workloads.build("refute-tight", 1)]
    assert len(kinds) == 30
    assert kinds[:4] == ["tight-l1", "tight-l2", "tight-l3", "tight-partite"]


# -- answer checks catch corrupted witnesses ----------------------------------


def test_corrupted_matching_is_caught():
    graph = rl.complete_partite(2, 6)
    found, pm = rl.has_perfect_matching(graph.as_hypergraph())
    assert found
    edges = set(graph.edges)
    every = set(range(graph.n_vertices))
    workloads.check_matching(pm.edges, edges, every)
    reused = (pm.edges[0], pm.edges[0])
    with pytest.raises(workloads.WrongAnswer, match="reuses"):
        workloads.check_matching(reused, edges)
    with pytest.raises(workloads.WrongAnswer, match="non-edge"):
        workloads.check_matching([(0, 1, 2, 3)], edges)
    with pytest.raises(workloads.WrongAnswer, match="covers"):
        workloads.check_matching(pm.edges[:1], edges, every)


def test_corrupted_rainbow_witness_is_caught():
    member = rl.complete_hypergraph(3, 6)
    family = rl.HypergraphFamily(6, (member, member))
    witness = rl.rainbow_matching(family)
    workloads.check_rainbow(family, witness.pairs)
    (c0, e0), (c1, _) = witness.pairs
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_rainbow(family, ((c0, e0), (c1, e0)))
    with pytest.raises(workloads.WrongAnswer, match="colors"):
        workloads.check_rainbow(family, ((c0, e0),))


def test_refutation_that_finds_something_is_wrong():
    ops = workloads.build("refute-tight", 1)
    family = rl.HypergraphFamily(12, (rl.complete_hypergraph(3, 12),) * 4)
    found = rl.rainbow_matching(family)
    with pytest.raises(workloads.WrongAnswer):
        ops[0].check(found)
    ops[0].check(None)


def test_corrupted_fractional_certificates_are_caught():
    graph = rl.extremal_partite(6).as_hypergraph()
    nu, matching = rl.max_fractional_matching(graph)
    tau, cover = rl.min_fractional_cover(graph)
    workloads.check_fractional(graph, nu, matching, tau, cover)
    heavy = dict(matching.weights)
    heavy[next(iter(heavy))] += Fraction(1, 2)
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_fractional(graph, nu, rl.FractionalMatching(heavy), tau, cover)
    light = {v: w / 2 for v, w in cover.weights.items()}
    with pytest.raises(workloads.WrongAnswer, match="under-covered"):
        workloads.check_fractional(graph, nu, matching, tau, rl.FractionalCover(light))
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_fractional(graph, nu + 1, matching, tau + 1, cover)


def test_shift_op_rejects_a_tampered_pipeline_matching():
    op = workloads.build("shift-pipeline", 1)[0]
    result, nu, matching, tau, cover = op.run()
    op.check((result, nu, matching, tau, cover))
    assert result.found
    bad = rl.Matching(edges=result.matching.edges[:-1])
    tampered = dataclasses.replace(result, matching=bad)
    with pytest.raises(workloads.WrongAnswer, match="covers"):
        op.check((tampered, nu, matching, tau, cover))


# -- comparing record sets ----------------------------------------------------


def record(digest, backend="pure", metrics_=None, seconds=30, correct=True, failed=0):
    return {"provenance": {"backend": backend, "inputs_sha256": digest, "seconds": seconds},
            "metrics": metrics_ or {}, "correct": correct, "attempted": 30, "failed": failed}


def test_compare_refuses_other_inputs_backend_or_length():
    base = {("w", 1, 0): record("a")}
    assert compare.refusals(base, {("w", 1, 0): record("a")}) == []
    assert compare.refusals(base, {("w", 1, 0): record("b")})
    assert compare.refusals(base, {("w", 1, 0): record("a", backend="compiled")})
    assert compare.refusals(base, {("w", 1, 0): record("a", seconds=5)})


def test_compare_refuses_wrong_answers():
    good = {("w", 1, 0): record("a")}
    wrong = {("w", 1, 0): record("a", correct=False)}
    assert compare.refusals(good, wrong) == ["('w', 1, 0): new run answered wrong"]
    assert compare.refusals(wrong, good) == ["('w', 1, 0): base run answered wrong"]


def write_records(directory, records):
    directory.mkdir()
    for (workload, seed, trace), rec in records.items():
        rec["provenance"].update(workload=workload, seed=seed, trace=trace)
        (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(rec))


def test_compare_flags_more_failed_ops_even_when_faster(tmp_path, capsys):
    slow = {"ops_per_s": {"value": 1.0}}
    fast = {"ops_per_s": {"value": 2.0}}
    spec = {"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher",
                            "bound": 0.25}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    write_records(tmp_path / "base", {("w", s, 0): record("a", metrics_=slow) for s in (1, 2)})
    write_records(tmp_path / "new",
                  {("w", s, 0): record("a", metrics_=fast, failed=s - 1) for s in (1, 2)})
    argv = [str(tmp_path / "base"), str(tmp_path / "new"),
            "--benchmark", str(tmp_path / "BENCHMARK.json")]
    assert compare.main(argv) == 1
    assert "FAILED MORE w: failed ops 0/60 -> 1/60" in capsys.readouterr().out
    assert compare.failure_regressions(
        {("w", 1, 0): record("a", failed=2)}, {("w", 1, 0): record("a", failed=1)}) == []


def test_compare_verdicts():
    assert compare.compare_metric([10.0] * 4, [13.0] * 4, "lower", 0.25).startswith("WORSE")
    assert compare.compare_metric([10.0] * 4, [12.0] * 4, "lower", 0.25).startswith("within")
    assert compare.compare_metric([10.0] * 4, [7.0] * 4, "higher", 0.25).startswith("WORSE")
    wide = compare.compare_metric([5.0, 10.0, 15.0, 20.0], [10.0, 12.0, 14.0, 16.0], "lower", 0.25)
    assert wide.startswith("unresolved")


def test_compare_lists_changed_counts():
    a = {("w", 1, 1): record("a", metrics_={"kernel.aborted": {"value": 0}})}
    b = {("w", 1, 1): record("a", metrics_={"kernel.aborted": {"value": 1}})}
    assert compare.count_changes(a, a) == []
    assert compare.count_changes(a, b) == ["w seed 1: kernel.aborted 0 -> 1"]


# -- the run script -----------------------------------------------------------


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "refute-tight",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_benchmark_json_declares_what_run_computes():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json")
    spec = json.loads(path.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    spans = [span("op", 0, 10, -1)]
    computed = set(tracing.layer_metrics(spans, {0})) | {"trace.ops_per_s"}
    assert {m["name"] for m in spec["per_layer"]} <= computed
