"""Run every workload, untraced and traced, and print one report.

    python3 perfbench/report.py [--seed N]

For each workload this runs ``run.py`` once with tracing off and twice
with it on, each for the ``run_seconds`` of ``BENCHMARK.json``, then
prints the end-to-end metrics (with ``failed_frac``) by name and unit,
each layer's self-time share, the tracing overhead, and checks that:

- every answer was right and no op failed (else ``run.py`` exits 1);
- the deterministic per-layer counts are identical in the two traced runs;
- the workloads stress the layers they were designed for (``DESIGN``).

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import operator
import subprocess
import sys
from pathlib import Path

import compare
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# (workload, per-layer metric, test, threshold): the layer split each
# workload exists to produce, on this program's pure-Python backend.
DESIGN = (
    ("refute-tight", "kernel.self_share", ">=", 0.90),
    ("refute-tight", "fractional.max_fractional_matching.calls", "==", 0),
    ("refute-tight", "fractional.min_fractional_cover.calls", "==", 0),
    ("shift-pipeline", "fractional.self_share", ">=", 0.90),
    ("shift-pipeline", "kernel.self_share", "<", 0.05),
    ("absorb-dense", "fractional.max_fractional_matching.calls", "==", 0),
    ("absorb-dense", "fractional.min_fractional_cover.calls", "==", 0),
    ("absorb-dense", "hypergraph.self_share", ">=", 0.30),
)
TESTS = {">=": operator.ge, "<": operator.lt, "==": operator.eq}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} trace={trace} exited with {proc.returncode}")
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, args.seed, spec["run_seconds"], 0)
        traced = [run(workload, args.seed, spec["run_seconds"], 1) for _ in range(2)]
        prov = plain["provenance"]
        print(f"\n== {workload}  seed {args.seed}  backend {prov['backend']}  "
              f"{prov['ops_per_pass']} ops x {plain['passes']} passes  "
              f"inputs {prov['inputs_sha256'][:12]}")
        for metric in spec["end_to_end"]:
            m = plain["metrics"][metric["name"]]
            print(f"  {metric['name']:14s} {m['value']:12.4f} {m['unit']}")
        print(f"  {'failed_frac':14s} {plain['failed_frac']:12.4f} ratio")
        print(f"  tail is p{plain['tail_percentile']} of {prov['ops_per_pass']} per-op medians")

        layers = traced[0]["metrics"]
        shares = "  ".join(
            f"{layer} {layers[f'{layer}.self_share']['value']:.1%}"
            for layer in (tracing.ROOT,) + tracing.LAYERS
        )
        print(f"  self time: {shares}")
        overhead = plain["metrics"]["ops_per_s"]["value"] / layers["trace.ops_per_s"]["value"] - 1
        print(f"  tracing overhead: {overhead:+.1%} ops_per_s (traced vs untraced run)")

        changes = compare.count_changes(
            {(workload, args.seed, 1): traced[0]}, {(workload, args.seed, 1): traced[1]}
        )
        problems += [f"not deterministic: {line}" for line in changes]
        for w, metric, test, threshold in DESIGN:
            value = layers[metric]["value"]
            if w == workload and not TESTS[test](value, threshold):
                problems.append(f"{workload}: {metric} = {value:.4g}, expected {test} {threshold}")

    print()
    for line in problems:
        print(f"FAIL {line}")
    if not problems:
        print("all answers checked, counts repeat, layer split as designed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
