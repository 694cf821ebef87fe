"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``run.py`` writes to ``perfbench/out/``
(``<workload>-seed<n>-trace<t>.json``).  Runs are matched by workload,
seed and trace flag; a matched pair whose kernel backend, input digest or
run length differ, or either of which answered wrong, is refused
(exit 3), since its numbers would not measure the same thing.  A
workload whose new runs fail a larger share of their ops than the base
runs is a regression (exit 1), whatever its times say: a failed op's
time is not the time of a decision.  For every end-to-end metric of
``BENCHMARK.json`` it prints each side's median and whether the new
median is worse than the base by more than the metric's bound (exit 1 if
any is); a metric whose spread on either side exceeds its bound is
reported as unresolved.  For traced runs it lists every deterministic
count that differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import metrics
import tracing

HERE = Path(__file__).resolve().parent


def load_records(directory: Path) -> dict[tuple[str, int, int], dict]:
    """Result records keyed by (workload, seed, trace)."""
    records = {}
    for path in sorted(Path(directory).glob("*-seed*-trace[01].json")):
        record = json.loads(path.read_text())
        prov = record["provenance"]
        records[(prov["workload"], prov["seed"], prov["trace"])] = record
    return records


def refusals(base: dict, new: dict) -> list[str]:
    """Reasons the matched runs of two record sets may not be compared."""
    problems = []
    for key in sorted(base.keys() & new.keys()):
        a, b = base[key]["provenance"], new[key]["provenance"]
        for field in ("backend", "inputs_sha256", "seconds"):
            if a[field] != b[field]:
                problems.append(f"{key}: {field} differs ({a[field]} vs {b[field]})")
        for side, record in (("base", base[key]), ("new", new[key])):
            if not record["correct"]:
                problems.append(f"{key}: {side} run answered wrong")
    return problems


def failure_regressions(base: dict, new: dict) -> list[str]:
    """Workloads whose new runs fail a larger share of ops than the base runs."""
    regressions = []
    matched = base.keys() & new.keys()
    for workload in sorted({k[0] for k in matched}):
        keys = [k for k in matched if k[0] == workload]
        shares = []
        for side in (base, new):
            failed = sum(side[k]["failed"] for k in keys)
            attempted = sum(side[k]["attempted"] for k in keys)
            shares.append((failed / attempted, failed, attempted))
        (b_share, b_failed, b_attempted), (n_share, n_failed, n_attempted) = shares
        if n_share > b_share:
            regressions.append(f"{workload}: failed ops {b_failed}/{b_attempted} -> "
                               f"{n_failed}/{n_attempted}")
    return regressions


def compare_metric(base: list[float], new: list[float], better: str, bound: float) -> str:
    """Verdict for one metric on one workload."""
    b2, n2 = statistics.median(base), statistics.median(new)
    worse = (n2 - b2) / b2 if better == "lower" else (b2 - n2) / b2
    spread = max(metrics.spread(base), metrics.spread(new))
    if worse > bound:
        return f"WORSE by {worse:+.1%} (bound {bound:.0%})"
    if spread > bound:
        return f"unresolved: spread {spread:.1%} exceeds bound {bound:.0%}"
    change = f"worse by {worse:.1%}" if worse > 0 else f"better by {abs(worse):.1%}"
    return f"within bound ({change})"


def count_changes(base: dict, new: dict) -> list[str]:
    """Deterministic per-layer counts that differ between matched traced runs."""
    changes = []
    for key in sorted(base.keys() & new.keys()):
        if key[2] != 1:
            continue
        a, b = base[key]["metrics"], new[key]["metrics"]
        for name in tracing.DETERMINISTIC:
            if name in a and name in b and a[name]["value"] != b[name]["value"]:
                changes.append(f"{key[0]} seed {key[1]}: {name} "
                               f"{a[name]['value']} -> {b[name]['value']}")
    return changes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path, default=HERE.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    base, new = load_records(args.base), load_records(args.new)
    problems = refusals(base, new)
    if problems:
        print("refused: runs measure different things", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 3
    matched = base.keys() & new.keys()
    if not matched:
        print("refused: no run matches by workload, seed and trace flag", file=sys.stderr)
        return 3

    failing = failure_regressions(base, new)
    for line in failing:
        print(f"FAILED MORE {line}")
    regressed = bool(failing)
    for workload in sorted({k[0] for k in matched if k[2] == 0}):
        keys = sorted(k for k in matched if k[0] == workload and k[2] == 0)
        print(f"{workload} ({len(keys)} matched runs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [base[k]["metrics"][name]["value"] for k in keys]
            b = [new[k]["metrics"][name]["value"] for k in keys]
            verdict = compare_metric(a, b, metric["better"], metric["bound"])
            regressed |= verdict.startswith("WORSE")
            print(f"  {name:12s} {statistics.median(a):12.4f} -> "
                  f"{statistics.median(b):12.4f} {metric['unit']:5s} {verdict}")
    changes = count_changes(base, new)
    if changes:
        print("deterministic counts that differ:")
        for line in changes:
            print(f"  {line}")
    elif any(k[2] == 1 for k in matched):
        print("deterministic counts: identical in every matched traced run")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
