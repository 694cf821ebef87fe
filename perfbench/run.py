"""Benchmark of rainbow_lab: one workload, one seed, one run.

    python3 perfbench/run.py --workload refute-tight --seed 1 --seconds 30 --trace 0

Builds the workload's fixed op list from the seed, runs whole passes over
it until the next pass would end after ``--seconds``, checks every
answer, and prints one JSON object as the last line of stdout.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
wraps the package's layer entry points and reports per-layer metrics of
the first pass; the metric names and units are those ``BENCHMARK.json``
declares.  Provenance, the full result and (traced) the spans are
written under ``perfbench/out/``.  The run exits 1 if an answer was
wrong or an op failed.  The program is imported from ``src/`` of the
checkout this file sits in; without it the run exits with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import metrics
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def probe_setup(args) -> int:
    """Child side of a set-up measurement: build inputs, say so, then digest."""
    import workloads

    ops = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    print(workloads.inputs_digest(ops), flush=True)
    return 0


def measure_setup(args) -> tuple[list[float], list[float], set[str]]:
    """Time from process start to first op ready, in fresh processes.

    Returns raw and probe-scaled seconds per set-up, and the input digests
    the children computed.  The parent is idle while a child runs, so the
    probes it takes just before and after bracket the child's set-up.
    """
    raw, probes, digests = [], [], set()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        before = metrics.probe()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            first = child.stdout.readline()
            ready = time.perf_counter()
            rest = child.stdout.read()
            code = child.wait()
        if code != 0 or first.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {code}")
        after = metrics.probe()
        raw.append(ready - start)
        probes += [before, after]
        digests.add(rest.strip())
    return raw, [metrics.scaled(t, statistics.mean(probes)) for t in raw], digests


@dataclass
class Samples:
    """Per op, per pass: raw latency and the probe time around it."""

    raw: list[list[float]]
    probe: list[list[float]]
    passes: int = 0
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    def scaled(self) -> list[list[float]]:
        return [[metrics.scaled(t, p) for t, p in zip(ts, ps)]
                for ts, ps in zip(self.raw, self.probe)]


def run_ops(ops, seconds: float, tracer=None) -> Samples:
    """Whole passes over the op list until the next would end after ``seconds``.

    A speed probe runs after the first op that ends at least
    ``PROBE_INTERVAL_S`` after the last probe, and at the end of each pass;
    each op is paired with the mean of the probes on either side of it.
    """
    import rainbow_lab
    import workloads

    samples = Samples(raw=[[] for _ in ops], probe=[[] for _ in ops])
    last_probe = metrics.probe()
    last_probe_end = time.perf_counter()
    pending: list[int] = []
    start = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = samples.passes * len(ops) + i
                root = tracer.begin(tracing.ROOT)
            t0 = time.perf_counter()
            try:
                answer = op.run()
                error = None
            except rainbow_lab.SolverTimeout as exc:
                error = f"unknown (timeout): {exc}"
            except workloads.Undecided as exc:
                error = f"unknown: {exc}"
            except Exception as exc:  # a crash is a failure, never an answer
                error = f"error: {exc!r}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end(root)
            samples.raw[i].append(t1 - t0)
            if error is None:
                try:
                    op.check(answer)
                except workloads.Undecided as exc:
                    error = f"unknown: {exc}"
                except workloads.WrongAnswer as exc:
                    samples.wrong.append(f"op {i} ({op.kind}): {exc}")
            if error is not None:
                samples.failures.append(f"op {i} ({op.kind}): {error}")
            pending.append(i)
            if t1 - last_probe_end >= metrics.PROBE_INTERVAL_S or i == len(ops) - 1:
                probe = metrics.probe()
                last_probe_end = time.perf_counter()
                for j in pending:
                    samples.probe[j].append((last_probe + probe) / 2)
                pending.clear()
                last_probe = probe
        samples.passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / samples.passes > seconds:
            return samples


def provenance(args, ops, digest: str) -> dict:
    kernel = sys.modules["rainbow_lab.kernel"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": kernel.backend_name(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "inputs_sha256": digest,
        "ops_per_pass": len(ops),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rainbow_lab" / "__init__.py").is_file():
        print(f"error: no rainbow_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args)

    setup_raw, setup_scaled, probe_digests = (
        ([], [], set()) if args.trace else measure_setup(args)
    )
    ops = workloads.build(args.workload, args.seed)
    digest = workloads.inputs_digest(ops)
    if probe_digests - {digest}:
        print("error: input generation is not deterministic for this seed", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    prov = provenance(args, ops, digest)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        with tracer.installed():
            samples = run_ops(ops, args.seconds, tracer)
    else:
        samples = run_ops(ops, args.seconds)
    raw = metrics.summarize(samples.raw)
    summary = metrics.summarize(samples.scaled())
    attempted = len(ops) * samples.passes
    failed = len(samples.failures)

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_scaled),
            "ops_per_s": summary["ops_per_s"],
            "op_ms_p50": summary["op_ms_p50"],
            "op_ms_tail": summary["op_ms_tail"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        # Per-layer numbers of the first pass, times scaled like the ops'.
        speed = sum(ts[0] for ts in samples.scaled()) / sum(ts[0] for ts in samples.raw)
        values = tracing.layer_metrics(tracer.spans, set(range(len(ops))), speed)
        values["trace.ops_per_s"] = summary["ops_per_s"]

    print(f"{args.workload}: {len(ops)} ops x {samples.passes} passes, "
          f"{attempted} attempted, {failed} failed, {len(samples.wrong)} wrong")
    for name, unit in units.items():
        value = values[name]
        note = ""
        if name == "op_ms_tail":
            note = f"  p{summary['tail_percentile']} of {len(ops)} per-op medians"
        elif name == "setup_s":
            note = f"  median of {len(setup_scaled)} set-ups"
        if name in raw:
            note += f"  (raw {raw[name]:.4f})"
        print(f"  {name:44s} {value:14.4f} {unit}{note}")
    if tracer is None:
        print(f"  {'failed_frac':44s} {failed / attempted:14.4f} ratio  ({failed}/{attempted})")
    for line in samples.failures + samples.wrong:
        print(f"  {line}", file=sys.stderr)

    result = {
        "correct": not samples.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(
        result,
        provenance=prov,
        passes=samples.passes,
        failed_frac=failed / attempted,
        tail_percentile=summary["tail_percentile"],
        raw=raw,
        setup_raw_s=setup_raw,
        setup_scaled_s=setup_scaled,
        per_op=[{"kind": op.kind, "raw_s": ts, "probe_s": ps}
                for op, ts, ps in zip(ops, samples.raw, samples.probe)],
        failures=samples.failures,
        wrong=samples.wrong,
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
