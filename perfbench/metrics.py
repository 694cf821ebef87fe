"""Latency summaries over per-op samples, and the speed probe that scales them.

Each op of a workload's fixed list is run once per pass.  Its latency is
the median over the passes, so the summaries below are over the op list
(a fixed number of distinct inputs), not over a sample count that varies
with how many passes fit into the run.

On a shared CPU (measured: a 2-vCPU Xeon) the same pure-Python work
takes up to 1.5x longer in one minute than in the next, and a run's raw
wall times move with it.  A fixed probe of interpreter work (integer bit ops,
``Fraction`` arithmetic, tuple-keyed dict inserts: what the kernel, the
LP and ``Hypergraph.induced`` spend their time on) is timed between ops,
with cyclic garbage collection off so that its time does not depend on
the size of the program's live heap, and every latency is scaled by
``PROBE_REFERENCE_S / probe time``.  The
reported times are thus what the op would take on a CPU on which the
probe takes ``PROBE_REFERENCE_S``; the raw times are kept beside them.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

TAIL_BEYOND = 10
PROBE_INTERVAL_S = 0.25
# A typical probe time on an Intel Xeon (2 vCPU, CPython 3.11.7); only
# ratios between runs matter.
PROBE_REFERENCE_S = 0.016


def per_op_medians(latencies: list[list[float]]) -> list[float]:
    """Median latency of each op over the passes that ran it."""
    return [statistics.median(samples) for samples in latencies]


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, int]:
    """The highest percentile with at least ``beyond`` values above it.

    Returns ``(value, percentile)``: the value at sorted rank
    ``len - beyond`` (1-based), which has exactly ``beyond`` values after
    it, and the whole percentile that rank sits at.  With ``beyond`` or
    fewer values there is no such percentile, and the maximum is returned
    as the 100th.
    """
    ordered = sorted(values)
    below = len(ordered) - beyond
    if below < 1:
        return ordered[-1], 100
    return ordered[below - 1], (100 * below) // len(ordered)


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def summarize(latencies_s: list[list[float]]) -> dict[str, float]:
    """Throughput, median and tail over the op list, in ops/s and ms."""
    per_op = per_op_medians(latencies_s)
    tail_s, pct = tail(per_op)
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_ms_p50": statistics.median(per_op) * 1e3,
        "op_ms_tail": tail_s * 1e3,
        "tail_percentile": pct,
    }


def probe() -> float:
    """Seconds taken by a fixed piece of interpreter work, with cyclic GC off.

    A collection triggered by the probe's own allocations would scan the
    whole live heap, so with GC on the probe time would follow the
    program's memory state as well as the CPU's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x = 0
        for i in range(60000):
            x ^= (i * 2654435761) & 0xFFFF
        f = Fraction(0)
        for i in range(1, 300):
            f += Fraction(i, i + 7)
        d = {}
        for i in range(16000):
            d[(i, i >> 1)] = i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, probe_s: float) -> float:
    """A duration measured while the probe took ``probe_s``, at reference speed."""
    return seconds * PROBE_REFERENCE_S / probe_s
