"""Mutation gate for the package's checks.

Each mutant replaces one piece of text, found exactly once, in one
source file, and runs only its own named test files on the mutated
copy.  A mutant is killed when those tests fail; a survivor means the
check it breaks is not tested where it lives.  Mutants known to be
equivalent are listed in ``EQUIVALENT``, and mutants of checks that no
input can reach (postconditions that hold by construction) in
``UNREACHABLE``, each with the reason; neither list is ever run, but
the text of every listing must still be found exactly once, so that a
listing cannot go stale.

Every run works on a temporary copy of ``src/``, ``tests/``,
``perfbench/`` (without ``out/``) and ``pyproject.toml``: the hygiene
scan reads ``perfbench/``, so a copy without it fails for a reason of
its own.  The named test files are first run unmutated, so that a kill
is the mutant's and not a failure already there.

Run from anywhere, with the standard library and pytest::

    python tests/mutants.py            # every mutant
    python tests/mutants.py has-equality own-target

Exit 0 when every mutant is killed, 1 when any survives or the
unmutated tests fail, 3 when the text of a mutant or of a listing is
not found exactly once.
The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# A mutant's tests that run longer than this count as killed: the
# mutant broke a search's termination.
RUN_TIMEOUT = 900


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


SOLVERS = "src/rainbow_lab/solvers.py"
HYPERGRAPH = "src/rainbow_lab/hypergraph.py"
CONSTRUCTIONS = "src/rainbow_lab/constructions.py"
FRACTIONAL = "src/rainbow_lab/fractional.py"
KERNEL = "src/rainbow_lab/kernel.py"
ABSORBING = "src/rainbow_lab/absorbing.py"
SHIFT = "src/rainbow_lab/shift.py"
JSONIO = "src/rainbow_lab/jsonio.py"
EXPERIMENTS = "src/rainbow_lab/experiments.py"

MUTANTS = [
    Mutant(
        "matching-reuse",
        SOLVERS,
        'raise ValueError(f"matching reuses vertex {v}")',
        "pass",
        ("tests/test_solvers.py",),
    ),
    Mutant(
        "is-matching-of-membership",
        SOLVERS,
        "return all(map(graph._has, matching.edges))",
        "return True",
        ("tests/test_solvers.py",),
    ),
    Mutant(
        "is-perfect-matching-of-size",
        SOLVERS,
        "is_matching_of(graph, matching) and len(matching.vertices()) == graph.n_vertices",
        "is_matching_of(graph, matching)",
        ("tests/test_solvers.py",),
    ),
    Mutant(
        "has-equality",
        HYPERGRAPH,
        "return i < len(edges) and edges[i] == edge",
        "return i < len(edges)",
        ("tests/test_hypergraph.py",),
    ),
    Mutant(
        "is-feasible-membership",
        FRACTIONAL,
        "graph._has(e) and 0 <= w <= 1",
        "e[-1] < graph.n_vertices and 0 <= w <= 1",
        ("tests/test_fractional.py",),
    ),
    Mutant(
        "scaled-edge-sum",
        FRACTIONAL,
        "min(map(sum, zip(*[loads] * graph.k)), default=den) < den",
        "min(map(sum, zip(*[loads] * graph.k)), default=den) < den - 1",
        ("tests/test_fractional.py",),
    ),
    Mutant(
        "cover-refutation-value",
        SOLVERS,
        "if value >= t:",
        "if value > t:",
        ("tests/test_solvers.py",),
    ),
    Mutant(
        "prefix-size-bound",
        SOLVERS,
        "if size < ell * t:",
        "if size <= ell * t:",
        ("tests/test_solvers.py",),
    ),
    Mutant(
        "prefix-lth-smallest-rank",
        SOLVERS,
        "sorted((rank[a], rank[b], rank[c]))",
        "[min(rank[a], rank[b], rank[c])] * 3",
        ("tests/test_solvers.py",),
    ),
    Mutant(
        "prefix-degree-rank",
        SOLVERS,
        "key=lambda v: (-deg[(v,)], v)",
        "key=lambda v: (deg[(v,)], v)",
        ("tests/test_solvers.py",),
    ),
    Mutant(
        "degrees-size-one",
        HYPERGRAPH,
        "counts = Counter(chain.from_iterable(self.edges))",
        "counts = Counter(e[0] for e in self.edges)",
        ("tests/test_hypergraph.py",),
    ),
    Mutant(
        "min-degree-vertices",
        HYPERGRAPH,
        "if self.n_vertices < size:",
        "if False:",
        ("tests/test_hypergraph.py",),
    ),
    Mutant(
        "check-vertices-repeat",
        HYPERGRAPH,
        "if len(set(vs)) != len(vs):",
        "if False:",
        ("tests/test_hypergraph.py",),
    ),
    Mutant(
        "balanced-set-balance",
        ABSORBING,
        "if 3 * len(self.q_part) != len(self.p_part):",
        "if False:",
        ("tests/test_absorbing.py",),
    ),
    Mutant(
        "time-left-deadline",
        KERNEL,
        "if left <= 0:",
        "if left is None:",
        ("tests/test_deadlines.py",),
    ),
    Mutant(
        "aborted-cause",
        SOLVERS,
        'cause = "budget" if node_budget and nodes == node_budget else "deadline"',
        'cause = "budget" if node_budget else "deadline"',
        ("tests/test_solvers.py",),
    ),
    Mutant(
        "exact-cover-dead-lookup",
        KERNEL,
        "            if nxt in dead:\n                continue\n            miss = misses[i]",
        "            miss = misses[i]",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "exact-cover-dead-record",
        KERNEL,
        "                return True\n        dead.add(occ)\n        return False\n\n    try:\n"
        "        if search(0, every):",
        "                return True\n        return False\n\n    try:\n"
        "        if search(0, every):",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "exact-cover-misses",
        KERNEL,
        "for v in _vertices(lists[i]):",
        "for v in _vertices(lists[i])[:1]:",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "exact-cover-orbit-key",
        KERNEL,
        "key |= lows[(occ & group).bit_count()]",
        "key |= occ & group",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "exact-cover-orbit-rest",
        KERNEL,
        "key = occ & self.rest",
        "key = occ",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "link-classes-compared",
        CONSTRUCTIONS,
        "tuple(chain.from_iterable(run)) if lengths[len(run)] > 1 else ()",
        "()",
        ("tests/test_hypergraph.py", "tests/test_solvers.py"),
    ),
    Mutant(
        "rainbow-search-dead-lookup",
        KERNEL,
        "            if nxt_occ in dead_next:\n                continue\n",
        "",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "rainbow-search-dead-record",
        KERNEL,
        "        dead[level].add(occ)\n",
        "",
        ("tests/test_kernel.py",),
    ),
    Mutant(
        "own-target",
        ABSORBING,
        "i = next((i for i, g in enumerate(free) if piece == g.target.vertices()), None)",
        "i = None",
        ("tests/test_absorbing.py",),
    ),
    Mutant(
        "gadget-overlap",
        ABSORBING,
        "if tv & bv:",
        "if False:",
        ("tests/test_absorbing.py",),
    ),
    Mutant(
        "gadget-sizes",
        ABSORBING,
        "if len(self.target) != 4 or len(self.body) != BODY_SIZE:",
        "if False:",
        ("tests/test_absorbing.py",),
    ),
    Mutant(
        "gadget-pm-body-span",
        ABSORBING,
        "if self.pm_body.vertices() != bv:",
        "if False:",
        ("tests/test_absorbing.py",),
    ),
    Mutant(
        "gadget-pm-joint-span",
        ABSORBING,
        "if self.pm_joint.vertices() != tv | bv:",
        "if False:",
        ("tests/test_absorbing.py",),
    ),
    Mutant(
        "is-absorbing-overlap",
        ABSORBING,
        "if set(body_v) & set(target_v):",
        "if False:",
        ("tests/test_absorbing.py",),
    ),
    Mutant(
        "absorb-body-overlap",
        ABSORBING,
        "if bv & body_vertices:",
        "if False:",
        ("tests/test_absorbing.py",),
    ),
    Mutant(
        "absorb-leftover-overlap",
        ABSORBING,
        "if leftover_v & body_vertices:",
        "if False:",
        ("tests/test_absorbing.py",),
    ),
    Mutant(
        "build-gadget-target-size",
        ABSORBING,
        "if len(target_set) != 4:",
        "if False:",
        ("tests/test_absorbing.py",),
    ),
    Mutant(
        "gadget-usage-order",
        ABSORBING,
        "(use[q_free[s // n_pairs]] + use[xs[s % n_pairs]] + use[ys[s % n_pairs]])\n"
        "            * n_slots + s",
        "s",
        ("tests/test_gadget_search.py",),
    ),
    Mutant(
        "gadget-clash-class",
        ABSORBING,
        "clash = slots[q_free[k]] | slots[xs[r]] | slots[ys[r]]",
        "clash = slots[xs[r]] | slots[ys[r]]",
        ("tests/test_absorbing.py",),
    ),
    Mutant(
        "scenario-avoid",
        ABSORBING,
        "avoid = reserved.union(*target_sets[:i], *target_sets[i + 1 :])",
        "avoid = reserved",
        ("tests/test_absorbing.py",),
    ),
    Mutant(
        "scenario-balance",
        ABSORBING,
        "if not graph.balanced:",
        "if False:",
        ("tests/test_absorbing.py",),
    ),
    Mutant(
        "edge-bound",
        JSONIO,
        "if count > MAX_EDGES:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "ordered-q-permutation",
        SHIFT,
        "if sorted(self.q_order) != list(g.q_vertices()):",
        "if False:",
        ("tests/test_shift.py",),
    ),
    Mutant(
        "ordered-p-permutation",
        SHIFT,
        "if sorted(self.p_order) != list(g.p_vertices()):",
        "if False:",
        ("tests/test_shift.py",),
    ),
    Mutant(
        "pipeline-value-check",
        SHIFT,
        "value_check = tau == graph.q_size",
        "value_check = True",
        ("tests/test_shift.py",),
    ),
    Mutant(
        "pipeline-containment",
        SHIFT,
        "containment_ok = all(map(shifted.graph._has, graph.edges))",
        "containment_ok = True",
        ("tests/test_shift.py",),
    ),
    Mutant(
        "link-range",
        CONSTRUCTIONS,
        "if not 0 <= u < self.q_size:",
        "if False:",
        ("tests/test_hypergraph.py",),
    ),
    Mutant(
        "partite-class-vertex",
        CONSTRUCTIONS,
        "if in_q != 1:",
        "if False:",
        ("tests/test_constructions.py",),
    ),
    Mutant(
        "shift-input-stable",
        SHIFT,
        "if not _stable(alive, at_rank, p, deadline):",
        "if False:",
        ("tests/test_shift.py",),
    ),
    Mutant(
        "shift-round-deadline",
        SHIFT,
        '        _time_left(deadline, "stability shift")\n        heappop(heap)\n',
        "        heappop(heap)\n",
        ("tests/test_shift.py", "tests/test_deadlines.py"),
    ),
    Mutant(
        "shift-setup-deadline",
        SHIFT,
        '        _time_left(deadline, "stability shift")\n        link_of.append(',
        "        link_of.append(",
        ("tests/test_deadlines.py",),
    ),
    Mutant(
        "shift-rank-deadline",
        SHIFT,
        '            _time_left(deadline, "stability shift")\n            ranked.append(',
        "            ranked.append(",
        ("tests/test_deadlines.py",),
    ),
    Mutant(
        "shift-link-first-vertex",
        SHIFT,
        "ranked.append(_rank_link(g._run(u), start._p_rank, p))",
        "ranked.append(_rank_link(g._run(h), start._p_rank, p))",
        ("tests/test_shift.py",),
    ),
    Mutant(
        "shift-scan-deadline",
        SHIFT,
        '        _time_left(deadline, "stability shift")\n        for key in keys:\n',
        "        for key in keys:\n",
        ("tests/test_deadlines.py",),
    ),
    Mutant(
        "shift-nesting-deadline",
        SHIFT,
        '            _time_left(deadline, "stability shift")\n'
        "            if not links[low] <= links[high]:",
        "            if not links[low] <= links[high]:",
        ("tests/test_deadlines.py",),
    ),
    Mutant(
        "shift-bucket-deadline",
        SHIFT,
        '    _time_left(deadline, "stability shift")\n    through: dict',
        "    through: dict",
        ("tests/test_deadlines.py",),
    ),
    Mutant(
        "extension-edge-check",
        SHIFT,
        "if not g._has(full):",
        "if False:",
        ("tests/test_shift.py",),
    ),
    Mutant(
        "sharpness-size-floor",
        EXPERIMENTS,
        "if n < 6:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "shift-post-round-push",
        SHIFT,
        "                    heappush(heap, (y + z) * p2 + other)\n",
        "                    pass\n",
        ("tests/test_shift.py",),
    ),
    Mutant(
        "shift-empty-bucket",
        SHIFT,
        "        if not doomed:\n            heappop(heap)\n            continue\n",
        "",
        ("tests/test_shift.py",),
    ),
    Mutant(
        "shift-link-nesting",
        SHIFT,
        "if not links[low] <= links[high]:",
        "if False:",
        ("tests/test_shift.py",),
    ),
    Mutant(
        "run-upper-bound",
        HYPERGRAPH,
        "bisect_left(edges, (a + 1,))",
        "bisect_left(edges, (a + 2,))",
        ("tests/test_hypergraph.py",),
    ),
    Mutant(
        "solve-pivot-lane",
        FRACTIONAL,
        "        entering -= den << s\n",
        "",
        ("tests/test_fractional.py",),
    ),
    Mutant(
        "solve-sign-bias",
        FRACTIONAL,
        "_unpack_lanes(col + bias, n, w)",
        "_unpack_lanes(col, n, w)",
        ("tests/test_fractional.py",),
    ),
    Mutant(
        "solve-lane-borrow",
        FRACTIONAL,
        "prow = [((c + bias) >> s & mask) - half for c in cols]",
        "prow = [((c >> s) + half & mask) - half for c in cols]",
        ("tests/test_fractional.py",),
    ),
    Mutant(
        "unpack-byte-slice",
        FRACTIONAL,
        'int.from_bytes(data[at : at + step], "little")',
        'int.from_bytes(data[at : at + step - 1], "little")',
        ("tests/test_fractional.py",),
    ),
    Mutant(
        "price-lane-bound",
        FRACTIONAL,
        "width = _lane_width(den + graph.k * max(map(abs, costs), default=0))",
        "width = _lane_width(den + max(map(abs, costs), default=0))",
        ("tests/test_fractional.py",),
    ),
    Mutant(
        "verify-duality-matching",
        FRACTIONAL,
        "        matching.is_feasible(graph)\n        and cover.is_feasible(graph)\n",
        "        cover.is_feasible(graph)\n",
        ("tests/test_fractional.py",),
    ),
    Mutant(
        "verify-duality-cover",
        FRACTIONAL,
        "        and cover.is_feasible(graph)\n",
        "",
        ("tests/test_fractional.py",),
    ),
    Mutant(
        "verify-duality-values",
        FRACTIONAL,
        "        and matching.value() == cover.value() == value\n",
        "",
        ("tests/test_fractional.py",),
    ),
]

EQUIVALENT = [
    (
        Mutant(
            "own-target-subset",
            ABSORBING,
            "piece == g.target.vertices()",
            "set(piece) <= set(g.target.vertices())",
            ("tests/test_absorbing.py",),
        ),
        "both are sorted 4-sets of distinct ids, so one is a subset of the "
        "other exactly when the tuples are equal",
    ),
    (
        Mutant(
            "time-left-boundary",
            KERNEL,
            "if left <= 0:",
            "if left < 0:",
            ("tests/test_deadlines.py",),
        ),
        "left is the difference of two float clock readings; no test can "
        "make it exactly 0.0",
    ),
]

UNREACHABLE = [
    (
        Mutant(
            "absorb-result-check",
            ABSORBING,
            "if not spans or not is_matching_of(graph, result):",
            "if False:",
            ("tests/test_absorbing.py",),
        ),
        "a postcondition: every piece is covered by a checked joint matching "
        "on its gadget's body, and every unused body by its checked reserved "
        "matching, so the result spans leftover and bodies in the graph",
    ),
    (
        Mutant(
            "scenario-result-check",
            ABSORBING,
            "if not is_perfect_matching_of(graph, combined):",
            "if False:",
            ("tests/test_absorbing.py",),
        ),
        "a postcondition: the maximum matching of the rest and the absorbed "
        "matching of leftover and bodies are disjoint and together cover "
        "every vertex",
    ),
    (
        Mutant(
            "shift-result-stable",
            SHIFT,
            "stable = _stable(alive, at_rank, p, deadline)",
            "stable = True",
            ("tests/test_shift.py",),
        ),
        "the input is checked upward closed, and the deletions preserve "
        "that: a lower predecessor of a selected triple would itself be "
        "deficient with a smaller rank sum, so it is selected first",
    ),
    (
        Mutant(
            "solve-unbounded",
            FRACTIONAL,
            'if leave is None:\n            raise ArithmeticError("LP unbounded; malformed instance")',
            'if False:\n            raise ArithmeticError("LP unbounded; malformed instance")',
            ("tests/test_fractional.py",),
        ),
        "the matching LP is bounded (every weight is at most 1), so an "
        "entering column always has a leaving row",
    ),
]


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copytree(
        ROOT / "perfbench",
        dest / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out"),
    )
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(root: Path, tests: tuple[str, ...]) -> tuple[str, str]:
    """``"pass"``, ``"fail"`` or ``"timeout"`` for the tests on the copy,
    with the first failure pytest reports."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return "timeout", f"over {RUN_TIMEOUT} s"
    if proc.returncode == 0:
        return "pass", ""
    if proc.returncode not in (1, 2):  # not a test failure or a collection error
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    failures = [l for l in proc.stdout.splitlines() if l.startswith(("FAILED ", "ERROR "))]
    return "fail", failures[0] if failures else proc.stdout.strip().splitlines()[-1]


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"error: no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 3
    for m, reason in EQUIVALENT:
        print(f"equivalent {m.name}: {reason}")
    for m, reason in UNREACHABLE:
        print(f"unreachable {m.name}: {reason}")
    listed = [m for m, _ in EQUIVALENT + UNREACHABLE]
    for m in chosen + listed:
        if (ROOT / m.path).read_text().count(m.old) != 1:
            print(f"error: {m.name}: text not found exactly once in {m.path}", file=sys.stderr)
            return 3
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        copy_tree(root)
        originals = {m.path: (root / m.path).read_text() for m in chosen}
        files = tuple(sorted({t for m in chosen for t in m.tests}))
        outcome, detail = run_tests(root, files)
        if outcome != "pass":
            print(f"error: the unmutated tests do not pass: {detail}", file=sys.stderr)
            return 1
        survivors = []
        for m in chosen:
            (root / m.path).write_text(originals[m.path].replace(m.old, m.new))
            start = time.perf_counter()
            outcome, detail = run_tests(root, m.tests)
            (root / m.path).write_text(originals[m.path])
            seconds = time.perf_counter() - start
            if outcome == "pass":
                survivors.append(m.name)
                print(f"SURVIVED {m.name} ({seconds:.1f} s)", flush=True)
            else:
                print(f"killed   {m.name} ({seconds:.1f} s): {detail}", flush=True)
    if survivors:
        print(f"{len(survivors)} of {len(chosen)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
