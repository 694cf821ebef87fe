"""No unused imports, no unreferenced definitions, no uncalled methods.

Stdlib ``ast`` scans.  Every imported name is used in the module that
imports it; package ``__init__.py`` files are skipped, because their
imports are the package's re-exports, and so are ``from __future__``
imports.  Every function and class of the package is named somewhere
in ``src/`` or ``perfbench/`` besides its own definition: code that
only tests call belongs in the tests.  A name is not enough for a
method, since a field or a JSON key can share it: every method of a
package class, properties and dunder methods aside, is called as
``x.m(...)`` or named in a dotted string such as
``"Hypergraph.induced"`` somewhere in ``src/`` or ``perfbench/``.
Nothing in ``src/`` or ``tests/`` calls ``.as_hypergraph()``: it
returns the partite graph itself and stays only for the benchmark.
Each check has one home: only ``fractional.py`` calls ``lcm``
(``FractionalCover.scaled`` is the one integer cover check), only
``kernel.py`` reads ``time.monotonic`` (every deadline goes through
``_deadline`` and ``_time_left``) and only ``fractional._unpack_lanes``
uses :mod:`struct` (it is the one decoder of packed lanes).  One poll
rule: a stage polls its deadline once before each unit of its work (a
class vertex, a link, a pivot, a search node of the gadget search), and
only the kernel's searches, whose one unit is the node, poll on a count;
so only ``kernel.py`` defines a module-level ``*_STRIDE`` constant.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for d in (ROOT / "src" / "rainbow_lab", ROOT / "tests")
    for p in d.glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported.items())
        if name not in used
    ]


def test_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c as d, e\nimport x.y\nx.y.f(e)\n")
    assert unused_imports(tree) == ["d (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def appearances(tree: ast.Module) -> set[str]:
    """Names, attributes, import aliases and string constants.

    A dotted string such as ``"Hypergraph.induced"``, which the
    benchmark's tracer uses to find what it wraps, counts each part.
    """
    seen: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen.add(node.id)
        elif isinstance(node, ast.Attribute):
            seen.add(node.attr)
        elif isinstance(node, ast.alias):
            seen.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            seen.update(node.value.split("."))
    return seen


def unreferenced(package: dict[str, ast.Module], others: Iterable[ast.Module]) -> list[str]:
    """Functions and classes of ``package`` that nothing names.

    Dunder methods are skipped: the language calls them.
    """
    seen = set().union(*map(appearances, [*package.values(), *others]))
    return sorted(
        f"{node.name} ({path}:{node.lineno})"
        for path, tree in package.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in seen
    )


def test_scan_sees_an_unreferenced_definition():
    package = {
        "m.py": ast.parse(
            "def used(): pass\n"
            "def dead(): pass\n"
            "class C:\n"
            "    def __len__(self): return 0\n"
            "    def traced(self): pass\n"
        )
    }
    others = [ast.parse("from m import used as u\nwrap('C.traced')\n")]
    assert unreferenced(package, others) == ["dead (m.py:2)"]


def test_no_unreferenced_definitions():
    package = {
        p.name: ast.parse(p.read_text())
        for p in sorted((ROOT / "src" / "rainbow_lab").glob("*.py"))
    }
    others = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert unreferenced(package, others) == []


def method_calls(tree: ast.AST, name: str) -> list[int]:
    """Lines that call a method called ``name``, on any receiver."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == name
        }
    )


def calls_and_dotted_names(tree: ast.AST) -> set[str]:
    """Names called as ``x.m(...)``, and each part of a dotted string
    such as ``"Hypergraph.induced"``, which the benchmark's tracer uses
    to find what it wraps.  A field read or a dict key is neither."""
    seen: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            seen.add(node.func.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "." in node.value:
            seen.update(node.value.split("."))
    return seen


def uncalled_methods(tree: ast.Module, path: str, seen: set[str]) -> list[str]:
    """Methods of the module's classes whose names are not in ``seen``.

    Properties are read, not called, and the language calls dunder
    methods, so both are skipped.
    """
    return sorted(
        f"{cls.name}.{node.name} ({path}:{node.lineno})"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(getattr(d, "id", None) == "property" for d in node.decorator_list)
        and node.name not in seen
    )


def test_scan_sees_a_method_read_only_as_a_field():
    tree = ast.parse(
        "class Graph:\n"
        "    @property\n"
        "    def size(self): return 0\n"
        "    def __len__(self): return 0\n"
        "    def called(self): return 1\n"
        "    def traced(self): return 2\n"
        "    def adjacent(self): return 3\n"
    )
    other = ast.parse(
        "g.called()\n"
        "wrap('Graph.traced')\n"
        "out = {'adjacent': minima.adjacent, 'size': g.size}\n"
    )
    seen = calls_and_dotted_names(tree) | calls_and_dotted_names(other)
    assert uncalled_methods(tree, "m.py", seen) == ["Graph.adjacent (m.py:7)"]


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.parent.name == "rainbow_lab"],
    ids=lambda p: p.name,
)
def test_every_method_is_called(path):
    # a method that only the tests call belongs in the tests
    users = [*(ROOT / "src" / "rainbow_lab").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    seen = set().union(*(calls_and_dotted_names(ast.parse(p.read_text())) for p in users))
    assert uncalled_methods(ast.parse(path.read_text()), path.name, seen) == []


def test_scan_sees_a_shim_call():
    tree = ast.parse(
        "def as_hypergraph(self): return self\n"
        "h = pg.as_hypergraph()\n"
        "f(pg.as_hypergraph().edges, as_hypergraph)\n"
    )
    assert method_calls(tree, "as_hypergraph") == [2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_as_hypergraph_calls(path):
    # a partite graph is a Hypergraph; the shim only serves perfbench/
    assert method_calls(ast.parse(path.read_text()), "as_hypergraph") == []


def named_calls(tree: ast.AST, name: str) -> list[int]:
    """Lines that call ``name``, bare or as an attribute of any receiver."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        }
    )


def test_scan_sees_an_lcm_call():
    tree = ast.parse(
        "import math\n"
        "from math import lcm\n"
        "den = lcm(*ds)\n"
        "den = math.lcm(2, 3)\n"
        "f(lcm)\n"
    )
    assert named_calls(tree, "lcm") == [3, 4]


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.parent.name == "rainbow_lab" and p.name != "fractional.py"],
    ids=lambda p: p.name,
)
def test_no_lcm_outside_the_cover_check(path):
    # FractionalCover.scaled is the one integer cover check
    assert named_calls(ast.parse(path.read_text()), "lcm") == []


def test_scan_sees_a_clock_read():
    tree = ast.parse(
        "import time\n"
        "from time import monotonic\n"
        "t = time.monotonic()\n"
        "u = monotonic() + 1\n"
        "v = time.perf_counter()\n"
    )
    assert named_calls(tree, "monotonic") == [3, 4]


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.parent.name == "rainbow_lab" and p.name != "kernel.py"],
    ids=lambda p: p.name,
)
def test_no_clock_reads_outside_the_kernel(path):
    # deadlines are taken by kernel._deadline and checked by kernel._time_left
    assert named_calls(ast.parse(path.read_text()), "monotonic") == []


def struct_uses(tree: ast.AST, home: str) -> list[int]:
    """Lines that name ``struct`` or import from it, outside the
    functions called ``home``."""
    inside = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == home
        for node in ast.walk(func)
    }
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if id(node) not in inside
            and (
                isinstance(node, ast.Name) and node.id == "struct"
                or isinstance(node, ast.ImportFrom) and node.module == "struct"
            )
        }
    )


def test_scan_sees_a_struct_use():
    tree = ast.parse(
        "import struct\n"
        "from struct import unpack\n"
        "def _unpack_lanes(d): return struct.unpack('<H', d)\n"
        "def other(d): return struct.Struct('<H').unpack(d)\n"
        "size = struct.calcsize('<Q')\n"
    )
    assert struct_uses(tree, "_unpack_lanes") == [2, 4, 5]


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.parent.name == "rainbow_lab"],
    ids=lambda p: p.name,
)
def test_no_struct_outside_the_lane_decoder(path):
    # fractional._unpack_lanes decodes every packed lane, columns and prices
    home = "_unpack_lanes" if path.name == "fractional.py" else ""
    assert struct_uses(ast.parse(path.read_text()), home) == []


def stride_constants(tree: ast.Module) -> list[int]:
    """Lines that bind a module-level name ending in ``_STRIDE``."""
    lines = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        if any(name.endswith("_STRIDE") for name in names):
            lines.append(node.lineno)
    return lines


def test_scan_sees_a_stride_constant():
    tree = ast.parse(
        "_SETUP_STRIDE = 4096\n"
        "STRIDE = 2\n"
        "_POLL_STRIDE: int = 64\n"
        "A, B_STRIDE = 1, 2\n"
        "def f():\n"
        "    _LOCAL_STRIDE = 8\n"
        "    return _LOCAL_STRIDE\n"
    )
    assert stride_constants(tree) == [1, 3, 4]


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.parent.name == "rainbow_lab" and p.name != "kernel.py"],
    ids=lambda p: p.name,
)
def test_no_poll_stride_outside_the_kernel(path):
    # every other stage polls once per unit of its work, not on a count
    assert stride_constants(ast.parse(path.read_text())) == []
