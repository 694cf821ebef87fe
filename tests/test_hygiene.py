"""Every imported name is used in the module that imports it.

A stdlib ``ast`` scan of the package and the tests.  Package
``__init__.py`` files are skipped, because their imports are the
package's re-exports, and so are ``from __future__`` imports.
"""

from __future__ import annotations

import ast
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
