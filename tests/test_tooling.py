"""Rules of the code base that no single module can check for itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fencesynth"


def test_package_has_no_assert_statements():
    # Invariants raise InternalCheckError: `python -O` strips assert
    # statements.  Only statements count, not docstrings that spell `assert`.
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_the_standard_library():
    # The runtime is stdlib-only; test and benchmark dependencies stay out.
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    assert len(imported) >= 10
    foreign = [
        "%s: %s" % (where, name)
        for where, name in sorted(imported)
        if name.split(".")[0] not in sys.stdlib_module_names | {"fencesynth"}
    ]
    assert foreign == []
