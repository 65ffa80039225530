"""Rules of the code base that no single module can check for itself."""

from __future__ import annotations

import ast
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
