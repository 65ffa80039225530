"""Rules of the code base that no single module can check for itself."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

from conftest import CORPUS_DIR
from test_golden import GENERATED

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


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # Solutions are deduplicated through sets of values that hold strings,
    # whose hashes change with PYTHONHASHSEED; every emitted byte must not.
    source = tmp_path / "gen_mp_pairs_2.lit"
    source.write_text(GENERATED["gen_mp_pairs_2"])
    programs = [CORPUS_DIR / (name + ".lit") for name in ("two_bugs", "iriw_rlx", "lb3")]

    def outputs(path, seed):
        out = tmp_path / str(seed)
        out.mkdir(exist_ok=True)
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(PACKAGE.parent))
        run = subprocess.run(
            [sys.executable, "-m", "fencesynth", str(path),
             "--emit-cycles", str(out / "cycles"), "--emit-query", str(out / "query")],
            env=env, capture_output=True, text=True, check=False, timeout=60,
        )
        report = [line for line in run.stdout.splitlines() if not line.startswith("timings:")]
        return run.returncode, report, (out / "cycles").read_text(), (out / "query").read_text()

    for path in programs + [source]:
        first = outputs(path, 0)
        assert first[0] in (0, 1) and first[1], path
        assert outputs(path, 1) == first, path
