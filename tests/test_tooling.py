"""Rules of the code base that no single module can check for itself."""

from __future__ import annotations

import ast
import collections
import os
import re
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


def test_package_has_no_unused_imports():
    # Every name a module imports is read somewhere in that module.
    # __init__.py imports to re-export, and __future__ imports are flags.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(((a.asname or a.name).split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += ["%s:%d %s" % (path.name, line, name) for name, line in imported.items() if name not in read]
    assert unused == []


def test_every_module_level_name_is_used():
    # A module-level function, class or constant of the package must be
    # referenced outside its own definition, by a name, an attribute or an
    # import, somewhere in the repository's code, or be exported by __all__.
    root = PACKAGE.parent.parent
    trees = [
        ast.parse(path.read_text(), str(path))
        for folder in ("src", "tests", "bench", "demos")
        for path in sorted((root / folder).rglob("*.py"))
    ]

    def references(node):
        found = collections.Counter()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                found[n.id] += 1
            elif isinstance(n, ast.Attribute):
                found[n.attr] += 1
            elif isinstance(n, ast.alias):
                found[n.name] += 1
        return found

    everywhere = collections.Counter()
    for tree in trees:
        everywhere.update(references(tree))
    exported = set()
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            if names == ["__all__"]:
                exported.update(ast.literal_eval(node.value))
                continue
            own = references(node)
            defined += [(path.name, name, everywhere[name] - own[name]) for name in names]
    assert len(defined) >= 100
    unused = [
        "%s: %s" % (where, name)
        for where, name, uses in defined
        if uses == 0 and name not in exported
    ]
    assert unused == []


def test_coherence_names_are_spelled_in_relations_only():
    # The consistency check and the fence analyses read the coherence
    # compositions from relations; a second spelling of their names would
    # be a second statement of the axioms.
    names = {"co-h", "co-rh", "co-mh", "co-mrh", "co-mhi", "co-mrhi"}
    spelled = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and node.value in names
    }
    assert spelled == {"relations.py"}


def test_hb_has_one_name():
    # sw holds the release-sequence case and hb is (sb ∪ sw)+; a module
    # that spells the names of a split sw or of a second hb, in code or
    # prose, states hb twice.
    spelled = [
        "%s:%d %s" % (path.name, n, word)
        for path in sorted(PACKAGE.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        for word in re.findall(r"\b(?:dob|ithb|hb_closed|compute_ithb)\b", line)
    ]
    assert spelled == []


def test_relations_have_one_representation():
    # Every relation is bitmask rows; only dump_trace turns rows into pairs.
    # A module that spells the pair-set alias, the converters between the
    # two forms or the pair set of sb keeps a second representation.
    spelled = [
        "%s:%d %s" % (path.name, n, word)
        for path in sorted(PACKAGE.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        for word in re.findall(r"\b(?:Relation|_from_rows|_rows|sb_pairs)\b", line)
    ]
    assert spelled == []


def test_max_traces_is_read_only_where_it_is_set_and_counted():
    # The trace bound only bounds an enumeration: the CLI sets it, and
    # the enumerator counts against it.  Read anywhere else, it would
    # select a path, as it once switched off pruning and the split by
    # parts.  Names, attributes, keywords and the CLI's flag string count.
    def mentions(node):
        return any(
            "max_traces" in (getattr(n, "attr", None), getattr(n, "id", None), getattr(n, "arg", None))
            or (isinstance(n, ast.Constant) and n.value == "max_traces")
            for n in ast.walk(node)
        )

    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if mentions(node):
                where = "" if path.name == "limits.py" else ":" + getattr(node, "name", "")
                readers.add(path.name + where)
    assert readers == {"limits.py", "cli.py:main", "enumerator.py:_traces"}


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # Solutions are deduplicated through sets of values that hold strings,
    # whose hashes change with PYTHONHASHSEED, and dump_trace turns each
    # relation's bitmask rows into sorted pairs; every emitted byte must not
    # change.
    source = tmp_path / "gen_mp_pairs_2.lit"
    source.write_text(GENERATED["gen_mp_pairs_2"])
    programs = [CORPUS_DIR / (name + ".lit") for name in ("two_bugs", "iriw_rlx", "lb3")]

    def outputs(path, seed):
        out = tmp_path / str(seed)
        out.mkdir(exist_ok=True)
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(PACKAGE.parent))
        run = subprocess.run(
            [sys.executable, "-m", "fencesynth", str(path),
             "--emit-cycles", str(out / "cycles"), "--emit-query", str(out / "query"),
             "--emit-traces", str(out / "traces")],
            env=env, capture_output=True, text=True, check=False, timeout=60,
        )
        report = [line for line in run.stdout.splitlines() if not line.startswith("timings:")]
        emitted = [(out / name).read_text() for name in ("cycles", "query", "traces")]
        return run.returncode, report, emitted

    for path in programs + [source]:
        first = outputs(path, 0)
        assert first[0] in (0, 1) and first[1] and first[2][2], path
        assert outputs(path, 1) == first, path


def test_package_stays_under_the_north_star():
    # The package's line budget, 3,063 lines: a change that adds code first
    # deletes some.
    lines = sum(len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py"))
    assert lines <= 3063


def test_the_lattice_is_stated_once():
    # An order is its guarantee bits (``orders``): ranks, weights,
    # inclusion, least upper bounds, fence roles and weakenings are all read
    # off them.  So no display in the package lists orders as a table: no
    # dict, set, tuple or list display has two or more MemoryOrder members
    # among its entries (a dict's keys and values).
    def member(n):
        return isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "MemoryOrder"

    tables = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Dict, ast.Set, ast.Tuple, ast.List)):
                entries = node.keys + node.values if isinstance(node, ast.Dict) else node.elts
                if len({n.attr for n in entries if member(n)}) >= 2:
                    tables.append("%s:%d" % (path.name, node.lineno))
    assert tables == []


def test_the_driver_enumerates_only_the_input():
    # A fence adds no value, rf or mo choice, so verify, the sanity check and
    # fast's later passes lift the input's buggy traces (``enumerator.lift``)
    # and never enumerate again: the driver calls no existence check, opt
    # enumerates the input's parts before it applies its fix, and fast walks
    # each part once.
    tree = ast.parse((PACKAGE / "driver.py").read_text())
    entry_points = {"has_buggy_trace", "find_buggy_traces", "iter_buggy_traces", "enumerate_consistent_traces"}
    calls = collections.defaultdict(list)
    for fn in (n for n in tree.body if isinstance(n, ast.FunctionDef)):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                calls[fn.name].append((node.func.id, node.lineno))
    enumerating = {
        fn: [name for name, _ in found if name in entry_points]
        for fn, found in calls.items()
        if any(name in entry_points for name, _ in found)
    }
    assert enumerating == {"synthesize_optimal": ["find_buggy_traces"], "synthesize_fast": ["iter_buggy_traces"]}
    lines = dict(calls["synthesize_optimal"])
    assert lines["find_buggy_traces"] < lines["apply_solution"] < lines["lift"]
    assert "build_lift" in dict(calls["sanity_check"])
