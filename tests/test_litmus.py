"""Frontend: parsing, validation, unrolling, printing."""

import random

import pytest

from conftest import corpus_text, load
from fencesynth.errors import LitmusError
from fencesynth.litmus import (
    Fence,
    If,
    Load,
    Repeat,
    Store,
    elaborate,
    eval_expr,
    parse_expr,
    parse_program,
    preorder,
    print_program,
)
from fencesynth.orders import MemoryOrder as O


def test_parse_rwrw_structure():
    p = parse_program(corpus_text("rwrw"))
    assert p.name == "rwrw"
    assert p.init == {"x": 0, "y": 0}
    assert [t.tid for t in p.threads] == ["t1", "t2"]
    assert all(len(t.body) == 2 for t in p.threads)
    t1 = p.threads[0].body
    assert isinstance(t1[0], Load) and t1[0].dest == "a" and t1[0].ord is O.SC
    assert isinstance(t1[1], Store) and t1[1].obj == "x" and t1[1].ord is O.RLX


@pytest.mark.parametrize(
    "text, values, expected",
    [
        ("a == 1 || b == 2", {"a": 1}, True),
        ("a == 1 || b == 2", {"a": 0}, None),
        ("a == 1 && b == 2", {"a": 0}, False),
        ("!(a == 1 && b == 2)", {"a": 1}, None),
        ("!(a == 1 && b == 2)", {"a": 1, "b": 2}, False),
        ("b == b", {}, None),
    ],
)
def test_unknown_names_evaluate_three_valued(text, values, expected):
    assert eval_expr(parse_expr(text), values.get) is expected


def test_empty_thread_body():
    p = parse_program(
        "program empty\ninit x = 0\nthread t1 {\n}\nassert true\n"
    )
    assert p.threads[0].body == []


def test_undeclared_object_rejected():
    src = "program bad\ninit x = 0\nthread t1 {\n  store(z, 1, rlx)\n}\nassert true\n"
    with pytest.raises(LitmusError, match="undeclared object"):
        parse_program(src)


def test_duplicate_thread_rejected():
    src = (
        "program bad\ninit x = 0\n"
        "thread t1 {\n}\nthread t1 {\n}\nassert true\n"
    )
    with pytest.raises(LitmusError, match="duplicate thread"):
        parse_program(src)


def test_unknown_order_rejected():
    src = "program bad\ninit x = 0\nthread t1 {\n  store(x, 1, na)\n}\nassert true\n"
    with pytest.raises(LitmusError, match="memory order"):
        parse_program(src)


def test_branch_condition_locals_only():
    src = (
        "program bad\ninit x = 0\nthread t1 {\n"
        "  if (x == 0) {\n    store(x, 1, rlx)\n  }\n}\nassert true\n"
    )
    with pytest.raises(LitmusError, match="only locals"):
        parse_program(src)


def nested(stmt):
    # ``stmt`` sits on line 8, inside repeat inside if inside repeat.
    return (
        "program nested\ninit x = 0\nthread t1 {\n  a = load(x, rlx)\n"
        "  repeat 2 {\n    if (a == 0) {\n      repeat 2 {\n"
        "        %s\n      }\n    }\n  }\n}\nassert true\n" % stmt
    )


@pytest.mark.parametrize(
    "stmt, message",
    [
        ("store(z, 1, rlx)", "undeclared object"),
        ("store(x, r, rlx)", "store value 'r' is not a local"),
        ("if (x == 0) {\n        }", "only locals"),
    ],
)
def test_nested_statement_rejected_at_its_line(stmt, message):
    with pytest.raises(LitmusError, match=message) as exc:
        parse_program(nested(stmt))
    assert exc.value.line == 8


def test_preorder_walks_nested_repeat_and_if():
    p = parse_program(nested("b = load(x, rlx)"))
    assert p.locals_of("t1") == {"a", "b"}
    walked = list(preorder(p.threads[0].body))
    assert [type(s).__name__ for _, _, s in walked] == ["Load", "Repeat", "If", "Repeat", "Load"]
    assert [s.line for _, _, s in walked] == [4, 5, 6, 7, 8]
    assert all(block[i] is s for block, i, s in walked)


def test_ambiguous_assert_local_rejected():
    src = (
        "program bad\ninit x = 0\n"
        "thread t1 {\n  a = load(x, rlx)\n}\n"
        "thread t2 {\n  a = load(x, rlx)\n}\n"
        "assert a == 0\n"
    )
    with pytest.raises(LitmusError, match="several threads"):
        parse_program(src)


def test_elaborate_unrolls_repeat():
    src = (
        "program loops\ninit x = 0\nthread t1 {\n"
        "  repeat 2 {\n    store(x, 1, rlx)\n  }\n}\nassert true\n"
    )
    p = elaborate(parse_program(src))
    body = p.threads[0].body
    assert len(body) == 2 and all(isinstance(s, Store) for s in body)
    assert [s.idx for s in body] == [0, 1]
    assert body[0].iter_tag == (0,) and body[1].iter_tag == (1,)
    assert body[0].uid != body[1].uid


def test_elaborate_bound_check():
    src = (
        "program big\ninit x = 0\nthread t1 {\n"
        "  repeat 1000000 {\n    store(x, 1, rlx)\n  }\n}\nassert true\n"
    )
    with pytest.raises(LitmusError, match="unroll bound"):
        elaborate(parse_program(src), 1000)


def test_elaborate_identity_on_loop_free():
    p1 = load("rwrw")
    p2 = elaborate(p1)
    assert print_program(p1) == print_program(p2)
    # Statement identity is preserved.
    assert [s.uid for s in p1.threads[0].body] == [s.uid for s in p2.threads[0].body]


def test_numbering_with_branches():
    p = load("mp_branch")
    t2 = p.threads[1]
    stmts = p.statements("t2")
    assert isinstance(stmts[1], If)
    # Pre-order: load, if, then-load, else-load.
    assert t2.size == 4
    # Continuation of the last statement of either branch is past the end.
    assert stmts[2].cont == 4 and stmts[3].cont == 4


def test_locate_gap_inside_branch():
    p = load("mp_branch")
    block, pos = p.locate_gap("t2", 2)
    assert pos == 0 and isinstance(block[0], Load) and block[0].dest == "b"
    end_block, end_pos = p.locate_gap("t2", p.threads[1].size)
    assert end_block is p.threads[1].body and end_pos == len(end_block)


# ---------------------------------------------------------------------------
# Round-trip and counting properties on generated programs


def _random_block(rng, depth, locals_pool):
    out = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["load", "store", "fence", "if", "repeat"])
        if kind == "if" and depth > 1:
            kind = "store"
        if kind == "repeat" and depth > 1:
            kind = "load"
        ordv = rng.choice(["rlx", "rel", "acq", "ar", "sc"])
        if kind == "load":
            out.append("%s = load(x, %s)" % (rng.choice(locals_pool), ordv))
        elif kind == "store":
            out.append("store(y, %d, %s)" % (rng.randint(0, 3), ordv))
        elif kind == "fence":
            out.append("fence(%s)" % ordv)
        elif kind == "if":
            inner = _random_block(rng, depth + 1, locals_pool)
            out.append("if (%s == %d) {" % (locals_pool[0], rng.randint(0, 1)))
            out.extend("  " + line for line in inner)
            if rng.random() < 0.5:
                out.append("} else {")
                inner2 = _random_block(rng, depth + 1, locals_pool)
                out.extend("  " + line for line in inner2)
            out.append("}")
        else:
            inner = _random_block(rng, depth + 1, locals_pool)
            out.append("repeat %d {" % rng.randint(0, 3))
            out.extend("  " + line for line in inner)
            out.append("}")
    return out


def _random_program(seed):
    rng = random.Random(seed)
    lines = ["program fuzz%d" % seed, "init x = 0, y = 0"]
    for tid in ("t1", "t2"):
        lines.append("thread %s {" % tid)
        # Guarantee the branch-condition local is assigned somewhere.
        lines.append("  a%s = load(x, rlx)" % tid)
        lines.extend(
            "  " + l for l in _random_block(rng, 0, ["a%s" % tid, "b%s" % tid])
        )
        lines.append("}")
    lines.append("assert true")
    return "\n".join(lines) + "\n"


ORDERS = ("rlx", "rel", "acq", "ar", "sc")


def random_litmus_program(seed):
    """A random loop-free program for differential testing.

    2-3 threads of loads, stores (of constants or of the thread's own
    locals), fences and at most one fadd over x and y, each at a random
    order, and an assertion over final objects and locals.  At most four
    statements in all keep the brute-force oracle fast.
    """
    rng = random.Random(seed)
    n_threads = rng.randint(2, 3)
    lines = ["program rand%d" % seed, "init x = 0, y = 0"]
    names = ["x", "y"]
    kinds = ["load", "load", "store", "store", "fadd", "fence"]
    for t in range(n_threads):
        lines.append("thread t%d {" % t)
        mine = []
        for i in range(rng.randint(1, 5 - n_threads)):
            kind = rng.choice(kinds)
            obj, ordv = rng.choice("xy"), rng.choice(ORDERS)
            if kind == "fence":
                lines.append("  fence(%s)" % ordv)
            elif kind == "store":
                value = rng.choice(mine) if mine and rng.random() < 0.3 else rng.randint(1, 2)
                lines.append("  store(%s, %s, %s)" % (obj, value, ordv))
            else:
                dest = "r%d%d" % (t, i)
                mine.append(dest)
                if kind == "load":
                    lines.append("  %s = load(%s, %s)" % (dest, obj, ordv))
                else:
                    kinds.remove("fadd")  # one per program keeps the value pools small
                    lines.append("  %s = fadd(%s, 1, %s)" % (dest, obj, ordv))
        names += mine
        lines.append("}")
    atoms = [
        "%s %s %d" % (rng.choice(names), rng.choice(("==", "!=")), rng.randint(0, 2))
        for _ in range(rng.randint(1, 3))
    ]
    assertion = (" && " if rng.random() < 0.5 else " || ").join(atoms)
    if rng.random() < 0.5:
        assertion = "!(%s)" % assertion
    lines.append("assert " + assertion)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(25))
def test_print_parse_round_trip(seed):
    src = _random_program(seed)
    p1 = parse_program(src)
    printed = print_program(p1)
    p2 = parse_program(printed)
    assert print_program(p2) == printed
    assert p1 == p2  # metadata fields are excluded from equality


def test_random_litmus_programs_round_trip():
    for seed in range(150):
        p = parse_program(random_litmus_program(seed))
        printed = print_program(p)
        assert parse_program(printed) == p, seed
        assert print_program(elaborate(p)) == printed, seed


def _expected_count(block):
    n = 0
    for s in block:
        if isinstance(s, Repeat):
            n += s.count * _expected_count(s.body)
        elif isinstance(s, If):
            n += 1 + _expected_count(s.then) + _expected_count(s.orelse)
        else:
            n += 1
    return n


@pytest.mark.parametrize("seed", range(25))
def test_unrolled_statement_count(seed):
    p = parse_program(_random_program(seed))
    e = elaborate(p, 64)
    for before, after in zip(p.threads, e.threads):
        assert after.size == _expected_count(before.body)
        # Elaboration is idempotent.
        assert print_program(elaborate(e, 64)) == print_program(e)


def test_print_fixed_round_trip_with_branches():
    p = load("dekker_core")
    printed = print_program(p)
    assert print_program(parse_program(printed)) == printed
