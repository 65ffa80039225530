"""Litmus DSL frontend: parsing, validation, bounded unrolling, printing.

The language is line-oriented (`#` starts a comment):

    program <name>
    init <obj> = <int> { , <obj> = <int> }
    thread <tid> { <stmt>* }
    assert <boolexpr>
    stmt := <local> = load(<obj>, <ord>)
          | store(<obj>, <int>|<local>, <ord>)
          | <local> = fadd(<obj>, <int>, <ord>)
          | fence(<ord>)
          | if (<cond>) { <stmt>* } [ else { <stmt>* } ]
          | repeat <int> { <stmt>* }
    ord  := rlx | rel | acq | ar | sc

Branch conditions may reference only thread-local variables; shared values
must first be loaded into locals.  `fadd` stores the fetched (old) value in
its destination local.  Locals read before assignment evaluate to 0.
"""

from __future__ import annotations

import copy
import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .errors import LitmusError
from .orders import ORDER_NAMES, MemoryOrder

DEFAULT_UNROLL = 64


# ---------------------------------------------------------------------------
# Boolean expressions (branch conditions and the final assertion)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Cmp:
    op: str  # == != < <= > >=
    lhs: Var | Lit
    rhs: Var | Lit


@dataclass(frozen=True)
class Not:
    arg: "Expr"


@dataclass(frozen=True)
class And:
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class Or:
    args: tuple["Expr", ...]


Expr = BoolLit | Cmp | Not | And | Or

_CMP_FN = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_operand(op: Var | Lit, lookup: Callable[[str], int | None]) -> int | None:
    return op.value if isinstance(op, Lit) else lookup(op.name)


def eval_expr(e: Expr, lookup: Callable[[str], int | None]) -> bool | None:
    """The value of ``e``.  A lookup may answer None for an unknown value;
    the result is then None unless the known values decide it (Kleene's
    three-valued logic)."""
    if isinstance(e, Cmp):
        a, b = eval_operand(e.lhs, lookup), eval_operand(e.rhs, lookup)
        return None if a is None or b is None else _CMP_FN[e.op](a, b)
    if isinstance(e, (And, Or)):
        decisive = type(e) is Or
        unknown = False
        for a in e.args:
            v = eval_expr(a, lookup)
            if v is decisive:
                return decisive
            if v is None:
                unknown = True
        return None if unknown else not decisive
    if isinstance(e, Not):
        v = eval_expr(e.arg, lookup)
        return None if v is None else not v
    if isinstance(e, BoolLit):
        return e.value
    raise TypeError(e)


def expr_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, BoolLit):
        return frozenset()
    if isinstance(e, Cmp):
        out = set()
        for op in (e.lhs, e.rhs):
            if isinstance(op, Var):
                out.add(op.name)
        return frozenset(out)
    if isinstance(e, Not):
        return expr_vars(e.arg)
    return frozenset().union(*(expr_vars(a) for a in e.args))


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>-?\d+)"
    r"|(?P<op>\(|\)|!=|==|<=|>=|<|>|&&|\|\||!))"
)


def _tokenize(text: str, line: int) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise LitmusError("cannot tokenize %r" % text[pos:].strip(), line)
            break
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return tokens


class _ExprParser:
    def __init__(self, tokens: list[str], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise LitmusError(
                "expected %r, found %r" % (expected or "token", tok), self.line
            )
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        e = self.or_expr()
        if self.peek() is not None:
            raise LitmusError("trailing tokens after expression", self.line)
        return e

    def or_expr(self) -> Expr:
        parts = [self.and_expr()]
        while self.peek() == "||":
            self.take()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def and_expr(self) -> Expr:
        parts = [self.not_expr()]
        while self.peek() == "&&":
            self.take()
            parts.append(self.not_expr())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def not_expr(self) -> Expr:
        if self.peek() == "!":
            self.take()
            return Not(self.not_expr())
        return self.atom()

    def atom(self) -> Expr:
        tok = self.peek()
        if tok == "(":
            self.take()
            e = self.or_expr()
            self.take(")")
            return e
        if tok in ("true", "false"):
            self.take()
            return BoolLit(tok == "true")
        lhs = self.operand()
        op = self.take()
        if op not in _CMP_FN:
            raise LitmusError("expected comparison operator, found %r" % op, self.line)
        return Cmp(op, lhs, self.operand())

    def operand(self) -> Var | Lit:
        tok = self.take()
        if re.fullmatch(r"-?\d+", tok):
            return Lit(int(tok))
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            return Var(tok)
        raise LitmusError("expected a name or integer, found %r" % tok, self.line)


def parse_expr(text: str, line: int = 0) -> Expr:
    return _ExprParser(_tokenize(text, line), line).parse()


def format_expr(e: Expr) -> str:
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Cmp):
        return "%s %s %s" % (_fmt_operand(e.lhs), e.op, _fmt_operand(e.rhs))
    if isinstance(e, Not):
        if isinstance(e.arg, BoolLit):
            return "!" + format_expr(e.arg)
        return "!(%s)" % format_expr(e.arg)
    if isinstance(e, And):
        return " && ".join(_fmt_and_child(a) for a in e.args)
    if isinstance(e, Or):
        return " || ".join(
            "(%s)" % format_expr(a) if isinstance(a, Or) else format_expr(a)
            for a in e.args
        )
    raise TypeError(e)


def _fmt_operand(op: Var | Lit) -> str:
    return op.name if isinstance(op, Var) else str(op.value)


def _fmt_and_child(e: Expr) -> str:
    if isinstance(e, (Or, And)):
        return "(%s)" % format_expr(e)
    return format_expr(e)


# ---------------------------------------------------------------------------
# Statements


@dataclass
class Stmt:
    uid: int | None = field(default=None, kw_only=True, compare=False)
    idx: int | None = field(default=None, kw_only=True, compare=False)
    cont: int | None = field(default=None, kw_only=True, compare=False)
    iter_tag: tuple[int, ...] = field(default=(), kw_only=True, compare=False)
    line: int | None = field(default=None, kw_only=True, compare=False)


@dataclass
class Load(Stmt):
    dest: str
    obj: str
    ord: MemoryOrder


@dataclass
class Store(Stmt):
    obj: str
    value: int | str  # literal or local name
    ord: MemoryOrder


@dataclass
class FetchAdd(Stmt):
    dest: str
    obj: str
    addend: int
    ord: MemoryOrder


@dataclass
class Fence(Stmt):
    ord: MemoryOrder
    synth_iter: int | None = field(default=None, kw_only=True, compare=False)

    @property
    def synthesized(self) -> bool:
        return self.synth_iter is not None


@dataclass
class If(Stmt):
    cond: Expr
    then: list[Stmt]
    orelse: list[Stmt]


@dataclass
class Repeat(Stmt):
    count: int
    body: list[Stmt]


def preorder(block: list[Stmt]) -> Iterator[tuple[list[Stmt], int, Stmt]]:
    """Each statement of a block with its block and offset, in pre-order:
    an ``If`` comes before its then-branch, then its else-branch, and a
    ``Repeat`` before its body."""
    for i, s in enumerate(block):
        yield block, i, s
        if isinstance(s, If):
            yield from preorder(s.then)
            yield from preorder(s.orelse)
        elif isinstance(s, Repeat):
            yield from preorder(s.body)


@dataclass
class Thread:
    tid: str
    body: list[Stmt]
    size: int = field(default=0, compare=False)  # statement count once elaborated


@dataclass
class Program:
    name: str
    init: dict[str, int]
    threads: list[Thread]
    assertion: Expr
    elaborated: bool = field(default=False, compare=False)
    next_uid: int = field(default=0, compare=False)

    def thread(self, tid: str) -> Thread:
        for t in self.threads:
            if t.tid == tid:
                return t
        raise KeyError(tid)

    def locals_of(self, tid: str) -> frozenset[str]:
        return frozenset(
            s.dest
            for _, _, s in preorder(self.thread(tid).body)
            if isinstance(s, (Load, FetchAdd))
        )

    def assertion_bindings(self) -> dict[str, tuple[str, str]]:
        """Resolve each assertion name to ('object', obj) or ('local', tid)."""
        bindings: dict[str, tuple[str, str]] = {}
        locals_by_thread = {t.tid: self.locals_of(t.tid) for t in self.threads}
        for name in sorted(expr_vars(self.assertion)):
            owners = [tid for tid, names in locals_by_thread.items() if name in names]
            if name in self.init and owners:
                raise LitmusError(
                    "assertion name %r is both a shared object and a local" % name
                )
            if name in self.init:
                bindings[name] = ("object", name)
            elif len(owners) == 1:
                bindings[name] = ("local", owners[0])
            elif len(owners) > 1:
                raise LitmusError(
                    "assertion name %r is a local of several threads: %s"
                    % (name, ", ".join(owners))
                )
            else:
                raise LitmusError("assertion references undeclared name %r" % name)
        return bindings

    def statements(self, tid: str) -> dict[int, Stmt]:
        """Elaborated statements of a thread, keyed by their pre-order index."""
        return {s.idx: s for _, _, s in preorder(self.thread(tid).body)}

    def locate_gap(self, tid: str, gap: int) -> tuple[list[Stmt], int]:
        """Block list and offset where a fence for this gap is inserted."""
        thread = self.thread(tid)
        if gap == thread.size:
            return thread.body, len(thread.body)
        for block, i, s in preorder(thread.body):
            if s.idx == gap:
                return block, i
        raise LitmusError("no gap %d in thread %s" % (gap, tid))


# ---------------------------------------------------------------------------
# Parsing


_RE_PROGRAM = re.compile(r"^program\s+([A-Za-z_][A-Za-z0-9_-]*)$")
_RE_INIT = re.compile(r"^init\s+(.+)$")
_RE_INIT_ITEM = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(-?\d+)$")
_RE_THREAD = re.compile(r"^thread\s+([A-Za-z_][A-Za-z0-9_]*)\s*\{$")
_RE_ASSERT = re.compile(r"^assert\s+(.+)$")
_RE_LOAD = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*load\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*,\s*(\w+)\s*\)$"
)
_RE_STORE = re.compile(
    r"^store\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*,\s*(-?\d+|[A-Za-z_][A-Za-z0-9_]*)\s*,\s*(\w+)\s*\)$"
)
_RE_FADD = re.compile(
    r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*fadd\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*,\s*(-?\d+)\s*,\s*(\w+)\s*\)$"
)
_RE_FENCE = re.compile(r"^fence\(\s*(\w+)\s*\)$")
_RE_IF = re.compile(r"^if\s*\((.*)\)\s*\{$")
_RE_REPEAT = re.compile(r"^repeat\s+(\d+)\s*\{$")


def _parse_order(token: str, line: int) -> MemoryOrder:
    if token not in ORDER_NAMES:
        raise LitmusError(
            "unknown memory order %r (expected rlx, rel, acq, ar or sc)" % token, line
        )
    return ORDER_NAMES[token]


def parse_program(text: str) -> Program:
    """Parse DSL source into a structurally valid Program (loops intact)."""
    name = None
    init: dict[str, int] = {}
    threads: list[Thread] = []
    assertion = None
    # Each frame is (block list, kind, owning statement or thread).
    stack: list[tuple[list[Stmt], str, object]] = []
    current: Thread | None = None

    def statement_line(line_no, line):
        m = _RE_LOAD.match(line)
        if m:
            return Load(m.group(1), m.group(2), _parse_order(m.group(3), line_no), line=line_no)
        m = _RE_STORE.match(line)
        if m:
            raw = m.group(2)
            value: int | str = int(raw) if re.fullmatch(r"-?\d+", raw) else raw
            return Store(m.group(1), value, _parse_order(m.group(3), line_no), line=line_no)
        m = _RE_FADD.match(line)
        if m:
            return FetchAdd(
                m.group(1), m.group(2), int(m.group(3)), _parse_order(m.group(4), line_no),
                line=line_no,
            )
        m = _RE_FENCE.match(line)
        if m:
            return Fence(_parse_order(m.group(1), line_no), line=line_no)
        return None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            m = _RE_PROGRAM.match(line)
            if not m:
                raise LitmusError("expected 'program <name>' first", line_no)
            name = m.group(1)
            continue
        if assertion is not None:
            raise LitmusError("content after assert", line_no)

        if not stack:
            m = _RE_INIT.match(line)
            if m:
                for item in m.group(1).split(","):
                    mi = _RE_INIT_ITEM.match(item.strip())
                    if not mi:
                        raise LitmusError("bad init item %r" % item.strip(), line_no)
                    obj, val = mi.group(1), int(mi.group(2))
                    if obj in init:
                        raise LitmusError("duplicate init for object %r" % obj, line_no)
                    init[obj] = val
                continue
            m = _RE_THREAD.match(line)
            if m:
                tid = m.group(1)
                if any(t.tid == tid for t in threads):
                    raise LitmusError("duplicate thread id %r" % tid, line_no)
                if not init:
                    raise LitmusError("thread block before any init line", line_no)
                current = Thread(tid, [])
                stack.append((current.body, "thread", current))
                continue
            m = _RE_ASSERT.match(line)
            if m:
                if not threads:
                    raise LitmusError("assert before any thread block", line_no)
                assertion = parse_expr(m.group(1), line_no)
                continue
            raise LitmusError("cannot parse %r here" % line, line_no)

        # Inside a thread (possibly nested).
        block, kind, owner = stack[-1]
        if line == "}":
            stack.pop()
            if not stack:
                threads.append(current)
                current = None
            continue
        if line == "} else {":
            if kind != "if-then":
                raise LitmusError("'else' without a matching if", line_no)
            stack.pop()
            stack.append((owner.orelse, "if-else", owner))
            continue
        m = _RE_IF.match(line)
        if m:
            stmt = If(parse_expr(m.group(1), line_no), [], [], line=line_no)
            block.append(stmt)
            stack.append((stmt.then, "if-then", stmt))
            continue
        m = _RE_REPEAT.match(line)
        if m:
            stmt = Repeat(int(m.group(1)), [], line=line_no)
            block.append(stmt)
            stack.append((stmt.body, "repeat", stmt))
            continue
        stmt = statement_line(line_no, line)
        if stmt is None:
            raise LitmusError("cannot parse statement %r" % line, line_no)
        block.append(stmt)

    if name is None:
        raise LitmusError("empty source: missing 'program' line")
    if stack:
        raise LitmusError("unterminated block (missing '}')")
    if assertion is None:
        raise LitmusError("missing assert line")
    if not threads:
        raise LitmusError("program has no threads")

    program = Program(name, init, threads, assertion)
    _validate(program)
    return program


def _validate(p: Program) -> None:
    for thread in p.threads:
        locals_here = p.locals_of(thread.tid)
        for _, _, s in preorder(thread.body):
            if isinstance(s, (Load, Store, FetchAdd)):
                if s.obj not in p.init:
                    raise LitmusError("undeclared object %r" % s.obj, s.line)
            if isinstance(s, Store) and isinstance(s.value, str):
                if s.value not in locals_here:
                    raise LitmusError(
                        "store value %r is not a local of thread %s"
                        % (s.value, thread.tid),
                        s.line,
                    )
            if isinstance(s, If):
                bad = expr_vars(s.cond) - locals_here
                if bad:
                    raise LitmusError(
                        "branch condition may reference only locals of its "
                        "thread; %s not allowed" % ", ".join(sorted(bad)),
                        s.line,
                    )
    p.assertion_bindings()  # raises on undeclared/ambiguous names


# ---------------------------------------------------------------------------
# Elaboration


def elaborate(p: Program, unroll_bound: int = DEFAULT_UNROLL) -> Program:
    """Unroll every `repeat` block and renumber statements.

    Idempotent on loop-free programs: statement uids are preserved where
    present, so repeated elaboration (after fence insertion, say) keeps
    statement identity stable.  The result shares no statement with ``p``,
    which makes this the program copier too: fence insertion and the
    sanity mutants edit an elaborated copy in place.
    """

    def expand(block: list[Stmt], tag: tuple[int, ...], fresh: bool) -> list[Stmt]:
        out: list[Stmt] = []
        for s in block:
            if isinstance(s, Repeat):
                if s.count > unroll_bound:
                    raise LitmusError(
                        "loop bound %d exceeds unroll bound %d" % (s.count, unroll_bound),
                        s.line,
                    )
                for i in range(s.count):
                    out.extend(expand(s.body, tag + (i,), True))
            else:
                c = copy.copy(s)
                if fresh:
                    c.uid = None
                c.iter_tag = tag or s.iter_tag
                if isinstance(s, If):
                    c.then = expand(s.then, tag, fresh)
                    c.orelse = expand(s.orelse, tag, fresh)
                out.append(c)
        return out

    threads = [Thread(t.tid, expand(t.body, (), False)) for t in p.threads]
    out = Program(p.name, dict(p.init), threads, p.assertion, elaborated=True,
                  next_uid=p.next_uid)
    renumber(out)
    return out


def renumber(p: Program) -> Program:
    """Assign uids, pre-order statement indices and continuation gaps in place."""
    counter = itertools.count(p.next_uid)

    for thread in p.threads:
        idx = itertools.count()
        for _, _, s in preorder(thread.body):
            if isinstance(s, Repeat):
                raise LitmusError("renumber requires an elaborated program")
            if s.uid is None:
                s.uid = next(counter)
            s.idx = next(idx)

        def continuations(block, cont_after):
            for i, s in enumerate(block):
                nxt = block[i + 1].idx if i + 1 < len(block) else cont_after
                s.cont = nxt
                if isinstance(s, If):
                    continuations(s.then, nxt)
                    continuations(s.orelse, nxt)

        thread.size = next(idx)
        continuations(thread.body, thread.size)

    p.next_uid = next(counter)
    p.elaborated = True
    return p


# ---------------------------------------------------------------------------
# Printing


def print_program(p: Program) -> str:
    lines = ["program %s" % p.name]
    lines.append("init " + ", ".join("%s = %d" % (o, v) for o, v in p.init.items()))
    for thread in p.threads:
        lines.append("thread %s {" % thread.tid)
        _print_block(thread.body, lines, 1)
        lines.append("}")
    lines.append("assert %s" % format_expr(p.assertion))
    return "\n".join(lines) + "\n"


def _print_block(block: Iterable[Stmt], lines: list[str], depth: int) -> None:
    pad = "  " * depth
    for s in block:
        if isinstance(s, Load):
            lines.append("%s%s = load(%s, %s)" % (pad, s.dest, s.obj, s.ord))
        elif isinstance(s, Store):
            lines.append("%sstore(%s, %s, %s)" % (pad, s.obj, s.value, s.ord))
        elif isinstance(s, FetchAdd):
            lines.append("%s%s = fadd(%s, %d, %s)" % (pad, s.dest, s.obj, s.addend, s.ord))
        elif isinstance(s, Fence):
            lines.append("%sfence(%s)" % (pad, s.ord))
        elif isinstance(s, If):
            lines.append("%sif (%s) {" % (pad, format_expr(s.cond)))
            _print_block(s.then, lines, depth + 1)
            if s.orelse:
                lines.append("%s} else {" % pad)
                _print_block(s.orelse, lines, depth + 1)
            lines.append("%s}" % pad)
        elif isinstance(s, Repeat):
            lines.append("%srepeat %d {" % (pad, s.count))
            _print_block(s.body, lines, depth + 1)
            lines.append("%s}" % pad)
        else:
            raise TypeError(s)
