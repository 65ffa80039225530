"""Exhaustive enumeration of consistent executions.

Enumeration is exact and three-phased: per-read observed values are chosen
from a finite candidate set (resolving branches and fixing each thread's
event list), then reads-from functions matching those values and per-object
modification orders are enumerated, and finally each candidate execution is
kept iff the coherence axioms hold and the sc events admit a total order,
both as ``relations`` states them for the fence analyses too.  Output
order is deterministic: lexicographic in the choice vectors.

The product is pruned before it is taken: rf sources and mo orders that
contradict sb are never combined, since coherence rejects every execution
built from them.  A thread-run combination with a read of a value that no
write of its runs gives is skipped before its events are built, since that
read has no rf source (GenMC's rule, Kokologiannakis et al., PLDI 2019).
Only values that neither the initial value nor a literal store outside any
branch is sure to supply are tracked, so most programs do no such work.
Buggy-trace enumeration also decides the assertion before any consistency
check.  The final locals are fixed by the thread runs: a run whose own
locals make the assertion hold whatever the other names are (``eval_expr``
is three-valued) is dropped before the product, as every combination with
it holds.  The final shared values are fixed by the mo choice: a
combination none of whose possible final states falsifies the assertion
is skipped before its events are built, and mo choices that satisfy it are
dropped before the rf product.  The sc-order decision turns hb and the sc
clauses into forced precedence edges, rejects a forced cycle at once, and
searches only for the one disjunctive rule, checked as each read is placed.

``has_buggy_trace`` asks only whether a buggy execution exists.  Threads
that share no object are independent (Shasha and Snir, TOPLAS 1988), and
the assertion's top-level conjuncts split it further: a program falls into
assertion-independent parts (``parts``), each a sub-program of threads,
objects and conjuncts that no other part names, and a buggy execution
exists iff one exists in some part's sub-program.

rmw atomicity: a fetch-add reads from its immediate mo predecessor.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import LitmusError, ResourceLimitError
from .limits import Limits
from .litmus import (
    And,
    Expr,
    Fence,
    FetchAdd,
    If,
    Load,
    Not,
    Or,
    Program,
    Store,
    eval_expr,
    expr_vars,
    preorder,
)
from .model import Event, SourceLocation, Trace, components
from .orders import MemoryOrder
from .relations import COHERENCE, _bits, coherence_shapes, sc_clauses


# ---------------------------------------------------------------------------
# Candidate observed values


def candidate_values(p: Program) -> dict[str, tuple[int, ...]]:
    """Finite superset of the values each object can hold at runtime.

    A monotone transfer iterated once per load, store and fetch-add: any
    dynamically producible value needs a chain of distinct executions of
    them, and loops are already unrolled, so that many rounds reach a
    fixpoint.  Branches and fences move no value, so a fence never widens
    the domain.  A round that grows no set, object or local, ends early.
    """
    vals: dict[str, set[int]] = {o: {v} for o, v in p.init.items()}
    local_vals: dict[str, dict[str, set[int]]] = {t.tid: {} for t in p.threads}
    stmts = {
        t.tid: [s for _, _, s in preorder(t.body) if not isinstance(s, (If, Fence))] for t in p.threads
    }
    rounds = sum(map(len, stmts.values())) + 1
    last = None
    for _ in range(rounds):
        for tid, block in stmts.items():
            lv = local_vals[tid]
            for s in block:
                if isinstance(s, (Load, FetchAdd)):
                    lv.setdefault(s.dest, set()).update(vals[s.obj])
                if isinstance(s, FetchAdd):
                    vals[s.obj].update([v + s.addend for v in vals[s.obj]])
                elif isinstance(s, Store):
                    if isinstance(s.value, int):
                        vals[s.obj].add(s.value)
                    else:
                        vals[s.obj].update(lv.get(s.value, ()))
        size = sum(map(len, vals.values()))
        size += sum(sum(map(len, lv.values())) for lv in local_vals.values())
        if size == last:
            break
        last = size
    return {o: tuple(sorted(v)) for o, v in vals.items()}


# ---------------------------------------------------------------------------
# Per-thread symbolic executions (one per combination of observed values)


class _EventSpec:
    __slots__ = ("act", "obj", "ord", "stmt", "rval", "wval")

    def __init__(self, act, obj, ord_, stmt, rval=None, wval=None):
        self.act = act
        self.obj = obj
        self.ord = ord_
        self.stmt = stmt
        self.rval = rval
        self.wval = wval


def _thread_runs(block, env, cand, limits: Limits) -> list[tuple[list[_EventSpec], dict[str, int]]]:
    """All executions of a block: event lists plus final local values.

    Choices for earlier reads vary slowest, giving lexicographic order.
    """
    runs: list[tuple[list[_EventSpec], dict[str, int]]] = [([], dict(env))]
    for stmt in block:
        nxt: list[tuple[list[_EventSpec], dict[str, int]]] = []
        for acc, env0 in runs:
            limits.check_time("trace-enumeration")
            for evs, env1 in _stmt_runs(stmt, env0, cand, limits):
                nxt.append((acc + evs, env1))
        runs = nxt
    return runs


def _stmt_runs(stmt, env, cand, limits: Limits):
    if isinstance(stmt, (Load, FetchAdd)):
        rmw = isinstance(stmt, FetchAdd)
        return [
            ([_EventSpec("rmw" if rmw else "read", stmt.obj, stmt.ord, stmt, v, v + stmt.addend if rmw else None)],
             {**env, stmt.dest: v})
            for v in cand[stmt.obj]
        ]
    if isinstance(stmt, Store):
        value = stmt.value if isinstance(stmt.value, int) else env.get(stmt.value, 0)
        return [([_EventSpec("write", stmt.obj, stmt.ord, stmt, wval=value)], env)]
    if isinstance(stmt, Fence):
        return [([_EventSpec("fence", None, stmt.ord, stmt)], env)]
    if isinstance(stmt, If):
        taken = stmt.then if eval_expr(stmt.cond, lambda n: env.get(n, 0)) else stmt.orelse
        return _thread_runs(taken, env, cand, limits)
    raise LitmusError("unelaborated statement in enumeration", stmt.line)


# ---------------------------------------------------------------------------
# Consistency


def coherence_violations(tr) -> list[str]:
    """Names of the violated coherence axioms (empty for a coherent trace),
    in ``COHERENCE`` order.

    A composition is reflexive iff hb relates the ends ``coherence_shapes``
    yields for it, as in the fence analyses.
    """
    hb = tr.hb
    found = {name for name, a, ends in coherence_shapes(tr) if hb[a] & ends}
    return [name for name in COHERENCE if name in found]


def exists_sc_total_order(tr, limits: Limits | None = None) -> bool:
    """Whether the sc events admit a total order S satisfying the sc axioms.

    S must contain hb on sc events and the sc clauses (``sc_clauses``), so
    every sc-read-source and sc-fence rule but one is a plain precedence.
    Those are forced edges, and a cycle among them rejects at once.  The
    remaining rule is disjunctive: an sc read of a write w neither sc nor
    init must not have, as its last preceding sc write to the object, one
    that w happens before.  Only this check reads these bans, as the read
    is placed, in a search over linear extensions of the forced edges that
    remembers the placed sets it could not complete.
    """
    sc_ids = sorted(e.id for e in tr.sc_events)
    if not sc_ids:
        return True
    limits = limits or Limits()
    sc = sum(1 << v for v in sc_ids)
    hb = tr.hb

    rows = sc_clauses(tr)
    # The disjunctive rule, as r -> (object, writes whose S-immediacy
    # before r rejects), for each sc read r of a source neither sc nor init.
    last_write_bans: dict[int, tuple[str, frozenset[int]]] = {}
    for w, readers in tr.rf.items():
        if sc >> w & 1 or tr.event(w).is_init:
            continue
        for r in _bits(readers & sc):
            robj = tr.event(r).obj
            banned = frozenset(c for c in tr.mo_chains[robj] if (hb[w] & sc) >> c & 1)
            if banned:
                last_write_bans[r] = (robj, banned)
    preds = dict.fromkeys(sc_ids, 0)  # the forced predecessors of each sc event
    for a in sc_ids:
        for b in _bits((rows[a] | hb[a]) & sc & ~(1 << a)):
            preds[b] |= 1 << a

    # One topological sort: a forced cycle admits no order at all.
    placed = 0
    while placed != sc:
        limits.check_time("sc-order")
        ready = [v for v in sc_ids if not placed >> v & 1 and not preds[v] & ~placed]
        if not ready:
            return False
        for v in ready:
            placed |= 1 << v
    if not last_write_bans:
        return True

    # S places each object's sc writes in mo order, so the last one placed
    # is a function of the placed set, and so is every later check: a
    # placed set that cannot be completed once never can.
    write_obj = {v: tr.event(v).obj for v in sc_ids if tr.event(v).is_write}
    last: dict[str, int | None] = {}
    dead: set[int] = set()

    def extend(placed: int) -> bool:
        if placed == sc:
            return True
        if placed in dead:
            return False
        limits.check_time("sc-order")
        for v in sc_ids:
            if placed >> v & 1 or preds[v] & ~placed:
                continue
            ban = last_write_bans.get(v)
            if ban is not None and last.get(ban[0]) in ban[1]:
                continue
            obj = write_obj.get(v)
            if obj is not None:
                prev, last[obj] = last.get(obj), v
            if extend(placed | 1 << v):
                return True
            if obj is not None:
                last[obj] = prev
        dead.add(placed)
        return False

    return extend(0)


def is_consistent(tr, limits: Limits | None = None) -> bool:
    """The conjunction of the coherence axioms and the sc-order condition."""
    return not coherence_violations(tr) and exists_sc_total_order(tr, limits)


# ---------------------------------------------------------------------------
# Enumeration


def _assertion_holds(p: Program, bindings, final_shared, final_locals) -> bool:
    """The assertion's verdict on a final state of objects and registers."""

    def lookup(name):
        kind, where = bindings[name]
        return final_shared[where] if kind == "object" else final_locals[where].get(name, 0)

    return eval_expr(p.assertion, lookup)


def _may_falsify(p: Program, bindings, asserted, combo, final_locals) -> bool:
    """Whether some final state of a thread-run combination may falsify the
    assertion: each asserted object may end in the last write of any thread
    that writes it (an mo order respects sb), or else in its initial write."""
    choices = [
        sorted({run[2][obj] for run in combo if obj in run[2]}) or [p.init[obj]]
        for obj in asserted
    ]
    return any(
        not _assertion_holds(p, bindings, dict(zip(asserted, vals)), final_locals)
        for vals in itertools.product(*choices)
    )


def _rf_sources(reads, writes, sb) -> list[list[int]] | None:
    """Each read's candidate sources, or None if some read has none.

    Sources sb-after the read (co-rh) or sb-overwritten before it (co-mhi)
    are left out; the rest stay in id order.  An init write is overwritten
    by any write sb-before the read.
    """
    source_lists = []
    for r in reads:
        same_obj = [w for w in writes if w.obj == r.obj and w.id != r.id]
        before_r = sum(1 << w.id for w in same_obj if sb[w.id] >> r.id & 1)
        srcs = [
            w.id
            for w in same_obj
            if w.wval == r.rval
            and not sb[r.id] >> w.id & 1
            and not (before_r if w.is_init else sb[w.id] & before_r)
        ]
        if not srcs:
            return None
        source_lists.append(srcs)
    return source_lists


def _traces(p: Program, limits: Limits | None, buggy_only: bool) -> Iterator[Trace]:
    """The consistent executions in lexicographic choice order; with
    ``buggy_only``, only those that falsify the assertion."""
    if not p.elaborated:
        raise LitmusError("program must be elaborated before enumeration")
    limits = limits or Limits()
    cand = candidate_values(p)
    bindings = p.assertion_bindings()
    asserted = sorted({where for kind, where in bindings.values() if kind == "object"})
    # Each value that neither the initial value nor a literal store outside
    # any branch is sure to supply gets a bit; a run needs the bits it reads
    # and gives the bits it writes (a sum of distinct bits is their union).
    sure = {(s.obj, s.value) for t in p.threads for s in t.body if isinstance(s, Store)}
    unsure = {(o, v) for o, vs in cand.items() for v in vs} - sure - set(p.init.items())
    bit = {pair: 1 << k for k, pair in enumerate(unsure)}
    per_thread = []
    for t in p.threads:
        per_thread.append([])
        mine = {n for n, b in bindings.items() if b == ("local", t.tid)}
        for specs, env in _thread_runs(t.body, {}, cand, limits):
            limits.check_time("trace-enumeration")
            # A run whose own locals make the assertion hold falsifies nothing.
            if buggy_only and mine and eval_expr(p.assertion, lambda n: env.get(n, 0) if n in mine else None):
                continue
            last = {s.obj: s.wval for s in specs if s.act in ("write", "rmw")}
            need = sum({bit.get((s.obj, s.rval), 0) for s in specs}) if bit else 0
            give = sum({bit.get((s.obj, s.wval), 0) for s in specs}) if bit else 0
            per_thread[-1].append((specs, env, last, need, give))
    cover = any(run[3] for runs in per_thread for run in runs)

    init_events = [
        Event(id=k, thr=None, idx=k, act="write", obj=obj, ord=MemoryOrder.RLX, wval=val)
        for k, (obj, val) in enumerate(p.init.items())
    ]
    objects = list(p.init)

    count = 0
    for combo in itertools.product(*per_thread):
        limits.check_time("trace-enumeration")
        if cover:
            need = give = 0
            for run in combo:
                need, give = need | run[3], give | run[4]
            if need & ~give:  # a read whose value no write of the combination gives
                continue
        final_locals = {thread.tid: run[1] for thread, run in zip(p.threads, combo)}
        if buggy_only and not _may_falsify(p, bindings, asserted, combo, final_locals):
            continue
        events = list(init_events)
        sb = dict.fromkeys(range(len(events)), 0)
        for thread, (specs, _, _, _, _) in zip(p.threads, combo):
            ids = range(len(events), len(events) + len(specs))
            sb.update((i, (1 << ids.stop) - (2 << i)) for i in ids)  # the later ids of the thread
            events += [
                Event(ids[i], thread.tid, i, s.act, s.obj, s.ord, SourceLocation(thread.tid, s.stmt.idx),
                      s.rval, s.wval, s.stmt.cont)
                for i, s in enumerate(specs)
            ]

        # mo orders against sb are never built (co-mh rejects them).  The
        # final shared state depends on the mo choice alone, so the
        # assertion is decided here, before the rf product is taken.
        writes = [e for e in events if e.is_write]
        rmw_ids = {w.id for w in writes if w.act == "rmw"}
        perm_lists = []
        for obj in objects:
            ids = tuple(w.id for w in writes if w.obj == obj and not w.is_init)
            perm_lists.append(list(_linear_extensions(ids, sb, limits)))
        mo_choices = []
        for mo_choice in itertools.product(*perm_lists):
            limits.check_time("trace-enumeration")
            # Init events take ids 0.. in object order; events[i] has id i.
            chains = [(k,) + perm for k, perm in enumerate(mo_choice)]
            final_shared = {obj: events[chain[-1]].wval for obj, chain in zip(objects, chains)}
            holds = _assertion_holds(p, bindings, final_shared, final_locals)
            if buggy_only and holds:
                continue
            mo = dict.fromkeys(sb, 0)
            for chain in chains:
                later = 0
                for u in reversed(chain):
                    mo[u], later = later, later | 1 << u
            # rmw atomicity: an rmw reads from its immediate mo predecessor.
            mo_pred = {u: chain[i - 1] for chain in chains for i, u in enumerate(chain) if u in rmw_ids}
            mo_choices.append((mo, mo_pred, final_shared, holds))
        if not mo_choices:
            continue

        reads = [e for e in events if e.is_read]
        source_lists = _rf_sources(reads, writes, sb)
        if source_lists is None:
            continue
        for rf_choice in itertools.product(*source_lists):
            rf = dict.fromkeys(sb, 0)
            for w, r in zip(rf_choice, reads):
                rf[w] |= 1 << r.id
            for mo, mo_pred, final_shared, holds in mo_choices:
                limits.check_time("trace-enumeration")
                if any(not rf[w] >> u & 1 for u, w in mo_pred.items()):
                    continue
                tr = Trace(
                    events,
                    sb,
                    rf,
                    mo,
                    assertion_holds=holds,
                    final_shared=final_shared,
                    final_locals=final_locals,
                )
                if is_consistent(tr, limits):
                    count += 1
                    if limits.max_traces is not None and count > limits.max_traces:
                        raise ResourceLimitError(
                            "trace-enumeration", "more than %d traces" % limits.max_traces
                        )
                    yield tr


def _linear_extensions(ids: tuple[int, ...], before, limits: Limits) -> Iterator[tuple[int, ...]]:
    """The orders of ``ids`` that respect the rows ``before``, in lexicographic order
    of positions in ``ids`` (the order ``itertools.permutations`` uses)."""
    if len(ids) < 2:
        yield ids
        return
    limits.check_time("trace-enumeration")
    for i, x in enumerate(ids):
        if any(before[y] >> x & 1 for y in ids):
            continue
        for rest in _linear_extensions(ids[:i] + ids[i + 1 :], before, limits):
            yield (x,) + rest


def enumerate_consistent_traces(p: Program, limits: Limits | None = None) -> list[Trace]:
    return list(_traces(p, limits, buggy_only=False))


def iter_buggy_traces(p: Program, limits: Limits | None = None) -> Iterator[Trace]:
    """The consistent executions that falsify the assertion, in the order
    ``enumerate_consistent_traces`` lists them.

    The assertion is decided from the choices before any consistency
    check: a thread run whose own final locals make it hold is dropped
    before the product, a thread-run combination none of whose reachable
    final states falsifies it is skipped before its events are built, and
    mo choices whose final state satisfies it are dropped before the rf
    product.  Each only skips executions that hold, so the order stays.
    """
    return _traces(p, limits, buggy_only=True)


def find_buggy_traces(p: Program, limits: Limits | None = None) -> list[Trace]:
    """Consistent executions whose final state falsifies the assertion."""
    return list(iter_buggy_traces(p, limits))


# ---------------------------------------------------------------------------
# Assertion-independent parts


def conjuncts(e: Expr) -> list[Expr]:
    """The top-level conjuncts of ``e``, with ``!`` pushed through ``||``."""
    if isinstance(e, And):
        return [c for a in e.args for c in conjuncts(a)]
    if isinstance(e, Not) and isinstance(e.arg, Or):
        return [c for a in e.arg.args for c in conjuncts(Not(a))]
    return [e]


def parts(p: Program) -> list[Program]:
    """The sub-programs of the assertion-independent parts of ``p``, or
    ``[p]`` where ``p`` is taken whole: it has one part, or a conjunct names
    no thread's local and no object a thread accesses.

    Threads, objects and the assertion's top-level conjuncts fall into
    components (``components``): a thread joins each object it accesses,
    and a conjunct each thread and object it names.  A part is a component
    with threads; its sub-program keeps those threads and objects, the
    conjunction of those conjuncts and the parent's ``next_uid``.  Fences
    access no object, so inserting, removing or retyping one changes no
    part.
    """
    # Nodes: (0, thread id), (1, object), (2, conjunct index).
    pairs = [((0, t.tid), (0, t.tid)) for t in p.threads]
    pairs += [
        ((0, t.tid), (1, s.obj))
        for t in p.threads
        for _, _, s in preorder(t.body)
        if isinstance(s, (Load, Store, FetchAdd))
    ]
    if len(components(pairs)) < 2:  # one group of threads is one part
        return [p]
    cs = conjuncts(p.assertion)
    bindings = p.assertion_bindings()
    for k, c in enumerate(cs):
        pairs.append(((2, k), (2, k)))
        pairs += [((2, k), (0 if kind == "local" else 1, where)) for kind, where in map(bindings.get, expr_vars(c))]
    comps = components(pairs)
    if len(comps) < 2 or any(all(kind != 0 for kind, _ in comp) for comp in comps):
        return [p]
    subs = []
    for comp in comps:
        tids, objs = {n for kind, n in comp if kind == 0}, {n for kind, n in comp if kind == 1}
        assertion = And(tuple(cs[k] for k in sorted(n for kind, n in comp if kind == 2)))
        init = {o: v for o, v in p.init.items() if o in objs}
        threads = [t for t in p.threads if t.tid in tids]
        subs.append(Program(p.name, init, threads, assertion, elaborated=True, next_uid=p.next_uid))
    return subs


def has_buggy_trace(p: Program, limits: Limits | None = None) -> bool:
    """Whether some consistent execution falsifies the assertion: whether
    some part's sub-program (``parts``) has a first buggy trace.

    Soundness.  sb, rf and mo never cross parts, so neither do sw and hb.
    Every coherence shape lies within one object, and every sc clause
    relates events of one object or of one hb path, so the per-part sc
    orders concatenate into one total order S.  A combined execution is
    therefore consistent iff each of its part executions is, and the
    program's consistent executions are the products of its parts'.  Each
    part has one (an sc interleaving of its threads).  The assertion is
    the conjunction of the parts' conjunctions, each over its own part's
    names, so an execution falsifies it iff one of its part executions
    falsifies that part's conjunction.
    """
    return any(next(iter_buggy_traces(sub, limits), None) is not None for sub in parts(p))
