"""Exhaustive enumeration of consistent executions.

Enumeration is exact and three-phased: per-read observed values are chosen
from a finite candidate set (resolving branches and fixing each thread's
event list), then reads-from functions matching those values and per-object
modification orders are enumerated, and finally each candidate execution is
kept iff the six coherence axioms hold and the sc events admit a total
order.  Output order is deterministic: lexicographic in the choice vectors.

The product is pruned before it is taken: rf sources and mo orders that
contradict sb are never combined, since coherence rejects every execution
built from them.  Buggy-trace enumeration also decides the assertion before
any consistency check: the final locals are fixed by the thread runs and
the final shared values by the mo choice, so a thread-run combination none
of whose possible final states falsifies the assertion is skipped before
its events are built, and mo choices that satisfy it are dropped before
the rf product.  The sc-order decision turns every sc rule it can into a
forced precedence edge, rejects a forced cycle at once, and searches only
for the one disjunctive rule, checked as each read is placed.

rmw atomicity: a fetch-add reads from its immediate mo predecessor.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import LitmusError, ResourceLimitError
from .limits import Limits
from .litmus import (
    Fence,
    FetchAdd,
    If,
    Load,
    Program,
    Store,
    eval_expr,
    preorder,
)
from .model import Event, Relation, SourceLocation, Trace
from .orders import MemoryOrder


# ---------------------------------------------------------------------------
# Candidate observed values


def candidate_values(p: Program) -> dict[str, tuple[int, ...]]:
    """Finite superset of the values each object can hold at runtime.

    A monotone transfer iterated once per statement: any dynamically
    producible value needs a chain of distinct statement executions, and
    loops are already unrolled, so that many rounds reach a fixpoint.  A
    round that grows no set, object or local, has reached it early.
    """
    vals: dict[str, set[int]] = {o: {v} for o, v in p.init.items()}
    local_vals: dict[str, dict[str, set[int]]] = {t.tid: {} for t in p.threads}
    stmts = {
        t.tid: [s for _, _, s in preorder(t.body) if not isinstance(s, If)] for t in p.threads
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


def _thread_runs(block, env, cand) -> list[tuple[list[_EventSpec], dict[str, int]]]:
    """All executions of a block: event lists plus final local values.

    Choices for earlier reads vary slowest, giving lexicographic order.
    """
    runs: list[tuple[list[_EventSpec], dict[str, int]]] = [([], dict(env))]
    for stmt in block:
        nxt: list[tuple[list[_EventSpec], dict[str, int]]] = []
        for acc, env0 in runs:
            for evs, env1 in _stmt_runs(stmt, env0, cand):
                nxt.append((acc + evs, env1))
        runs = nxt
    return runs


def _stmt_runs(stmt, env, cand):
    if isinstance(stmt, (Load, FetchAdd)):
        out = []
        for v in cand[stmt.obj]:
            env1 = dict(env)
            env1[stmt.dest] = v
            if isinstance(stmt, Load):
                spec = _EventSpec("read", stmt.obj, stmt.ord, stmt, rval=v)
            else:
                spec = _EventSpec("rmw", stmt.obj, stmt.ord, stmt, rval=v, wval=v + stmt.addend)
            out.append(([spec], env1))
        return out
    if isinstance(stmt, Store):
        value = stmt.value if isinstance(stmt.value, int) else env.get(stmt.value, 0)
        return [([_EventSpec("write", stmt.obj, stmt.ord, stmt, wval=value)], env)]
    if isinstance(stmt, Fence):
        return [([_EventSpec("fence", None, stmt.ord, stmt)], env)]
    if isinstance(stmt, If):
        taken = stmt.then if eval_expr(stmt.cond, lambda n: env.get(n, 0)) else stmt.orelse
        return _thread_runs(taken, env, cand)
    raise LitmusError("unelaborated statement in enumeration", stmt.line)


# ---------------------------------------------------------------------------
# Consistency


def coherence_violations(tr) -> list[str]:
    """Names of the violated coherence axioms (empty for a coherent trace).

    The axioms are evaluated on the transitive closure of hb, matching the
    hb-run semantics used by cycle detection.  Each composition's
    reflexivity is tested directly on the pairs:

        co-h     hb                 co-mrh   mo;rf;hb
        co-rh    rf;hb              co-mhi   mo;hb;rf⁻¹
        co-mh    mo;hb              co-mrhi  mo;rf;hb;rf⁻¹
    """
    hbc = tr.hb_closed.pairs
    rf = tr.rf.pairs
    readers: dict[int, list[int]] = {}
    for w, r in rf:
        readers.setdefault(w, []).append(r)
    # Each mo pair (a, b) with the reads of a and the reads of b.
    mo = [(a, b, readers.get(a, ()), readers.get(b, ())) for a, b in tr.mo.pairs]
    checks = {
        "co-h": any(a == b for a, b in hbc),
        "co-rh": any((r, w) in hbc for w, r in rf),
        "co-mh": any((b, a) in hbc for a, b, _, _ in mo),
        "co-mrh": any((r, a) in hbc for a, _, _, of_b in mo for r in of_b),
        "co-mhi": any((b, r) in hbc for _, b, of_a, _ in mo for r in of_a),
        "co-mrhi": any((r1, r2) in hbc for _, _, of_a, of_b in mo for r1 in of_b for r2 in of_a),
    }
    return [name for name, violated in checks.items() if violated]


def exists_sc_total_order(tr, limits: Limits | None = None) -> bool:
    """Whether the sc events admit a total order S satisfying the sc axioms.

    S must respect hb and mo on sc events, and mo is total on each object's
    writes, so every sc-read-source and sc-fence rule but one is a plain
    precedence.  Those are forced edges, and a cycle among them rejects at
    once.  The remaining rule is disjunctive: an sc read of a non-sc write
    w must not have, as its last preceding sc write to the object, one that
    w happens before.  It is checked as the read is placed, in a search
    over linear extensions of the forced edges that remembers the placed
    sets it could not complete.
    """
    sc_ids = sorted(e.id for e in tr.sc_events)
    if not sc_ids:
        return True
    scset = set(sc_ids)
    sb = tr.sb.pairs
    mo = tr.mo.pairs
    sc_writes: dict[str, list[int]] = {}
    writes_by_obj: dict[str, list[int]] = {}
    for e in tr.events:
        if e.is_write:
            writes_by_obj.setdefault(e.obj, []).append(e.id)
            if e.id in scset:
                sc_writes.setdefault(e.obj, []).append(e.id)
    sc_fences = {e.id for e in tr.events if e.id in scset and e.is_fence}
    fences_after: dict[int, list[int]] = {}
    fences_before: dict[int, list[int]] = {}
    for a, b in sb:
        if b in sc_fences:
            fences_after.setdefault(a, []).append(b)
        if a in sc_fences:
            fences_before.setdefault(b, []).append(a)

    preds: dict[int, set[int]] = {v: set() for v in sc_ids}

    def force(a: int, b: int) -> None:
        if a != b:
            preds[b].add(a)

    hbc = tr.hb_closed.pairs
    for rel in (hbc, mo):
        for a, b in rel:
            if a in scset and b in scset:
                force(a, b)

    # Modification order must cohere with fence placement: a write cannot
    # be ordered (via fences around it) ahead of a same-object mo-earlier
    # write.
    for ws in writes_by_obj.values():
        for b_ in ws:
            for a_ in ws:
                if (b_, a_) not in mo:
                    continue
                # mo(b_, a_): the rules must not conclude mo(a_, b_).
                after_a = fences_after.get(a_, ())
                before_b = fences_before.get(b_, ())
                if b_ in scset:
                    for x in after_a:
                        force(b_, x)
                if a_ in scset:
                    for y in before_b:
                        force(y, a_)
                for x in after_a:
                    for y in before_b:
                        force(y, x)

    # The read-source rules for each rf edge (w, r).  The disjunctive one
    # is kept as r -> (object, writes whose S-immediacy before r rejects).
    last_write_bans: dict[int, tuple[str, frozenset[int]]] = {}
    for w, r in tr.rf.pairs:
        robj = tr.event(r).obj
        if r in scset:
            if w in scset:
                # w precedes r, and the sc writes mo-after w follow r: S
                # orders sc writes by mo, so no other sc write falls between.
                force(w, r)
                for c in sc_writes.get(robj, ()):
                    if (w, c) in mo:
                        force(r, c)
            else:
                w_is_init = tr.event(w).is_init
                banned = frozenset(
                    c for c in sc_writes.get(robj, ()) if w_is_init or (w, c) in hbc
                )
                if banned:
                    last_write_bans[r] = (robj, banned)
        # Sources must not be hidden behind an sc fence: a read below an sc
        # fence sees the last sc write before the fence or something
        # mo-later; likewise through a fence above the source write, and
        # through a fence pair around both.
        before_r = fences_before.get(r, ())
        for f in before_r:
            for a in sc_writes.get(robj, ()):
                if a != w and (a, w) not in mo:
                    force(f, a)
        for a in writes_by_obj.get(robj, ()):
            if a == w or (a, w) in mo:
                continue
            for x in fences_after.get(a, ()):
                if r in scset:
                    force(r, x)
                for y in before_r:
                    force(y, x)

    n = len(sc_ids)
    index = {v: i for i, v in enumerate(sc_ids)}
    pred_mask = [sum(1 << index[p] for p in preds[v]) for v in sc_ids]
    full = (1 << n) - 1

    # One topological sort: a forced cycle admits no order at all.
    placed = 0
    while placed != full:
        if limits is not None:
            limits.check_time("sc-order")
        ready = [i for i in range(n) if not placed >> i & 1 and not pred_mask[i] & ~placed]
        if not ready:
            return False
        for i in ready:
            placed |= 1 << i
    if not last_write_bans:
        return True

    # S places each object's sc writes in mo order, so the last one placed
    # is a function of the placed set, and so is every later check: a
    # placed set that cannot be completed once never can.
    write_obj = {v: tr.event(v).obj for v in sc_ids if tr.event(v).is_write}
    last: dict[str, int | None] = {}
    dead: set[int] = set()

    def extend(placed: int) -> bool:
        if placed == full:
            return True
        if placed in dead:
            return False
        if limits is not None:
            limits.check_time("sc-order")
        for i, v in enumerate(sc_ids):
            if placed >> i & 1 or pred_mask[i] & ~placed:
                continue
            ban = last_write_bans.get(v)
            if ban is not None and last.get(ban[0]) in ban[1]:
                continue
            obj = write_obj.get(v)
            if obj is not None:
                prev, last[obj] = last.get(obj), v
            if extend(placed | 1 << i):
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
        if kind == "object":
            return final_shared[where]
        return final_locals[where].get(name, 0)

    return eval_expr(p.assertion, lookup)


def _may_falsify(p: Program, bindings, asserted, combo, final_locals) -> bool:
    """Whether some final state of a thread-run combination may falsify the
    assertion.

    An sb-respecting mo order ends in the last write of some thread that
    writes the object, or in its initial write if no thread does; every
    such choice for the asserted objects is tried.
    """
    choices = [
        sorted({last[obj] for _, _, last in combo if obj in last}) or [p.init[obj]]
        for obj in asserted
    ]
    return any(
        not _assertion_holds(p, bindings, dict(zip(asserted, vals)), final_locals)
        for vals in itertools.product(*choices)
    )


def _rf_sources(reads, writes, sb_pairs) -> list[list[int]] | None:
    """Each read's candidate sources, or None if some read has none.

    Sources sb-after the read (co-rh) or sb-overwritten before it (co-mhi)
    are left out; the rest stay in id order.
    """
    source_lists = []
    for r in reads:
        same_obj = [w for w in writes if w.obj == r.obj and w.id != r.id]
        before_r = [w.id for w in same_obj if (w.id, r.id) in sb_pairs]
        srcs = [
            w.id
            for w in same_obj
            if w.wval == r.rval
            and (r.id, w.id) not in sb_pairs
            and not any(b != w.id and (w.is_init or (w.id, b) in sb_pairs) for b in before_r)
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
    # Without a trace bound, candidates whose assertion holds are dropped
    # before they are built; with one, every consistent execution counts.
    prune = buggy_only and limits.max_traces is None
    cand = candidate_values(p)
    bindings = p.assertion_bindings()
    asserted = sorted({where for kind, where in bindings.values() if kind == "object"})
    # Each thread run with the value of its last write to each object.
    per_thread = [
        [
            (specs, env, {s.obj: s.wval for s in specs if s.act in ("write", "rmw")})
            for specs, env in _thread_runs(t.body, {}, cand)
        ]
        for t in p.threads
    ]

    init_events = []
    for k, (obj, val) in enumerate(p.init.items()):
        init_events.append(
            Event(id=k, thr=None, idx=k, act="write", obj=obj, ord=MemoryOrder.RLX, wval=val)
        )
    n_init = len(init_events)
    objects = list(p.init)

    count = 0
    for combo in itertools.product(*per_thread):
        limits.check_time("trace-enumeration")
        final_locals = {thread.tid: env for thread, (_, env, _) in zip(p.threads, combo)}
        if prune and not _may_falsify(p, bindings, asserted, combo, final_locals):
            continue
        events = list(init_events)
        sb_pairs: set[tuple[int, int]] = set()
        next_id = n_init
        for thread, (specs, _, _) in zip(p.threads, combo):
            ids = []
            for i, spec in enumerate(specs):
                events.append(
                    Event(
                        id=next_id,
                        thr=thread.tid,
                        idx=i,
                        act=spec.act,
                        obj=spec.obj,
                        ord=spec.ord,
                        loc=SourceLocation(thread.tid, spec.stmt.idx),
                        rval=spec.rval,
                        wval=spec.wval,
                        cont=spec.stmt.cont,
                    )
                )
                ids.append(next_id)
                next_id += 1
            for i, a in enumerate(ids):
                for b in ids[i + 1 :]:
                    sb_pairs.add((a, b))

        # mo orders against sb are never built (co-mh rejects them).  The
        # final shared state depends on the mo choice alone, so the
        # assertion is decided here, before the rf product is taken.
        writes = [e for e in events if e.is_write]
        by_id = {e.id: e for e in events}
        rmw_ids = {w.id for w in writes if w.act == "rmw"}
        perm_lists = []
        for obj in objects:
            ids = tuple(w.id for w in writes if w.obj == obj and not w.is_init)
            perm_lists.append(list(_linear_extensions(ids, sb_pairs)))
        mo_choices = []
        for mo_choice in itertools.product(*perm_lists):
            # Init events take ids 0.. in object order.
            chains = [(k,) + perm for k, perm in enumerate(mo_choice)]
            final_shared = {obj: by_id[chain[-1]].wval for obj, chain in zip(objects, chains)}
            holds = _assertion_holds(p, bindings, final_shared, final_locals)
            if prune and holds:
                continue
            mo = Relation((a, b) for chain in chains for i, a in enumerate(chain) for b in chain[i + 1 :])
            # rmw atomicity: an rmw reads from its immediate mo predecessor.
            mo_pred = {u: chain[i - 1] for chain in chains for i, u in enumerate(chain) if u in rmw_ids}
            mo_choices.append((mo, mo_pred, final_shared, holds))
        if not mo_choices:
            continue

        reads = [e for e in events if e.is_read]
        source_lists = _rf_sources(reads, writes, sb_pairs)
        if source_lists is None:
            continue
        sb = Relation(sb_pairs)
        for rf_choice in itertools.product(*source_lists):
            limits.check_time("trace-enumeration")
            rf = Relation((w, r.id) for w, r in zip(rf_choice, reads))
            rf_src = {r.id: w for w, r in zip(rf_choice, reads)}
            for mo, mo_pred, final_shared, holds in mo_choices:
                if any(rf_src[u] != w for u, w in mo_pred.items()):
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
                    if not (buggy_only and holds):
                        yield tr


def _linear_extensions(ids: tuple[int, ...], before) -> Iterator[tuple[int, ...]]:
    """The orders of ``ids`` that respect ``before``, in lexicographic order
    of positions in ``ids`` (the order ``itertools.permutations`` uses)."""
    if not ids:
        yield ()
        return
    for i, x in enumerate(ids):
        if any((y, x) in before for y in ids):
            continue
        for rest in _linear_extensions(ids[:i] + ids[i + 1 :], before):
            yield (x,) + rest


def iter_consistent_traces(p: Program, limits: Limits | None = None) -> Iterator[Trace]:
    return _traces(p, limits, buggy_only=False)


def enumerate_consistent_traces(p: Program, limits: Limits | None = None) -> list[Trace]:
    return list(iter_consistent_traces(p, limits))


def iter_buggy_traces(p: Program, limits: Limits | None = None) -> Iterator[Trace]:
    """The consistent executions that falsify the assertion, in the order
    ``iter_consistent_traces`` yields them.

    The assertion is decided from the choices before any consistency
    check: a thread-run combination none of whose reachable final states
    falsifies it is skipped before its events are built, and mo choices
    whose final state satisfies it are dropped before the rf product.
    With ``limits.max_traces`` set, consistency is still checked on every
    candidate, so the bound counts the same executions as in
    ``iter_consistent_traces``.
    """
    return _traces(p, limits, buggy_only=True)


def find_buggy_traces(p: Program, limits: Limits | None = None) -> list[Trace]:
    """Consistent executions whose final state falsifies the assertion."""
    return list(iter_buggy_traces(p, limits))
