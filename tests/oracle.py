"""A second, naive implementation used as a test oracle.

Everything here is deliberately brute force and structurally different
from the package: executions are enumerated over a coarse value pool,
derived relations use direct quantifier loops, inter-thread
happens-before is a plain fixpoint over pair sets, and the sc total
order is decided by filtering *all* permutations of the sc events.
Only the AST types are shared.
"""

from __future__ import annotations

import itertools

from fencesynth.litmus import Fence, FetchAdd, If, Load, Program, Store, eval_expr
from fencesynth.orders import MemoryOrder

REL_CAPABLE = {MemoryOrder.REL, MemoryOrder.AR, MemoryOrder.SC}
ACQ_CAPABLE = {MemoryOrder.ACQ, MemoryOrder.AR, MemoryOrder.SC}


class OEvent:
    """Oracle event; ``key`` is (thread, per-thread position) or ('init', obj)."""

    def __init__(self, key, act, obj, ord_, rval=None, wval=None):
        self.key = key
        self.act = act
        self.obj = obj
        self.ord = ord_
        self.rval = rval
        self.wval = wval

    @property
    def is_write(self):
        return self.act in ("write", "rmw")

    @property
    def is_read(self):
        return self.act in ("read", "rmw")


def _value_pools(p: Program) -> dict[str, set[int]]:
    pools = {obj: {val} for obj, val in p.init.items()}
    locals_pool: dict[tuple[str, str], set[int]] = {}

    def stmts(block):
        for s in block:
            yield s
            if isinstance(s, If):
                yield from stmts(s.then)
                yield from stmts(s.orelse)

    all_stmts = [(t.tid, s) for t in p.threads for s in stmts(t.body)]
    # One round per load, store and fetch-add: branches and fences move no
    # value, so a fence never widens the pools.
    for _ in range(sum(isinstance(s, (Load, FetchAdd, Store)) for _, s in all_stmts) + 1):
        for tid, s in all_stmts:
            if isinstance(s, Load):
                locals_pool.setdefault((tid, s.dest), set()).update(pools[s.obj])
            elif isinstance(s, FetchAdd):
                locals_pool.setdefault((tid, s.dest), set()).update(pools[s.obj])
                pools[s.obj] |= {v + s.addend for v in pools[s.obj]}
            elif isinstance(s, Store):
                if isinstance(s.value, int):
                    pools[s.obj].add(s.value)
                else:
                    pools[s.obj] |= locals_pool.get((tid, s.value), set())
    return pools


def _thread_executions(tid, block, pools):
    """All (events, final locals) of one thread, by recursive expansion."""

    def run(stmts_left, env, acc):
        if not stmts_left:
            yield acc, env
            return
        s, rest = stmts_left[0], stmts_left[1:]
        if isinstance(s, Load):
            for v in sorted(pools[s.obj]):
                yield from run(rest, {**env, s.dest: v}, acc + [("read", s.obj, s.ord, v, None)])
        elif isinstance(s, FetchAdd):
            for v in sorted(pools[s.obj]):
                yield from run(
                    rest, {**env, s.dest: v}, acc + [("rmw", s.obj, s.ord, v, v + s.addend)]
                )
        elif isinstance(s, Store):
            val = s.value if isinstance(s.value, int) else env.get(s.value, 0)
            yield from run(rest, env, acc + [("write", s.obj, s.ord, None, val)])
        elif isinstance(s, Fence):
            yield from run(rest, env, acc + [("fence", None, s.ord, None, None)])
        elif isinstance(s, If):
            branch = s.then if eval_expr(s.cond, lambda n: env.get(n, 0)) else s.orelse
            yield from run(list(branch) + rest, env, acc)
        else:
            raise AssertionError("loops must be unrolled")

    out = []
    for acc, env in run(list(block), {}, []):
        events = [
            OEvent((tid, i), act, obj, ord_, rval, wval)
            for i, (act, obj, ord_, rval, wval) in enumerate(acc)
        ]
        out.append((events, env))
    return out


def _release_sequence(head, chain, by_key):
    out = [head.key]
    walking = chain[chain.index(head.key) + 1 :]
    for k in walking:
        e = by_key[k]
        if e.key[0] == head.key[0] or e.act == "rmw":
            out.append(k)
        else:
            break
    return out


def _naive_hb(events, sb, rf, mo, chains):
    """(hb-closure, sw, dob) by direct transcription and plain fixpoints."""
    by_key = {e.key: e for e in events}

    # sw: direct transcription of the four formation cases.
    fences = [e for e in events if e.act == "fence"]
    sw = set()
    dob = set()
    for w_k, r_k in rf:
        w, r = by_key[w_k], by_key[r_k]
        if w.ord in REL_CAPABLE and r.ord in ACQ_CAPABLE:
            sw.add((w_k, r_k))
        if w.ord in REL_CAPABLE:
            for f in fences:
                if f.ord in ACQ_CAPABLE and (r_k, f.key) in sb:
                    sw.add((w_k, f.key))
        if r.ord in ACQ_CAPABLE:
            for f in fences:
                if f.ord in REL_CAPABLE and (f.key, w_k) in sb:
                    sw.add((f.key, r_k))
        for f1 in fences:
            for f2 in fences:
                if (
                    f1.ord in REL_CAPABLE
                    and f2.ord in ACQ_CAPABLE
                    and (f1.key, w_k) in sb
                    and (r_k, f2.key) in sb
                ):
                    sw.add((f1.key, f2.key))
        # dob through release sequences.
        for head in events:
            if not head.is_write or head.ord not in REL_CAPABLE or head.key[0] == "init":
                continue
            if w_k not in _release_sequence(head, chains[head.obj], by_key):
                continue
            if r.ord in ACQ_CAPABLE:
                dob.add((head.key, r_k))
            for f in fences:
                if f.ord in ACQ_CAPABLE and (r_k, f.key) in sb:
                    dob.add((head.key, f.key))

    # ithb: plain fixpoint of the five rules.
    ithb = set(sw) | set(dob)
    while True:
        new = set(ithb)
        for a, x in sw:
            for x2, b in sb:
                if x2 == x:
                    new.add((a, b))
        for a, x in sb:
            for x2, b in ithb:
                if x2 == x:
                    new.add((a, b))
        for a, x in ithb:
            for x2, b in ithb:
                if x2 == x:
                    new.add((a, b))
        if new == ithb:
            break
        ithb = new
    hb = sb | ithb
    hbc = set(hb)
    while True:
        new = set(hbc)
        for a, x in hbc:
            for x2, b in hbc:
                if x2 == x:
                    new.add((a, b))
        if new == hbc:
            break
        hbc = new
    return hbc, sw, dob


def _naive_consistent(events, sb, rf, mo, chains):
    by_key = {e.key: e for e in events}
    hbc, _, _ = _naive_hb(events, sb, rf, mo, chains)
    rf_of = dict((r, w) for w, r in rf)

    # The six coherence axioms by direct search.
    if any(a == b for a, b in hbc):
        return False
    for w, r in rf:
        if (r, w) in hbc:
            return False
    for a, b in mo:
        if (b, a) in hbc:
            return False
    for a, b in mo:
        for r in by_key:
            if (b, r) in rf and (r, a) in hbc:
                return False
    for a, b in mo:
        for r in by_key:
            if (b, r) in hbc and rf_of.get(r) == a:
                return False
    for a, b in mo:
        for r1 in by_key:
            if (b, r1) not in rf:
                continue
            for r2 in by_key:
                if (r1, r2) in hbc and rf_of.get(r2) == a:
                    return False

    return any(True for _ in _accepted_sc_orders(events, sb, rf, mo, hbc))


def _accepted_sc_orders(events, sb, rf, mo, hbc):
    """Yield every permutation of the sc events satisfying the sc axioms."""
    by_key = {e.key: e for e in events}
    sc = [e for e in events if e.ord is MemoryOrder.SC]
    if not sc:
        yield ()
        return
    sc_keys = [e.key for e in sc]
    scset = set(sc_keys)
    init_keys = {e.key for e in events if e.key[0] == "init"}
    hb0 = hbc | {(i, e.key) for i in init_keys for e in events if e.key not in init_keys}
    sc_fence_keys = [e.key for e in sc if e.act == "fence"]
    writes_of = {}
    for e in events:
        if e.is_write:
            writes_of.setdefault(e.obj, []).append(e.key)

    def order_ok(perm):
        pos = {k: i for i, k in enumerate(perm)}
        for a, b in hbc | mo:
            if a in scset and b in scset and pos[a] > pos[b]:
                return False
        # mo coherence through fences
        for obj, ws in writes_of.items():
            for a in ws:
                for b in ws:
                    if (b, a) not in mo:
                        continue
                    for x in sc_fence_keys:
                        if (a, x) in sb and b in scset and pos[x] < pos[b]:
                            return False
                    for y in sc_fence_keys:
                        if (y, b) in sb and a in scset and pos[a] < pos[y]:
                            return False
                    for x in sc_fence_keys:
                        for y in sc_fence_keys:
                            if (a, x) in sb and (y, b) in sb and pos[x] < pos[y]:
                                return False
        for w, r in rf:
            robj = by_key[r].obj
            sc_writes = [k for k in writes_of.get(robj, ()) if k in scset]
            if r in scset:
                if w in scset:
                    if pos[w] > pos[r]:
                        return False
                    if any(k != w and pos[w] < pos[k] < pos[r] for k in sc_writes):
                        return False
                else:
                    for k in sc_writes:
                        if (w, k) in hb0 and pos[k] < pos[r] and not any(
                            k2 != k and pos[k] < pos[k2] < pos[r] for k2 in sc_writes
                        ):
                            return False
            for f in sc_fence_keys:
                if (f, r) in sb:
                    for a in sc_writes:
                        if a != w and pos[a] < pos[f] and (a, w) not in mo:
                            return False
            for a in writes_of.get(robj, ()):
                if a == w or (a, w) in mo:
                    continue
                for x in sc_fence_keys:
                    if (a, x) not in sb:
                        continue
                    if r in scset and pos[x] < pos[r]:
                        return False
                    for y in sc_fence_keys:
                        if (y, r) in sb and pos[x] < pos[y]:
                            return False
        return True

    for perm in itertools.permutations(sc_keys):
        if order_ok(perm):
            yield perm


def oracle_traces(p: Program):
    """Canonical signatures of every consistent execution, with verdicts.

    Each signature is (events, rf, mo, assertion_holds) over (thread,
    position) keys, so it is independent of event-id assignment.
    """
    pools = _value_pools(p)
    bindings = p.assertion_bindings()
    per_thread = [_thread_executions(t.tid, t.body, pools) for t in p.threads]
    init_events = [
        OEvent(("init", obj), "write", obj, MemoryOrder.RLX, wval=val)
        for obj, val in p.init.items()
    ]

    out = set()
    for combo in itertools.product(*per_thread):
        events = list(init_events)
        final_locals = {}
        sb = set()
        for t, (evs, env) in zip(p.threads, combo):
            final_locals[t.tid] = env
            events.extend(evs)
            for i, a in enumerate(evs):
                for b in evs[i + 1 :]:
                    sb.add((a.key, b.key))

        reads = [e for e in events if e.is_read and e.key[0] != "init"]
        writes = [e for e in events if e.is_write]
        src_lists = []
        feasible = True
        for r in reads:
            srcs = [w.key for w in writes if w.obj == r.obj and w.wval == r.rval and w.key != r.key]
            if not srcs:
                feasible = False
                break
            src_lists.append(sorted(srcs))
        if not feasible:
            continue

        per_obj_writes = {
            obj: sorted(w.key for w in writes if w.obj == obj and w.key[0] != "init")
            for obj in p.init
        }
        for rf_choice in itertools.product(*src_lists):
            rf = {(w, r.key) for w, r in zip(rf_choice, reads)}
            rf_of = {r.key: w for w, r in zip(rf_choice, reads)}
            for perm_choice in itertools.product(
                *(itertools.permutations(per_obj_writes[obj]) for obj in p.init)
            ):
                chains = {}
                mo = set()
                for obj, perm in zip(p.init, perm_choice):
                    chain = (("init", obj),) + perm
                    chains[obj] = list(chain)
                    for i, a in enumerate(chain):
                        for b in chain[i + 1 :]:
                            mo.add((a, b))
                by_key = {e.key: e for e in events}
                ok = True
                for e in events:
                    if e.act == "rmw":
                        chain = chains[e.obj]
                        at = chain.index(e.key)
                        if at == 0 or chain[at - 1] != rf_of[e.key]:
                            ok = False
                            break
                if not ok:
                    continue
                if not _naive_consistent(events, sb, rf, mo, chains):
                    continue

                final_shared = {obj: by_key[chains[obj][-1]].wval for obj in p.init}

                def lookup(name):
                    kind, where = bindings[name]
                    if kind == "object":
                        return final_shared[where]
                    return final_locals[where].get(name, 0)

                verdict = eval_expr(p.assertion, lookup)
                sig = (
                    frozenset(
                        (e.key, e.act, e.obj, str(e.ord), e.rval, e.wval) for e in events
                    ),
                    frozenset(rf),
                    frozenset(mo),
                    verdict,
                )
                out.add(sig)
    return out


def _pairs(rows):
    """The (a, b) pairs of a package relation, given as bitmask rows."""
    return [(a, b) for a, row in rows.items() for b in range(row.bit_length()) if row >> b & 1]


def trace_signature(tr):
    """The oracle-comparable signature of a package trace."""

    def key(eid):
        e = tr.event(eid)
        return ("init", e.obj) if e.is_init else (e.thr, e.idx)

    return (
        frozenset(
            (key(e.id), e.act, e.obj, str(e.ord), e.rval, e.wval) for e in tr.events
        ),
        frozenset((key(a), key(b)) for a, b in _pairs(tr.rf)),
        frozenset((key(a), key(b)) for a, b in _pairs(tr.mo)),
        tr.assertion_holds,
    )


def _oracle_view(tr):
    """A package trace as the oracle's (events, sb, rf, mo, chains) over
    (thread, position) keys, and the event id of each key."""
    events = []
    key_of = {}
    for e in tr.events:
        key = ("init", e.obj) if e.is_init else (e.thr, e.idx)
        key_of[e.id] = key
        events.append(OEvent(key, e.act, e.obj, e.ord, e.rval, e.wval))
    sb = {(key_of[a], key_of[b]) for a, b in _pairs(tr.sb)}
    rf = {(key_of[a], key_of[b]) for a, b in _pairs(tr.rf)}
    mo = {(key_of[a], key_of[b]) for a, b in _pairs(tr.mo)}
    chains = {obj: [key_of[i] for i in chain] for obj, chain in tr.mo_chains.items()}
    return (events, sb, rf, mo, chains), {v: k for k, v in key_of.items()}


def accepting_sc_orders(tr):
    """All accepted sc total orders of a package trace, as event-id tuples."""
    view, back = _oracle_view(tr)
    hbc, _, _ = _naive_hb(*view)
    return [
        tuple(back[k] for k in perm)
        for perm in _accepted_sc_orders(*view[:4], hbc)
    ]


def naive_hb_of(tr):
    """``_naive_hb`` of a package trace, (hb closure, sw, dob), as sets of
    event-id pairs."""
    view, back = _oracle_view(tr)
    return tuple({(back[a], back[b]) for a, b in rel} for rel in _naive_hb(*view))


def brute_force_cycles(adj: dict[int, list[int]]) -> set[tuple[int, ...]]:
    """Every elementary cycle by checking all circular vertex arrangements."""
    nodes = sorted(adj)
    edges = {(a, b) for a, bs in adj.items() for b in bs}
    found = set()
    for size in range(1, len(nodes) + 1):
        for subset in itertools.combinations(nodes, size):
            first, rest = subset[0], subset[1:]
            for arrangement in itertools.permutations(rest):
                cyc = (first,) + arrangement
                if all(
                    (cyc[i], cyc[(i + 1) % size]) in edges for i in range(size)
                ):
                    found.add(cyc)
    return found
