"""Candidate fences and cycle detection over intermediate traces.

A buggy execution is extended with one untyped candidate fence per source
gap adjacent to its events.  The weak analysis closes hb over the minimal
release/acquire roles of the fences each hb pair needs, then reads
coherence violations off the six axiom compositions (hb, rf;hb, mo;hb,
mo;rf;hb, mo;hb;rf⁻¹, mo;rf;hb;rf⁻¹) without enumerating cycles.  The
strong analysis finds the elementary cycles of the forced sc-order with
Johnson's algorithm.  Each violation's candidate fences form one candidate
solution, with a locally weakest memory order read off each fence's
synchronization role.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InternalCheckError, ResourceLimitError
from .limits import Limits
from .model import Event, FenceSlot, IntermediateTrace, Relation, SourceLocation, Trace
from .orders import MemoryOrder


@dataclass(frozen=True)
class LabeledEdge:
    src: int
    dst: int
    label: str


@dataclass(frozen=True)
class CandidateSolution:
    """The fences of one detected cycle, with their locally assigned orders.

    A weak solution's ``cycle`` is its axiom composition: the rf, mo and
    rf-inverse edges with the closing hb path collapsed to one hb edge.

    ``fences`` are candidate slots (the decision variables); pre-existing
    program fences the cycle relies on are recorded separately with the
    order the cycle requires of them.
    """

    kind: str  # 'weak' | 'strong'
    condition: str
    trace_id: int
    cycle: tuple[LabeledEdge, ...]
    fences: frozenset[FenceSlot]
    orders: tuple[tuple[FenceSlot, MemoryOrder], ...]
    program_fences: tuple[tuple[SourceLocation, MemoryOrder], ...] = ()

    @property
    def orders_map(self) -> dict[FenceSlot, MemoryOrder]:
        return dict(self.orders)

    @property
    def weight(self) -> int:
        return sum(o.weight for _, o in self.orders)

    def render(self) -> str:
        return "cycle %d %s %s fences=%s" % (
            self.trace_id,
            self.kind,
            self.condition,
            ",".join(str(s) for s in sorted(self.fences)),
        )


# ---------------------------------------------------------------------------
# Candidate-fence insertion


def candidate_slots(tr: Trace) -> list[FenceSlot]:
    """Every source gap adjacent to a dynamic event, one slot per gap."""
    slots: list[FenceSlot] = []
    for tid in tr.thread_order:
        evs = tr.thread_events[tid]
        if not evs:
            continue
        gaps = {e.loc.index for e in evs}
        gaps.add(evs[-1].cont)
        slots.extend(FenceSlot(tid, g) for g in sorted(gaps))
    return slots


def insert_candidate_fences(
    tr: Trace, slots: Iterable[FenceSlot] | None = None
) -> IntermediateTrace:
    """Splice one candidate fence per slot into sb; rf/mo/fr are untouched.

    Candidates carry the strongest order; the weak analysis relies only on
    their release/acquire capability while the strong analysis needs them
    sequentially consistent.
    """
    chosen = candidate_slots(tr) if slots is None else sorted(slots)
    next_id = max((e.id for e in tr.events), default=-1) + 1
    fence_events: list[Event] = []
    sb_pairs: set[tuple[int, int]] = set()

    by_thread: dict[str, list[FenceSlot]] = {}
    for slot in chosen:
        by_thread.setdefault(slot.thread, []).append(slot)

    for tid in tr.thread_order:
        evs = list(tr.thread_events[tid])
        pending = sorted(by_thread.get(tid, ()), key=lambda s: s.gap)
        seq: list[Event] = []
        base_count = len(evs)

        def make(slot: FenceSlot) -> Event:
            nonlocal next_id
            ev = Event(
                id=next_id,
                thr=tid,
                idx=base_count + slot.gap,
                act="fence",
                obj=None,
                ord=MemoryOrder.SC,
                loc=slot,
            )
            next_id += 1
            fence_events.append(ev)
            return ev

        k = 0
        for e in evs:
            while k < len(pending) and pending[k].gap <= e.loc.index:
                seq.append(make(pending[k]))
                k += 1
            seq.append(e)
        while k < len(pending):
            seq.append(make(pending[k]))
            k += 1

        for i, a in enumerate(seq):
            for b in seq[i + 1 :]:
                sb_pairs.add((a.id, b.id))

    return IntermediateTrace(tr, fence_events, Relation(sb_pairs))


# ---------------------------------------------------------------------------
# Elementary cycles (Johnson's algorithm)


def enumerate_simple_cycles(
    graph: Mapping[int, Iterable[int]],
    limit: int | None = None,
    limits: Limits | None = None,
) -> list[list[int]]:
    """Every elementary cycle of a directed graph, each exactly once.

    Cycles are vertex lists starting at their smallest vertex, emitted in a
    deterministic order.  ``limit`` caps the number of cycles; exceeding it
    raises ResourceLimitError (cycle-count explosion).
    """
    nodes = sorted(set(graph) | {w for vs in graph.values() for w in vs})
    adj = {v: sorted(set(graph.get(v, ()))) for v in nodes}
    cycles: list[list[int]] = []

    def emit(cycle: list[int]) -> None:
        cycles.append(cycle)
        if limit is not None and len(cycles) > limit:
            raise ResourceLimitError("cycle-detection", "more than %d cycles" % limit)
        if limits is not None and len(cycles) % 64 == 0:
            limits.check_time("cycle-detection")

    for v in nodes:  # self-loops first
        if v in adj[v]:
            emit([v])
    adj = {v: [w for w in ws if w != v] for v, ws in adj.items()}

    start_ptr = 0
    while start_ptr < len(nodes):
        subset = nodes[start_ptr:]
        subset_set = set(subset)
        sub_adj = {v: [w for w in adj[v] if w in subset_set] for v in subset}
        comps = [c for c in _sccs(subset, sub_adj) if len(c) > 1]
        if not comps:
            break
        comp = min(comps, key=min)
        s = min(comp)
        comp_set = set(comp)
        comp_adj = {v: [w for w in sub_adj[v] if w in comp_set] for v in comp}

        blocked = {v: False for v in comp}
        blocked_deps: dict[int, set[int]] = {v: set() for v in comp}
        path: list[int] = []

        def unblock(v: int) -> None:
            stack = [v]
            while stack:
                u = stack.pop()
                if blocked[u]:
                    blocked[u] = False
                    stack.extend(blocked_deps[u])
                    blocked_deps[u].clear()

        def circuit(v: int) -> bool:
            found = False
            path.append(v)
            blocked[v] = True
            for w in comp_adj[v]:
                if w == s:
                    emit(list(path))
                    found = True
                elif not blocked[w]:
                    if circuit(w):
                        found = True
            if found:
                unblock(v)
            else:
                for w in comp_adj[v]:
                    blocked_deps[w].add(v)
            path.pop()
            return found

        circuit(s)
        start_ptr = nodes.index(s) + 1

    return cycles


def _sccs(vertices: Sequence[int], adj: Mapping[int, Sequence[int]]) -> list[list[int]]:
    """Tarjan's strongly connected components (iterative)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    onstack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    counter = itertools.count()

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                elif w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


# ---------------------------------------------------------------------------
# Weak analysis: the coherence compositions over a role-mask closure of hb
#
# Every non-init fence f owns two bits of a role mask: in(f), its acquire
# role, and out(f), its release role.  An sb step needs no role; an sw(a, b)
# step needs out(a) and in(b) of whichever ends are fences; a dob(a, b) step
# needs in(b) if b is a fence (its head is a write).  The masks of the hb
# paths between two events form an antichain of ⊆-minimal masks: union of
# antichains (keeping the minimal elements) is addition, the pairwise OR is
# multiplication, and the empty mask is the unit.  Going around a cycle only
# adds bits, so the closure needs no star and a Floyd–Warshall pivot loop
# computes it.  Its support is exactly hb_closed, and every fence in one of
# its masks entered through an sw or dob endpoint, so it plays a role.

_IN, _OUT = 1, 2  # a fence's two bits, shifted to its position in a mask
_FREE = (0,)  # the antichain of a pair that needs no fence


def _role_order(has_in: bool, has_out: bool) -> MemoryOrder | None:
    """Locally weakest order for a fence given its sw/dob incidence."""
    if has_in and has_out:
        return MemoryOrder.AR
    if has_in:
        return MemoryOrder.ACQ
    if has_out:
        return MemoryOrder.REL
    return None


def _minimal(masks: Iterable[int]) -> tuple[int, ...]:
    """The ⊆-minimal masks, fewest bits first."""
    out: list[int] = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(k & m == k for k in out):
            out.append(m)
    return tuple(out)


def _times(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The minimal masks of a path through a step of ``a`` then one of ``b``."""
    if a == _FREE:
        return b
    if b == _FREE:
        return a
    return _minimal(x | y for x in a for y in b)


def _role_closure(
    it: IntermediateTrace, fence_bit: Mapping[int, int], limits: Limits
) -> dict[int, dict[int, tuple[int, ...]]]:
    """Row a, column b: the minimal role masks of the hb paths from a to b.

    The deadline is checked once per pivot.
    """
    info = it._hb_info

    def bits(e: int, role: int) -> int:
        return role << fence_bit[e] if e in fence_bit else 0

    steps: dict[tuple[int, int], list[int]] = {}
    for a, b in it.sb.pairs:
        steps.setdefault((a, b), []).append(0)
    for a, b in info.sw.pairs:
        steps.setdefault((a, b), []).append(bits(a, _OUT) | bits(b, _IN))
    for a, b in info.dob.pairs:
        steps.setdefault((a, b), []).append(bits(b, _IN))

    nodes = [e.id for e in it.events]
    rows: dict[int, dict[int, tuple[int, ...]]] = {v: {} for v in nodes}
    for (a, b), masks in steps.items():
        rows[a][b] = _minimal(masks)
    for k in nodes:
        limits.check_time("cycle-detection")
        row_k = list(rows[k].items())
        if not row_k:
            continue
        for i in nodes:
            row_i = rows[i]
            via = row_i.get(k)
            if via is None:
                continue
            for j, after in row_k:
                cur = row_i.get(j)
                if cur == _FREE:
                    continue
                new = _times(via, after)
                if cur is None:
                    row_i[j] = new
                elif not all(any(c & n == c for c in cur) for n in new):
                    row_i[j] = _minimal(cur + new)
    return rows


def find_weak_cycles(
    it: IntermediateTrace, trace_id: int = 0, limits: Limits | None = None
) -> list[CandidateSolution]:
    """The non-dominated candidate solutions from coherence violations.

    Each of the six compositions (hb, rf;hb, mo;hb, mo;rf;hb, mo;hb;rf⁻¹,
    mo;rf;hb;rf⁻¹) closed by an hb pair of the role-mask closure, over
    distinct events, yields one solution per minimal mask of that pair.
    Solutions whose mask strictly contains another's are dropped: they need
    more fences or stronger orders for no gain.
    """
    limits = limits or Limits()
    fence_ids = [e.id for e in it.fences if not e.is_init]
    fence_bit = {f: 2 * i for i, f in enumerate(fence_ids)}
    closed = _role_closure(it, fence_bit, limits)

    rf = sorted(it.rf.pairs)
    mo = sorted(it.mo.pairs)
    readers: dict[int, list[int]] = {}
    for w, r in rf:
        readers.setdefault(w, []).append(r)

    # Each composition over distinct events, as a cycle with one hb edge.
    E = LabeledEdge
    shapes: list[tuple[str, tuple[LabeledEdge, ...]]] = []
    shapes += [("co-h", (E(a, a, "hb"),)) for a in closed]
    shapes += [("co-rh", (E(w, r, "rf"), E(r, w, "hb"))) for w, r in rf]
    shapes += [("co-mh", (E(a, b, "mo"), E(b, a, "hb"))) for a, b in mo]
    shapes += [
        ("co-mrh", (E(a, b, "mo"), E(b, c, "rf"), E(c, a, "hb")))
        for a, b in mo
        for c in readers.get(b, ())
        if c != a
    ]
    shapes += [
        ("co-mhi", (E(a, b, "mo"), E(b, c, "hb"), E(c, a, "rf-inv")))
        for a, b in mo
        for c in readers.get(a, ())
        if c != b
    ]
    shapes += [
        ("co-mrhi", (E(a, b, "mo"), E(b, c, "rf"), E(c, d, "hb"), E(d, a, "rf-inv")))
        for a, b in mo
        for c in readers.get(b, ())
        for d in readers.get(a, ())
        if len({a, b, c, d}) == 4
    ]

    def masks(cycle: tuple[LabeledEdge, ...]) -> tuple[int, ...]:
        edge = next(e for e in cycle if e.label == "hb")
        return closed[edge.src].get(edge.dst, ())

    minimal = set(_minimal(m for _, cycle in shapes for m in masks(cycle)))
    out: dict[tuple, CandidateSolution] = {}
    for condition, cycle in shapes:
        for mask in masks(cycle):
            if mask in minimal:
                sol = _weak_solution(it, trace_id, condition, cycle, mask, fence_ids)
                key = (sol.condition, sol.fences, sol.orders, sol.program_fences)
                out.setdefault(key, sol)
    return list(out.values())


def _weak_solution(it, trace_id, condition, cycle, mask, fence_ids):
    orders: dict[FenceSlot, MemoryOrder] = {}
    program_req: dict[SourceLocation, MemoryOrder] = {}
    for i, f in enumerate(fence_ids):
        role = (mask >> 2 * i) & 3
        if not role:
            continue
        order = _role_order(bool(role & _IN), bool(role & _OUT))
        if it.is_candidate(f):
            orders[it.slot_of[f]] = order
        else:
            program_req[it.event(f).loc] = order
    if not orders:
        raise InternalCheckError(
            "coherence cycle without candidate fences in a consistent base trace"
        )
    return CandidateSolution(
        kind="weak",
        condition=condition,
        trace_id=trace_id,
        cycle=cycle,
        fences=frozenset(orders),
        orders=tuple(sorted(orders.items())),
        program_fences=tuple(sorted(program_req.items())),
    )


# ---------------------------------------------------------------------------
# Strong analysis: cycles in the forced sc-order with candidates at sc


def find_strong_cycles(
    it: IntermediateTrace, trace_id: int = 0, limits: Limits | None = None
) -> list[CandidateSolution]:
    """All candidate solutions from cycles in the sc-order relation."""
    limits = limits or Limits()
    so = it.so_info
    adj: dict[int, set[int]] = {}
    for a, b in so.so.pairs:
        adj.setdefault(a, set()).add(b)
    cycles = enumerate_simple_cycles(
        {v: sorted(ws) for v, ws in adj.items()}, limit=limits.max_cycles, limits=limits
    )

    out: dict[tuple, CandidateSolution] = {}
    for cyc in cycles:
        pairs = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
        fence_ids: set[int] = set()
        program_req: dict[SourceLocation, MemoryOrder] = {}
        for v in cyc:
            ev = it.event(v)
            if it.is_candidate(v):
                fence_ids.add(v)
            elif ev.is_fence:
                program_req[ev.loc] = MemoryOrder.SC
        for p in pairs:
            fence_ids.update(so.deps[p])
        if not fence_ids:
            raise InternalCheckError(
                "sc-order cycle without candidate fences in a consistent base trace"
            )
        slots = frozenset(it.slot_of[i] for i in fence_ids)
        sol = CandidateSolution(
            kind="strong",
            condition="to-sc",
            trace_id=trace_id,
            cycle=tuple(LabeledEdge(a, b, "so") for a, b in pairs),
            fences=slots,
            orders=tuple((s, MemoryOrder.SC) for s in sorted(slots)),
            program_fences=tuple(sorted(program_req.items())),
        )
        key = (sol.fences, sol.program_fences)
        out.setdefault(key, sol)
    return list(out.values())


def analyze_trace(
    tr: Trace, trace_id: int = 0, limits: Limits | None = None
) -> list[CandidateSolution]:
    """Weak plus strong solutions for one buggy trace.

    A strong solution whose fence set contains some weak solution's is
    dropped: the weak one needs no other fence, at orders never heavier
    than sc.
    """
    it = insert_candidate_fences(tr)
    weak = find_weak_cycles(it, trace_id, limits)
    strong = find_strong_cycles(it, trace_id, limits)
    return weak + [s for s in strong if not any(w.fences <= s.fences for w in weak)]
