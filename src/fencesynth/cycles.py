"""Candidate fences and cycle detection over intermediate traces.

A buggy execution is extended with one untyped candidate fence per source
gap adjacent to its events.  The weak analysis closes hb over the minimal
release/acquire roles of the fences each hb pair needs, then reads
coherence violations off the six axiom compositions (hb, rf;hb, mo;hb,
mo;rf;hb, mo;hb;rf⁻¹, mo;rf;hb;rf⁻¹) without enumerating cycles.  The
strong analysis closes the forced sc order over the same minimal fence
sets and reads its cycles off the diagonal.  Each violation's candidate
fences form one candidate solution, with a locally weakest memory order
read off each fence's synchronization role (sc for the strong analysis).

No hb path, coherence composition or sc-order cycle leaves a connected
component of threads and objects (a thread joins each object it
accesses).  Given a memo, ``analyze_trace`` analyses each component of a
trace on its own, and each distinct component once per memo, then maps
the solutions back to the trace's event ids and merges them into the
order of the whole-trace analysis.

Johnson's elementary-cycles algorithm stays available as a utility; the
analyses do not call it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import InternalCheckError, ResourceLimitError
from .limits import Limits
from .model import Event, FenceSlot, IntermediateTrace, Relation, SourceLocation, Trace
from .orders import MemoryOrder
from .relations import _IN, _OUT, _minimal, close_masks, fence_order


@dataclass(frozen=True)
class LabeledEdge:
    src: int
    dst: int
    label: str


@dataclass(frozen=True)
class CandidateSolution:
    """The fences of one detected cycle, with their locally assigned orders.

    A weak solution's ``cycle`` is its axiom composition: the rf, mo and
    rf-inverse edges with the closing hb path collapsed to one hb edge.  A
    strong solution's is its so cycle collapsed to one so edge from a
    vertex of the cycle back to itself.

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
# Weak analysis: the coherence compositions over the role-mask closure of hb
# (``relations.role_closure``)


def _role_order(has_in: bool, has_out: bool) -> MemoryOrder | None:
    """Locally weakest order for a fence given its sw/dob incidence."""
    if has_in and has_out:
        return MemoryOrder.AR
    if has_in:
        return MemoryOrder.ACQ
    if has_out:
        return MemoryOrder.REL
    return None


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
    fence_ids = fence_order(it)
    closed = it.role_closure(limits or Limits())

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
    """The non-dominated candidate solutions from cycles in the sc order.

    Each so edge carries the minimal masks of the candidate fences it relies
    on, plus the bits of its fence ends: a candidate, or a program sc fence
    that the solution records as needing sc.  The edges are closed over the
    same antichain semiring as hb's role masks; each minimal mask on the
    diagonal is one solution, whose cycle is one collapsed so edge.
    """
    limits = limits or Limits()
    it.role_closure(limits)  # so_info reads it; build it under this deadline
    deps = it.so_info.deps
    fences = fence_order(it)
    bit = {f: 1 << 2 * i for i, f in enumerate(fences)}
    adj: dict[int, list[int]] = {}
    for a, b in sorted(deps):
        adj.setdefault(a, []).append(b)
    # Only the edges inside one strongly connected component lie on cycles.
    comp = {v: i for i, c in enumerate(_sccs(list(adj), adj)) for v in c}
    rows: dict[int, dict[int, tuple[int, ...]]] = {}
    for (a, b), masks in sorted(deps.items()):
        if comp[a] == comp.get(b):
            ends = bit.get(a, 0) | bit.get(b, 0)
            rows.setdefault(a, {})[b] = _minimal(m | ends for m in masks)
    close_masks(rows, limits)

    through: dict[int, int] = {}  # each diagonal mask, with the first vertex it closes at
    for v, row in rows.items():
        for mask in row.get(v, ()):
            through.setdefault(mask, v)
    out: list[CandidateSolution] = []
    for mask in _minimal(through):
        slots: set[FenceSlot] = set()
        program_req: dict[SourceLocation, MemoryOrder] = {}
        for i, f in enumerate(fences):
            if mask >> 2 * i & 1:
                if it.is_candidate(f):
                    slots.add(it.slot_of[f])
                else:
                    program_req[it.event(f).loc] = MemoryOrder.SC
        if not slots:
            raise InternalCheckError(
                "sc-order cycle without candidate fences in a consistent base trace"
            )
        v = through[mask]
        out.append(
            CandidateSolution(
                kind="strong",
                condition="to-sc",
                trace_id=trace_id,
                cycle=(LabeledEdge(v, v, "so"),),
                fences=frozenset(slots),
                orders=tuple((s, MemoryOrder.SC) for s in sorted(slots)),
                program_fences=tuple(sorted(program_req.items())),
            )
        )
    return out


def _covers(weak: CandidateSolution, strong: CandidateSolution) -> bool:
    """``weak`` needs no fence and no program-fence order beyond ``strong``'s."""
    prog = dict(strong.program_fences)
    return weak.fences <= strong.fences and all(
        loc in prog and o.at_most(prog[loc]) for loc, o in weak.program_fences
    )


def _analyze(it: IntermediateTrace, trace_id: int, limits: Limits | None):
    weak = find_weak_cycles(it, trace_id, limits)
    strong = find_strong_cycles(it, trace_id, limits)
    return weak, [s for s in strong if not any(_covers(w, s) for w in weak)]


def analyze_trace(
    tr: Trace,
    trace_id: int = 0,
    limits: Limits | None = None,
    memo: dict | None = None,
) -> list[CandidateSolution]:
    """Weak plus strong solutions for one buggy trace.

    A strong solution is dropped when some weak solution needs a subset of
    its fences and of its program-fence requirements, at orders never
    heavier than sc.

    With a ``memo`` (one dict per run), a trace whose threads and objects
    fall into several connected components is analysed per component, and
    each distinct component once per memo: no hb path, coherence
    composition or sc-order cycle leaves a component.  The merged list is
    equal, order included, to the whole-trace analysis.
    """
    parts = None if memo is None else _split(tr)
    if parts is None:
        weak, strong = _analyze(insert_candidate_fences(tr), trace_id, limits)
        return weak + strong
    if limits is not None:
        limits.check_time("cycle-detection")
    entries = []
    for key, ids in parts:
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = _Component(key, limits)
        entries.append((entry, ids))
    # Candidate fences take the ids after the last event, thread by thread
    # in thread order and gap by gap (``insert_candidate_fences``).
    count = {thr: n for entry, _ in entries for thr, n in entry.slot_counts}
    first = {}
    base = tr.events[-1].id + 1
    for e in tr.events:
        if e.thr is not None and e.thr not in first:
            first[e.thr], base = base, base + count[e.thr]
    # Weak solutions first, by condition, cycle, then mask (fence ids order
    # the fence bits as ``fence_order`` does); strong ones by mask.
    merged = []
    for entry, ids in entries:
        ids = ids + [first[thr] + k for thr, k in entry.fence_pos]
        for sol, rank, mask in entry.solutions:
            cycle = tuple(LabeledEdge(ids[e.src], ids[e.dst], e.label) for e in sol.cycle)
            bits = sum(role << 2 * ids[f] for f, role in mask)
            edges = tuple((e.src, e.dst) for e in cycle) if sol.kind == "weak" else ()
            sol = CandidateSolution(
                sol.kind, sol.condition, trace_id, cycle, sol.fences, sol.orders, sol.program_fences
            )
            merged.append(((rank, edges, bits.bit_count(), bits), sol))
    merged.sort(key=lambda ks: ks[0])
    return [sol for _, sol in merged]


# The weak conditions in the order find_weak_cycles lists them.
_CONDITIONS = ("co-h", "co-rh", "co-mh", "co-mrh", "co-mhi", "co-mrhi")
_ROLES = {MemoryOrder.ACQ: _IN, MemoryOrder.REL: _OUT, MemoryOrder.AR: _IN | _OUT}


def _split(tr: Trace):
    """The memo key and the event ids of each connected component of ``tr``
    that has a thread, or None when there is only one such component.

    A thread joins each object it accesses, and an init write joins its
    object.  The key renumbers the component's events in id order and
    restricts sb, rf and mo to them.
    """
    parent: dict = {}

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    accesses = {(e.thr, e.obj) for e in tr.events if e.thr is not None}
    for thr, obj in accesses:
        if obj is not None:
            a, b = find((0, thr)), find((1, obj))
            if a != b:
                parent[a] = b
    if len({find((0, thr)) for thr, _ in accesses}) < 2:
        return None
    groups: dict = {}
    roots: dict = {}
    for e in tr.events:
        node = (0, e.thr) if e.thr is not None else (1, e.obj)
        root = roots.get(node)
        if root is None:
            root = roots[node] = find(node)
        groups.setdefault(root, []).append(e)
    groups = list(groups.values())
    parts = [k for k, g in enumerate(groups) if any(e.thr is not None for e in g)]
    where = {e.id: (k, i) for k, g in enumerate(groups) for i, e in enumerate(g)}
    rels = [([], [], []) for _ in groups]
    for j, rel in enumerate((tr.sb, tr.rf, tr.mo)):
        for a, b in rel.pairs:
            (ka, ia), (kb, ib) = where[a], where[b]
            if ka != kb:
                return None  # a relation across components: no split
            rels[ka][j].append((ia, ib))
    out = []
    for k in parts:
        fields = tuple(
            (e.thr, e.idx, e.act, e.obj, e.ord, e.loc, e.rval, e.wval, e.cont) for e in groups[k]
        )
        out.append(((fields, *map(frozenset, rels[k])), [e.id for e in groups[k]]))
    return out


class _Component:
    """The analysis of one component, in its own event numbering.

    ``fence_pos`` gives each candidate fence's thread and rank among that
    thread's candidates, ``slot_counts`` each thread's number of
    candidates, and each solution comes with its rank (its weak condition's,
    or after them all if strong) and its mask as (fence id, role bits)
    pairs.
    """

    def __init__(self, key, limits: Limits | None):
        fields, sb, rf, mo = key
        events = [Event(i, *f) for i, f in enumerate(fields)]
        it = insert_candidate_fences(Trace(events, Relation(sb), Relation(rf), Relation(mo)))
        counts: dict[str, int] = {}
        self.fence_pos = []
        for f in it.fence_events:
            self.fence_pos.append((f.thr, counts.get(f.thr, 0)))
            counts[f.thr] = counts.get(f.thr, 0) + 1
        self.slot_counts = tuple(counts.items())
        fence_of = {f.loc: f.id for f in it.fences}
        weak, strong = _analyze(it, 0, limits)
        sc = {MemoryOrder.SC: _IN}
        self.solutions = [
            (sol, _CONDITIONS.index(sol.condition), self._mask(sol, fence_of, _ROLES))
            for sol in weak
        ] + [(sol, len(_CONDITIONS), self._mask(sol, fence_of, sc)) for sol in strong]

    @staticmethod
    def _mask(sol, fence_of, roles):
        return tuple(
            (fence_of[where], roles[order]) for where, order in sol.orders + sol.program_fences
        )
