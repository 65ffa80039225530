"""Candidate fences and cycle detection over intermediate traces.

A buggy execution is extended with one untyped candidate fence per source
gap adjacent to its events.  The weak analysis finds simple cycles in the
labeled multigraph over hb/rf/mo/rf-inverse edges whose label sequences
spell one of the coherence axioms; the strong analysis finds cycles in the
forced sc-order.  Each cycle's candidate fences form one candidate
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

R_LABELS = ("sw", "dob")  # the synchronization roles that type a fence


@dataclass(frozen=True)
class LabeledEdge:
    src: int
    dst: int
    label: str


@dataclass(frozen=True)
class CandidateSolution:
    """The fences of one detected cycle, with their locally assigned orders.

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
# Weak analysis: coherence-axiom cycles with candidates release/acquire capable


def _classify(labels: Sequence[str]) -> str | None:
    """Which coherence axiom a cyclic label sequence spells, if any.

    hb may repeat (a run of hb edges is a transitive hb path); rf, mo and
    rf-inv appear at most once and only in the axiom's composition order.
    """
    n = len(labels)
    others = [l for l in labels if l != "hb"]
    if not others:
        return "co-h"
    if others.count("rf") > 1 or others.count("mo") > 1 or others.count("rf-inv") > 1:
        return None
    kinds = sorted(others)
    if kinds == ["rf"]:
        return "co-rh"
    if kinds == ["mo"]:
        return "co-mh"
    i_mo = labels.index("mo") if "mo" in labels else None
    if kinds == ["mo", "rf"]:
        if labels[(i_mo + 1) % n] == "rf" and n >= 3:
            return "co-mrh"
        return None
    if kinds == ["mo", "rf-inv"]:
        if labels[(i_mo - 1) % n] == "rf-inv" and n >= 3:
            return "co-mhi"
        return None
    if kinds == ["mo", "rf", "rf-inv"]:
        if labels[(i_mo + 1) % n] == "rf" and labels[(i_mo - 1) % n] == "rf-inv" and n >= 4:
            return "co-mrhi"
        return None
    return None


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
    """All candidate solutions from coherence-axiom cycles.

    Works over the labeled multigraph with one hb edge per derived pair
    (candidates at their strongest), plus rf, mo and rf-inverse edges.
    Cycles whose label sequence spells an axiom yield the candidate fences
    on the cycle and on the witnesses of its hb edges.
    """
    limits = limits or Limits()
    info = it._hb_info
    edges: dict[tuple[int, int], set[str]] = {}

    def add(a: int, b: int, label: str) -> None:
        edges.setdefault((a, b), set()).add(label)

    for a, b in info.hb.pairs:
        add(a, b, "hb")
    for w, r in it.rf.pairs:
        add(w, r, "rf")
        add(r, w, "rf-inv")
    for a, b in it.mo.pairs:
        add(a, b, "mo")

    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
    cycles = enumerate_simple_cycles(
        {v: sorted(ws) for v, ws in adj.items()}, limit=limits.max_cycles, limits=limits
    )

    out: dict[tuple, CandidateSolution] = {}
    for cyc in cycles:
        pairs = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
        options = [sorted(edges[p]) for p in pairs]
        for labeling in itertools.product(*options):
            condition = _classify(labeling)
            if condition is None:
                continue
            sol = _build_weak_solution(it, trace_id, pairs, labeling, condition, info)
            if sol is not None:
                key = (sol.condition, sol.fences, sol.orders, sol.program_fences)
                out.setdefault(key, sol)
    return list(out.values())


def _build_weak_solution(it, trace_id, pairs, labeling, condition, info):
    # Expand hb edges into their witness steps; other labels are single steps.
    steps: list[tuple[int, int, str]] = []
    for (a, b), label in zip(pairs, labeling):
        if label == "hb":
            path = info.witness[(a, b)]
            steps.extend(
                (path.nodes[i], path.nodes[i + 1], path.labels[i])
                for i in range(len(path.labels))
            )
        else:
            steps.append((a, b, label))

    incoming: dict[int, set[str]] = {}
    outgoing: dict[int, set[str]] = {}
    for a, b, label in steps:
        outgoing.setdefault(a, set()).add(label)
        incoming.setdefault(b, set()).add(label)

    orders: dict[FenceSlot, MemoryOrder] = {}
    program_req: dict[SourceLocation, MemoryOrder] = {}
    walk_nodes = set(incoming) | set(outgoing)
    for node in walk_nodes:
        ev = it.event(node)
        if not ev.is_fence:
            continue
        has_in = bool(incoming.get(node, set()) & set(R_LABELS))
        has_out = bool(outgoing.get(node, set()) & set(R_LABELS))
        order = _role_order(has_in, has_out)
        if it.is_candidate(node):
            if order is None:
                # The fence plays no synchronization role here; the same
                # cycle without it is found separately.
                return None
            orders[it.slot_of[node]] = order
        elif order is not None and not ev.is_init:
            program_req[ev.loc] = order

    if not orders:
        raise InternalCheckError(
            "coherence cycle without candidate fences in a consistent base trace"
        )
    cycle = tuple(LabeledEdge(a, b, l) for (a, b), l in zip(pairs, labeling))
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

    A strong solution whose fence set equals some weak solution's is
    dropped: the weak orders are never heavier.
    """
    it = insert_candidate_fences(tr)
    weak = find_weak_cycles(it, trace_id, limits)
    strong = find_strong_cycles(it, trace_id, limits)
    weak_sets = {s.fences for s in weak}
    return weak + [s for s in strong if s.fences not in weak_sets]
