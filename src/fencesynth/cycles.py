"""Candidate fences and cycle detection over intermediate traces.

A buggy execution is extended with one untyped candidate fence per source
gap adjacent to its events; the result, the intermediate trace, is a
``Trace`` whose ``candidates`` name those fences.  Both analyses read the
axioms in ``relations``, as the consistency check does.  The weak analysis
closes hb over the minimal release/acquire roles of the fences each hb
pair needs, then reads violations off ``coherence_shapes`` without
enumerating cycles.  The strong analysis closes the forced sc order
(``sc_clauses`` and hb) over the same minimal fence sets, which
``relations.compute_so_info`` gives each so edge with its candidate ends
included, and reads its cycles off the diagonal; the bitmask closure
``relations._closure`` first drops the so edges that lie on no cycle.
Each violation's candidate fences form one candidate solution, with a
locally weakest memory order read off each fence's synchronization role
(sc for the strong analysis).
A fence already in the program is part of the input: it plays only the
roles its own order supports, so a solution that relies on it asks
nothing of it and does not name it.

A solution names source coordinates only: fence slots, never event ids.
Every list of solutions comes in one canonical order: by condition (the
six weak ones in the order above, then ``to-sc``), then fences, then
orders.

A depth-first search for elementary cycles, pruned by the same bitmask
closure, stays available as a utility; the analyses do not call it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InternalCheckError, ResourceLimitError
from .limits import Limits
from .model import Event, FenceSlot, Trace
from .orders import MemoryOrder
from .relations import _IN, _OUT, COHERENCE, _bits, _closure, _minimal, close_masks, coherence_shapes, fence_order


@dataclass(frozen=True)
class CandidateSolution:
    """The candidate slots of one detected cycle (the decision variables),
    with their locally assigned orders."""

    kind: str  # 'weak' | 'strong'
    condition: str
    trace_id: int
    fences: frozenset[FenceSlot]
    orders: tuple[tuple[FenceSlot, MemoryOrder], ...]

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


def insert_candidate_fences(tr: Trace, slots: Iterable[FenceSlot] | None = None) -> Trace:
    """Splice one candidate fence per slot into sb; rf/mo/fr are untouched.

    Candidates carry the strongest order; the weak analysis relies only on
    their release/acquire capability while the strong analysis needs them
    sequentially consistent.
    """
    chosen = candidate_slots(tr) if slots is None else sorted(slots)
    next_id = max((e.id for e in tr.events), default=-1) + 1
    fences: list[Event] = []
    sb = dict(tr.sb)
    for tid in tr.thread_order:
        evs = tr.thread_events[tid]
        at = [e.loc.index for e in evs]
        seq = list(evs)
        # Gap g sits before the statement with index g and after every
        # candidate of a smaller gap; the slots come in gap order.
        for n, slot in enumerate(s for s in chosen if s.thread == tid):
            fence = Event(next_id, tid, len(evs) + slot.gap, "fence", None, MemoryOrder.SC, slot)
            next_id += 1
            fences.append(fence)
            seq.insert(bisect_left(at, slot.gap) + n, fence)
        later = 0
        for e in reversed(seq):
            sb[e.id], later = later, later | 1 << e.id
    apart = dict.fromkeys((f.id for f in fences), 0)  # a fence is in no rf or mo pair
    return Trace(
        tr.events + tuple(fences),
        sb,
        {**tr.rf, **apart},
        {**tr.mo, **apart},
        candidates=(f.id for f in fences),
    )


# ---------------------------------------------------------------------------
# Elementary cycles


def enumerate_simple_cycles(
    graph: Mapping[int, Iterable[int]],
    limit: int | None = None,
    limits: Limits | None = None,
) -> list[list[int]]:
    """Every elementary cycle of a directed graph, each exactly once, as a
    vertex list from its smallest vertex, the lists in lexicographic order.

    A depth-first search from each vertex s steps only to larger vertices
    that can reach s (``relations._closure``).  More than ``limit`` cycles
    (a cycle-count explosion), or the deadline of ``limits``, checked at
    every step, raises ResourceLimitError.
    """
    limits = limits or Limits()
    nodes = sorted(set(graph) | {w for vs in graph.values() for w in vs})
    pos = {v: i for i, v in enumerate(nodes)}
    succ = dict.fromkeys(range(len(nodes)), 0)
    succ.update((pos[v], sum(1 << pos[w] for w in set(ws))) for v, ws in graph.items())
    reach = _closure(succ)
    cycles: list[list[int]] = []
    for s in succ:
        inside = sum(1 << v for v in range(s, len(nodes)) if reach[v] >> s & 1)
        path, steps = [s], [_bits(succ[s] & inside)]
        while steps:
            for w in steps[-1]:
                limits.check_time("cycle-detection")
                if w == s:
                    cycles.append([nodes[v] for v in path])
                    if limit is not None and len(cycles) > limit:
                        raise ResourceLimitError("cycle-detection", "more than %d cycles" % limit)
                elif w not in path:
                    path.append(w)
                    steps.append(_bits(succ[w] & inside))
                    break
            else:
                steps.pop()
                path.pop()
    return cycles


# ---------------------------------------------------------------------------
# Weak analysis: the coherence compositions over the role-mask closure of hb
# (``relations.role_closure``)


# The locally weakest order of a fence, by the roles (``_IN``, ``_OUT``)
# it plays in the sw steps of a weak solution.
_ROLE_ORDER = {_IN: MemoryOrder.ACQ, _OUT: MemoryOrder.REL, _IN | _OUT: MemoryOrder.AR}


def find_weak_cycles(
    it: Trace, trace_id: int = 0, limits: Limits | None = None
) -> list[CandidateSolution]:
    """The non-dominated candidate solutions from coherence violations.

    Each coherence composition (``relations.coherence_shapes``) closed by
    an hb pair of the role-mask closure yields one solution per minimal
    mask of that pair.
    Solutions whose mask strictly contains another's are dropped: they need
    more fences or stronger orders for no gain.  The list is in canonical
    order.
    """
    fence_ids = fence_order(it)
    closed = it.role_closure(limits or Limits())

    shapes = [(c, a, b) for c, a, ends in coherence_shapes(it) for b in _bits(ends) if b in closed[a]]
    minimal = set(_minimal(m for _, a, b in shapes for m in closed[a][b]))
    sols = {
        _solution(it, trace_id, "weak", condition, mask, fence_ids, _ROLE_ORDER)
        for condition, a, b in shapes
        for mask in closed[a][b]
        if mask in minimal
    }
    return sorted(sols, key=_canonical)


# ---------------------------------------------------------------------------
# Strong analysis: cycles in the forced sc-order with candidates at sc


def find_strong_cycles(
    it: Trace, trace_id: int = 0, limits: Limits | None = None
) -> list[CandidateSolution]:
    """The non-dominated candidate solutions from cycles in the sc order.

    Each so edge carries the minimal masks of the candidate fences it relies
    on, its candidate ends included (``relations.compute_so_info``).  The
    edges are closed over the same antichain semiring as hb's role masks;
    each minimal mask on the diagonal is one solution.  The list is in
    canonical order.
    """
    limits = limits or Limits()
    it.role_closure(limits)  # so_deps reads it; build it under this deadline
    deps = it.so_deps
    fences = fence_order(it)
    # Only the edges (a, b) where b reaches a lie on cycles.
    reach = _closure(it.so)
    rows: dict[int, dict[int, tuple[int, ...]]] = {}
    for a, row in sorted(deps.items()):
        for b, masks in sorted(row.items()):
            if reach[b] >> a & 1:
                rows.setdefault(a, {})[b] = masks
    close_masks(rows, limits)

    diagonal = _minimal(m for v, row in rows.items() for m in row.get(v, ()))
    sc = {_IN: MemoryOrder.SC}  # strong masks set only a fence's in bit
    return sorted(
        (_solution(it, trace_id, "strong", "to-sc", m, fences, sc) for m in diagonal),
        key=_canonical,
    )


def _solution(it, trace_id, kind, condition, mask, fences, order_of) -> CandidateSolution:
    """The solution of one minimal mask over ``fences`` (``fence_order``):
    each candidate with a bit set takes the order ``order_of`` gives its
    two bits."""
    roles = ((f, mask >> 2 * i & 3) for i, f in enumerate(fences))
    orders = {it.slot_of[f]: order_of[role] for f, role in roles if role}
    if not orders:
        raise InternalCheckError(
            "%s cycle without candidate fences in a consistent base trace" % condition
        )
    return CandidateSolution(
        kind=kind,
        condition=condition,
        trace_id=trace_id,
        fences=frozenset(orders),
        orders=tuple(sorted(orders.items())),
    )


# The weak conditions in the order of their compositions, then the strong one.
_CONDITIONS = COHERENCE + ("to-sc",)


def _canonical(sol: CandidateSolution):
    """The sort key of the canonical order: condition, fences, orders."""
    return _CONDITIONS.index(sol.condition), sorted(sol.fences), [o.rank for _, o in sol.orders]


def analyze_trace(tr: Trace, trace_id: int = 0, limits: Limits | None = None) -> list[CandidateSolution]:
    """Weak plus strong solutions for one buggy trace, in canonical order.

    A strong solution is dropped when some weak solution needs a subset of
    its fences, at orders never heavier than sc.
    """
    it = insert_candidate_fences(tr)
    weak = find_weak_cycles(it, trace_id, limits)
    strong = find_strong_cycles(it, trace_id, limits)
    return weak + [s for s in strong if not any(w.fences <= s.fences for w in weak)]
