"""Events, executions and explicit binary relations.

Executions are stored exactly: every relation is a dict of bitmask rows,
one per event id, where row a has bit b set iff (a, b) is in the relation,
and every closure over it is exact.  Only ``dump_trace`` turns rows into
the sorted pairs it prints (``pairs``).  Values are immutable after
construction; derived relations are computed lazily and cached, so
precompute them before sharing a trace across threads.

One ``Trace`` class serves both an enumerated execution and the
intermediate trace of the fence analyses: the latter is a ``Trace`` whose
``candidates`` id set names the candidate fences spliced into its sb.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Mapping

from .orders import MemoryOrder

READ_ACTS = ("read", "rmw")
WRITE_ACTS = ("write", "rmw")


# ---------------------------------------------------------------------------
# Locations


@dataclass(frozen=True, order=True)
class SourceLocation:
    """Position of a statement: thread id plus index in the elaborated listing."""

    thread: str
    index: int

    def __str__(self) -> str:
        return "%s:%d" % (self.thread, self.index)


@dataclass(frozen=True, order=True)
class FenceSlot:
    """A gap between statements of a thread; the identity of a candidate fence.

    ``gap`` ranges over [0, #statements]: gap g sits immediately before the
    statement with index g, and gap #statements is the end of the thread.
    """

    thread: str
    gap: int

    def __str__(self) -> str:
        return "%s@%d" % (self.thread, self.gap)


# ---------------------------------------------------------------------------
# Events


@dataclass(frozen=True)
class Event:
    """One runtime action: a read, write, rmw or fence.

    Initialization writes have ``thr`` None and participate in mo only.
    ``rval`` is the value observed (reads/rmws), ``wval`` the value written
    (writes/rmws/init).  ``cont`` is the gap index just after this event's
    statement, used when naming candidate-fence slots.
    """

    id: int
    thr: str | None
    idx: int
    act: str
    obj: str | None
    ord: MemoryOrder
    loc: SourceLocation | FenceSlot | None = None
    rval: int | None = None
    wval: int | None = None
    cont: int | None = None

    @property
    def is_init(self) -> bool:
        return self.thr is None

    @property
    def is_read(self) -> bool:
        return self.act in READ_ACTS

    @property
    def is_write(self) -> bool:
        return self.act in WRITE_ACTS

    @property
    def is_fence(self) -> bool:
        return self.act == "fence"

    def __str__(self) -> str:
        loc = "-" if self.loc is None else str(self.loc)
        return "event %d %s %d %s %s %s %s" % (
            self.id,
            self.thr if self.thr is not None else "-",
            self.idx,
            self.act,
            self.obj if self.obj is not None else "-",
            self.ord,
            loc,
        )


# ---------------------------------------------------------------------------
# Traces


class Trace:
    """One execution: events plus the sb, rf and mo relations, as rows
    with one entry per event id.

    ``candidates`` are the ids of the untyped candidate fences spliced into
    sb (see ``cycles.insert_candidate_fences``); an enumerated execution has
    none.  Candidate fences extend sb (and hence sw, hb and so) but never
    participate in rf, mo or fr.  All candidates carry the strongest
    order; the coherence analysis only relies on their release/acquire
    capability.

    ``assertion_holds`` is the final-state verdict, ``final_shared`` the
    mo-maximal value per object and ``final_locals`` each thread's register
    file after its last assignment.
    """

    def __init__(
        self,
        events: Iterable[Event],
        sb: dict[int, int],
        rf: dict[int, int],
        mo: dict[int, int],
        assertion_holds: bool | None = None,
        final_shared: Mapping[str, int] | None = None,
        final_locals: Mapping[str, Mapping[str, int]] | None = None,
        candidates: Iterable[int] = (),
    ):
        self.events = tuple(sorted(events, key=lambda e: e.id))
        self.sb = sb
        self.rf = rf
        self.mo = mo
        self.assertion_holds = assertion_holds
        self.final_shared = dict(final_shared or {})
        self.final_locals = {t: dict(env) for t, env in (final_locals or {}).items()}
        self.fence_event_ids = frozenset(candidates)
        self._roles = None

    @cached_property
    def _by_id(self) -> Mapping[int, Event]:
        return {e.id: e for e in self.events}

    def event(self, eid: int) -> Event:
        return self._by_id[eid]

    @cached_property
    def thread_order(self) -> tuple[str, ...]:
        seen: list[str] = []
        for e in self.events:
            if e.thr is not None and e.thr not in seen:
                seen.append(e.thr)
        return tuple(seen)

    @cached_property
    def thread_events(self) -> Mapping[str, tuple[Event, ...]]:
        out: dict[str, list[Event]] = {t: [] for t in self.thread_order}
        for e in self.events:
            if e.thr is not None:
                out[e.thr].append(e)
        return {t: tuple(sorted(v, key=lambda e: e.idx)) for t, v in out.items()}

    @cached_property
    def fences(self) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.is_fence)

    @cached_property
    def sc_events(self) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.ord is MemoryOrder.SC)

    @cached_property
    def mo_chains(self) -> Mapping[str, tuple[int, ...]]:
        """Per-object modification order as an id chain, init event first."""
        objs: dict[str, list[int]] = {}
        for e in self.events:
            if e.is_write and e.obj is not None:
                objs.setdefault(e.obj, []).append(e.id)
        # mo is a strict total order per object: the more mo-successors, the earlier.
        rank = {i: -self.mo[i].bit_count() for ids in objs.values() for i in ids}
        return {obj: tuple(sorted(ids, key=rank.__getitem__)) for obj, ids in objs.items()}

    # Derived relations (see relations.py for the definitions).

    @cached_property
    def _hb_info(self):
        from .relations import compute_hb_info

        return compute_hb_info(self)

    @property
    def sw(self) -> dict[int, int]:
        return self._hb_info[0]

    @property
    def hb(self) -> dict[int, int]:
        """(sb ∪ sw)+, the happens-before that the axioms read."""
        return self._hb_info[1]

    @cached_property
    def fr(self) -> dict[int, int]:
        from .relations import compute_fr

        return compute_fr(self)

    # Candidate fences and the relations the fence analyses read.

    @cached_property
    def fence_events(self) -> tuple[Event, ...]:
        return tuple(e for e in self.events if e.id in self.fence_event_ids)

    @cached_property
    def slot_of(self) -> Mapping[int, FenceSlot]:
        return {e.id: e.loc for e in self.fence_events}

    @cached_property
    def slots(self) -> tuple[FenceSlot, ...]:
        return tuple(sorted(self.slot_of.values()))

    def role_closure(self, limits=None):
        """The minimal fence-role masks of every hb pair, computed
        once (see ``relations.role_closure``); ``limits`` bounds that run."""
        if self._roles is None:
            from .relations import role_closure

            self._roles = role_closure(self, limits)
        return self._roles

    @cached_property
    def so_deps(self) -> Mapping[int, Mapping[int, tuple[int, ...]]]:
        from .relations import compute_so_info

        return compute_so_info(self)

    @property
    def so(self) -> dict[int, int]:
        return {a: sum(1 << b for b in row) for a, row in self.so_deps.items()}

    def __repr__(self) -> str:
        return "Trace(%d events, assertion_holds=%r)" % (len(self.events), self.assertion_holds)


def components(pairs: Iterable[tuple[Hashable, Hashable]]) -> list[list]:
    """The connected components of the graph whose edges are ``pairs``,
    ordered by first appearance, as are the nodes within each."""
    parent: dict = {}

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    nodes: dict = {}
    for a, b in pairs:
        nodes[a] = nodes[b] = None
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
    comps: dict = {}
    for node in nodes:
        comps.setdefault(find(node), []).append(node)
    return list(comps.values())


# ---------------------------------------------------------------------------
# Dump format (`--emit-traces`)


def pairs(rows: Mapping[int, int]) -> list[tuple[int, int]]:
    """The (a, b) pairs of bitmask rows, sorted."""
    return [(a, b) for a in sorted(rows) for b in range(rows[a].bit_length()) if rows[a] >> b & 1]


def dump_trace(tr: Trace) -> str:
    """One fact per line, stable sort: events, then sb/rf/mo, then derived."""
    lines = [str(e) for e in tr.events]
    for name in ("sb", "rf", "mo", "sw", "hb", "fr", "so"):
        lines.extend("%s %d %d" % (name, a, b) for a, b in pairs(getattr(tr, name)))
    return "\n".join(lines) + "\n"
