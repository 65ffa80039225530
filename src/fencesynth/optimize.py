"""Minimum-cardinality slot selection and optimal memory-order assignment.

Each buggy trace contributes one clause: a disjunction over its candidate
solutions of conjunctions of fence slots (all literals positive).  The
whole-program query is the conjunction of the clauses, and a minimum model
is found by iterative deepening over slot subsets, exploiting monotonicity.
Orders are then assigned per slot by coalescing one minimum cycle per
trace, taking the least upper bound where cycles share a slot, and keeping
the lightest combination.  Only synthesized fences weigh anything: no
solution names a program fence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .cycles import CandidateSolution
from .errors import InternalCheckError
from .limits import Limits
from .model import FenceSlot
from .orders import MemoryOrder, lub


@dataclass(frozen=True)
class Query:
    """One clause per trace; each clause a disjunction of slot conjunctions.

    Monotone (no negated literals) and, by construction, every clause is
    nonempty: a trace with no candidate solutions aborts the run earlier.
    Conjunctions that strictly contain another conjunction of the same
    clause are pruned; the clause is logically unchanged.
    """

    clauses: tuple[tuple[int, tuple[frozenset[FenceSlot], ...]], ...]

    @property
    def slots(self) -> tuple[FenceSlot, ...]:
        return tuple(sorted({s for _, conjs in self.clauses for c in conjs for s in c}))

    def satisfied_by(self, model: frozenset[FenceSlot]) -> bool:
        return all(any(c <= model for c in conjs) for _, conjs in self.clauses)

    def render(self) -> str:
        lines = []
        for tid, conjs in self.clauses:
            parts = ["(" + " ∧ ".join(str(s) for s in sorted(c)) + ")" for c in conjs]
            lines.append("trace %d: %s" % (tid, " ∨ ".join(parts)))
        return "\n".join(lines) + "\n"


def build_query(solutions_by_trace: Sequence[Sequence[CandidateSolution]]) -> Query:
    """The conjunction over traces of each trace's solution disjunction."""
    clauses = []
    for sols in solutions_by_trace:
        if not sols:
            raise InternalCheckError("query construction requires at least one solution per trace")
        trace_id = sols[0].trace_id
        sets = sorted({s.fences for s in sols}, key=lambda c: (len(c), sorted(c)))
        kept: list[frozenset[FenceSlot]] = []
        for c in sets:
            if not any(k < c for k in kept):
                kept.append(c)
        clauses.append((trace_id, tuple(kept)))
    return Query(tuple(clauses))


def find_min_model(q: Query, limits: Limits | None = None) -> frozenset[FenceSlot]:
    """Smallest satisfying slot set; ties go to the lexicographically least.

    Iterative deepening on cardinality over the sorted slot universe, so
    the first satisfying subset at the minimal size is the lexicographic
    winner.  Always satisfiable: the full slot set satisfies every clause.
    """
    limits = limits or Limits()
    slots = q.slots
    for k in range(len(slots) + 1):
        for combo in itertools.combinations(slots, k):
            limits.check_time("min-model")
            model = frozenset(combo)
            if q.satisfied_by(model):
                return model
    raise InternalCheckError("monotone query unsatisfiable by the full slot set")


@dataclass(frozen=True)
class TypedSolution:
    """Slots to synthesize with their orders; ``weight`` sums their weights.

    A program fence is part of the input and no solution names it; only a
    synthesized fence merged into it (``driver.apply_solution``) raises its
    order.
    """

    assignment: tuple[tuple[FenceSlot, MemoryOrder], ...]
    # Always true (assignment is exact); bench/tracer.py still reads it.
    orders_exact: bool = True

    @property
    def weight(self) -> int:
        return sum(o.weight for _, o in self.assignment)


def _coalesce(choice: Sequence[CandidateSolution], slot_ord=None):
    """Per-slot least upper bounds of the choice's orders and their weight,
    folded into a copy of the running lubs ``slot_ord`` if given."""
    slot_ord = dict(slot_ord or {})
    for sol in choice:
        for slot, o in sol.orders:
            slot_ord[slot] = lub(slot_ord.get(slot), o)
    return slot_ord, sum(o.weight for o in slot_ord.values())


def _selection_key(slot_ord, weight):
    return weight, tuple((s, o.value) for s, o in sorted(slot_ord.items()))


def assign_memory_orders(
    model: frozenset[FenceSlot],
    solutions_by_trace: Sequence[Sequence[CandidateSolution]],
    limits: Limits | None = None,
) -> TypedSolution:
    """Weakest sound orders for the model's slots.

    Per trace, the minimum cycles are those whose fences all lie in the
    model; one is chosen per trace and the choices are coalesced by
    per-slot least upper bound.  The minimum-weight coalition wins, ties
    broken lexicographically.  The traces are folded one at a time into
    the distinct running lubs, so the search is exact without walking the
    cartesian product: every state comes from some combination of choices,
    and choices that reach the same lubs are kept once.
    """
    limits = limits or Limits()
    min_cycles: list[list[CandidateSolution]] = []
    for sols in solutions_by_trace:
        mc = [s for s in sols if s.fences <= model]
        if not mc:
            raise InternalCheckError("min-model leaves a trace without a cycle")
        min_cycles.append(mc)

    # The key names the lubs.  Traces with one minimum cycle fold into
    # every state alike.
    state = _coalesce([mc[0] for mc in min_cycles if len(mc) == 1])
    states = {_selection_key(*state): state}
    for mc in min_cycles:
        if len(mc) == 1:
            continue
        grown = {}
        for slot_ord, _ in states.values():
            limits.check_time("order-assignment")
            for sol in mc:
                state = _coalesce([sol], slot_ord)
                grown.setdefault(_selection_key(*state), state)
        states = grown
    slot_ord, _ = states[min(states)]

    if set(slot_ord) != set(model):
        raise InternalCheckError("coalesced choice does not cover the min-model")
    return TypedSolution(assignment=tuple(sorted(slot_ord.items())))
