#!/usr/bin/env python3
"""The slot query, its minimum model, and order assignment.

Every buggy trace contributes one clause: a disjunction over its
candidate solutions of conjunctions of fence slots.  The whole-program
query is the conjunction of all clauses; any minimum-cardinality model
names the fewest slots that break every trace.  Afterwards, each fence
gets the weakest order its cycles support, coalescing across traces by
least upper bound.

Solving per trace instead of globally can cost extra fences: the
engineered pair below needs 3 slots globally but 2 + 2 when staged.
"""

from fencesynth.cycles import CandidateSolution
from fencesynth.model import FenceSlot
from fencesynth.optimize import assign_memory_orders, build_query, find_min_model
from fencesynth.orders import MemoryOrder as O

F1, F2, F3, F4 = (FenceSlot("t", i) for i in range(1, 5))


def sol(trace_id, orders):
    return CandidateSolution(
        kind="weak",
        condition="co-rh",
        trace_id=trace_id,
        fences=frozenset(orders),
        orders=tuple(sorted(orders.items())),
    )


trace1 = [sol(0, {F1: O.AR, F2: O.AR}), sol(0, {F1: O.REL, F3: O.ACQ, F4: O.ACQ})]
trace2 = [sol(1, {F3: O.REL, F4: O.ACQ})]

query = build_query([trace1, trace2])
print("query:\n" + query.render())

model = find_min_model(query)
print("global minimum model:", sorted(str(s) for s in model))

staged = find_min_model(build_query([trace1])) | find_min_model(build_query([trace2]))
print("staged (one trace at a time):", sorted(str(s) for s in staged))
print("-> the staged solve pays one extra fence\n")

typed = assign_memory_orders(model, [trace1, trace2])
print("weakest sound orders for the global model:")
for slot, order in typed.assignment:
    print("  %s: %s (weight %d)" % (slot, order, order.weight))
print("total weight:", typed.weight)
