#!/usr/bin/env python3
"""From a buggy trace to candidate solutions.

Candidate fences are spliced into every gap around the trace's events.
The weak analysis assumes they can release and acquire: it closes
happens-before over the fewest release/acquire roles each pair needs and
reads violations off the six coherence-axiom compositions, keeping only
the solutions no other one beats.  The strong analysis assumes they are
sequentially consistent and closes the forced sc order over the fewest
candidate fences each of its edges needs: each minimal fence set that
closes a cycle is one candidate solution.
"""

from fencesynth import elaborate, find_buggy_traces, parse_program
from fencesynth.cycles import find_strong_cycles, find_weak_cycles, insert_candidate_fences
from fencesynth.model import pairs
from fencesynth.relations import fence_order

SOURCE = """\
program rwrw
init x = 0, y = 0
thread t1 {
  a = load(y, sc)
  store(x, 1, rlx)
}
thread t2 {
  b = load(x, sc)
  store(y, 1, rlx)
}
assert !(a == 1 && b == 1)
"""

program = elaborate(parse_program(SOURCE))
buggy = find_buggy_traces(program)[0]
it = insert_candidate_fences(buggy)
print("intermediate trace: %d events, %d candidate fences" % (len(it.events), len(it.fence_events)))

weak = find_weak_cycles(it)
strong = find_strong_cycles(it)

print("\nweak candidate solutions (coherence cycles):")
for sol in weak:
    orders = ", ".join("%s:%s" % (s, o) for s, o in sol.orders)
    print("  %-8s fences {%s}" % (sol.condition, orders))

print("\nstrong candidate solutions (sc-order cycles):")
for sol in strong:
    orders = ", ".join("%s:%s" % (s, o) for s, o in sol.orders)
    print("  %-8s fences {%s}" % (sol.condition, orders))

# Each sc-order edge carries the minimal sets of candidate fences it relies
# on, as masks: bit 2i stands for the i-th fence of fence_order.  A
# candidate fence at either end of an edge is in every one of its sets, so
# an edge the sc clauses force without any fence still relies on its ends.
fences = fence_order(it)


def fence_set(mask):
    return "{" + ", ".join(str(it.slot_of[f]) for i, f in enumerate(fences) if mask >> 2 * i & 1) + "}"


relying = sorted((a, b, deps) for a, row in it.so_deps.items() for b, deps in row.items() if deps != (0,))
print("\n%d of the %d sc-order edges rely on candidate fences, e.g.:" % (len(relying), len(pairs(it.so))))
for a, b, deps in relying[:4]:
    print("  %s -> %s needs %s" % (it.event(a).loc, it.event(b).loc, " or ".join(map(fence_set, deps))))

print(
    "\nthe single-fence solutions {t1@1:rel} and {t2@1:rel} exist because a"
    "\nrelease fence between the strong load and the relaxed store already"
    "\ncloses a reads-from/happens-before cycle through the other thread."
)
