#!/usr/bin/env python3
"""From a buggy trace to candidate solutions.

Candidate fences are spliced into every gap around the trace's events.
The weak analysis assumes they can release and acquire: it closes
happens-before over the fewest release/acquire roles each pair needs and
reads violations off the six coherence-axiom compositions, keeping only
the solutions no other one beats.  The strong analysis assumes they are
sequentially consistent and hunts for cycles in the forced sc order.
Each violation's fences form one candidate solution.
"""

from fencesynth import elaborate, find_buggy_traces, parse_program
from fencesynth.cycles import find_strong_cycles, find_weak_cycles, insert_candidate_fences

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

print(
    "\nthe single-fence solutions {t1@1:rel} and {t2@1:rel} exist because a"
    "\nrelease fence between the strong load and the relaxed store already"
    "\ncloses a reads-from/happens-before cycle through the other thread."
)
