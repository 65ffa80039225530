#!/usr/bin/env python3
"""How fences create synchronizes-with edges and happens-before order.

A release/acquire pair on a reads-from edge synchronizes directly.  With
weaker accesses, fences substitute for either side: a release fence
before the write, an acquire fence after the read, or both.  The demo
builds the message-passing bug, inserts an acquire-release fence pair,
and shows the new happens-before edge that outlaws the stale read.
"""

from fencesynth import elaborate, find_buggy_traces, parse_program
from fencesynth.cycles import insert_candidate_fences
from fencesynth.enumerator import coherence_violations
from fencesynth.model import FenceSlot, pairs
from fencesynth.orders import MemoryOrder

SOURCE = """\
program message_passing
init d = 0, f = 0
thread t1 {
  store(d, 1, rlx)
  store(f, 1, rlx)
}
thread t2 {
  a = load(f, rlx)
  b = load(d, rlx)
}
assert !(a == 1 && b == 0)
"""

program = elaborate(parse_program(SOURCE))
buggy = find_buggy_traces(program)[0]
print("buggy trace: flag observed, data stale")
print("  sw edges without fences:", pairs(buggy.sw))

it = insert_candidate_fences(buggy)
print("\ncandidate fence slots:", [str(s) for s in it.slots])
print("with all candidates at full strength, sw edges appear:")
for a, b in pairs(it.sw):
    print("  sw %s -> %s" % (it.event(a), it.event(b)))

# Instantiate the two load-bearing fences concretely and re-check.
from dataclasses import replace
from fencesynth.model import Trace

placement = {FenceSlot("t1", 1): MemoryOrder.REL, FenceSlot("t2", 1): MemoryOrder.ACQ}
chosen = insert_candidate_fences(buggy, slots=placement)
events = list(buggy.events) + [replace(f, ord=placement[f.loc]) for f in chosen.fence_events]
concrete = Trace(events, chosen.sb, chosen.rf, chosen.mo)

print("\nwith fence(rel) in t1 and fence(acq) in t2:")
print("  violated coherence axioms:", coherence_violations(concrete))
print("  (the stale-data execution is no longer a C11 execution)")
