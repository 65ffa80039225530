"""Untimed frontier sweep: how far each generated family scales today.

    python3 bench/frontier.py

For each family, grows the size until one opt job (synthesize plus
sanity_check, as the benchmark runs it) exceeds ``BUDGET_S`` or a configured
limit, and prints one line per size.  Not part of the gated benchmark; its
last output is recorded in bench/README.md as the baseline frontier.
"""

from __future__ import annotations

import itertools
import random

import run  # sets up the import path to the package under test
import workloads
from tracer import NoTrace

BUDGET_S = 10.0
# The seed changes only identifier spellings, so one seed gives the frontier.
SEED = 1

# family: (first size, generator)
FAMILIES = {
    "sb_ring": (2, workloads.sb_ring),
    "mp_stores": (1, workloads.mp_stores),
    "mp_poll": (1, workloads.mp_poll),
    "mp_pairs": (1, workloads.mp_pairs),
    "sb_padded": (1, lambda m, rng: workloads.sb_padded(m, 2, rng)),
}


def sweep(family: str) -> None:
    first, make = FAMILIES[family]
    for size in itertools.count(first):
        text = make(size, random.Random(SEED))
        case = workloads.Case("%s/%d" % (family, size), family, text, workloads.FIXED,
                              None, None, workloads.OPT)
        rec = run.run_job(case, "opt", NoTrace(), timeout_s=BUDGET_S)
        outcome = rec.error.splitlines()[0] if rec.error else "%s, %d fences" % (rec.status, rec.fences)
        print("%-10s %3d  %8.3f s  %s" % (family, size, rec.seconds, outcome), flush=True)
        if rec.error or rec.seconds > BUDGET_S:
            return


if __name__ == "__main__":
    for family in FAMILIES:
        sweep(family)
