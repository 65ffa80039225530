"""Seeded workloads for the fencesynth benchmark.

Each generated family is a pure function of its size and the seed.  The
seed changes only what cannot change an answer: identifier spellings and
the job order of each pass.  Identifiers are order-preserving, so every
sort-based tie-break in the pipeline makes the same choice under every
seed, and the expected opt fence count and weight of each generated
program are known in closed form.

Thread declaration order stays fixed.  Reordering interchangeable threads
keeps every answer, but it renumbers events, and event ids steer
enumeration order and witness tie-breaks: on two padded sb pairs it moved
the job time by up to 60% between seeds, which would read as noise in
every comparison.

Generated text goes through ``parse_program`` exactly like a ``.lit`` file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "tests" / "corpus"
UNROLL = 16

FIXED, ALREADY_CORRECT, NO_FIX = "fixed", "already-correct", "no-fix"

# Expected driver verdicts of the hand-written corpus, copied from the
# hand-derived table EXPECT_STATUS in tests/conftest.py (see the comments in
# each .lit file there).  Kept here so the benchmark's expectations cannot
# drift with the test suite.
CORPUS_EXPECT = {
    "assert_true": ALREADY_CORRECT,
    "coh_rr": ALREADY_CORRECT,
    "dekker_core": FIXED,
    "fadd_nofix": NO_FIX,
    "fen_strengthen": FIXED,
    "frfto_chain": ALREADY_CORRECT,
    "iriw_rlx": NO_FIX,
    "iriw_sc": ALREADY_CORRECT,
    "lb3": FIXED,
    "lb_one": FIXED,
    "lb_rlx": FIXED,
    "loop_sb": FIXED,
    "mp_acq": FIXED,
    "mp_branch": FIXED,
    "mp_loop": FIXED,
    "mp_rel": FIXED,
    "mp_relacq": ALREADY_CORRECT,
    "mp_rlx": FIXED,
    "r_nofix": NO_FIX,
    "relseq_fix": FIXED,
    "relseq_rmw": FIXED,
    "relseq_thread": ALREADY_CORRECT,
    "rmw_count": ALREADY_CORRECT,
    "rwrw": FIXED,
    "rwrw_acq": FIXED,
    "sb3": FIXED,
    "sb_ar": FIXED,
    "sb_one_sc": FIXED,
    "sb_rlx": FIXED,
    "sb_sc": ALREADY_CORRECT,
    "sb_scw": FIXED,
    "two_bugs": FIXED,
    "wrir": FIXED,
}


@dataclass(frozen=True)
class Case:
    """One program of a workload with its expected opt answer.

    ``fences``/``weight`` are None where no closed form is known (the
    corpus, which runs in both modes); ``modes`` lists the driver modes it
    runs in (every opt job also runs ``sanity_check``).
    """

    name: str
    family: str
    text: str
    status: str
    fences: int | None
    weight: int | None
    modes: tuple[str, ...]


class Names:
    """Order-preserving identifiers drawn from the seed.

    Each kind of name gets its own random letter; indices are zero-padded,
    so names sort exactly as their indices do.
    """

    def __init__(self, rng: random.Random):
        letters = rng.sample("bcdghjkmnpqsuvwyz", 3)
        self.obj_prefix, self.thread_prefix, self.reg_prefix = letters

    def obj(self, i: int) -> str:
        return "%s%02d" % (self.obj_prefix, i)

    def thread(self, i: int) -> str:
        return "%s%02d" % (self.thread_prefix, i)

    def reg(self, i: int) -> str:
        return "%s%02d" % (self.reg_prefix, i)


def _program(name, init_objs, threads, assertion) -> str:
    lines = ["program %s" % name, "init " + ", ".join("%s = 0" % o for o in init_objs)]
    for tid, body in threads:
        lines.append("thread %s {" % tid)
        lines.extend("  " + s for s in body)
        lines.append("}")
    lines.append("assert %s" % assertion)
    return "\n".join(lines) + "\n"


def sb_ring(n: int, rng: random.Random) -> str:
    """Store-buffer ring: thread i stores x_i and loads x_{i+1}, all rlx.

    Fix: one sc fence per thread.
    """
    nm = Names(rng)
    threads = [
        (nm.thread(i), ["store(%s, 1, rlx)" % nm.obj(i),
                        "%s = load(%s, rlx)" % (nm.reg(i), nm.obj((i + 1) % n))])
        for i in range(n)
    ]
    cond = " && ".join("%s == 0" % nm.reg(i) for i in range(n))
    return _program("sb_ring_%d" % n, [nm.obj(i) for i in range(n)], threads, "!(%s)" % cond)


def _mp_threads(nm: Names, k_stores: int, polls: int, base: int):
    """One message-passing pair on objects base (data) and base+1 (flag).

    The writer stores 1..k_stores to the data object, then raises the flag;
    the reader polls the flag ``polls`` times (a repeat block when > 1),
    then reads the data.  The bug: the flag is seen but the data is stale.
    """
    d, f = nm.obj(base), nm.obj(base + 1)
    a, b = nm.reg(base), nm.reg(base + 1)
    writer = ["store(%s, %d, rlx)" % (d, v) for v in range(1, k_stores + 1)]
    writer.append("store(%s, 1, rlx)" % f)
    if polls > 1:
        reader = ["repeat %d {" % polls, "  %s = load(%s, rlx)" % (a, f), "}"]
    else:
        reader = ["%s = load(%s, rlx)" % (a, f)]
    reader.append("%s = load(%s, rlx)" % (b, d))
    bug = "%s == 1 && %s != %d" % (a, b, k_stores)
    return (nm.thread(base), writer), (nm.thread(base + 1), reader), bug, [d, f]


def mp_stores(k: int, rng: random.Random) -> str:
    """Message passing with k distinct-valued same-thread stores to the data.

    Fix: a release fence before the flag store and an acquire fence after
    the flag load.
    """
    nm = Names(rng)
    w, r, bug, objs = _mp_threads(nm, k, 1, 0)
    return _program("mp_stores_%d" % k, objs, [w, r], "!(%s)" % bug)


def mp_poll(k: int, rng: random.Random) -> str:
    """Message passing whose flag load sits in ``repeat k``.  Fix: rel + acq."""
    nm = Names(rng)
    w, r, bug, objs = _mp_threads(nm, 1, k, 0)
    return _program("mp_poll_%d" % k, objs, [w, r], "!(%s)" % bug)


def mp_pairs(m: int, rng: random.Random) -> str:
    """m independent message-passing pairs under one disjunctive assertion.

    Fix: one rel and one acq fence per pair.
    """
    nm = Names(rng)
    threads, bugs, objs = [], [], []
    for i in range(m):
        w, r, bug, o = _mp_threads(nm, 1, 1, 2 * i)
        threads += [w, r]
        bugs.append("(%s)" % bug)
        objs += o
    return _program("mp_pairs_%d" % m, objs, threads, "!(%s)" % " || ".join(bugs))


def sb_padded(m: int, pad: int, rng: random.Random) -> str:
    """m independent store-buffering pairs, ``pad`` private stores between
    each thread's store and its load.

    Fix: one sc fence per thread.
    """
    nm = Names(rng)
    threads, bugs, objs = [], [], []
    per_pair = 2 + 2 * pad
    for i in range(m):
        base = per_pair * i
        x, y = nm.obj(base), nm.obj(base + 1)
        objs += [x, y]
        for side, (mine, other) in enumerate(((x, y), (y, x))):
            private = [nm.obj(base + 2 + side * pad + j) for j in range(pad)]
            objs += private
            reg = nm.reg(2 * i + side)
            body = ["store(%s, 1, rlx)" % mine]
            body += ["store(%s, 1, rlx)" % p for p in private]
            body.append("%s = load(%s, rlx)" % (reg, other))
            threads.append((nm.thread(2 * i + side), body))
        bugs.append("(%s == 0 && %s == 0)" % (nm.reg(2 * i), nm.reg(2 * i + 1)))
    return _program("sb_padded_%d_%d" % (m, pad), objs, threads, "!(%s)" % " || ".join(bugs))


# ---------------------------------------------------------------------------
# Workloads

OPT, BOTH = ("opt",), ("opt", "fast")

# Sizes of each generated family.  Why each was chosen, and the frontier
# just beyond it, is recorded in bench/README.md.  Each generated workload
# has an odd number of jobs per pass, and its middle job takes about 1.5x
# or more as long as the job below it and the job above it takes about 2x
# as long.  The median job time then falls among the samples of that one
# job; among two jobs of similar time, the machine's noise would pick
# between them.  The rings stop at 6: the ring of 7 took 1.3 s, so a 25 s
# run held 12 of its samples and the tail was their second fastest, which
# moved by 20% between runs as the machine changed speed.
SB_RING_SIZES = (2, 3, 4, 5, 6)
MP_STORES_SIZES = (2, 3)
POLL_SIZES = (1, 2, 3, 4, 5)


def _corpus(rng):
    cases = []
    for name, status in sorted(CORPUS_EXPECT.items()):
        text = (CORPUS_DIR / (name + ".lit")).read_text()
        cases.append(Case("corpus/" + name, "corpus", text, status, None, None, BOTH))
    return cases


def _enum_sweep(rng):
    cases = [
        Case("sb_ring/%d" % n, "sb_ring", sb_ring(n, rng), FIXED, n, 3 * n, OPT)
        for n in SB_RING_SIZES
    ]
    cases += [
        Case("mp_stores/%d" % k, "mp_stores", mp_stores(k, rng), FIXED, 2, 2, OPT)
        for k in MP_STORES_SIZES
    ]
    return cases


def _poll_sweep(rng):
    return [
        Case("mp_poll/%d" % k, "mp_poll", mp_poll(k, rng), FIXED, 2, 2, OPT)
        for k in POLL_SIZES
    ]


def _many_bugs(rng):
    return [
        Case("mp_pairs/3", "mp_pairs", mp_pairs(3, rng), FIXED, 6, 6, BOTH),
        Case("sb_padded/2", "sb_padded", sb_padded(2, 2, rng), FIXED, 4, 12, BOTH),
        # Fast synthesizes 4 fences here where opt needs 2.
        Case("mp_stores/3", "mp_stores", mp_stores(3, rng), FIXED, 2, 2, BOTH),
        # The seventh job puts the median on fast's mp_stores/3 job.
        Case("sb_padded/1", "sb_padded", sb_padded(1, 2, rng), FIXED, 2, 6, OPT),
    ]


WORKLOADS = {
    "corpus": _corpus,
    "enum_sweep": _enum_sweep,
    "poll_sweep": _poll_sweep,
    "many_bugs": _many_bugs,
}


def build(workload: str, seed: int) -> list[Case]:
    """The workload's programs for this seed, in a canonical order."""
    return WORKLOADS[workload](random.Random("%s/%d" % (workload, seed)))


def jobs(cases: list[Case]) -> list[tuple[Case, str]]:
    """Every (case, mode) job of one pass, in canonical order."""
    return [(c, mode) for c in cases for mode in c.modes]
