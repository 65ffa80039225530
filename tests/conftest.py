"""Shared fixtures: corpus loading and compact trace builders."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from fencesynth.cycles import insert_candidate_fences
from fencesynth.litmus import elaborate, parse_program
from fencesynth.model import Event, FenceSlot, SourceLocation, Trace
from fencesynth.orders import MemoryOrder

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS = sorted(p.stem for p in CORPUS_DIR.glob("*.lit"))

# Expected driver verdicts, derived by hand from the memory model (see the
# comments in each .lit file); the no-fix entries are sequentially
# consistent interleavings, which no fence placement can remove.
EXPECT_STATUS = {
    "assert_true": "already-correct",
    "coh_rr": "already-correct",
    "dekker_core": "fixed",
    "fadd_nofix": "no-fix",
    "fen_strengthen": "fixed",
    "frfto_chain": "already-correct",
    "iriw_rlx": "no-fix",
    "iriw_sc": "already-correct",
    "lb3": "fixed",
    "lb_one": "fixed",
    "lb_rlx": "fixed",
    "loop_sb": "fixed",
    "mp_acq": "fixed",
    "mp_branch": "fixed",
    "mp_loop": "fixed",
    "mp_rel": "fixed",
    "mp_relacq": "already-correct",
    "mp_rlx": "fixed",
    "r_nofix": "no-fix",
    "relseq_fix": "fixed",
    "relseq_rmw": "fixed",
    "relseq_thread": "already-correct",
    "rmw_count": "already-correct",
    "rwrw": "fixed",
    "rwrw_acq": "fixed",
    "sb3": "fixed",
    "sb_ar": "fixed",
    "sb_one_sc": "fixed",
    "sb_rlx": "fixed",
    "sb_sc": "already-correct",
    "sb_scw": "fixed",
    "two_bugs": "fixed",
    "wrir": "fixed",
}

O = MemoryOrder


def pairs(rows) -> set[tuple[int, int]]:
    """The (a, b) pairs of a relation given as bitmask rows."""
    return {(a, b) for a, row in rows.items() for b in range(row.bit_length()) if row >> b & 1}


def rows(ids, pairs) -> dict[int, int]:
    """The bitmask rows of a pair set, one row per id in ``ids``."""
    out = dict.fromkeys(ids, 0)
    for a, b in pairs:
        out[a] |= 1 << b
    return out


def closure(pairs) -> set[tuple[int, int]]:
    """Transitive closure of a pair set, by naive squaring."""
    out = set(pairs)
    while True:
        new = out | {(a, c) for a, b in out for b2, c in out if b == b2}
        if new == out:
            return out
        out = new


def reflexive(pairs) -> bool:
    """Some (e, e) pair is present."""
    return any(a == b for a, b in pairs)


def corpus_text(name: str) -> str:
    return (CORPUS_DIR / (name + ".lit")).read_text()


def load(name: str, unroll: int = 16):
    return elaborate(parse_program(corpus_text(name)), unroll)


@pytest.fixture
def rwrw():
    return load("rwrw")


def make_trace(init, threads, rf, mo_tail):
    """Build a Trace from compact specs.

    init: {obj: value}; threads: {tid: [(name, act, obj, ord, rval, wval)]};
    rf: [(wname, rname)]; mo_tail: {obj: [names after the init write]}.
    Returns (trace, {name: event id}).  Statements are assumed straight
    line: location index i, continuation i + 1.
    """
    ids: dict[str, int] = {}
    events = []
    for k, (obj, val) in enumerate(init.items()):
        ids["i_" + obj] = k
        events.append(
            Event(id=k, thr=None, idx=k, act="write", obj=obj, ord=O.RLX, wval=val)
        )
    nid = len(events)
    sb = set()
    for tid, specs in threads.items():
        tids = []
        for i, (name, act, obj, ordv, rval, wval) in enumerate(specs):
            ids[name] = nid
            events.append(
                Event(
                    id=nid,
                    thr=tid,
                    idx=i,
                    act=act,
                    obj=obj,
                    ord=ordv,
                    loc=SourceLocation(tid, i),
                    rval=rval,
                    wval=wval,
                    cont=i + 1,
                )
            )
            tids.append(nid)
            nid += 1
        for i, a in enumerate(tids):
            for b in tids[i + 1 :]:
                sb.add((a, b))
    rf_rel = {(ids[w], ids[r]) for w, r in rf}
    mo_pairs = set()
    for obj, tail in mo_tail.items():
        chain = [ids["i_" + obj]] + [ids[n] for n in tail]
        for i, a in enumerate(chain):
            for b in chain[i + 1 :]:
                mo_pairs.add((a, b))
    every = range(nid)
    return Trace(events, rows(every, sb), rows(every, rf_rel), rows(every, mo_pairs)), ids


def with_fences(
    tr: Trace,
    placement: dict[FenceSlot, MemoryOrder],
    strengthen: dict[SourceLocation, MemoryOrder] | None = None,
) -> Trace:
    """The trace with concrete fence events of the given orders spliced in.

    ``strengthen`` raises the order of existing program fence events.
    """
    it = insert_candidate_fences(tr, slots=placement.keys())
    strengthen = strengthen or {}
    events = []
    for e in tr.events:
        if e.is_fence and e.loc in strengthen and e.ord.weaker_than(strengthen[e.loc]):
            e = replace(e, ord=strengthen[e.loc])
        events.append(e)
    events += [replace(f, ord=placement[f.loc]) for f in it.fence_events]
    return Trace(
        events,
        it.sb,
        it.rf,
        it.mo,
        assertion_holds=tr.assertion_holds,
        final_shared=tr.final_shared,
        final_locals=tr.final_locals,
    )
