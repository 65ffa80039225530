"""Derived relations: release sequences, sw/dob, hb, fr, and the sc order."""


from dataclasses import replace

import pytest

from conftest import CORPUS, O, closure, load, make_trace, reflexive, with_fences
from fencesynth.cycles import insert_candidate_fences
from fencesynth.enumerator import enumerate_consistent_traces, find_buggy_traces
from fencesynth.errors import InternalCheckError
from fencesynth.model import FenceSlot
from fencesynth.relations import (
    compute_fr,
    derive_sync,
    release_sequence,
)


def rel_pairs(rel, ids, *names):
    wanted = tuple(ids[n] for n in names)
    return wanted in rel.pairs


# ---------------------------------------------------------------------------
# release_sequence


def _relseq_trace():
    # t1 writes w then w2 (same thread, contiguous in mo); t2's rmw u extends
    # the sequence; t3's plain write w3 breaks contiguity.
    return make_trace(
        init={"x": 0},
        threads={
            "t1": [
                ("w", "write", "x", O.REL, None, 1),
                ("w2", "write", "x", O.RLX, None, 2),
            ],
            "t2": [("u", "rmw", "x", O.RLX, 2, 3)],
            "t3": [("w3", "write", "x", O.RLX, None, 9)],
        },
        rf=[("w2", "u")],
        mo_tail={"x": ["w", "w2", "u", "w3"]},
    )


def test_release_sequence_singleton():
    tr, ids = _relseq_trace()
    w3 = tr.event(ids["w3"])
    assert [e.id for e in release_sequence(tr, w3)] == [ids["w3"]]


def test_release_sequence_same_thread_and_rmw():
    tr, ids = _relseq_trace()
    w = tr.event(ids["w"])
    # Same-thread write and another thread's rmw stay; the foreign plain
    # write breaks the sequence.
    assert [e.id for e in release_sequence(tr, w)] == [ids["w"], ids["w2"], ids["u"]]


def test_release_sequence_broken_by_foreign_write():
    tr, ids = make_trace(
        init={"x": 0},
        threads={
            "t1": [("w", "write", "x", O.REL, None, 1)],
            "t2": [("w2", "write", "x", O.RLX, None, 2)],
        },
        rf=[],
        mo_tail={"x": ["w", "w2"]},
    )
    assert [e.id for e in release_sequence(tr, tr.event(ids["w"]))] == [ids["w"]]


def test_release_sequence_from_a_read_is_an_internal_error():
    # Checked with a raise, not an assert, so it holds under python -O too.
    tr, _ = _relseq_trace()
    read = next(e for e in tr.events if e.act == "rmw")
    plain_read = replace(read, act="read", wval=None)
    with pytest.raises(InternalCheckError):
        release_sequence(tr, plain_read)


# ---------------------------------------------------------------------------
# derive_sync


def test_sw_direct_release_acquire():
    tr, ids = make_trace(
        init={"x": 0},
        threads={
            "t1": [("w", "write", "x", O.REL, None, 1)],
            "t2": [("r", "read", "x", O.ACQ, 1, None)],
        },
        rf=[("w", "r")],
        mo_tail={"x": ["w"]},
    )
    sw, dob = derive_sync(tr)
    assert (ids["w"], ids["r"]) in sw.pairs


def test_sw_release_write_to_acquire_fence():
    tr, ids = make_trace(
        init={"x": 0},
        threads={
            "t1": [("w", "write", "x", O.REL, None, 1)],
            "t2": [("r", "read", "x", O.RLX, 1, None), ("f", "fence", None, O.ACQ, None, None)],
        },
        rf=[("w", "r")],
        mo_tail={"x": ["w"]},
    )
    sw, _ = derive_sync(tr)
    assert (ids["w"], ids["f"]) in sw.pairs
    assert (ids["w"], ids["r"]) not in sw.pairs  # the read itself is relaxed


def test_sw_release_fence_to_acquire_read():
    tr, ids = make_trace(
        init={"x": 0},
        threads={
            "t1": [("f", "fence", None, O.REL, None, None), ("w", "write", "x", O.RLX, None, 1)],
            "t2": [("r", "read", "x", O.ACQ, 1, None)],
        },
        rf=[("w", "r")],
        mo_tail={"x": ["w"]},
    )
    sw, _ = derive_sync(tr)
    assert (ids["f"], ids["r"]) in sw.pairs


def test_sw_fence_to_fence():
    tr, ids = make_trace(
        init={"x": 0},
        threads={
            "t1": [("f1", "fence", None, O.REL, None, None), ("w", "write", "x", O.RLX, None, 1)],
            "t2": [("r", "read", "x", O.RLX, 1, None), ("f2", "fence", None, O.ACQ, None, None)],
        },
        rf=[("w", "r")],
        mo_tail={"x": ["w"]},
    )
    sw, _ = derive_sync(tr)
    assert (ids["f1"], ids["f2"]) in sw.pairs


def test_relaxed_rf_yields_no_sync():
    tr, _ = make_trace(
        init={"x": 0},
        threads={
            "t1": [("w", "write", "x", O.RLX, None, 1)],
            "t2": [("r", "read", "x", O.RLX, 1, None)],
        },
        rf=[("w", "r")],
        mo_tail={"x": ["w"]},
    )
    sw, dob = derive_sync(tr)
    assert len(sw) == 0 and len(dob) == 0


def test_dob_through_release_sequence_rmw():
    tr, ids = make_trace(
        init={"x": 0},
        threads={
            "t1": [("w", "write", "x", O.REL, None, 1)],
            "t2": [("u", "rmw", "x", O.RLX, 1, 2)],
            "t3": [("r", "read", "x", O.ACQ, 2, None)],
        },
        rf=[("w", "u"), ("u", "r")],
        mo_tail={"x": ["w", "u"]},
    )
    _, dob = derive_sync(tr)
    assert (ids["w"], ids["r"]) in dob.pairs


# ---------------------------------------------------------------------------
# hb


def test_hb_sw_then_sb():
    tr, ids = make_trace(
        init={"x": 0},
        threads={
            "t1": [("a", "write", "x", O.REL, None, 1)],
            "t2": [("b", "read", "x", O.ACQ, 1, None), ("c", "write", "x", O.RLX, None, 2)],
        },
        rf=[("a", "b")],
        mo_tail={"x": ["a", "c"]},
    )
    ithb, hb = tr.ithb, tr.hb
    assert (ids["a"], ids["c"]) in ithb.pairs  # sw;sb
    assert (ids["a"], ids["c"]) in hb.pairs


def test_hb_is_sb_without_synchronization():
    tr, _ = make_trace(
        init={"x": 0},
        threads={"t1": [("a", "write", "x", O.RLX, None, 1), ("b", "read", "x", O.RLX, 1, None)]},
        rf=[("a", "b")],
        mo_tail={"x": ["a"]},
    )
    ithb, hb = tr.ithb, tr.hb
    assert len(ithb) == 0
    assert hb == tr.sb


def test_release_fence_closes_read_write_cycle(rwrw):
    # With a release fence between thread 1's load and store, the strong
    # loads establish hb from the read back to the write it observed,
    # making rf;hb reflexive.
    tr = find_buggy_traces(rwrw)[0]
    fixed = with_fences(tr, {FenceSlot("t1", 1): O.REL})
    ry = next(e for e in fixed.events if e.is_read and e.obj == "y")
    wy = next(e for e in fixed.events if e.is_write and e.obj == "y" and not e.is_init)
    assert (ry.id, wy.id) in fixed.hb.pairs
    assert reflexive(fixed.rf.compose(fixed.hb_closed))


# ---------------------------------------------------------------------------
# compute_fr


def test_fr_read_of_init():
    tr, ids = make_trace(
        init={"x": 0},
        threads={
            "t1": [("r", "read", "x", O.RLX, 0, None)],
            "t2": [("w", "write", "x", O.RLX, None, 1)],
        },
        rf=[("i_x", "r")],
        mo_tail={"x": ["w"]},
    )
    fr = compute_fr(tr)
    assert fr.pairs == frozenset({(ids["r"], ids["w"])})


def test_fr_empty_for_read_of_final_write():
    tr, ids = make_trace(
        init={"x": 0},
        threads={
            "t1": [("w", "write", "x", O.RLX, None, 1)],
            "t2": [("r", "read", "x", O.RLX, 1, None)],
        },
        rf=[("w", "r")],
        mo_tail={"x": ["w"]},
    )
    assert not any(a == ids["r"] for a, _ in compute_fr(tr).pairs)


def test_fr_both_reads_in_store_buffer():
    tr = find_buggy_traces(load("sb_rlx"))[0]
    reads = [e for e in tr.events if e.is_read]
    writes = {e.obj: e for e in tr.events if e.is_write and not e.is_init}
    for r in reads:
        assert (r.id, writes[r.obj].id) in tr.fr.pairs


# ---------------------------------------------------------------------------
# so


def test_so_cycle_in_sc_write_store_buffer():
    tr = find_buggy_traces(load("sb_scw"))[0]
    it = insert_candidate_fences(tr)
    so = it.so
    wx = next(e for e in it.events if e.is_write and e.obj == "x" and not e.is_init)
    wy = next(e for e in it.events if e.is_write and e.obj == "y" and not e.is_init)
    f1 = next(i for i, s in it.slot_of.items() if s == FenceSlot("t1", 1))
    f2 = next(i for i, s in it.slot_of.items() if s == FenceSlot("t2", 1))
    for edge in [(wx.id, f1), (f1, wy.id), (wy.id, f2), (f2, wx.id)]:
        assert edge in so.pairs


def test_so_empty_without_sc_events():
    tr = find_buggy_traces(load("sb_rlx"))[0]
    assert len(insert_candidate_fences(tr, slots=()).so) == 0


def test_so_empty_for_unordered_sc_writes():
    # Both writes are sc but unrelated; no pair is forced without fences.
    tr = find_buggy_traces(load("sb_scw"))[0]
    assert len(insert_candidate_fences(tr, slots=()).so) == 0


def test_plain_trace_so_is_that_of_the_trace_without_candidates():
    # dump_trace reads a plain trace's so directly: it must equal the so of
    # the same trace with no candidate fences spliced in.  Every consistent
    # execution of the corpus is checked, its 34 buggy ones among them.
    traces = [tr for name in CORPUS for tr in enumerate_consistent_traces(load(name))]
    for tr in traces:
        it = insert_candidate_fences(tr, slots=())
        assert it.sb == tr.sb
        assert tr.slots == tr.fence_events == ()
        assert tr.so == it.so
    assert sum(not tr.assertion_holds for tr in traces) == 34
    assert sum(len(tr.so) > 0 for tr in traces) >= 20


def test_hb_closures_are_built_for_plain_traces_only(monkeypatch):
    # The fence analyses read sw and dob only; the hb closures of a trace
    # with candidate fences would be built for nothing.
    import fencesynth.relations
    from fencesynth.driver import synthesize

    seen = []
    compute_hb_info = fencesynth.relations.compute_hb_info

    def recording(tr):
        seen.append(tr)
        return compute_hb_info(tr)

    monkeypatch.setattr(fencesynth.relations, "compute_hb_info", recording)
    for name in CORPUS:
        for mode in ("opt", "fast"):
            synthesize(load(name), mode)
    assert seen
    assert not [tr for tr in seen if tr.fence_event_ids]


def test_sync_monotone_under_added_fences():
    tr = find_buggy_traces(load("mp_rlx"))[0]
    slots = sorted(insert_candidate_fences(tr).slots)
    small = insert_candidate_fences(tr, slots=slots[:2])
    big = insert_candidate_fences(tr)
    for name in ("sw", "dob", "ithb", "hb"):
        assert getattr(small, name).pairs <= getattr(big, name).pairs


def test_so_transitive_subset_of_every_accepted_order():
    # For valid traces, every accepting sc total order contains so+.
    from oracle import accepting_sc_orders

    for prog in ("sb_sc", "iriw_sc", "frfto_chain", "sb_one_sc"):
        from fencesynth.enumerator import enumerate_consistent_traces

        for tr in enumerate_consistent_traces(load(prog)):
            if len(tr.sc_events) < 2:
                continue
            it = insert_candidate_fences(tr, slots=())
            so_plus = closure(it.so.pairs)
            for order in accepting_sc_orders(tr):
                pos = {eid: i for i, eid in enumerate(order)}
                for a, b in so_plus:
                    assert pos[a] < pos[b]
