"""Derived relations: release sequences, sw, hb, fr, and the sc order,
and the bitmask closure behind hb, against naive set-comprehension
references."""


from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from conftest import CORPUS, O, closure, load, make_trace, pairs, reflexive, rows, with_fences
from fencesynth.cycles import insert_candidate_fences
from fencesynth.enumerator import enumerate_consistent_traces, find_buggy_traces
from fencesynth.errors import InternalCheckError
from fencesynth.model import FenceSlot
from fencesynth.relations import (
    _bits,
    _closure,
    compute_fr,
    derive_sync,
    fence_order,
    release_sequence,
    sc_clauses,
)


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
    sw = pairs(derive_sync(tr))
    assert (ids["w"], ids["r"]) in sw


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
    sw = pairs(derive_sync(tr))
    assert (ids["w"], ids["f"]) in sw
    assert (ids["w"], ids["r"]) not in sw  # the read itself is relaxed


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
    sw = pairs(derive_sync(tr))
    assert (ids["f"], ids["r"]) in sw


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
    sw = pairs(derive_sync(tr))
    assert (ids["f1"], ids["f2"]) in sw


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
    assert len(pairs(derive_sync(tr))) == 0


def test_sw_through_release_sequence_rmw():
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
    # The head w synchronizes with r, which reads the rmw u that continues
    # w's release sequence.
    assert (ids["w"], ids["r"]) in pairs(derive_sync(tr))


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
    assert (ids["a"], ids["c"]) in pairs(tr.hb)  # sw;sb


def test_hb_is_sb_without_synchronization():
    tr, _ = make_trace(
        init={"x": 0},
        threads={"t1": [("a", "write", "x", O.RLX, None, 1), ("b", "read", "x", O.RLX, 1, None)]},
        rf=[("a", "b")],
        mo_tail={"x": ["a"]},
    )
    assert len(pairs(tr.sw)) == 0
    assert pairs(tr.hb) == pairs(tr.sb)


def test_release_fence_closes_read_write_cycle(rwrw):
    # With a release fence between thread 1's load and store, the strong
    # loads establish hb from the read back to the write it observed,
    # making rf;hb reflexive.
    tr = find_buggy_traces(rwrw)[0]
    fixed = with_fences(tr, {FenceSlot("t1", 1): O.REL})
    ry = next(e for e in fixed.events if e.is_read and e.obj == "y")
    wy = next(e for e in fixed.events if e.is_write and e.obj == "y" and not e.is_init)
    assert (ry.id, wy.id) in pairs(fixed.hb)
    assert reflexive({(w, c) for w, r in pairs(fixed.rf) for b, c in pairs(fixed.hb) if b == r})


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
    fr = pairs(compute_fr(tr))
    assert fr == {(ids["r"], ids["w"])}


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
    assert not any(a == ids["r"] for a, _ in pairs(compute_fr(tr)))


def test_fr_from_mo_chains_equals_the_composition():
    # fr read off the mo rows against rf⁻¹;mo minus reflexive pairs, on
    # every consistent execution of the corpus and of 150 random programs.
    from fencesynth.litmus import elaborate, parse_program
    from test_litmus import random_litmus_program

    programs = [load(name) for name in CORPUS]
    programs += [elaborate(parse_program(random_litmus_program(seed)), 16) for seed in range(150)]
    checked = with_rmw = 0
    for p in programs:
        for tr in enumerate_consistent_traces(p):
            composed = {(r, c) for w, r in pairs(tr.rf) for b, c in pairs(tr.mo) if b == w}
            expected = {(a, b) for a, b in composed if a != b}
            assert pairs(compute_fr(tr)) == expected, p.name
            checked += 1
            with_rmw += len(expected) < len(composed)
    assert checked >= 600 and with_rmw >= 100


def test_fr_both_reads_in_store_buffer():
    tr = find_buggy_traces(load("sb_rlx"))[0]
    reads = [e for e in tr.events if e.is_read]
    writes = {e.obj: e for e in tr.events if e.is_write and not e.is_init}
    for r in reads:
        assert (r.id, writes[r.obj].id) in pairs(tr.fr)


# ---------------------------------------------------------------------------
# so


def test_so_cycle_in_sc_write_store_buffer():
    tr = find_buggy_traces(load("sb_scw"))[0]
    it = insert_candidate_fences(tr)
    so = pairs(it.so)
    wx = next(e for e in it.events if e.is_write and e.obj == "x" and not e.is_init)
    wy = next(e for e in it.events if e.is_write and e.obj == "y" and not e.is_init)
    f1 = next(i for i, s in it.slot_of.items() if s == FenceSlot("t1", 1))
    f2 = next(i for i, s in it.slot_of.items() if s == FenceSlot("t2", 1))
    for edge in [(wx.id, f1), (f1, wy.id), (wy.id, f2), (f2, wx.id)]:
        assert edge in so


def test_so_empty_without_sc_events():
    tr = find_buggy_traces(load("sb_rlx"))[0]
    assert len(pairs(insert_candidate_fences(tr, slots=()).so)) == 0


def test_so_empty_for_unordered_sc_writes():
    # Both writes are sc but unrelated; no pair is forced without fences.
    tr = find_buggy_traces(load("sb_scw"))[0]
    assert len(pairs(insert_candidate_fences(tr, slots=()).so)) == 0


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
    assert sum(len(pairs(tr.so)) > 0 for tr in traces) >= 20


def test_hb_closures_are_built_for_plain_traces_only(monkeypatch):
    # The fence analyses read sw only; the hb closure of a trace with
    # candidate fences would be built for nothing.
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


def corpus_and_random_programs():
    """The corpus and 150 random programs: 674 consistent executions."""
    from fencesynth.litmus import elaborate, parse_program
    from test_litmus import random_litmus_program

    randoms = [elaborate(parse_program(random_litmus_program(seed))) for seed in range(150)]
    return [load(name) for name in CORPUS] + randoms


def test_hb_is_stated_once():
    # hb is (sb ∪ sw)+ and the support of the role-mask closure, on every
    # consistent execution of the corpus and of 150 random programs.
    from fencesynth.relations import role_closure

    checked = 0
    for p in corpus_and_random_programs():
        for tr in enumerate_consistent_traces(p):
            support = {(a, b) for a, row in role_closure(tr).items() for b in row}
            assert pairs(tr.hb) == closure(pairs(tr.sb) | pairs(tr.sw)) == support
            checked += 1
    assert checked == 674


def test_sw_and_hb_match_the_oracle():
    # sw holds the oracle's sw ∪ dob, its release-sequence case, and hb is
    # the oracle's hb closure, on every consistent execution of the corpus
    # and of 150 random programs.
    from oracle import naive_hb_of

    checked = through_release_sequences = 0
    for p in corpus_and_random_programs():
        for tr in enumerate_consistent_traces(p):
            hb, sw, dob = naive_hb_of(tr)
            assert pairs(tr.sw) == sw | dob, p.name
            assert pairs(tr.hb) == hb, p.name
            checked += 1
            through_release_sequences += not dob <= sw
    assert checked == 674 and through_release_sequences == 12


def test_hb_holds_release_sequence_then_sb():
    # t2 reads y = 2 from t1's relaxed store, which continues the release
    # sequence of its store y = 1 (event 3), so 3 and t1's earlier store
    # (event 2) happen before t2's later load (event 6).
    from fencesynth.model import dump_trace

    [tr] = [t for t in enumerate_consistent_traces(load("relseq_thread")) if t.final_locals["t2"]["a"] == 2]
    assert tr.event(3).ord is O.REL and tr.event(6).obj == "d"
    assert {(3, 6), (2, 6)} <= pairs(tr.hb)
    assert "\nhb 3 6\n" in dump_trace(tr)


def test_sync_monotone_under_added_fences():
    tr = find_buggy_traces(load("mp_rlx"))[0]
    slots = sorted(insert_candidate_fences(tr).slots)
    small = insert_candidate_fences(tr, slots=slots[:2])
    big = insert_candidate_fences(tr)
    for name in ("sw", "hb"):
        assert pairs(getattr(small, name)) <= pairs(getattr(big, name))


def test_so_transitive_subset_of_every_accepted_order():
    # For valid traces, every accepting sc total order contains so+.
    from oracle import accepting_sc_orders

    for prog in ("sb_sc", "iriw_sc", "frfto_chain", "sb_one_sc"):
        from fencesynth.enumerator import enumerate_consistent_traces

        for tr in enumerate_consistent_traces(load(prog)):
            if len(tr.sc_events) < 2:
                continue
            it = insert_candidate_fences(tr, slots=())
            so_plus = closure(pairs(it.so))
            for order in accepting_sc_orders(tr):
                pos = {eid: i for i, eid in enumerate(order)}
                for a, b in so_plus:
                    assert pos[a] < pos[b]


def test_every_relation_is_one_row_per_event():
    # A relation is a dict of bitmask rows, one int per event id and no bit
    # outside the ids: base and derived relations of every consistent
    # corpus execution, and those of its intermediate trace.
    names = ("sb", "rf", "mo", "sw", "hb", "fr", "so")
    checked = 0
    for name in CORPUS:
        for tr in enumerate_consistent_traces(load(name)):
            for t in (tr, insert_candidate_fences(tr)):
                ids = [e.id for e in t.events]
                every = sum(1 << i for i in ids)
                for rel in names:
                    got = getattr(t, rel)
                    assert type(got) is dict and sorted(got) == ids, (name, rel)
                    assert all(type(row) is int and row & ~every == 0 for row in got.values()), (name, rel)
            checked += 1
    assert checked == 193


def test_so_masks_carry_the_in_bits_of_candidate_ends():
    # Every so edge, a fence-free one of the sc clauses included, relies on
    # its candidate ends: each of its masks has their in bits set.
    with_ends = free_with_ends = 0
    for name in CORPUS:
        for tr in find_buggy_traces(load(name)):
            it = insert_candidate_fences(tr)
            bit = {f: 1 << 2 * i for i, f in enumerate(fence_order(it))}
            free = sc_clauses(it)
            for a, b, masks in ((a, b, m) for a, row in it.so_deps.items() for b, m in row.items()):
                ends = bit.get(a, 0) | bit.get(b, 0)
                assert masks and all(m & ends == ends for m in masks), (name, a, b)
                with_ends += ends != 0
                if ends and b in _bits(free[a]):
                    assert masks == (ends,), (name, a, b)
                    free_with_ends += 1
    assert with_ends >= 700 and free_with_ends >= 300


# ---------------------------------------------------------------------------
# The bitmask closure behind hb

pair_sets = st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20)


# Every vertex gets a row, as every event does in compute_hb_info.
@given(pair_sets)
def test_closure_matches_oracle(r):
    assert pairs(_closure(rows(range(8), r))) == closure(r)


@given(pair_sets)
def test_closure_idempotent(r):
    once = _closure(rows(range(8), r))
    assert _closure(once) == once
