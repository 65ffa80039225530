"""The exhaustive execution enumerator and its consistency checks."""

import collections
import time
from dataclasses import dataclass, field

import pytest

from conftest import O, load, make_trace, pairs, reflexive
from fencesynth.enumerator import (
    candidate_values,
    coherence_violations,
    enumerate_consistent_traces,
    exists_sc_total_order,
    find_buggy_traces,
    has_buggy_trace,
    is_consistent,
    lift,
)
from fencesynth.errors import InternalCheckError, ResourceLimitError
from fencesynth.limits import Limits
from fencesynth.litmus import elaborate, parse_program
from fencesynth.optimize import Query, TypedSolution, find_min_model
from fencesynth.driver import apply_solution, synthesize_optimal
from fencesynth.model import FenceSlot, dump_trace


def outcomes(traces, *names):
    """Final local values as tuples, in enumeration order."""
    out = []
    for tr in traces:
        merged = {}
        for env in tr.final_locals.values():
            merged.update(env)
        out.append(tuple(merged.get(n, 0) for n in names))
    return out


def test_candidate_values_fixpoint():
    p = load("dekker_core")
    vals = candidate_values(p)
    assert set(vals["f1"]) == {0, 1}
    # Two unrollable increments can reach at most a bounded chain; the
    # overapproximation must at least contain the dynamically producible 0..2.
    assert {0, 1, 2} <= set(vals["wins"])


def _candidate_values_all_rounds(p):
    """candidate_values without the early stop: always the full bound."""
    from fencesynth.litmus import Fence, FetchAdd, If, Load, Store, preorder

    vals = {o: {v} for o, v in p.init.items()}
    local_vals = {t.tid: {} for t in p.threads}
    stmts = {
        t.tid: [s for _, _, s in preorder(t.body) if not isinstance(s, (If, Fence))] for t in p.threads
    }
    rounds = sum(map(len, stmts.values())) + 1
    for _ in range(rounds):
        for tid, block in stmts.items():
            lv = local_vals[tid]
            for s in block:
                if isinstance(s, (Load, FetchAdd)):
                    lv.setdefault(s.dest, set()).update(vals[s.obj])
                if isinstance(s, FetchAdd):
                    vals[s.obj].update([v + s.addend for v in vals[s.obj]])
                elif isinstance(s, Store):
                    if isinstance(s.value, int):
                        vals[s.obj].add(s.value)
                    else:
                        vals[s.obj].update(lv.get(s.value, ()))
    return {o: tuple(sorted(v)) for o, v in vals.items()}


# A round of this program grows only the local a; the round after it adds
# a's new value to x.
LATE_LOCAL = """program late_local
init x = 0, y = 0
thread t0 {
  store(x, a, rlx)
  a = load(y, rlx)
}
thread t1 {
  store(y, 1, rlx)
}
assert x != 1
"""


def test_candidate_values_stops_early_at_the_same_sets():
    from conftest import CORPUS, corpus_text
    from fencesynth.errors import LitmusError
    from test_differential import FAMILIES
    from test_litmus import random_litmus_program

    programs = []
    for unroll in (1, 2, 4, 16):
        for name in CORPUS:
            try:
                programs.append(elaborate(parse_program(corpus_text(name)), unroll))
            except LitmusError:
                assert unroll == 1  # a repeat 2 loop
    programs += [elaborate(parse_program(random_litmus_program(seed))) for seed in range(150)]
    programs += [elaborate(parse_program(src), 16) for src in FAMILIES.values()]
    programs.append(elaborate(parse_program(LATE_LOCAL)))
    for p in programs:
        assert candidate_values(p) == _candidate_values_all_rounds(p), p.name
    assert candidate_values(programs[-1])["x"] == (0, 1)


def test_sb_allows_both_zero():
    p = load("sb_rlx")
    traces = enumerate_consistent_traces(p)
    assert (0, 0) in outcomes(traces, "a", "b")
    assert len(traces) == 4  # all four read combinations are consistent


def test_single_thread_rf_forced():
    src = (
        "program seq\ninit x = 0\nthread t1 {\n"
        "  store(x, 1, rlx)\n  a = load(x, rlx)\n}\nassert true\n"
    )
    traces = enumerate_consistent_traces(elaborate(parse_program(src)))
    # Reading the initial value is forbidden by coherence within the thread.
    assert outcomes(traces, "a") == [(1,)]


def test_zero_statement_program_has_one_trace():
    src = "program empty\ninit x = 0\nthread t1 {\n}\nassert true\n"
    traces = enumerate_consistent_traces(elaborate(parse_program(src)))
    assert len(traces) == 1
    assert [e.is_init for e in traces[0].events] == [True]


def test_rwrw_buggy_trace_is_consistent(rwrw):
    buggy = find_buggy_traces(rwrw)
    assert len(buggy) == 1
    tr = buggy[0]
    assert is_consistent(tr)
    assert tr.assertion_holds is False
    assert tr.final_shared == {"x": 1, "y": 1}


def test_reversed_rf_violates_coherence():
    # A read sequenced before the write it observes: rf;hb is reflexive.
    tr, _ = make_trace(
        init={"x": 0},
        threads={"t1": [("r", "read", "x", O.RLX, 1, None), ("w", "write", "x", O.RLX, None, 1)]},
        rf=[("w", "r")],
        mo_tail={"x": ["w"]},
    )
    assert "co-rh" in coherence_violations(tr)
    assert not is_consistent(tr)


# One hand-made trace per coherence composition, with the names that
# ``coherence_violations`` reports for it.  An hb cycle needs a
# synchronization edge, whose rf edge then closes rf;hb too.
COHERENCE_CASES = {
    # LB with release stores and acquire loads: hb itself is cyclic.
    "co-h": (
        {"x": 0, "y": 0},
        {
            "t1": [("rx", "read", "x", O.ACQ, 1, None), ("wy", "write", "y", O.REL, None, 1)],
            "t2": [("ry", "read", "y", O.ACQ, 1, None), ("wx", "write", "x", O.REL, None, 1)],
        },
        [("wx", "rx"), ("wy", "ry")],
        {"x": ["wx"], "y": ["wy"]},
        ["co-h", "co-rh"],
    ),
    # A read of the write sequenced after it.
    "co-rh": (
        {"x": 0},
        {"t1": [("r", "read", "x", O.RLX, 1, None), ("w", "write", "x", O.RLX, None, 1)]},
        [("w", "r")],
        {"x": ["w"]},
        ["co-rh"],
    ),
    # CoWW: two writes of one thread against their sequence.
    "co-mh": (
        {"x": 0},
        {"t1": [("w1", "write", "x", O.RLX, None, 1), ("w2", "write", "x", O.RLX, None, 2)]},
        [],
        {"x": ["w2", "w1"]},
        ["co-mh"],
    ),
    # CoRW: a read of a write that is mo-after a write sequenced after it.
    "co-mrh": (
        {"x": 0},
        {
            "t1": [("r", "read", "x", O.RLX, 2, None), ("w1", "write", "x", O.RLX, None, 1)],
            "t2": [("w2", "write", "x", O.RLX, None, 2)],
        },
        [("w2", "r")],
        {"x": ["w1", "w2"]},
        ["co-mrh"],
    ),
    # CoWR: a read of the initial write after the thread's own store.
    "co-mhi": (
        {"x": 0},
        {"t1": [("w", "write", "x", O.RLX, None, 1), ("r", "read", "x", O.RLX, 0, None)]},
        [("i_x", "r")],
        {"x": ["w"]},
        ["co-mhi"],
    ),
    # CoRR: a later read of one thread sees an mo-earlier write.
    "co-mrhi": (
        {"x": 0},
        {
            "t1": [("w", "write", "x", O.RLX, None, 1)],
            "t2": [("r1", "read", "x", O.RLX, 1, None), ("r2", "read", "x", O.RLX, 0, None)],
        },
        [("w", "r1"), ("i_x", "r2")],
        {"x": ["w"]},
        ["co-mrhi"],
    ),
}


@pytest.mark.parametrize("case", sorted(COHERENCE_CASES))
def test_coherence_violation_names(case):
    init, threads, rf, mo_tail, names = COHERENCE_CASES[case]
    tr, _ = make_trace(init=init, threads=threads, rf=rf, mo_tail=mo_tail)
    assert coherence_violations(tr) == names
    assert not is_consistent(tr)


def test_all_sc_store_buffer_rejects_zero_zero():
    p = load("sb_sc")
    assert (0, 0) not in outcomes(enumerate_consistent_traces(p), "a", "b")


def test_all_sc_iriw_rejects_split_order():
    p = load("iriw_sc")
    traces = enumerate_consistent_traces(p)
    assert (1, 0, 1, 0) not in outcomes(traces, "a", "b", "c", "d")
    # The same program with relaxed accesses admits it.
    q = load("iriw_rlx")
    assert (1, 0, 1, 0) in outcomes(enumerate_consistent_traces(q), "a", "b", "c", "d")


def test_sc_read_of_a_relaxed_write_may_follow_a_later_sc_write():
    # S must run c < e < d < r: c sb e, e reads y's initial value so it
    # precedes the sc write d, and d sb r.  So r follows c, which is
    # mo-after the relaxed write w that r reads.  That is allowed, because
    # w does not happen before c, so the fr pair (r, c) is not a forced edge.
    from oracle import accepting_sc_orders

    tr, _ = make_trace(
        init={"x": 0, "y": 0},
        threads={
            "t1": [("w", "write", "x", O.RLX, None, 1)],
            "t2": [("c", "write", "x", O.SC, None, 2), ("e", "read", "y", O.SC, 0, None)],
            "t3": [("d", "write", "y", O.SC, None, 1), ("r", "read", "x", O.SC, 1, None)],
        },
        rf=[("i_y", "e"), ("w", "r")],
        mo_tail={"x": ["w", "c"], "y": ["d"]},
    )
    assert coherence_violations(tr) == []
    assert exists_sc_total_order(tr)
    assert accepting_sc_orders(tr)


def test_no_sc_events_total_order_trivial():
    tr, _ = make_trace(
        init={"x": 0},
        threads={"t1": [("w", "write", "x", O.RLX, None, 1)]},
        rf=[],
        mo_tail={"x": ["w"]},
    )
    assert exists_sc_total_order(tr)


def test_sc_fence_pair_blocks_store_buffer():
    # The store-buffer trace with an sc fence between each store and load
    # admits no sc order; with acquire-release fences it still does.
    p = load("sb_rlx")
    tr = find_buggy_traces(p)[0]
    from conftest import with_fences

    f1, f2 = FenceSlot("t1", 1), FenceSlot("t2", 1)
    assert not exists_sc_total_order(with_fences(tr, {f1: O.SC, f2: O.SC}))
    assert exists_sc_total_order(with_fences(tr, {f1: O.AR, f2: O.SC}))
    assert exists_sc_total_order(with_fences(tr, {f1: O.SC, f2: O.AR}))


def test_buggy_traces_rwrw_exactly_one_one(rwrw):
    buggy = find_buggy_traces(rwrw)
    assert outcomes(buggy, "a", "b") == [(1, 1)]


def test_fence_removes_buggy_traces(rwrw):
    fixed = apply_solution(
        rwrw, TypedSolution(assignment=((FenceSlot("t1", 1), O.REL),))
    )
    assert find_buggy_traces(fixed) == []


def test_assert_true_never_buggy():
    assert find_buggy_traces(load("assert_true")) == []


def test_hb_irreflexive_on_accepted_traces(rwrw):
    for tr in enumerate_consistent_traces(rwrw):
        assert not reflexive(pairs(tr.hb))


def test_per_object_mo_is_strict_total_order():
    for tr in enumerate_consistent_traces(load("coh_rr")):
        for obj, chain in tr.mo_chains.items():
            for i, a in enumerate(chain):
                for b in chain[i + 1 :]:
                    assert (a, b) in pairs(tr.mo) and (b, a) not in pairs(tr.mo)
        assert not reflexive(pairs(tr.mo))


def test_enumeration_is_deterministic():
    p = load("dekker_core")
    from oracle import trace_signature

    first = [trace_signature(t) for t in enumerate_consistent_traces(p)]
    second = [trace_signature(t) for t in enumerate_consistent_traces(p)]
    assert first == second


def test_max_traces_limit_reported_distinctly():
    p = load("sb_rlx")
    with pytest.raises(ResourceLimitError):
        enumerate_consistent_traces(p, Limits(max_traces=2))
    # An unsatisfiable-outcome program reports plain emptiness instead.
    assert find_buggy_traces(load("assert_true"), Limits(max_traces=2)) == []


def test_sc_search_honors_an_expired_deadline():
    tr = find_buggy_traces(load("sb_rlx"))[0]
    from conftest import with_fences

    m = with_fences(tr, {FenceSlot("t1", 1): O.SC, FenceSlot("t2", 1): O.SC})
    assert len(m.sc_events) >= 2
    with pytest.raises(ResourceLimitError) as exc:
        exists_sc_total_order(m, Limits(timeout_secs=-1.0).start())
    assert exc.value.phase == "sc-order"


def test_sc_rmw_may_read_the_initial_value():
    # The rmw's own write is not an sc write before it: reading the
    # initial value (a non-sc write that happens before the rmw) is allowed.
    p = elaborate(parse_program(
        "program t\ninit x = 0\nthread t1 {\n  u = fadd(x, 1, sc)\n}\nassert u == 0\n"
    ))
    traces = enumerate_consistent_traces(p)
    assert outcomes(traces, "u") == [(0,)]


def _count_calls(monkeypatch, name):
    """The argument tuples of every call of the enumerator's ``name``."""
    from fencesynth import enumerator

    calls = []
    call = getattr(enumerator, name)

    def counted(*args):
        calls.append(args)
        return call(*args)

    monkeypatch.setattr(enumerator, name, counted)
    return calls



def test_pruned_choices_shrink_the_candidate_set(monkeypatch):
    # Message passing with 5 same-thread data stores: of the 5! orders of
    # those stores only the program order survives, and sources that are
    # sb-overwritten before a read are never tried.
    stores = "\n".join("  store(d, %d, rlx)" % v for v in range(1, 6))
    p = elaborate(parse_program(
        "program mp5\ninit d = 0, f = 0\nthread w {\n%s\n  store(f, 1, rlx)\n}\n"
        "thread r {\n  a = load(f, rlx)\n  b = load(d, rlx)\n}\n"
        "assert !(a == 1 && b != 5)\n" % stores
    ))
    built = _count_calls(monkeypatch, "coherence_violations")
    assert len(enumerate_consistent_traces(p)) == 12
    # Unpruned, this enumeration builds 1,440 candidate executions.
    assert len(built) <= 144


def _orderless_signature(tr):
    def key(eid):
        e = tr.event(eid)
        return ("init", e.obj) if e.is_init else (e.thr, e.idx)

    return (
        frozenset((key(e.id), e.act, e.obj, e.rval, e.wval) for e in tr.events),
        frozenset((key(a), key(b)) for a, b in pairs(tr.rf)),
        frozenset((key(a), key(b)) for a, b in pairs(tr.mo)),
    )


def test_strengthening_shrinks_trace_set():
    # Replacing any access order by a stronger one never enlarges the
    # consistent-trace set (compared with orders stripped).
    from conftest import corpus_text

    base_src = corpus_text("mp_rlx")
    base = elaborate(parse_program(base_src))
    base_sigs = {_orderless_signature(t) for t in enumerate_consistent_traces(base)}
    for strengthened in (
        base_src.replace("store(f, 1, rlx)", "store(f, 1, rel)"),
        base_src.replace("a = load(f, rlx)", "a = load(f, acq)"),
        base_src.replace("store(d, 1, rlx)", "store(d, 1, sc)"),
    ):
        p = elaborate(parse_program(strengthened))
        sigs = {_orderless_signature(t) for t in enumerate_consistent_traces(p)}
        assert sigs <= base_sigs


def test_fadd_returns_old_value():
    src = (
        "program fa\ninit x = 0\nthread t1 {\n"
        "  u = fadd(x, 5, rlx)\n}\nassert u == 0 && x == 5\n"
    )
    p = elaborate(parse_program(src))
    traces = enumerate_consistent_traces(p)
    assert len(traces) == 1 and traces[0].assertion_holds


def test_repeat_zero_expands_to_nothing():
    src = (
        "program rz\ninit x = 0\nthread t1 {\n"
        "  repeat 0 {\n    store(x, 1, rlx)\n  }\n}\nassert x == 0\n"
    )
    p = elaborate(parse_program(src))
    assert p.threads[0].size == 0
    traces = enumerate_consistent_traces(p)
    assert len(traces) == 1 and traces[0].assertion_holds


def test_candidate_fences_never_in_rf_mo_fr(rwrw):
    from fencesynth.cycles import insert_candidate_fences
    from fencesynth.relations import compute_fr

    tr = find_buggy_traces(rwrw)[0]
    it = insert_candidate_fences(tr)
    touched = {i for pair in (pairs(it.rf) | pairs(it.mo) | pairs(compute_fr(it))) for i in pair}
    assert not (touched & it.fence_event_ids)


# ---------------------------------------------------------------------------
# Buggy-trace enumeration decides the assertion before checking consistency


def _buggy_equals_filtered(src):
    from oracle import trace_signature

    p = elaborate(parse_program(src))
    buggy = find_buggy_traces(p)
    expected = [trace_signature(t) for t in enumerate_consistent_traces(p) if not t.assertion_holds]
    assert [trace_signature(t) for t in buggy] == expected
    return buggy


TWO_WRITERS = (
    "program two_writers\ninit x = 0\n"
    "thread t1 {\n  store(x, 1, rlx)\n  store(x, 2, rlx)\n}\n"
    "thread t2 {\n  store(x, 3, rlx)\n}\n"
    "assert %s\n"
)


def test_precheck_tries_the_last_write_of_every_writing_thread():
    # mo ends in t1's last write (2) or in t2's (3), never in t1's first.
    cases = (("x == 2", [3]), ("x == 3", [2, 2]), ("x != 2", [2, 2]), ("x != 1", []))
    for assertion, finals in cases:
        buggy = _buggy_equals_filtered(TWO_WRITERS % assertion)
        assert [tr.final_shared["x"] for tr in buggy] == finals, assertion


def test_precheck_counts_the_value_an_rmw_writes():
    # Only the fadd's written value, read 1 plus 2, can falsify the
    # assertion; no store writes 3.
    buggy = _buggy_equals_filtered(
        "program rmw_final\ninit x = 0\n"
        "thread t1 {\n  u = fadd(x, 2, rlx)\n}\n"
        "thread t2 {\n  store(x, 1, rlx)\n}\n"
        "assert x != 3\n"
    )
    assert outcomes(buggy, "u") == [(1,)]
    assert [tr.final_shared["x"] for tr in buggy] == [3]


def _ring_of_six():
    from test_differential import sb_ring

    return elaborate(parse_program(sb_ring(6)))


def test_buggy_enumeration_checks_only_falsifying_candidates(monkeypatch):
    # Each of the ring's 64 candidates is consistent, and only the one
    # where every load reads 0 falsifies the assertion: that one alone is
    # checked, in the buggy program and in its fix.
    from fencesynth.driver import synthesize

    p = _ring_of_six()
    fixed = synthesize(p).fixed_program
    checked = _count_calls(monkeypatch, "coherence_violations")
    assert len(find_buggy_traces(p)) == 1 and len(checked) == 1
    checked.clear()
    assert find_buggy_traces(fixed) == [] and len(checked) == 1
    checked.clear()
    assert len(enumerate_consistent_traces(p)) == 64 and len(checked) == 64


def test_max_traces_counts_only_the_buggy_executions_in_buggy_enumeration(monkeypatch):
    # A trace bound leaves buggy-trace enumeration pruned: the ring checks
    # its one falsifying candidate, and the bound counts that one trace.
    p = _ring_of_six()
    checked = _count_calls(monkeypatch, "coherence_violations")
    assert len(find_buggy_traces(p, Limits(max_traces=10**9))) == 1 and len(checked) == 1
    assert len(find_buggy_traces(p, Limits(max_traces=1))) == 1
    with pytest.raises(ResourceLimitError) as exc:
        find_buggy_traces(p, Limits(max_traces=0))
    assert exc.value.phase == "trace-enumeration"


def test_combinations_whose_reads_no_write_supplies_are_skipped(monkeypatch):
    # dekker_core's wins takes 15 candidate values, so each thread has 16
    # runs and the product 256 combinations.  A run that reads wins == k > 0
    # needs the other thread's fadd to write k, so 6 combinations reach the
    # assertion check, and the 2 that may end at wins == 2 reach rf sources.
    checked = _count_calls(monkeypatch, "_may_falsify")
    sourced = _count_calls(monkeypatch, "_rf_sources")
    buggy = find_buggy_traces(load("dekker_core"))
    assert [tr.final_shared["wins"] for tr in buggy] == [2, 2]
    assert len(checked) <= 6 and len(sourced) <= 2


def test_runs_whose_own_locals_satisfy_the_assertion_are_dropped(monkeypatch):
    # In the sb ring of 16 each thread's run that reads 1 makes the
    # assertion hold alone, so buggy enumeration forms one combination of
    # 2^16 (no read value of the ring is unsure, so each combination formed
    # reaches the assertion check).
    from test_differential import sb_ring

    checked = _count_calls(monkeypatch, "_may_falsify")
    assert len(find_buggy_traces(elaborate(parse_program(sb_ring(16))))) == 1
    assert len(checked) == 1


def test_same_thread_polls_that_break_corr_are_never_built(monkeypatch):
    # The poll reads f k times: a run that reads 1 and then 0 is dropped as
    # it is built, as f's 0 comes from init alone.  Unpruned, buggy-trace
    # enumeration checks 2,048 candidates to keep 12.
    from test_differential import checked_candidates, mp_program

    p = elaborate(parse_program(mp_program("mp_poll_12", polls=12)), 16)
    buggy, checked = checked_candidates(monkeypatch, lambda: find_buggy_traces(p))
    assert len(buggy) == 12 and checked <= 12


# t2 polls x twice; t1 stores 1 (0 where x starts at 1) and then gives x its
# initial value again in one of three ways, so a poll may read the initial
# value after another one.
POLL_TWICE = """program poll_twice
init x = %d, y = 0
thread t1 {
  store(x, %d, rlx)
%s}
thread t2 {
  a = load(x, rlx)
  b = load(x, rlx)
}
assert !(a == %d && b == %d)
"""
INIT_AGAIN = {
    "literal_in_branch": POLL_TWICE % (0, 1, "  c = load(y, rlx)\n  if (c == 0) {\n    store(x, 0, rlx)\n  }\n", 1, 0),
    "register": POLL_TWICE % (0, 1, "  c = load(y, rlx)\n  store(x, c, rlx)\n", 1, 0),
    "fetch_add": POLL_TWICE % (1, 0, "  c = fadd(x, 1, rlx)\n", 0, 1),
}


@pytest.mark.parametrize("name", sorted(INIT_AGAIN))
def test_polls_keep_their_runs_where_another_write_gives_the_initial_value(monkeypatch, name):
    # Each program's one buggy execution polls another value and then the
    # initial one, which a non-init write gives.  Nothing is pruned: the
    # full enumeration checks 9 candidates and keeps 6, and buggy-trace
    # enumeration checks 2.
    from oracle import oracle_traces, trace_signature
    from test_differential import checked_candidates

    p = elaborate(parse_program(INIT_AGAIN[name]))
    traces, checked = checked_candidates(monkeypatch, lambda: enumerate_consistent_traces(p))
    mine = [trace_signature(t) for t in traces]
    assert len(set(mine)) == len(mine) == 6 and set(mine) == oracle_traces(p)
    assert checked == 9
    buggy, checked = checked_candidates(monkeypatch, lambda: find_buggy_traces(p))
    assert [trace_signature(t) for t in buggy] == [s for s in mine if not s[3]] and len(buggy) == 1
    assert checked == 2


def test_four_fetch_add_counter_is_decided_in_time():
    # 21 candidate values of c give each thread 21 runs; only the
    # combinations whose reads the other fetch-adds supply are built.
    from test_differential import fadd_counter

    start = time.monotonic()
    result = synthesize_optimal(elaborate(parse_program(fadd_counter(4))), Limits(timeout_secs=10))
    assert result.status == "already-correct"
    assert time.monotonic() - start < 2


# t1's fadd reads x and stores what it read to y; t2 copies y back to x.
# Relaxed, the values feed themselves, so a reaches whatever the value
# domain holds: 5 rounds, one per load, store and fetch-add plus one, give
# y the values 0-4, so no write gives x 5.  A fence adds no round.
FEEDBACK = """program feedback
init x = 0, y = 0
thread t1 {
  a = fadd(x, 1, rlx)
  store(y, a, rlx)
}
thread t2 {
  b = load(y, rlx)
%s  store(x, b, rlx)
}
assert !(a == 5)
"""


def test_feedback_program_is_already_correct():
    assert not has_buggy_trace(elaborate(parse_program(FEEDBACK % "")))


def test_a_fence_adds_no_buggy_execution():
    assert not has_buggy_trace(elaborate(parse_program(FEEDBACK % "  fence(rel)\n")))


@pytest.mark.parametrize("fence", ["", "  fence(rel)\n"])
def test_feedback_enumeration_matches_the_oracle(fence):
    from oracle import oracle_traces, trace_signature

    p = elaborate(parse_program(FEEDBACK % fence))
    mine = [trace_signature(t) for t in enumerate_consistent_traces(p)]
    assert len(set(mine)) == len(mine)
    assert set(mine) == oracle_traces(p)


def mo_stores(k):
    """Three threads that each store k rlx values to x; the assertion
    fails in the mo orders that end in the first thread's last store."""
    lines = ["program mo%d" % k, "init x = 0"]
    for t in range(3):
        lines.append("thread t%d {" % (t + 1))
        lines += ["  store(x, %d, rlx)" % (k * t + i + 1) for i in range(k)]
        lines.append("}")
    lines.append("assert x != %d" % k)
    return "\n".join(lines) + "\n"


def many_loads(n):
    """One thread of n rlx loads of x beside a thread that stores 7 and then
    0 to it, so a load may read 0 after one that read 7."""
    lines = ["program loads%d" % n, "init x = 0", "thread t1 {"]
    lines += ["  a%d = load(x, rlx)" % i for i in range(n)]
    lines += ["}", "thread t2 {", "  store(x, 7, rlx)", "  store(x, 0, rlx)", "}", "assert a0 != 7"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text", [mo_stores(4), mo_stores(5), many_loads(17)], ids=["mo4", "mo5", "loads17"])
def test_enumeration_meets_its_deadline_inside_the_products(text):
    # mo4 has 34,650 mo orders of x, mo5 756,756, and the load thread 2^17
    # runs: the deadline is checked while each is built and walked, not
    # only once per thread-run combination after all of them exist.
    p = elaborate(parse_program(text))
    start = time.monotonic()
    with pytest.raises(ResourceLimitError) as exc:
        find_buggy_traces(p, Limits(timeout_secs=0.3))
    assert exc.value.phase == "trace-enumeration"
    assert time.monotonic() - start < 0.3 + 0.25


def ban_ring(n):
    """An execution with no sc order that only the disjunctive rule finds:
    thread ti stores x_i = 1 rlx and x_i = 2 sc, then its sc load of
    x_{i+1} reads the rlx 1.  Each load must precede the next thread's sc
    store, which no forced edge says."""
    threads, rf, mo = {}, [], {}
    for i in range(n):
        x, nxt = "x%d" % i, "x%d" % ((i + 1) % n)
        threads["t%d" % i] = [
            ("a%d" % i, "write", x, O.RLX, None, 1),
            ("b%d" % i, "write", x, O.SC, None, 2),
            ("r%d" % i, "read", nxt, O.SC, 1, None),
        ]
        rf.append(("a%d" % ((i + 1) % n), "r%d" % i))
        mo[x] = ["a%d" % i, "b%d" % i]
    return make_trace(dict.fromkeys(mo, 0), threads, rf, mo)[0]


def test_ban_ring_has_no_sc_order():
    from oracle import accepting_sc_orders

    tr = ban_ring(3)
    assert not coherence_violations(tr) and not exists_sc_total_order(tr)
    assert accepting_sc_orders(tr) == []


@dataclass
class CountingLimits(Limits):
    """Limits that count ``check_time`` calls per phase."""

    checks: collections.Counter = field(default_factory=collections.Counter, repr=False)

    def check_time(self, phase):
        self.checks[phase] += 1
        super().check_time(phase)


def test_all_sc_ring_is_rejected_without_the_search():
    # Each load of the all-sc ring reads an init write, whose fr pairs are
    # forced, so the topological sort rejects the one falsifying candidate
    # (the search once took 531,442 deadline checks here).
    from test_differential import sb_ring

    limits = CountingLimits()
    assert find_buggy_traces(elaborate(parse_program(sb_ring(12, "sc"))), limits) == []
    assert 0 < limits.checks["sc-order"] <= 12


def _later_phase_shapes():
    from test_differential import mp_program

    ring = ban_ring(12)
    stores = elaborate(parse_program(mp_program("mp_stores_30", k_stores=30)))
    clause = Query(((0, (frozenset(FenceSlot("t1", g) for g in range(26)),)),))
    return {
        "sc-order": lambda limits: exists_sc_total_order(ring, limits),
        "cycle-detection": lambda limits: synthesize_optimal(stores, limits),
        "min-model": lambda limits: find_min_model(clause, limits),
    }


@pytest.mark.parametrize("phase", ["sc-order", "cycle-detection", "min-model"])
def test_later_phases_meet_their_deadline(phase):
    # The search refutes the sc order of the ban ring of 12 in about
    # 2.3 s; mp stores k=30 enumerates its 30 buggy
    # traces in about 0.1 s and analyses them in about 2 s; one clause of
    # 26 slots leaves 2^26 smaller subsets to probe.
    run = _later_phase_shapes()[phase]
    start = time.monotonic()
    with pytest.raises(ResourceLimitError) as exc:
        run(Limits(timeout_secs=0.5))
    assert exc.value.phase == phase
    assert time.monotonic() - start < 2


# ---------------------------------------------------------------------------
# Lifting a trace into a program with more or stronger fences


def test_lifting_into_the_traced_program_changes_nothing():
    from conftest import CORPUS

    lifted = 0
    for name in CORPUS:
        p = load(name)
        for tr in enumerate_consistent_traces(p):
            assert dump_trace(lift(tr, p)) == dump_trace(tr), name
            lifted += 1
    assert lifted > 100


MP_BRANCH = """program mp_branch_fences
init d = 0, f = 0
thread t1 {
  store(d, 1, rlx)
  store(f, 1, rlx)
}
thread t2 {
  a = load(f, rlx)
  if (a == 1) {
    fence(rel)
  } else {
    fence(acq)
  }
  b = load(d, rlx)
}
assert !(a == 1 && b == 0)
"""


def test_a_lift_runs_the_branches_its_reads_choose():
    # The buggy trace reads f = 1: its lift has the then-branch's fence,
    # strengthened where an acquire fence merged into it, and none of the
    # else-branch's; t1's new release fence kills it.
    p = elaborate(parse_program(MP_BRANCH))
    [tr] = find_buggy_traces(p)
    strengthened = apply_solution(p, TypedSolution(((FenceSlot("t2", 2), O.ACQ),)))
    [same] = find_buggy_traces(strengthened)
    moved = lift(tr, strengthened)
    assert dump_trace(moved) == dump_trace(same)
    assert [(e.idx, e.ord) for e in moved.events if e.is_fence] == [(1, O.AR)]
    fixed = apply_solution(strengthened, TypedSolution(((FenceSlot("t1", 1), O.REL),)))
    assert lift(tr, fixed) is None and find_buggy_traces(fixed) == []


def test_a_lift_needs_the_traced_program_up_to_fences():
    tr = find_buggy_traces(load("mp_rlx"))[0]
    with pytest.raises(InternalCheckError):
        lift(tr, load("mp_relacq"))
    with pytest.raises(ResourceLimitError):
        lift(tr, load("mp_rlx"), Limits(timeout_secs=-1.0))
