"""The exhaustive execution enumerator and its consistency checks."""

import pytest

from conftest import O, load, make_trace, reflexive
from fencesynth.enumerator import (
    candidate_values,
    coherence_violations,
    enumerate_consistent_traces,
    exists_sc_total_order,
    find_buggy_traces,
    is_consistent,
)
from fencesynth.errors import ResourceLimitError
from fencesynth.limits import Limits
from fencesynth.litmus import elaborate, parse_program
from fencesynth.optimize import TypedSolution
from fencesynth.driver import apply_solution
from fencesynth.model import FenceSlot


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
    from fencesynth.litmus import FetchAdd, If, Load, Store, preorder

    vals = {o: {v} for o, v in p.init.items()}
    local_vals = {t.tid: {} for t in p.threads}
    stmts = {
        t.tid: [s for _, _, s in preorder(t.body) if not isinstance(s, If)] for t in p.threads
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
        assert not reflexive(tr.hb_closed)
        assert not reflexive(tr.hb)


def test_per_object_mo_is_strict_total_order():
    for tr in enumerate_consistent_traces(load("coh_rr")):
        for obj, chain in tr.mo_chains.items():
            for i, a in enumerate(chain):
                for b in chain[i + 1 :]:
                    assert (a, b) in tr.mo and (b, a) not in tr.mo
        assert not reflexive(tr.mo)


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


def _count_coherence_checks(monkeypatch):
    from fencesynth import enumerator

    checked = []
    check = enumerator.coherence_violations

    def counted_check(tr):
        checked.append(tr)
        return check(tr)

    monkeypatch.setattr(enumerator, "coherence_violations", counted_check)
    return checked


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
    built = _count_coherence_checks(monkeypatch)
    assert len(enumerate_consistent_traces(p)) == 12
    # Unpruned, this enumeration builds 1,440 candidate executions.
    assert len(built) <= 144


def _orderless_signature(tr):
    def key(eid):
        e = tr.event(eid)
        return ("init", e.obj) if e.is_init else (e.thr, e.idx)

    return (
        frozenset((key(e.id), e.act, e.obj, e.rval, e.wval) for e in tr.events),
        frozenset((key(a), key(b)) for a, b in tr.rf.pairs),
        frozenset((key(a), key(b)) for a, b in tr.mo.pairs),
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
    touched = {i for pair in (it.rf.pairs | it.mo.pairs | compute_fr(it).pairs) for i in pair}
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
    checked = _count_coherence_checks(monkeypatch)
    assert len(find_buggy_traces(p)) == 1 and len(checked) == 1
    checked.clear()
    assert find_buggy_traces(fixed) == [] and len(checked) == 1
    checked.clear()
    assert len(enumerate_consistent_traces(p)) == 64 and len(checked) == 64


def test_max_traces_counts_every_consistent_execution_in_buggy_enumeration(monkeypatch):
    # With a trace bound, candidates that satisfy the assertion are still
    # checked and counted, so the bound trips where the full enumeration's
    # does.
    p = _ring_of_six()
    checked = _count_coherence_checks(monkeypatch)
    assert len(find_buggy_traces(p, Limits(max_traces=64))) == 1 and len(checked) == 64
    with pytest.raises(ResourceLimitError):
        find_buggy_traces(p, Limits(max_traces=63))
