"""Synthesis drivers, program rewriting, and the sanity checker."""

import itertools
import time

import pytest

from conftest import EXPECT_STATUS, load, with_fences, O
from fencesynth.cycles import find_weak_cycles, insert_candidate_fences
from fencesynth.driver import (
    apply_solution,
    sanity_check,
    synthesize_fast,
    synthesize_optimal,
)
from fencesynth.enumerator import (
    enumerate_consistent_traces,
    find_buggy_traces,
    has_buggy_trace,
    is_consistent,
)
from fencesynth.errors import InternalCheckError, ResourceLimitError
from fencesynth.limits import Limits
from fencesynth.litmus import Fence, elaborate, parse_program, preorder, print_program
from fencesynth.model import FenceSlot, SourceLocation
from fencesynth.optimize import Query, TypedSolution, assign_memory_orders, find_min_model


def test_apply_solution_inserts_fence(rwrw):
    fixed = apply_solution(
        rwrw, TypedSolution(assignment=((FenceSlot("t1", 1), O.REL),))
    )
    body = fixed.threads[0].body
    assert [type(s).__name__ for s in body] == ["Load", "Fence", "Store"]
    assert body[1].ord is O.REL and body[1].synthesized
    # Original statements keep their identity; indices are renumbered.
    assert [s.idx for s in body] == [0, 1, 2]


def test_apply_solution_empty_is_identity(rwrw):
    fixed = apply_solution(rwrw, TypedSolution(assignment=()))
    assert print_program(fixed) == print_program(rwrw)


def test_apply_solution_merges_adjacent_into_existing():
    src = (
        "program f\ninit x = 0, y = 0\nthread t1 {\n"
        "  store(x, 1, rlx)\n  fence(rel)\n  a = load(y, rlx)\n}\nassert true\n"
    )
    p = elaborate(parse_program(src))
    # Gap 1 sits just before the existing release fence; an acquire fence
    # there merges into a single acquire-release fence.
    fixed = apply_solution(
        p, TypedSolution(assignment=((FenceSlot("t1", 1), O.ACQ),))
    )
    body = fixed.threads[0].body
    fences = [s for s in body if isinstance(s, Fence)]
    assert len(fences) == 1
    assert fences[0].ord is O.AR
    assert not fences[0].synthesized  # the program fence survived, stronger


def test_apply_solution_end_slot():
    p = load("rwrw")
    fixed = apply_solution(p, TypedSolution(assignment=((FenceSlot("t2", 2), O.SC),)))
    assert isinstance(fixed.threads[1].body[-1], Fence)


def test_apply_solution_rejects_bad_slot(rwrw):
    from fencesynth.errors import LitmusError

    with pytest.raises(LitmusError):
        apply_solution(rwrw, TypedSolution(assignment=((FenceSlot("t9", 0), O.REL),)))
    with pytest.raises(LitmusError):
        apply_solution(rwrw, TypedSolution(assignment=((FenceSlot("t1", 9), O.REL),)))


def _identity(p):
    """The printed program and each statement's identity and numbering."""
    stmts = [
        (s.uid, s.idx, s.cont, getattr(s, "ord", None), getattr(s, "synth_iter", None))
        for t in p.threads
        for _, _, s in preorder(t.body)
    ]
    return print_program(p), stmts


MERGE_SOURCE = (
    "program f\ninit x = 0, y = 0\nthread t1 {\n"
    "  store(x, 1, rlx)\n  fence(rel)\n  a = load(y, rlx)\n}\nassert true\n"
)


@pytest.mark.parametrize(
    "name", sorted(n for n, v in EXPECT_STATUS.items() if v == "fixed") + ["merge"]
)
def test_apply_solution_and_sanity_check_leave_their_input_unchanged(name):
    if name == "merge":
        p = elaborate(parse_program(MERGE_SOURCE))
        typed = TypedSolution(assignment=((FenceSlot("t1", 1), O.ACQ),))
    else:
        p = load(name)
        res = synthesize_optimal(p)
        assignment = []
        for query in res.queries:  # one per part with a bug
            sols = [res.solutions_by_trace[tid] for tid, _ in query.clauses]
            assignment += assign_memory_orders(find_min_model(query), sols).assignment
        typed = TypedSolution(tuple(sorted(assignment)))
        assert bool(res.strengthened) == (name == "fen_strengthen")
    before = _identity(p)
    fixed = apply_solution(p, typed)
    assert _identity(p) == before
    if name == "merge":
        return
    after_fix = _identity(fixed)
    assert sanity_check(fixed, res).passed
    assert _identity(fixed) == after_fix


# ---------------------------------------------------------------------------
# Whole-program driver


def test_optimal_rwrw(rwrw):
    res = synthesize_optimal(rwrw)
    assert res.status == "fixed"
    assert len(res.synthesized) == 1
    fence = res.synthesized[0]
    assert fence.order is O.REL and res.weight == 1
    # Between the load and the store of one of the two threads.
    assert (fence.slot.thread, fence.slot.gap) in (("t1", 1), ("t2", 1))
    assert res.strengthened == []
    assert find_buggy_traces(res.fixed_program) == []


def test_optimal_store_buffer():
    res = synthesize_optimal(load("sb_rlx"))
    assert res.status == "fixed"
    assert sorted(str(f.slot) for f in res.synthesized) == ["t1@1", "t2@1"]
    assert all(f.order is O.SC for f in res.synthesized)
    assert res.weight == 6


def test_optimal_iriw_no_fix():
    res = synthesize_optimal(load("iriw_rlx"))
    assert res.status == "no-fix"
    assert res.no_fix_trace is not None
    assert res.solutions_by_trace[res.no_fix_trace] == []


def test_optimal_already_correct():
    res = synthesize_optimal(load("sb_sc"))
    assert res.status == "already-correct"
    assert res.synthesized == [] and res.iterations == 0


def test_strengthening_of_existing_fence():
    res = synthesize_optimal(load("fen_strengthen"))
    assert res.status == "fixed"
    assert len(res.synthesized) == 1 and res.synthesized[0].order is O.SC
    assert len(res.strengthened) == 1
    s = res.strengthened[0]
    assert s.loc == SourceLocation("t1", 1) and s.old is O.REL and s.new is O.SC


def test_relying_on_a_program_fence_costs_nothing_in_a_weight_tie():
    # t1@2 as rel pairs with t2's ar fence, as acq with t2's sc store: both
    # weigh 1, and the tie goes to the lesser order rank, rel.
    source = """program lb_tie
init x = 0, y = 0
thread t1 {
  fence(ar)
  a = load(x, rlx)
  store(y, 1, rlx)
}
thread t2 {
  b = load(y, rlx)
  fence(ar)
  store(x, 1, sc)
}
assert !(a == 1 && b == 1)
"""
    p = elaborate(parse_program(source))
    [tr] = find_buggy_traces(p)
    for res in (synthesize_optimal(p), synthesize_fast(p)):
        assert [(f.slot, f.order) for f in res.synthesized] == [(FenceSlot("t1", 2), O.REL)]
        assert res.strengthened == []
        assert not is_consistent(with_fences(tr, {FenceSlot("t1", 2): O.ACQ}))


def test_loop_fences_report_unroll_provenance():
    res = synthesize_optimal(load("loop_sb"))
    assert res.status == "fixed"
    tagged = [f for f in res.synthesized if f.slot.thread == "t1"]
    assert tagged and all(f.iter_tag for f in tagged)


def test_determinism(rwrw):
    def snapshot(res):
        return (
            res.status,
            [(str(f.slot), f.order) for f in res.synthesized],
            [(str(s.loc), s.old, s.new) for s in res.strengthened],
            res.iterations,
        )

    for prog in ("rwrw", "sb_rlx", "two_bugs", "dekker_core"):
        a = snapshot(synthesize_optimal(load(prog)))
        b = snapshot(synthesize_optimal(load(prog)))
        assert a == b
        c = snapshot(synthesize_fast(load(prog)))
        d = snapshot(synthesize_fast(load(prog)))
        assert c == d


# ---------------------------------------------------------------------------
# Iterative driver


def test_fast_rwrw_single_iteration(rwrw):
    res = synthesize_fast(rwrw)
    assert res.status == "fixed" and res.iterations == 1
    assert len(res.synthesized) == 1 and res.synthesized[0].order is O.REL


def test_fast_already_correct():
    res = synthesize_fast(load("mp_relacq"))
    assert res.status == "already-correct" and res.iterations == 0


def test_fast_two_independent_bugs():
    res = synthesize_fast(load("two_bugs"))
    assert res.status == "fixed"
    assert res.iterations == 2
    assert len(res.synthesized) == 4
    # Per-iteration provenance is recorded.
    assert {f.iteration for f in res.synthesized} == {1, 2}


def test_fast_iteration_guard():
    with pytest.raises(ResourceLimitError):
        synthesize_fast(load("two_bugs"), Limits(max_iters=1))


def test_fast_no_fix():
    res = synthesize_fast(load("r_nofix"))
    assert res.status == "no-fix"


# ---------------------------------------------------------------------------
# Order-assignment soundness: the typed fences invalidate every buggy trace


@pytest.mark.parametrize("prog", ["rwrw", "sb_rlx", "mp_rlx", "lb3", "wrir", "two_bugs"])
def test_typed_solution_invalidates_every_buggy_trace(prog):
    p = load(prog)
    buggy = find_buggy_traces(p)
    res = synthesize_optimal(p)
    assert res.status == "fixed"
    placement = {f.slot: f.order for f in res.synthesized}
    strengthen = {s.loc: s.new for s in res.strengthened}
    for tr in buggy:
        mutant = with_fences(tr, placement, strengthen)
        assert not is_consistent(mutant)


# ---------------------------------------------------------------------------
# Desk-scale optimality (smallest count, then lightest orders)


@pytest.mark.parametrize("prog", ["rwrw", "sb_rlx", "mp_rlx"])
def test_no_smaller_or_lighter_fix_exists(prog):
    p = load(prog)
    res = synthesize_optimal(p)
    k = len(res.synthesized)
    slots = set()
    for tr in find_buggy_traces(p):
        from fencesynth.cycles import candidate_slots

        slots.update(candidate_slots(tr))
    orders = [O.REL, O.ACQ, O.AR, O.SC]

    def fixes(placement):
        fixed = apply_solution(
            p, TypedSolution(assignment=tuple(sorted(placement.items())))
        )
        return not find_buggy_traces(fixed)

    # No placement with fewer fences fixes the program.
    for size in range(k):
        for combo in itertools.combinations(sorted(slots), size):
            for assignment in itertools.product(orders, repeat=size):
                assert not fixes(dict(zip(combo, assignment)))
    # No lighter order assignment on the chosen slots fixes it.
    chosen = [f.slot for f in res.synthesized]
    for assignment in itertools.product(orders, repeat=k):
        if sum(o.weight for o in assignment) < res.weight:
            assert not fixes(dict(zip(chosen, assignment)))


def test_verify_failure_counts_the_buggy_traces_left(monkeypatch):
    # A fix that inserts nothing leaves the buggy trace of each of the two
    # independent bugs; verification must refuse it and count them part by
    # part, as opt counts the traces it analyses.
    from fencesynth import driver

    monkeypatch.setattr(driver, "apply_solution", lambda p, typed, synth_iter=0: p)
    with pytest.raises(InternalCheckError, match="2 buggy traces remain"):
        driver.synthesize_optimal(load("two_bugs"))


def test_a_failed_verify_stays_an_internal_error_on_many_parts(monkeypatch):
    # A fix that drops one fence of mp pairs m=8 leaves one pair buggy.  The
    # count of what remains is taken part by part; over the whole fixed
    # program, a product of eight parts, it ran into the deadline and
    # became a limit error.
    from fencesynth import driver
    from test_differential import mp_pairs

    apply = driver.apply_solution

    def drop_first(p, typed, synth_iter=0):
        return apply(p, TypedSolution(typed.assignment[1:]), synth_iter)

    monkeypatch.setattr(driver, "apply_solution", drop_first)
    start = time.monotonic()
    with pytest.raises(InternalCheckError, match="buggy traces remain"):
        driver.synthesize_optimal(elaborate(parse_program(mp_pairs(8))), Limits(timeout_secs=10))
    assert time.monotonic() - start < 1


# ---------------------------------------------------------------------------
# Sanity check


def test_sanity_check_rwrw(rwrw):
    res = synthesize_optimal(rwrw)
    report = sanity_check(res.fixed_program, res, Limits())
    assert report.passed
    assert [o.mutation for o in report.outcomes] == ["removed"]


def test_sanity_check_store_buffer_mutants():
    res = synthesize_optimal(load("sb_rlx"))
    report = sanity_check(res.fixed_program, res, Limits())
    assert report.passed
    mutations = sorted(o.mutation for o in report.outcomes)
    assert mutations == ["removed", "removed", "weakened to ar", "weakened to ar"]
    assert all(o.verdict == "bug-reappears" for o in report.outcomes)


def test_sanity_check_vacuous_for_already_correct():
    res = synthesize_optimal(load("coh_rr"))
    report = sanity_check(res.fixed_program, res, Limits())
    assert report.passed and report.outcomes == []


def test_sanity_check_ar_fence_tries_both_weakenings():
    res = synthesize_optimal(load("lb3"))
    report = sanity_check(res.fixed_program, res, Limits())
    assert report.passed
    ar_mutations = {
        o.mutation for o in report.outcomes if o.fence.startswith("fence(ar)")
    }
    assert ar_mutations == {"removed", "weakened to rel", "weakened to acq"}


def test_sanity_check_arms_an_unarmed_deadline():
    # A Limits nobody started bounds the check as it bounds synthesis: with
    # no time left, every mutant is inconclusive.
    res = synthesize_optimal(load("two_bugs"))
    with pytest.raises(ResourceLimitError):
        synthesize_optimal(load("two_bugs"), Limits(timeout_secs=0.0))
    report = sanity_check(res.fixed_program, res, Limits(timeout_secs=0.0))
    assert len(report.outcomes) >= 2 and not report.passed
    assert {o.verdict for o in report.outcomes} == {"inconclusive"}


@pytest.mark.parametrize(
    "call",
    [
        lambda p, limits: enumerate_consistent_traces(p, limits),
        lambda p, limits: find_buggy_traces(p, limits),
        lambda p, limits: has_buggy_trace(p, limits),
        lambda p, limits: find_weak_cycles(insert_candidate_fences(find_buggy_traces(p)[0]), limits=limits),
        lambda p, limits: find_min_model(Query(((0, (frozenset({FenceSlot("t1", 1)}),)),)), limits),
    ],
    ids=["enumerate_consistent_traces", "find_buggy_traces", "has_buggy_trace", "find_weak_cycles", "find_min_model"],
)
def test_a_deadline_runs_from_the_construction_of_its_limits(rwrw, call):
    # Nobody calls start(): an entry point that makes a fresh Limits only
    # when given none must still honour the deadline of the one it is given.
    with pytest.raises(ResourceLimitError):
        call(rwrw, Limits(timeout_secs=-1.0))
