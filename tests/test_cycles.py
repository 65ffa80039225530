"""Candidate fences, elementary-cycle enumeration, weak/strong analyses."""

import itertools
import random
import time

import pytest

from conftest import CORPUS, load, make_trace, with_fences, O
from oracle import brute_force_cycles
from fencesynth.cycles import (
    analyze_trace,
    candidate_slots,
    enumerate_simple_cycles,
    find_strong_cycles,
    find_weak_cycles,
    insert_candidate_fences,
)
from fencesynth.enumerator import (
    coherence_violations,
    enumerate_consistent_traces,
    exists_sc_total_order,
    find_buggy_traces,
)
from fencesynth.driver import sanity_check, synthesize_optimal
from fencesynth.errors import ResourceLimitError
from fencesynth.limits import Limits
from fencesynth.litmus import elaborate, parse_program
from fencesynth.model import FenceSlot, Trace


def slot_names(sol):
    return {str(s) for s in sol.fences}


# ---------------------------------------------------------------------------
# insert_candidate_fences


def test_candidate_fences_rwrw(rwrw):
    tr = find_buggy_traces(rwrw)[0]
    it = insert_candidate_fences(tr)
    assert sorted(str(s) for s in it.slots) == [
        "t1@0", "t1@1", "t1@2", "t2@0", "t2@1", "t2@2",
    ]
    # Fences extend sb but never rf or mo.
    assert it.rf == tr.rf and it.mo == tr.mo
    for f in it.fence_events:
        assert f.obj is None and f.is_fence


def test_candidate_fences_empty_trace():
    from fencesynth.model import Relation

    tr = Trace([], Relation(), Relation(), Relation())
    assert insert_candidate_fences(tr).slots == ()


def test_candidate_fences_single_event_thread():
    tr, _ = make_trace(
        init={"x": 0},
        threads={"t1": [("w", "write", "x", O.RLX, None, 1)]},
        rf=[],
        mo_tail={"x": ["w"]},
    )
    it = insert_candidate_fences(tr)
    assert sorted(str(s) for s in it.slots) == ["t1@0", "t1@1"]


def test_candidate_fences_sit_between_their_neighbors(rwrw):
    tr = find_buggy_traces(rwrw)[0]
    it = insert_candidate_fences(tr)
    load_ev = next(e for e in it.base.events if e.thr == "t1" and e.is_read)
    store_ev = next(e for e in it.base.events if e.thr == "t1" and e.is_write)
    mid = next(i for i, s in it.slot_of.items() if s == FenceSlot("t1", 1))
    assert (load_ev.id, mid) in it.sb.pairs and (mid, store_ev.id) in it.sb.pairs


def test_candidate_fences_around_branches():
    # The gap after a branch's last event resolves to the continuation.
    p = load("mp_branch")
    buggy = find_buggy_traces(p)
    assert buggy, "a == 1 with stale data must be reachable"
    tr = buggy[0]
    it = insert_candidate_fences(tr)
    names = {str(s) for s in it.slots}
    assert "t2@2" in names  # before the then-branch load
    assert "t2@4" in names  # end of thread (continuation past the branch)


# ---------------------------------------------------------------------------
# enumerate_simple_cycles


def test_two_cycle():
    assert enumerate_simple_cycles({1: [2], 2: [1]}) == [[1, 2]]


def test_dag_has_no_cycles():
    assert enumerate_simple_cycles({1: [2, 3], 2: [3], 3: []}) == []


def test_self_loop():
    assert enumerate_simple_cycles({1: [1, 2], 2: []}) == [[1]]


def test_k4_has_twenty_cycles():
    k4 = {v: [w for w in range(4) if w != v] for v in range(4)}
    cycles = enumerate_simple_cycles(k4)
    assert len(cycles) == 20
    assert len(brute_force_cycles(k4)) == 20


@pytest.mark.parametrize("seed", range(20))
def test_cycles_match_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    adj = {
        v: sorted({rng.randrange(n) for _ in range(rng.randint(0, n))})
        for v in range(n)
    }
    got = {tuple(c) for c in enumerate_simple_cycles(adj)}
    assert got == brute_force_cycles(adj)


def test_cycle_budget_enforced():
    k6 = {v: [w for w in range(6) if w != v] for v in range(6)}
    with pytest.raises(ResourceLimitError):
        enumerate_simple_cycles(k6, limit=10)


# ---------------------------------------------------------------------------
# Weak analysis


def test_weak_cycles_rwrw(rwrw):
    tr = find_buggy_traces(rwrw)[0]
    weak = find_weak_cycles(insert_candidate_fences(tr))
    sets = {frozenset(slot_names(s)) for s in weak}
    # Either release fence alone closes rf;hb; every solution that adds the
    # other thread's fence is dominated and dropped.
    assert sets == {frozenset({"t1@1"}), frozenset({"t2@1"})}
    single = next(s for s in weak if slot_names(s) == {"t1@1"})
    assert single.orders_map[FenceSlot("t1", 1)] is O.REL
    assert single.condition in ("co-rh", "co-h")
    assert all(s.kind == "weak" for s in weak)


def test_weak_cycle_wrir_is_co_mrhi():
    # One relaxed write read by a forwarding thread whose second write is
    # seen with the first one's effect missing: the cycle spells
    # mo;rf;hb;rf-inverse.
    tr = find_buggy_traces(load("wrir"))[0]
    sols = find_weak_cycles(insert_candidate_fences(tr))
    mrhi = [s for s in sols if s.condition == "co-mrhi"]
    assert mrhi
    assert {frozenset(slot_names(s)) for s in mrhi} >= {frozenset({"t2@1", "t3@1"})}


def test_consistent_trace_yields_no_cycles():
    # The 1/1 store-buffer outcome is sequentially consistent; candidate
    # fences cannot create any coherence or sc-order cycle.
    traces = enumerate_consistent_traces(load("sb_rlx"))
    good = next(
        t
        for t in traces
        if all(env.get("a", env.get("b")) == 1 for env in t.final_locals.values())
    )
    it = insert_candidate_fences(good)
    assert find_weak_cycles(it) == []
    assert find_strong_cycles(it) == []


def test_weak_solutions_are_sound(rwrw):
    # Instantiating any weak solution's fences at ar recreates a violation.
    tr = find_buggy_traces(rwrw)[0]
    for sol in find_weak_cycles(insert_candidate_fences(tr)):
        mutant = with_fences(tr, {s: O.AR for s in sol.fences})
        assert coherence_violations(mutant), sol


def small_buggy_traces():
    """Every corpus buggy trace with at most 8 candidate slots."""
    out = []
    for name in CORPUS:
        for k, tr in enumerate(find_buggy_traces(load(name))):
            if len(candidate_slots(tr)) <= 8:
                out.append(("%s#%d" % (name, k), tr))
    return out


def test_weak_completeness_matches_brute_force():
    # For every subset of candidate fences: inserting the subset at ar
    # violates coherence, or at sc kills the sc order, iff some detected
    # solution's fences lie within the subset.
    traces = small_buggy_traces()
    assert len(traces) >= 20
    for name, tr in traces:
        it = insert_candidate_fences(tr)
        sols = analyze_trace(tr)
        covered = [frozenset(s.fences) for s in sols]
        slots = list(it.slots)
        for k in range(len(slots) + 1):
            for subset in itertools.combinations(slots, k):
                sset = frozenset(subset)
                weak_violation = bool(
                    coherence_violations(with_fences(tr, {s: O.AR for s in sset}))
                )
                strong_violation = not exists_sc_total_order(
                    with_fences(tr, {s: O.SC for s in sset})
                )
                detected = any(f <= sset for f in covered)
                assert (weak_violation or strong_violation) == detected, (name, sset)


def test_weak_solutions_are_sound_at_their_own_orders():
    # Each weak solution's fences at exactly the orders it names, with the
    # program fences it relies on strengthened, recreate a violation.
    checked = 0
    for name in CORPUS:
        for tr in find_buggy_traces(load(name)):
            for sol in find_weak_cycles(insert_candidate_fences(tr)):
                mutant = with_fences(tr, sol.orders_map, strengthen=dict(sol.program_fences))
                assert coherence_violations(mutant), (name, sol)
                checked += 1
    assert checked >= 20


def test_weak_solutions_are_not_dominated():
    # No kept weak solution needs a superset of another one's fences at
    # orders at least as strong, with at least its program fences.
    def covers(small, big):
        return all(
            slot in big and (big[slot] is o or o.weaker_than(big[slot]))
            for slot, o in small.items()
        )

    for name, tr in small_buggy_traces():
        weak = find_weak_cycles(insert_candidate_fences(tr))
        for a in weak:
            for b in weak:
                if (a.orders, a.program_fences) == (b.orders, b.program_fences):
                    continue
                assert not (
                    covers(a.orders_map, b.orders_map)
                    and covers(dict(a.program_fences), dict(b.program_fences))
                ), (name, a, b)


def test_weak_analysis_honors_an_expired_deadline(rwrw):
    it = insert_candidate_fences(find_buggy_traces(rwrw)[0])
    with pytest.raises(ResourceLimitError) as exc:
        find_weak_cycles(it, limits=Limits(timeout_secs=-1.0).start())
    assert exc.value.phase == "cycle-detection"


def test_unrolled_poll_of_six_is_fixed_quickly():
    # Simple-cycle enumeration exceeded its budget of 200,000 cycles on this
    # program's worst trace; the role-mask closure solves it with one rel
    # and one acq fence.
    source = """program mp_poll_6
init d = 0, f = 0
thread w {
  store(d, 1, rlx)
  store(f, 1, rlx)
}
thread r {
  repeat 6 {
    a = load(f, rlx)
  }
  b = load(d, rlx)
}
assert !(a == 1 && b != 1)
"""
    start = time.perf_counter()
    result = synthesize_optimal(elaborate(parse_program(source), 16))
    report = sanity_check(result.fixed_program, result)
    elapsed = time.perf_counter() - start
    assert result.status == "fixed"
    assert (len(result.synthesized), result.weight) == (2, 2)
    assert report.passed
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Strong analysis


def test_strong_cycles_sb(rwrw):
    tr = find_buggy_traces(load("sb_rlx"))[0]
    strong = find_strong_cycles(insert_candidate_fences(tr))
    assert {frozenset(slot_names(s)) for s in strong} == {frozenset({"t1@1", "t2@1"})}
    sol = strong[0]
    assert sol.kind == "strong" and sol.condition == "to-sc"
    assert all(o is O.SC for _, o in sol.orders)


def test_strong_cycles_rwrw(rwrw):
    tr = find_buggy_traces(rwrw)[0]
    strong = find_strong_cycles(insert_candidate_fences(tr))
    assert frozenset({"t1@1", "t2@1"}) in {frozenset(slot_names(s)) for s in strong}


def test_strong_solutions_are_sound():
    # Each strong solution's fences at sc, with the program fences it
    # relies on at sc, leave no sc total order.
    checked = 0
    for name in CORPUS:
        for tr in find_buggy_traces(load(name)):
            for sol in find_strong_cycles(insert_candidate_fences(tr)):
                mutant = with_fences(
                    tr, dict.fromkeys(sol.fences, O.SC), strengthen=dict(sol.program_fences)
                )
                assert not exists_sc_total_order(mutant), (name, sol)
                checked += 1
    assert checked >= 30


def test_strong_solutions_match_so_cycles_on_every_slot_subset():
    # For every subset S of candidate slots, the forced sc order of the
    # trace with S's candidates is cyclic iff some strong solution's fences
    # lie within S.
    cyclic = 0
    for name, tr in small_buggy_traces():
        strong = find_strong_cycles(insert_candidate_fences(tr))
        slots = candidate_slots(tr)
        for k in range(len(slots) + 1):
            for subset in itertools.combinations(slots, k):
                sset = frozenset(subset)
                so = insert_candidate_fences(tr, slots=sset).so
                has_cycle = so.transitive_closure().is_reflexive()
                assert has_cycle == any(s.fences <= sset for s in strong), (name, sset)
                cyclic += has_cycle
    assert cyclic >= 100


def test_strong_solutions_are_not_dominated():
    for name, tr in small_buggy_traces():
        strong = find_strong_cycles(insert_candidate_fences(tr))
        needs = [(s.fences, {loc for loc, _ in s.program_fences}) for s in strong]
        for i, (fa, pa) in enumerate(needs):
            for j, (fb, pb) in enumerate(needs):
                assert i == j or not (fa <= fb and pa <= pb), (name, strong[i], strong[j])


def test_strong_analysis_honors_an_expired_deadline():
    tr = find_buggy_traces(load("sb_rlx"))[0]
    for precomputed in (False, True):
        it = insert_candidate_fences(tr)
        if precomputed:
            it.role_closure()  # only the closure of the sc order is left to run
        with pytest.raises(ResourceLimitError) as exc:
            find_strong_cycles(it, limits=Limits(timeout_secs=-1.0).start())
        assert exc.value.phase == "cycle-detection"


LB_FENCED = """program lb_fenced
init x = 0, y = 0
thread t1 {
  a = load(x, rlx)
  store(y, 1, rlx)
}
thread t2 {
  fence(sc)
  b = load(y, rlx)
  fence(sc)
  store(x, 1, rlx)
}
assert !(a == 1 && b == 1)
"""


def test_strong_solution_kept_beside_a_weak_subset_needing_a_program_fence():
    # The weak solutions {t1@1} rely on the program fence t2:2 in a role;
    # the strong {t1@1} closes an hb cycle through t2:2 and needs no program
    # fence as an sc-order vertex, so no weak solution covers it.
    tr = find_buggy_traces(elaborate(parse_program(LB_FENCED), 16))[0]
    sols = analyze_trace(tr)
    t1 = frozenset({FenceSlot("t1", 1)})
    weak = [s for s in sols if s.kind == "weak" and s.fences == t1]
    strong = [s for s in sols if s.kind == "strong" and s.fences == t1]
    assert weak and all(s.program_fences for s in weak)
    assert [s.program_fences for s in strong] == [()]


def test_no_cycles_for_unfixable_traces():
    for prog in ("iriw_rlx", "r_nofix", "fadd_nofix"):
        p = load(prog)
        assert any(analyze_trace(tr) == [] for tr in find_buggy_traces(p)), prog


def test_strong_duplicate_of_weak_is_dropped():
    tr = find_buggy_traces(load("lb3"))[0]
    sols = analyze_trace(tr)
    weak_sets = {s.fences for s in sols if s.kind == "weak"}
    strong_sets = {s.fences for s in sols if s.kind == "strong"}
    assert not (weak_sets & strong_sets)
