"""Candidate fences, elementary-cycle enumeration and the weak/strong
analyses."""

import itertools
import random
import time

import pytest

from conftest import CORPUS, O, closure, corpus_text, load, make_trace, pairs, reflexive, with_fences
from oracle import brute_force_cycles
from test_differential import SCFR3, mp_pairs, mp_program, program, sb_ring
from test_litmus import random_litmus_program
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
from fencesynth.driver import sanity_check, synthesize_fast, synthesize_optimal
from fencesynth.errors import ResourceLimitError
from fencesynth.limits import Limits
from fencesynth.litmus import elaborate, parse_program
from fencesynth.model import FenceSlot, Trace
from fencesynth.relations import fence_order


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
    assert pairs(it.rf) == pairs(tr.rf) and pairs(it.mo) == pairs(tr.mo)
    for f in it.fence_events:
        assert f.obj is None and f.is_fence


def test_candidate_fences_empty_trace():
    tr = Trace([], {}, {}, {})
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
    load_ev = next(e for e in tr.events if e.thr == "t1" and e.is_read)
    store_ev = next(e for e in tr.events if e.thr == "t1" and e.is_write)
    mid = next(i for i, s in it.slot_of.items() if s == FenceSlot("t1", 1))
    assert (load_ev.id, mid) in pairs(it.sb) and (mid, store_ev.id) in pairs(it.sb)


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


def random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    return {
        v: sorted({rng.randrange(n) for _ in range(rng.randint(0, n))})
        for v in range(n)
    }


GRAPHS = {str(seed): random_graph(seed) for seed in range(20)}
GRAPHS["target_only"] = {0: [1, 3], 1: [0, 3], 2: [0]}  # 3 has no entry
GRAPHS["negative_ids"] = {-1: [2], 2: [-1, 2]}


@pytest.mark.parametrize("name", GRAPHS)
def test_cycles_match_brute_force(name):
    adj = GRAPHS[name]
    cycles = enumerate_simple_cycles(adj)
    got = [tuple(c) for c in cycles]
    assert len(set(got)) == len(got), "duplicate cycle"
    assert all(c[0] == min(c) for c in cycles)
    assert cycles == sorted(cycles)
    assert set(got) == brute_force_cycles(adj)


def test_cycle_budget_enforced():
    k6 = {v: [w for w in range(6) if w != v] for v in range(6)}
    with pytest.raises(ResourceLimitError):
        enumerate_simple_cycles(k6, limit=10)


def test_cycle_deadline_is_checked_inside_the_search():
    k4 = {v: [w for w in range(4) if w != v] for v in range(4)}
    with pytest.raises(ResourceLimitError) as err:
        enumerate_simple_cycles(k4, limits=Limits(timeout_secs=-1.0))
    assert err.value.phase == "cycle-detection"


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
    assert dict(single.orders)[FenceSlot("t1", 1)] is O.REL
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
    # Each weak solution's fences at exactly the orders it names, with every
    # program fence at its own order, recreate a violation.
    checked = 0
    for name in CORPUS:
        for tr in find_buggy_traces(load(name)):
            for sol in find_weak_cycles(insert_candidate_fences(tr)):
                mutant = with_fences(tr, dict(sol.orders))
                assert coherence_violations(mutant), (name, sol)
                checked += 1
    assert checked >= 20


def test_weak_solutions_are_not_dominated():
    # No kept weak solution needs a superset of another one's fences at
    # orders at least as strong.
    def covers(small, big):
        return all(
            slot in big and (big[slot] is o or o.weaker_than(big[slot]))
            for slot, o in small.items()
        )

    for name, tr in small_buggy_traces():
        weak = find_weak_cycles(insert_candidate_fences(tr))
        for a in weak:
            for b in weak:
                if a.orders == b.orders:
                    continue
                assert not covers(dict(a.orders), dict(b.orders)), (name, a, b)


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
    # Each strong solution's fences at sc, with every program fence at its
    # own order, leave no sc total order.
    checked = 0
    programs = {name: load(name) for name in CORPUS}
    programs["scfr3"] = elaborate(parse_program(SCFR3), 16)
    for name, p in programs.items():
        for tr in find_buggy_traces(p):
            for sol in find_strong_cycles(insert_candidate_fences(tr)):
                mutant = with_fences(tr, dict.fromkeys(sol.fences, O.SC))
                assert not exists_sc_total_order(mutant), (name, sol)
                checked += 1
    assert checked >= 30


def test_scfr3_has_two_strong_solutions():
    # Its buggy execution has t3's sc load after t2's sc store of x = 2,
    # which the strong analysis must not force the other way.
    (tr,) = find_buggy_traces(elaborate(parse_program(SCFR3), 16))
    strong = find_strong_cycles(insert_candidate_fences(tr))
    assert [slot_names(s) for s in strong] == [{"t2@1"}, {"t3@1"}]


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
                so = pairs(insert_candidate_fences(tr, slots=sset).so)
                has_cycle = reflexive(closure(so))
                assert has_cycle == any(s.fences <= sset for s in strong), (name, sset)
                cyclic += has_cycle
    assert cyclic >= 100


def test_strong_solutions_are_not_dominated():
    for name, tr in small_buggy_traces():
        strong = find_strong_cycles(insert_candidate_fences(tr))
        for i, a in enumerate(strong):
            for j, b in enumerate(strong):
                assert i == j or not a.fences <= b.fences, (name, a, b)


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


def test_strong_solution_dropped_beside_a_weak_subset_through_a_program_fence():
    # The weak {t1@1} relies on the program fence t2:2 in a role its own sc
    # order plays, so it asks nothing of t2:2 and covers the strong {t1@1},
    # which closes an hb cycle through t2:2.
    tr = find_buggy_traces(elaborate(parse_program(LB_FENCED), 16))[0]
    sols = analyze_trace(tr)
    t1 = frozenset({FenceSlot("t1", 1)})
    assert len(sols) == 2 and all(s.kind == "weak" for s in sols)
    assert any(s.fences == t1 for s in sols)
    strong = find_strong_cycles(insert_candidate_fences(tr))
    assert t1 in {s.fences for s in strong}


MP_HALF = program(
    "mp_half",
    [
        ("t1", ["store(x, 1, rlx)", "fence(rel)", "store(f, 1, rlx)"]),
        ("t2", ["a = load(f, rlx)", "b = load(x, rlx)"]),
    ],
    "!(a == 1 && b == 0)",
)


def test_a_program_fence_is_not_named_by_the_solutions_it_carries():
    # t1's release fence already orders the stores: the one solution is an
    # acquire fence between t2's loads, and fast's note names only it.
    p = elaborate(parse_program(MP_HALF), 16)
    [tr] = find_buggy_traces(p)
    sols = analyze_trace(tr)
    assert [(s.kind, s.condition, s.orders) for s in sols] == [
        ("weak", "co-mhi", ((FenceSlot("t2", 1), O.ACQ),))
    ]
    result = synthesize_fast(p)
    assert result.notes == ["pass 1: t2@1:acq"]
    assert result.strengthened == []


def test_role_masks_name_candidate_fences_only():
    # Every bit of every mask of the role closure belongs to a candidate
    # fence, also on traces whose program has fences of its own.
    with_program_fences = 0
    for name in CORPUS:
        for tr in find_buggy_traces(load(name)):
            it = insert_candidate_fences(tr)
            fences = fence_order(it)
            with_program_fences += any(not f.is_init for f in tr.fences)
            bits = 0
            for row in it.role_closure().values():
                for masks in row.values():
                    for m in masks:
                        bits |= m
            assert bits < 1 << 2 * len(fences), name
            assert all(f in it.slot_of for i, f in enumerate(fences) if bits >> 2 * i & 3), name
    assert with_program_fences >= 2


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


# ---------------------------------------------------------------------------
# The canonical order of solution lists, over many programs


def padded_pairs(m):
    # m independent store-buffering pairs, one private store between each
    # thread's store and its load.
    threads, bugs = [], []
    for i in range(m):
        x, y, a, b = "x%d" % i, "y%d" % i, "a%d" % i, "b%d" % i
        for tid, mine, pad, reg, other in (("s", x, "p", a, y), ("u", y, "q", b, x)):
            body = ["store(%s, 1, rlx)" % mine, "store(%s%d, 1, rlx)" % (pad, i)]
            threads.append(("%s%d" % (tid, i), body + ["%s = load(%s, rlx)" % (reg, other)]))
        bugs.append("(%s == 0 && %s == 0)" % (a, b))
    return program("padded_pairs_%d" % m, threads, "!(%s)" % " || ".join(bugs))


# The mp pair is the bug; the store-buffering pair beside it is not in the
# assertion, but its execution that reads 0 twice has an sc-order cycle.
MP_BESIDE_SB = program(
    "mp_beside_sb",
    [
        ("w", ["store(d, 1, rlx)", "store(f, 1, rlx)"]),
        ("r", ["a = load(f, rlx)", "b = load(d, rlx)"]),
        ("s0", ["store(x, 1, rlx)", "c = load(y, rlx)"]),
        ("s1", ["store(y, 1, rlx)", "e = load(x, rlx)"]),
    ],
    "!(a == 1 && b == 0)",
)

# Components whose threads interleave, so that event ids and fence masks
# order their solutions differently: an sb ring of three on t0, t1, t3
# beside an sb pair on t2, t4, and two mp pairs, writers first.
RING_BESIDE_PAIR = program(
    "ring_beside_pair",
    [
        ("t0", ["store(x0, 1, rlx)", "a = load(x1, rlx)"]),
        ("t1", ["store(x1, 1, rlx)", "b = load(x2, rlx)"]),
        ("t2", ["store(y0, 1, rlx)", "c = load(y1, rlx)"]),
        ("t3", ["store(x2, 1, rlx)", "d = load(x0, rlx)"]),
        ("t4", ["store(y1, 1, rlx)", "e = load(y0, rlx)"]),
    ],
    "!((a == 0 && b == 0 && d == 0) || (c == 0 && e == 0))",
)
CROSSED_MP = program(
    "crossed_mp",
    [
        ("w0", ["store(a_d, 1, rlx)", "store(a_f, 1, rlx)"]),
        ("w1", ["store(b_d, 1, rlx)", "store(b_f, 1, rlx)"]),
        ("r1", ["c = load(b_f, rlx)", "d = load(b_d, rlx)"]),
        ("r0", ["a = load(a_f, rlx)", "b = load(a_d, rlx)"]),
    ],
    "!((a == 1 && b == 0) || (c == 1 && d == 0))",
)

# Weak solutions of two conditions, the later one on the lower ids.
MP_BESIDE_LB = program(
    "mp_beside_lb",
    [
        ("w", ["store(a_d, 1, rlx)", "store(a_f, 1, rlx)"]),
        ("r", ["a = load(a_f, rlx)", "b = load(a_d, rlx)"]),
        ("l0", ["c = load(b_x, rlx)", "store(b_y, 1, rlx)"]),
        ("l1", ["d = load(b_y, rlx)", "store(b_x, 1, rlx)"]),
    ],
    "!((a == 1 && b == 0) || (c == 1 && d == 1))",
)
# One cycle with three minimal masks: t1's fence after its load as ar,
# before its last store as ar, or one of each as acq and rel.
WRC_RELAY = program(
    "wrc_relay",
    [
        ("t0", ["store(x, 1, rlx)", "store(z, 1, rlx)"]),
        ("t1", ["a = load(z, rlx)", "store(p, 1, rlx)", "store(y, 1, rlx)"]),
        ("t2", ["b = load(y, rlx)", "c = load(x, rlx)"]),
    ],
    "!(a == 1 && b == 1 && c == 0)",
)


def beside_a_lone_thread(text):
    # The same program with a first thread that stores to an object of its
    # own: every trace then has at least two independent thread groups.
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("init "))
    lines[at] += ", zz = 0"
    lines[at + 1 : at + 1] = ["thread lone {", "  store(zz, 1, rlx)", "}"]
    return "\n".join(lines) + "\n"


ANALYSIS_PROGRAMS = {
    **{name: load(name) for name in CORPUS},
    **{name + "_beside_lone": beside_a_lone_thread(corpus_text(name)) for name in CORPUS},
    "ring_beside_pair": RING_BESIDE_PAIR,
    "crossed_mp": CROSSED_MP,
    "mp_beside_lb": MP_BESIDE_LB,
    "wrc_relay_beside_lone": beside_a_lone_thread(WRC_RELAY),
    **{"sb_ring_%d" % n: sb_ring(n) for n in range(2, 7)},
    **{"mp_poll_%d" % k: mp_program("mp_poll_%d" % k, polls=k) for k in range(1, 6)},
    **{"mp_stores_%d" % k: mp_program("mp_stores_%d" % k, k_stores=k) for k in range(1, 6)},
    **{"mp_pairs_%d" % m: mp_pairs(m) for m in range(1, 6)},
    **{"padded_pairs_%d" % m: padded_pairs(m) for m in range(1, 4)},
    **{"random_%d" % seed: random_litmus_program(seed) for seed in range(150)},
    "mp_beside_sb": MP_BESIDE_SB,
    "scfr3": SCFR3,
}


# The documented canonical order of a solution list: condition (the six
# weak ones in the order of their compositions, then the strong one), then
# fences, then orders.
CONDITIONS = ("co-h", "co-rh", "co-mh", "co-mrh", "co-mhi", "co-mrhi", "to-sc")


def canonical_key(sol):
    return (
        CONDITIONS.index(sol.condition),
        sorted(sol.fences),
        [o.value for _, o in sol.orders],
    )


@pytest.fixture(scope="module")
def program_traces():
    out = {}
    for name, p in ANALYSIS_PROGRAMS.items():
        if isinstance(p, str):
            p = elaborate(parse_program(p), 16)
        out[name] = find_buggy_traces(p)
    return out


def test_every_solution_list_is_in_canonical_order(program_traces):
    lists = []
    for name, traces in program_traces.items():
        lists += [((name, i), analyze_trace(tr, i)) for i, tr in enumerate(traces)]
    for name in CORPUS:
        for i, tr in enumerate(program_traces[name]):
            it = insert_candidate_fences(tr)
            lists += [((name, i), find_weak_cycles(it, i)), ((name, i), find_strong_cycles(it, i))]
    for where, sols in lists:
        assert sols == sorted(sols, key=canonical_key), where
    assert sum(len(sols) > 1 for _, sols in lists) >= 500


def test_strong_closure_drops_exactly_the_covered_solutions(program_traces):
    # Given the weak solutions, the strong closure drops each mask that
    # holds one's fences; what it returns is the full strong list with each
    # solution some weak one covers filtered out afterwards.
    from test_differential import FAMILIES

    traces = [(name, i, tr) for name, trs in program_traces.items() for i, tr in enumerate(trs)]
    for name, text in FAMILIES.items():
        traces += [(name, i, tr) for i, tr in enumerate(find_buggy_traces(elaborate(parse_program(text), 16)))]
    dropped = kept = 0
    for name, i, tr in traces:
        it = insert_candidate_fences(tr)
        weak, strong = find_weak_cycles(it, i), find_strong_cycles(it, i)
        uncovered = [s for s in strong if not any(w.fences <= s.fences for w in weak)]
        assert analyze_trace(tr, i) == weak + uncovered, (name, i)
        dropped, kept = dropped + len(strong) - len(uncovered), kept + len(uncovered)
    # Neither outcome is vacuous over the programs.
    assert dropped > 100 and kept > 100


def test_memoized_analysis_honors_an_expired_deadline():
    tr = find_buggy_traces(elaborate(parse_program(mp_pairs(2)), 16))[0]
    with pytest.raises(ResourceLimitError) as exc:
        analyze_trace(tr, 0, Limits(timeout_secs=-1.0).start())
    assert exc.value.phase == "cycle-detection"
