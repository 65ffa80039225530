"""Query construction, minimum models, and memory-order assignment."""

import itertools
import random

import pytest

from conftest import load, O
from test_differential import mp_pairs
from fencesynth.cycles import CandidateSolution
from fencesynth.driver import synthesize_optimal
from fencesynth.enumerator import find_buggy_traces
from fencesynth.litmus import elaborate, parse_program
from fencesynth.cycles import analyze_trace
from fencesynth.model import FenceSlot
from fencesynth.optimize import (
    TypedSolution,
    assign_memory_orders,
    build_query,
    find_min_model,
)

F1, F2, F3, F4 = (FenceSlot("t", i) for i in range(1, 5))


def sol(trace_id, orders, kind="weak"):
    return CandidateSolution(
        kind=kind,
        condition="to-sc" if kind == "strong" else "co-rh",
        trace_id=trace_id,
        fences=frozenset(orders),
        orders=tuple(sorted(orders.items())),
    )


# ---------------------------------------------------------------------------
# build_query


def test_query_rwrw(rwrw):
    tr = find_buggy_traces(rwrw)[0]
    sols = analyze_trace(tr)
    fence_sets = {s.fences for s in sols}
    pair = {FenceSlot("t1", 1): O.AR, FenceSlot("t2", 1): O.AR}
    assert frozenset({FenceSlot("t1", 1)}) in fence_sets
    # The analysis drops the dominated pair itself; the query prunes it too.
    assert frozenset(pair) not in fence_sets
    q = build_query([sols + [sol(0, pair)]])
    # Dominated conjunctions are pruned; the two singletons remain.
    assert q.clauses[0][1] == (
        frozenset({FenceSlot("t1", 1)}),
        frozenset({FenceSlot("t2", 1)}),
    )


def test_query_single_cycle():
    q = build_query([[sol(0, {F1: O.REL})]])
    assert q.clauses == ((0, (frozenset({F1}),)),)


def test_query_three_fence_pair():
    q = build_query(
        [
            [sol(0, {F1: O.AR, F2: O.AR}), sol(0, {F1: O.REL, F3: O.ACQ, F4: O.ACQ})],
            [sol(1, {F3: O.REL, F4: O.ACQ})],
        ]
    )
    assert q.clauses[0][1] == (frozenset({F1, F2}), frozenset({F1, F3, F4}))
    assert q.clauses[1][1] == (frozenset({F3, F4}),)


def test_query_renders_conjunctions():
    q = build_query([[sol(0, {F1: O.REL, F2: O.ACQ})]])
    assert q.render() == "trace 0: (t@1 ∧ t@2)\n"


# ---------------------------------------------------------------------------
# find_min_model


def test_min_model_rwrw(rwrw):
    tr = find_buggy_traces(rwrw)[0]
    q = build_query([analyze_trace(tr)])
    assert find_min_model(q) == frozenset({FenceSlot("t1", 1)})


def test_min_model_three_fence_conjunction():
    q = build_query(
        [
            [sol(0, {F1: O.AR, F2: O.AR}), sol(0, {F1: O.REL, F3: O.ACQ, F4: O.ACQ})],
            [sol(1, {F3: O.REL, F4: O.ACQ})],
        ]
    )
    assert find_min_model(q) == frozenset({F1, F3, F4})


def test_min_model_staged_solve_is_larger():
    # Solving the two traces separately yields 2 + 2 slots where the
    # global conjunction needs only 3.
    q1 = build_query([[sol(0, {F1: O.AR, F2: O.AR}), sol(0, {F1: O.REL, F3: O.ACQ, F4: O.ACQ})]])
    q2 = build_query([[sol(1, {F3: O.REL, F4: O.ACQ})]])
    staged = find_min_model(q1) | find_min_model(q2)
    assert staged == frozenset({F1, F2, F3, F4})


def test_min_model_idempotent_clause():
    q = build_query([[sol(0, {F1: O.REL})], [sol(1, {F1: O.REL})]])
    assert find_min_model(q) == frozenset({F1})


def test_min_model_tie_breaks_lexicographically():
    a, b = FenceSlot("t1", 0), FenceSlot("t2", 0)
    q = build_query([[sol(0, {a: O.REL}), sol(0, {b: O.REL})]])
    assert find_min_model(q) == frozenset({a})


@pytest.mark.parametrize("seed", range(60))
def test_min_model_minimality_random(seed):
    rng = random.Random(seed)
    slots = [FenceSlot("t", i) for i in range(rng.randint(1, 10))]
    clauses = []
    for tid in range(rng.randint(1, 5)):
        conjs = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, min(4, len(slots)))
            conjs.append(sol(tid, {s: O.REL for s in rng.sample(slots, size)}))
        clauses.append(conjs)
    q = build_query(clauses)
    model = find_min_model(q)
    assert q.satisfied_by(model)
    # Exhaustive check: nothing smaller satisfies.
    universe = q.slots
    for k in range(len(model)):
        for combo in itertools.combinations(universe, k):
            assert not q.satisfied_by(frozenset(combo))


# ---------------------------------------------------------------------------
# assign_memory_orders


def test_assign_orders_three_fence_chain():
    # A cycle threading one release fence, one fence that both acquires
    # and releases, and one acquire fence weighs 1 + 2 + 1 = 4.
    chain = sol(0, {F1: O.REL, F2: O.AR, F3: O.ACQ})
    ts = assign_memory_orders(frozenset({F1, F2, F3}), [[chain]])
    assert ts.assignment_map == {F1: O.REL, F2: O.AR, F3: O.ACQ}
    assert ts.weight == 4


def test_assign_orders_coalescing_picks_lighter_combination():
    # Trace 1 offers {F1:ar, F2:ar} (weight 4) and {F1:rel, F2:acq, F3:ar}
    # (weight 4); trace 2 requires {F1:rel, F2:acq, F3:acq} (weight 3).
    # Coalescing the first choice gives ar/ar/acq = 5; the second gives
    # rel/acq/ar = 4 and must win.
    t1c1 = sol(0, {F1: O.AR, F2: O.AR})
    t1c2 = sol(0, {F1: O.REL, F2: O.ACQ, F3: O.AR})
    t2c1 = sol(1, {F1: O.REL, F2: O.ACQ, F3: O.ACQ})
    model = frozenset({F1, F2, F3})
    ts = assign_memory_orders(model, [[t1c1, t1c2], [t2c1]])
    assert ts.assignment_map == {F1: O.REL, F2: O.ACQ, F3: O.AR}
    assert ts.weight == 4
    assert ts.orders_exact


def test_assign_orders_strong_cycle_all_sc():
    strong = sol(0, {F1: O.SC, F2: O.SC}, kind="strong")
    ts = assign_memory_orders(frozenset({F1, F2}), [[strong]])
    assert ts.assignment_map == {F1: O.SC, F2: O.SC}
    assert ts.weight == 6


def test_assign_orders_exhaustive_matches_cartesian():
    # The returned coalition has minimum weight over the full product.
    rng = random.Random(7)
    orders = [O.REL, O.ACQ, O.AR, O.SC]
    per_trace = []
    slots = [F1, F2, F3]
    for tid in range(3):
        per_trace.append(
            [sol(tid, {s: rng.choice(orders) for s in slots}) for _ in range(3)]
        )
    model = frozenset(slots)
    ts = assign_memory_orders(model, per_trace)
    from fencesynth.orders import lub

    best = None
    for choice in itertools.product(*per_trace):
        merged = {}
        for s in choice:
            for slot, o in s.orders:
                merged[slot] = lub(merged.get(slot), o)
        w = sum(o.weight for o in merged.values())
        best = w if best is None else min(best, w)
    assert ts.weight == best


def test_assign_orders_exact_over_large_product():
    # 2 * 2**15 = 65,536 combinations.  Picking F1:rel for trace 0, the
    # lighter choice on its own, forces F1:ar once trace 1 is folded in
    # (weight 3); the exact answer takes F1:acq for both (weight 2).
    per_trace = [[sol(0, {F1: O.REL}), sol(0, {F1: O.ACQ})], [sol(1, {F1: O.ACQ})]]
    per_trace += [[sol(t, {F2: O.REL}), sol(t, {F2: O.ACQ})] for t in range(2, 17)]
    ts = assign_memory_orders(frozenset({F1, F2}), per_trace)
    assert ts.assignment_map == {F1: O.ACQ, F2: O.REL}
    assert ts.weight == 2


@pytest.mark.parametrize("seed", range(40))
def test_greedy_coalescing_matches_full_recoalescing(seed):
    # The fold over distinct running lubs returns the least key over the
    # whole product of the traces' in-model choices, coalesced anew.
    from fencesynth.errors import InternalCheckError
    from fencesynth.model import SourceLocation
    from fencesynth.optimize import _coalesce, _selection_key

    rng = random.Random(seed)
    slots = [F1, F2, F3, F4]
    locs = [SourceLocation("t", 7), SourceLocation("u", 2)]
    orders = (O.REL, O.ACQ, O.AR, O.SC)
    per_trace = []
    for t in range(rng.randint(3, 9)):
        sols = []
        for _ in range(rng.randint(1, 4)):
            fences = rng.sample(slots, rng.randint(1, 3))
            prog = rng.sample(locs, rng.randint(0, 2))
            sols.append(CandidateSolution(
                kind="weak", condition="co-rh", trace_id=t,
                fences=frozenset(fences),
                orders=tuple(sorted((f, rng.choice(orders)) for f in fences)),
                program_fences=tuple(sorted((l, rng.choice(orders[:3])) for l in prog)),
            ))
        per_trace.append(sols)
    model = frozenset(f for sols in per_trace for s in sols for f in s.fences)

    in_model = [[s for s in sols if s.fences <= model] for sols in per_trace]
    slot_ord, prog_ord, _ = min(
        (_coalesce(choice) for choice in itertools.product(*in_model)),
        key=lambda c: _selection_key(*c),
    )

    if set(slot_ord) != model:
        with pytest.raises(InternalCheckError):
            assign_memory_orders(model, per_trace)
        return
    ts = assign_memory_orders(model, per_trace)
    assert ts.assignment == tuple(sorted(slot_ord.items()))
    assert ts.strengthened == tuple(sorted(prog_ord.items()))


def test_opt_orders_on_mp_pairs_4_are_exact():
    # The in-model choices of the 175 buggy traces multiply to about 4e22;
    # the fold is exact all the same, so the report flags nothing.
    result = synthesize_optimal(elaborate(parse_program(mp_pairs(4)), 16))
    assert result.status == "fixed"
    assert len(result.synthesized) == 8 and result.weight == 8
    assert "note:" not in result.render()


def test_solution_weight_examples():
    assert TypedSolution(assignment=((F1, O.REL), (F2, O.ACQ))).weight == 2
    assert TypedSolution(assignment=()).weight == 0
    assert TypedSolution(assignment=((F1, O.SC), (F2, O.SC))).weight == 6


def test_end_to_end_weight_and_orders_lb3():
    # The three-thread ring needs one fence per thread; the weakest sound
    # assignment is release / both / acquire.
    res = synthesize_optimal(load("lb3"))
    assert res.status == "fixed"
    got = {str(f.slot): f.order for f in res.synthesized}
    assert got == {"t1@1": O.REL, "t2@1": O.AR, "t3@1": O.ACQ}
    assert res.weight == 4
