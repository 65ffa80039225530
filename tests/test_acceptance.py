"""Acceptance criteria, one test per criterion.

Each test prints one PASS line (via capsys.disabled, so it is always
visible); a failing criterion fails its test.  Stated runtime bounds are
asserted with a monotonic clock.
"""

import itertools
import random
import time

import pytest

from conftest import CORPUS, CORPUS_DIR, EXPECT_STATUS, load
from oracle import oracle_traces, trace_signature
from fencesynth.cli import main as cli_main
from fencesynth.cycles import CandidateSolution
from fencesynth.driver import sanity_check, synthesize_fast, synthesize_optimal
from fencesynth.enumerator import enumerate_consistent_traces, find_buggy_traces
from fencesynth.limits import Limits
from fencesynth.litmus import Fence, FetchAdd, If, Repeat
from fencesynth.model import FenceSlot
from fencesynth.optimize import assign_memory_orders, build_query, find_min_model
from fencesynth.orders import MemoryOrder as O


@pytest.fixture
def announce(capsys):
    def _announce(num, desc):
        with capsys.disabled():
            print("ACCEPTANCE %2d PASS - %s" % (num, desc))

    return _announce


def timed(bound_secs, fn):
    t0 = time.monotonic()
    out = fn()
    elapsed = time.monotonic() - t0
    assert elapsed < bound_secs, "took %.2fs, bound %.2fs" % (elapsed, bound_secs)
    return out


def test_criterion_01_rwrw_worked_example(announce, capsys):
    def run():
        code = cli_main([str(CORPUS_DIR / "rwrw.lit"), "--mode", "opt"])
        out = capsys.readouterr().out
        return code, out

    code, out = timed(5.0, run)
    assert code == 0
    assert "status: fixed" in out
    res = synthesize_optimal(load("rwrw"))
    assert len(res.synthesized) == 1
    fence = res.synthesized[0]
    assert fence.order is O.REL
    assert res.weight == 1
    # The gap between the load and the store of one thread (symmetric).
    assert (fence.slot.thread, fence.slot.gap) in (("t1", 1), ("t2", 1))
    announce(1, "read/write-race example: one release fence, weight 1")


def test_criterion_02_store_buffer(announce):
    def run():
        res = synthesize_optimal(load("sb_rlx"))
        report = sanity_check(res.fixed_program, res, Limits())
        return res, report

    res, report = timed(10.0, run)
    assert res.status == "fixed"
    assert len(res.synthesized) == 2
    assert all(f.order is O.SC for f in res.synthesized)
    assert res.weight == 6
    assert report.passed
    assert all(o.verdict == "bug-reappears" for o in report.outcomes)
    announce(2, "store buffer: two sc fences, weight 6, sanity-checked")


def test_criterion_03_wrir(announce):
    def run():
        return synthesize_optimal(load("wrir"))

    res = timed(10.0, run)
    assert res.status == "fixed"
    assert len(res.synthesized) == 2
    conditions = {
        s.condition for sols in res.solutions_by_trace for s in sols if s.kind == "weak"
    }
    assert "co-mrhi" in conditions
    announce(3, "write/read forwarding: two fences via an mo;rf;hb;rf-inv cycle")


def test_criterion_04_iriw_no_fix(announce, capsys):
    def run():
        code = cli_main([str(CORPUS_DIR / "iriw_rlx.lit")])
        out = capsys.readouterr().out
        return code, out

    code, out = timed(30.0, run)
    assert code == 1
    assert "status: no-fix" in out
    assert "trace 0" in out  # names the unfixable trace
    res = synthesize_optimal(load("iriw_rlx"))
    assert res.status == "no-fix"
    assert res.solutions_by_trace[res.no_fix_trace] == []
    announce(4, "independent-readers example: no fix, exit code 1")


def _sol(trace_id, orders, kind="weak"):
    return CandidateSolution(
        kind=kind,
        condition="to-sc" if kind == "strong" else "co-rh",
        trace_id=trace_id,
        fences=frozenset(orders),
        orders=tuple(sorted(orders.items())),
    )


def test_criterion_05_order_assignment_vectors(announce):
    F1, F2, F3 = (FenceSlot("t", i) for i in range(1, 4))
    # (a) A cycle threading fences as releaser, relay, acquirer.
    ts = assign_memory_orders(
        frozenset({F1, F2, F3}), [[_sol(0, {F1: O.REL, F2: O.AR, F3: O.ACQ})]]
    )
    assert dict(ts.assignment) == {F1: O.REL, F2: O.AR, F3: O.ACQ}
    assert ts.weight == 4
    # The same shape arises end to end on the three-thread ring.
    res = synthesize_optimal(load("lb3"))
    assert {str(f.slot): f.order for f in res.synthesized} == {
        "t1@1": O.REL,
        "t2@1": O.AR,
        "t3@1": O.ACQ,
    }
    assert res.weight == 4
    # (b) Cross-trace coalescing selects the weight-4 combination.
    t1c1 = _sol(0, {F1: O.AR, F2: O.AR})
    t1c2 = _sol(0, {F1: O.REL, F2: O.ACQ, F3: O.AR})
    t2c1 = _sol(1, {F1: O.REL, F2: O.ACQ, F3: O.ACQ})
    ts = assign_memory_orders(frozenset({F1, F2, F3}), [[t1c1, t1c2], [t2c1]])
    assert dict(ts.assignment) == {F1: O.REL, F2: O.ACQ, F3: O.AR}
    assert ts.weight == 4
    announce(5, "order assignment: (rel, ar, acq) weight 4; coalescing picks 4 over 5")


def test_criterion_06_staged_solve_nonoptimality(announce):
    F1, F2, F3, F4 = (FenceSlot("t", i) for i in range(1, 5))
    trace1 = [_sol(0, {F1: O.AR, F2: O.AR}), _sol(0, {F1: O.REL, F3: O.ACQ, F4: O.ACQ})]
    trace2 = [_sol(1, {F3: O.REL, F4: O.ACQ})]
    global_model = find_min_model(build_query([trace1, trace2]))
    assert global_model == frozenset({F1, F3, F4})
    staged = find_min_model(build_query([trace1])) | find_min_model(build_query([trace2]))
    assert len(staged) == 4
    announce(6, "global solve: 3 slots; one-trace-at-a-time staging: 4 slots")


def _leaf_count(block):
    n = 0
    for s in block:
        if isinstance(s, If):
            n += _leaf_count(s.then) + _leaf_count(s.orelse)
        elif isinstance(s, Repeat):
            raise AssertionError("elaborated programs have no loops")
        else:
            n += 1
    return n


def test_criterion_07_enumerator_oracle_equivalence(announce):
    checked = 0
    for name in CORPUS:
        p = load(name)
        if sum(_leaf_count(t.body) for t in p.threads) > 8:
            continue
        mine = {trace_signature(t) for t in enumerate_consistent_traces(p)}
        assert mine == oracle_traces(p), name
        checked += 1
    assert checked == len(CORPUS), "every corpus program is small enough to check"
    announce(7, "enumerator equals the brute-force oracle on %d programs" % checked)


def test_criterion_08_min_model_minimality(announce):
    rng = random.Random(0xC11)
    for case in range(1000):
        n_slots = rng.randint(1, 12)
        slots = [FenceSlot("t", i) for i in range(n_slots)]
        per_trace = []
        for tid in range(rng.randint(1, 6)):
            conjs = []
            for _ in range(rng.randint(1, 4)):
                size = rng.randint(1, min(4, n_slots))
                conjs.append(_sol(tid, {s: O.REL for s in rng.sample(slots, size)}))
            per_trace.append(conjs)
        q = build_query(per_trace)
        model = find_min_model(q)
        assert q.satisfied_by(model), case
        # Exhaustive subset search confirms the cardinality.
        universe = q.slots
        best = min(
            (
                len(c)
                for k in range(len(universe) + 1)
                for c in itertools.combinations(universe, k)
                if q.satisfied_by(frozenset(c))
            ),
        )
        assert len(model) == best, case
    announce(8, "1000 random monotone queries: minimum cardinality confirmed")


def test_criterion_09_end_to_end_soundness(announce):
    fixed_names = [n for n, s in EXPECT_STATUS.items() if s == "fixed"]
    assert len(fixed_names) >= 20
    features = set()
    for name in fixed_names:
        p = load(name)
        res = synthesize_optimal(p)
        assert res.status == "fixed", name
        assert find_buggy_traces(res.fixed_program) == [], name
        report = sanity_check(res.fixed_program, res, Limits())
        assert report.passed, (name, report.render())

        def walk(block):
            for s in block:
                if isinstance(s, FetchAdd):
                    features.add("rmw")
                if isinstance(s, If):
                    features.add("branch")
                    walk(s.then)
                    walk(s.orelse)
                if getattr(s, "iter_tag", ()):
                    features.add("loop")
                ordv = getattr(s, "ord", None)
                if ordv in (O.REL, O.ACQ):
                    features.add("rel-acq")
                if ordv is O.AR:
                    features.add("ar")
                if ordv is O.SC:
                    features.add("sc")

        for t in p.threads:
            walk(t.body)
    assert features >= {"rel-acq", "ar", "sc", "rmw", "branch", "loop"}
    announce(9, "%d fixed programs re-verify clean and pass sanity" % len(fixed_names))


def test_criterion_10_fast_versus_optimal(announce):
    fixed = 0
    equal = 0
    for name in CORPUS:
        opt = synthesize_optimal(load(name))
        fast = synthesize_fast(load(name))
        assert opt.status == fast.status, name
        if opt.status == "fixed":
            fixed += 1
            assert len(fast.synthesized) >= len(opt.synthesized), name
            if len(fast.synthesized) == len(opt.synthesized):
                equal += 1
    assert fixed and equal / fixed >= 0.9
    announce(
        10,
        "one-trace-at-a-time never beats optimal; equal on %d/%d fixed programs"
        % (equal, fixed),
    )
