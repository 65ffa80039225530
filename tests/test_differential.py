"""The enumerator and the sc-order decision against the brute-force oracle,
beyond the hand-written corpus."""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import replace

import pytest

from conftest import CORPUS, O, load, with_fences
from oracle import accepting_sc_orders, oracle_traces, trace_signature
from test_litmus import random_litmus_program
from fencesynth.cycles import candidate_slots
from fencesynth.enumerator import (
    coherence_violations,
    enumerate_consistent_traces,
    exists_sc_total_order,
    find_buggy_traces,
)
from fencesynth.litmus import elaborate, parse_program
from fencesynth.model import Trace


def test_sc_order_matches_oracle_on_sc_fence_mutants():
    # Every subset of 1-3 candidate slots of a corpus buggy trace, each
    # filled with an sc fence: the sc-order decision must equal "the oracle
    # accepts some permutation of the sc events".
    decided = rejected = 0
    for name in CORPUS:
        for tr in find_buggy_traces(load(name))[:4]:
            slots = candidate_slots(tr)
            for size in (1, 2, 3):
                for subset in itertools.combinations(slots, size):
                    m = with_fences(tr, dict.fromkeys(subset, O.SC))
                    if coherence_violations(m):
                        continue
                    expected = bool(accepting_sc_orders(m))
                    assert exists_sc_total_order(m) == expected, (name, subset)
                    decided += 1
                    rejected += not expected
    assert decided > 2000 and rejected > 100


def test_sc_order_matches_oracle_on_sc_access_mutants():
    # Random accesses of corpus executions made sc (on a fixed seed), so
    # that sc reads observe non-sc writes: the one sc rule the decision
    # searches for instead of forcing.
    rng = random.Random(5)
    decided = searched = 0
    for name in CORPUS:
        for tr in enumerate_consistent_traces(load(name))[:4]:
            accesses = [e for e in tr.events if not e.is_init]
            for _ in range(8):
                k = rng.randint(1, min(4, len(accesses)))
                chosen = {e.id for e in rng.sample(accesses, k)}
                events = [replace(e, ord=O.SC) if e.id in chosen else e for e in tr.events]
                m = Trace(events, tr.sb, tr.rf, tr.mo)
                if len(m.sc_events) > 6 or coherence_violations(m):
                    continue
                assert exists_sc_total_order(m) == bool(accepting_sc_orders(m)), (name, chosen)
                decided += 1
                sc = {e.id for e in m.sc_events}
                searched += any(r in sc and w not in sc for w, r in m.rf)
    assert decided > 500 and searched > 100


# Small parametric families, written out here so the suite does not depend
# on the benchmark's generators.


def program(name, threads, assertion):
    text = " ".join(s for _, body in threads for s in body)
    objs = sorted(set(re.findall(r"(?:load|store|fadd)\((\w+)", text)))
    lines = ["program " + name, "init " + ", ".join("%s = 0" % o for o in objs)]
    for tid, body in threads:
        lines += ["thread %s {" % tid] + ["  " + s for s in body] + ["}"]
    lines.append("assert " + assertion)
    return "\n".join(lines) + "\n"


def sb_ring(n):
    threads = [("t%d" % i, ["store(x%d, 1, rlx)" % i, "r%d = load(x%d, rlx)" % (i, (i + 1) % n)])
               for i in range(n)]
    return program("sb_ring_%d" % n, threads,
                   "!(%s)" % " && ".join("r%d == 0" % i for i in range(n)))


def mp(k_stores=1, polls=1, pair=0):
    d, f, a, b = "d%d" % pair, "f%d" % pair, "a%d" % pair, "b%d" % pair
    writer = ["store(%s, %d, rlx)" % (d, v) for v in range(1, k_stores + 1)]
    writer.append("store(%s, 1, rlx)" % f)
    poll = "%s = load(%s, rlx)" % (a, f)
    reader = ["repeat %d {" % polls, "  " + poll, "}"] if polls > 1 else [poll]
    reader.append("%s = load(%s, rlx)" % (b, d))
    bug = "%s == 1 && %s != %d" % (a, b, k_stores)
    return [("w%d" % pair, writer), ("r%d" % pair, reader)], bug


def mp_program(name, **kw):
    threads, bug = mp(**kw)
    return program(name, threads, "!(%s)" % bug)


def mp_pairs(m):
    threads, bugs = [], []
    for i in range(m):
        t, bug = mp(pair=i)
        threads += t
        bugs.append("(%s)" % bug)
    return program("mp_pairs_%d" % m, threads, "!(%s)" % " || ".join(bugs))


def sb_padded():
    threads = [
        ("t0", ["store(x, 1, rlx)", "store(p, 1, rlx)", "a = load(y, rlx)"]),
        ("t1", ["store(y, 1, rlx)", "store(q, 1, rlx)", "b = load(x, rlx)"]),
    ]
    return program("sb_padded", threads, "!(a == 0 && b == 0)")


def sb_rmw(order):
    # Store buffering through fetch-adds; with sc each rmw reads its
    # object's initial value, a non-sc write that happens before it.
    threads = [
        ("t0", ["u = fadd(x, 1, %s)" % order, "a = load(y, %s)" % order]),
        ("t1", ["v = fadd(y, 1, %s)" % order, "b = load(x, %s)" % order]),
    ]
    return program("sb_rmw_" + order, threads, "!(a == 0 && b == 0)")


FAMILIES = {
    **{"sb_ring_%d" % n: sb_ring(n) for n in (2, 3, 4)},
    **{"mp_stores_%d" % k: mp_program("mp_stores_%d" % k, k_stores=k) for k in (1, 2, 3, 4)},
    **{"mp_poll_%d" % k: mp_program("mp_poll_%d" % k, polls=k) for k in (1, 2, 3)},
    "sb_padded": sb_padded(),
    "mp_pairs_2": mp_pairs(2),
    "sb_rmw_rlx": sb_rmw("rlx"),
    "sb_rmw_sc": sb_rmw("sc"),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_enumerator_matches_oracle_on_generated_programs(name):
    p = elaborate(parse_program(FAMILIES[name]), 16)
    mine = [trace_signature(t) for t in enumerate_consistent_traces(p)]
    assert len(set(mine)) == len(mine), "duplicate traces emitted"
    expected = oracle_traces(p)
    assert set(mine) == expected
    buggy = [trace_signature(t) for t in find_buggy_traces(p)]
    assert buggy == [s for s in mine if not s[3]]
    assert set(buggy) == {s for s in expected if not s[3]}


def test_buggy_traces_are_the_falsifying_consistent_traces(monkeypatch):
    # On every corpus program and on every mutant the sanity check builds
    # for a corpus opt fix, buggy-trace enumeration yields exactly the
    # consistent executions that falsify the assertion, in the same order.
    from fencesynth import driver

    probed = []
    iter_buggy = driver.iter_buggy_traces

    def recording(p, limits=None):
        probed.append(p)
        return iter_buggy(p, limits)

    monkeypatch.setattr(driver, "iter_buggy_traces", recording)
    for name in CORPUS:
        result = driver.synthesize(load(name), mode="opt")
        if result.status == driver.FIXED:
            driver.sanity_check(result.fixed_program, result)
    monkeypatch.undo()
    assert len(probed) > 40
    for p in [load(name) for name in CORPUS] + probed:
        expected = [trace_signature(t) for t in enumerate_consistent_traces(p) if not t.assertion_holds]
        assert [trace_signature(t) for t in find_buggy_traces(p)] == expected, p.name


@pytest.mark.parametrize("seeds", [range(0, 75), range(75, 150)])
def test_enumerators_match_oracle_on_random_programs(seeds):
    # Random loop-free programs of 2-3 threads on fixed seeds: both
    # enumerations against the oracle's executions and verdicts.
    buggy_programs = holding_programs = 0
    for seed in seeds:
        p = elaborate(parse_program(random_litmus_program(seed)), 16)
        expected = oracle_traces(p)
        mine = [trace_signature(t) for t in enumerate_consistent_traces(p)]
        assert len(set(mine)) == len(mine) and set(mine) == expected, seed
        buggy = [trace_signature(t) for t in find_buggy_traces(p)]
        assert buggy == [s for s in mine if not s[3]], seed
        buggy_programs += bool(buggy)
        holding_programs += len(buggy) < len(mine)
    # Neither verdict is vacuous over the seeds.
    assert buggy_programs > len(seeds) // 3 and holding_programs > len(seeds) // 3
