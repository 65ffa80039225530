"""The enumerator and the sc-order decision against the brute-force oracle,
beyond the hand-written corpus."""

from __future__ import annotations

import collections
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
    has_buggy_trace,
    iter_buggy_traces,
    thread_groups,
)
from fencesynth.errors import ResourceLimitError
from fencesynth.limits import Limits
from fencesynth.litmus import elaborate, parse_program, print_program
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


def sb_padded(m=1):
    # m store-buffering pairs, each store followed by one private store.
    threads, bugs = [], []
    for i in range(m):
        x, y, a, b = "x%d" % i, "y%d" % i, "a%d" % i, "b%d" % i
        for side, (mine, pad, reg, other) in enumerate(((x, "p", a, y), (y, "q", b, x))):
            body = ["store(%s, 1, rlx)" % mine, "store(%s%d, 1, rlx)" % (pad, i)]
            threads.append(("t%d" % (2 * i + side), body + ["%s = load(%s, rlx)" % (reg, other)]))
        bugs.append("(%s == 0 && %s == 0)" % (a, b))
    return program("sb_padded_%d" % m, threads, "!(%s)" % " || ".join(bugs))


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


def sanity_mutants(monkeypatch, result):
    """The mutant programs ``sanity_check`` decides for an opt result."""
    from fencesynth import driver

    probed = []
    decide = driver.has_buggy_trace

    def recording(p, *args):
        probed.append(p)
        return decide(p, *args)

    with monkeypatch.context() as m:
        m.setattr(driver, "has_buggy_trace", recording)
        driver.sanity_check(result.fixed_program, result)
    return probed


def test_buggy_traces_are_the_falsifying_consistent_traces(monkeypatch):
    # On every corpus program and on every mutant the sanity check builds
    # for a corpus opt fix, buggy-trace enumeration yields exactly the
    # consistent executions that falsify the assertion, in the same order,
    # and the existence decision agrees with it.
    from fencesynth import driver

    probed = []
    for name in CORPUS:
        result = driver.synthesize(load(name), mode="opt")
        if result.status == driver.FIXED:
            probed += sanity_mutants(monkeypatch, result)
    assert len(probed) > 40
    for p in [load(name) for name in CORPUS] + probed:
        expected = [
            trace_signature(t) for t in enumerate_consistent_traces(p) if not t.assertion_holds
        ]
        assert [trace_signature(t) for t in find_buggy_traces(p)] == expected, p.name
        assert has_buggy_trace(p) == bool(expected), p.name


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


# ---------------------------------------------------------------------------
# The existence decision over object-disjoint thread groups


def oracle_falsifies(p):
    return any(not verdict for *_, verdict in oracle_traces(p))


def assert_decided_as_the_oracle(p):
    expected = oracle_falsifies(p)
    assert has_buggy_trace(p) == expected == bool(find_buggy_traces(p)), print_program(p)


SEVERAL_GROUPS = {
    **{"mp_pairs_%d" % m: mp_pairs(m) for m in (1, 2, 3)},
    **{"sb_padded_%d" % m: sb_padded(m) for m in (1, 2)},
}


@pytest.mark.parametrize("name", sorted(SEVERAL_GROUPS))
def test_existence_matches_oracle_on_fixes_and_mutants(name, monkeypatch):
    from fencesynth import driver

    p = elaborate(parse_program(SEVERAL_GROUPS[name]), 16)
    result = driver.synthesize(p, mode="opt")
    assert result.status == driver.FIXED
    mutants = sanity_mutants(monkeypatch, result)
    assert len(mutants) >= 2 * len(thread_groups(p))
    for q in [p, result.fixed_program] + mutants:
        assert_decided_as_the_oracle(q)


def test_existence_matches_oracle_on_two_bugs():
    assert len(thread_groups(load("two_bugs"))) == 2
    assert_decided_as_the_oracle(load("two_bugs"))


def renamed(line):
    # The second program of a join: objects x, y become z, w, threads tN
    # become uN and locals rN become sN.
    line = re.sub(r"\bx\b", "z", re.sub(r"\by\b", "w", line))
    return re.sub(r"\bt(\d)\b", r"u\1", re.sub(r"\br(\d+)\b", r"s\1", line))


def joined(seed, kind):
    """Two random programs side by side, on disjoint threads and objects,
    under one of five kinds of assertion."""
    first = random_litmus_program(seed).splitlines()
    second = [renamed(line) for line in random_litmus_program(seed + 1000).splitlines()]
    a, b = first[-1][len("assert "):], second[-1][len("assert "):]
    local_a = (re.findall(r"\b(r\d+) =", "\n".join(first)) or ["x"])[0]
    local_b = (re.findall(r"\b(s\d+) =", "\n".join(second)) or ["z"])[0]
    assertion = {
        "or": "(%s) || (%s)" % (a, b),
        "and": "(%s) && (%s)" % (a, b),
        "coupled": "%s %s %s" % (local_a, "==" if seed % 2 else "!=", local_b),
        "objects": "!(x == %d && w == %d)" % (seed % 3, (seed // 3) % 3),
        "one": a,
    }[kind]
    lines = ["program joined%d" % seed, "init x = 0, y = 0, z = 0, w = 0"]
    return "\n".join(lines + first[2:-1] + second[2:-1] + ["assert " + assertion]) + "\n"


def small_join_seeds(count):
    # Joins of at most six statements and one fadd keep the whole-program
    # enumeration and the brute-force oracle fast.
    seeds = (s for s in itertools.count() if len(re.findall(r"^  ", joined(s, "one"), re.M)) <= 6)
    return list(itertools.islice((s for s in seeds if joined(s, "one").count("fadd") <= 1), count))


@pytest.mark.parametrize("kind", ["or", "and", "coupled", "objects", "one"])
def test_existence_matches_oracle_on_joined_random_programs(kind):
    seeds = small_join_seeds(50)
    buggy = 0
    for seed in seeds:
        p = elaborate(parse_program(joined(seed, kind)), 16)
        assert len(thread_groups(p)) >= 2
        assert_decided_as_the_oracle(p)
        buggy += has_buggy_trace(p)
    # Neither answer is vacuous over the seeds.
    assert 0 < buggy < len(seeds)


def test_existence_prunes_a_group_whose_values_decide_the_assertion(monkeypatch):
    # An sc ring of 8 beside a thread on its own object: the ring's values
    # alone decide the assertion, so its group is pruned as buggy-trace
    # enumeration prunes it (one candidate checked), not enumerated whole.
    from fencesynth import enumerator

    n = 8
    threads = [
        ("t%d" % i, ["store(x%d, 1, sc)" % i, "r%d = load(x%d, sc)" % (i, (i + 1) % n)])
        for i in range(n)
    ]
    text = program("ring_beside", threads + [("side", ["store(w, 1, rlx)"])],
                   "!(%s)" % " && ".join("r%d == 0" % i for i in range(n)))
    p = elaborate(parse_program(text), 16)
    assert len(thread_groups(p)) == 2
    checked = []
    coherence = enumerator.coherence_violations

    def counting(tr):
        checked.append(tr)
        return coherence(tr)

    monkeypatch.setattr(enumerator, "coherence_violations", counting)
    assert not has_buggy_trace(p)
    assert len(checked) == 1


def test_existence_with_a_trace_bound_counts_whole_executions():
    # With max_traces set, the answer and the limit error are those of the
    # whole-program enumeration, for every bound.
    from fencesynth import driver

    def answer(decide, q, bound):
        try:
            return decide(q, Limits(max_traces=bound))
        except ResourceLimitError as exc:
            return exc.phase

    def whole(q, limits):
        return next(iter_buggy_traces(q, limits), None) is not None

    p = elaborate(parse_program(mp_pairs(2)), 16)
    answers = set()
    for q in (p, driver.synthesize(p, mode="opt").fixed_program):
        for bound in range(0, 40, 3):
            expected = answer(whole, q, bound)
            assert answer(has_buggy_trace, q, bound) == expected, bound
            answers.add(expected)
    assert answers == {True, False, "trace-enumeration"}


def test_existence_honours_an_expired_deadline():
    p = elaborate(parse_program(mp_pairs(2)), 16)
    with pytest.raises(ResourceLimitError) as exc:
        has_buggy_trace(p, Limits(timeout_secs=0.0).start())
    assert exc.value.phase == "trace-enumeration"


def test_sanity_and_verify_check_few_executions_on_many_pairs(monkeypatch):
    # mp pairs m=6: whole-program enumeration checked 3,367 candidate
    # executions to verify the opt fix and 4,016 for its 12 sanity mutants.
    from fencesynth import driver, enumerator

    checked = collections.Counter()
    phase = ["synthesize"]
    coherence, apply = enumerator.coherence_violations, driver.apply_solution

    def counting(tr):
        checked[phase[0]] += 1
        return coherence(tr)

    def applying(*args, **kw):
        fixed = apply(*args, **kw)
        phase[0] = "verify"
        return fixed

    monkeypatch.setattr(enumerator, "coherence_violations", counting)
    monkeypatch.setattr(driver, "apply_solution", applying)
    result = driver.synthesize(elaborate(parse_program(mp_pairs(6)), 16), mode="opt")
    phase[0] = "sanity"
    report = driver.sanity_check(result.fixed_program, result)
    assert [o.verdict for o in report.outcomes] == ["bug-reappears"] * 12
    assert checked["sanity"] <= 100
    assert checked["verify"] < 3367
