"""The enumerator and the sc-order decision against the brute-force oracle,
beyond the hand-written corpus."""

from __future__ import annotations

import collections
import contextlib
import itertools
import random
import re
from dataclasses import replace

import pytest

from conftest import CORPUS, O, corpus_text, load, pairs, with_fences
from oracle import accepting_sc_orders, oracle_traces, trace_signature
from test_litmus import random_litmus_program
from fencesynth.cycles import candidate_slots
from fencesynth.enumerator import (
    coherence_violations,
    enumerate_consistent_traces,
    exists_sc_total_order,
    find_buggy_traces,
    has_buggy_trace,
    parts,
)
from fencesynth.errors import ResourceLimitError
from fencesynth.limits import Limits
from fencesynth.litmus import elaborate, parse_program, print_program
from fencesynth.model import Trace
from fencesynth.relations import _bits, sc_clauses


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
                searched += any(r in sc and w not in sc for w, r in pairs(m.rf))
    assert decided > 500 and searched > 100


def test_forced_sc_pairs_hold_in_every_accepted_order():
    # Every pair that sc_clauses forces, in every sc order the oracle
    # accepts: the clauses force nothing that C11 leaves open.
    programs = [load(name) for name in CORPUS] + [elaborate(parse_program(SCFR3), 16)]
    programs += [elaborate(parse_program(random_litmus_program(seed)), 16) for seed in range(150)]
    checked = 0
    for p in programs:
        for tr in enumerate_consistent_traces(p):
            if not tr.sc_events:
                continue
            forced = [(x, y) for x, row in sc_clauses(tr).items() for y in _bits(row)]
            for order in accepting_sc_orders(tr):
                pos = {eid: i for i, eid in enumerate(order)}
                assert all(pos[x] < pos[y] for x, y in forced), (p.name, forced, order)
            checked += 1
    assert checked == 360


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


def sb_ring(n, order="rlx"):
    threads = [("t%d" % i, ["store(x%d, 1, %s)" % (i, order), "r%d = load(x%d, %s)" % (i, (i + 1) % n, order)])
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


def fadd_counter(n):
    # n threads that each add 1 to c once: c ends at n whatever they read.
    threads = [("t%d" % i, ["u%d = fadd(c, 1, rlx)" % i]) for i in range(n)]
    return program("fadd_counter_%d" % n, threads, "c == %d" % n)


def dekker(n):
    # dekker_core for n threads: each raises its flag, reads every other
    # flag, and adds 1 to wins if it saw all of them down.
    threads = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        body = ["store(f%d, 1, rlx)" % i] + ["a%d_%d = load(f%d, rlx)" % (i, j, j) for j in others]
        cond = " && ".join("a%d_%d == 0" % (i, j) for j in others)
        threads.append(("t%d" % i, body + ["if (%s) {" % cond, "  u%d = fadd(wins, 1, rlx)" % i, "}"]))
    return program("dekker_%d" % n, threads, "wins <= 1")


# An sc read of a relaxed write w with an sc write of 2 mo-after w: C11
# lets the read follow that write in S, since w does not happen before it.
SCFR3 = """program scfr3
init x = 0, y = 0
thread t1 {
  store(x, 1, rlx)
}
thread t2 {
  store(x, 2, sc)
  store(y, 1, sc)
}
thread t3 {
  store(y, 2, sc)
  a = load(x, sc)
}
assert !(a == 1 && x == 2 && y == 2)
"""


FAMILIES = {
    **{"sb_ring_%d" % n: sb_ring(n) for n in (2, 3, 4)},
    **{"mp_stores_%d" % k: mp_program("mp_stores_%d" % k, k_stores=k) for k in (1, 2, 3, 4)},
    **{"mp_poll_%d" % k: mp_program("mp_poll_%d" % k, polls=k) for k in (1, 2, 3)},
    "sb_padded": sb_padded(),
    "mp_pairs_2": mp_pairs(2),
    "sb_rmw_rlx": sb_rmw("rlx"),
    "sb_rmw_sc": sb_rmw("sc"),
    **{"fadd_counter_%d" % n: fadd_counter(n) for n in (2, 3)},
    "dekker_3": dekker(3),
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
    """The mutant programs ``sanity_check`` decides for an opt result: each
    the sub-program of its fence's part."""
    from fencesynth import driver

    probed = []
    decide = driver.iter_buggy_traces

    def recording(p, *args):
        probed.append(p)
        return decide(p, *args)

    with monkeypatch.context() as m:
        m.setattr(driver, "iter_buggy_traces", recording)
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
# The existence decision over assertion-independent parts


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
    assert len(mutants) >= 2 * len(parts(p))
    for q in [p, result.fixed_program] + mutants:
        assert_decided_as_the_oracle(q)


def test_existence_matches_oracle_on_two_bugs():
    assert len(parts(load("two_bugs"))) == 2
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
    buggy = split = 0
    for seed in seeds:
        p = elaborate(parse_program(joined(seed, kind)), 16)
        assert_decided_as_the_oracle(p)
        buggy += has_buggy_trace(p)
        split += len(parts(p)) > 1
    # Neither answer is vacuous over the seeds, and each kind has joins
    # that are decided by parts.
    assert 0 < buggy < len(seeds) and split > 0


def ring_beside(n=8):
    """An sc ring of ``n`` beside a thread on its own object: the ring's
    values alone decide the assertion, and it holds."""
    threads = [
        ("t%d" % i, ["store(x%d, 1, sc)" % i, "r%d = load(x%d, sc)" % (i, (i + 1) % n)])
        for i in range(n)
    ]
    return program("ring_beside", threads + [("side", ["store(w, 1, rlx)"])],
                   "!(%s)" % " && ".join("r%d == 0" % i for i in range(n)))


def checked_candidates(monkeypatch, run):
    """``run()`` and the number of candidate executions it checked."""
    from fencesynth import enumerator

    checked = []
    coherence = enumerator.coherence_violations

    def counting(tr):
        checked.append(tr)
        return coherence(tr)

    with monkeypatch.context() as m:
        m.setattr(enumerator, "coherence_violations", counting)
        return run(), len(checked)


def test_existence_prunes_a_group_whose_values_decide_the_assertion(monkeypatch):
    # The ring's group is pruned as buggy-trace enumeration prunes it (one
    # candidate checked), not enumerated whole.
    p = elaborate(parse_program(ring_beside()), 16)
    assert len(parts(p)) == 2
    assert checked_candidates(monkeypatch, lambda: has_buggy_trace(p)) == (False, 1)


def test_existence_with_a_trace_bound_gives_the_unbounded_answer():
    # A bound counts the buggy traces one enumeration yields, and existence
    # asks each part for one: every positive bound gives the unbounded
    # answer, and bound 0 trips exactly where some part has a buggy trace.
    from fencesynth import driver

    p = elaborate(parse_program(mp_pairs(2)), 16)
    answers = set()
    for q in (p, driver.synthesize(p, mode="opt").fixed_program):
        expected = has_buggy_trace(q)
        for bound in range(1, 40, 3):
            assert has_buggy_trace(q, Limits(max_traces=bound)) == expected, bound
        if any(map(find_buggy_traces, parts(q))):
            with pytest.raises(ResourceLimitError) as exc:
                has_buggy_trace(q, Limits(max_traces=0))
            assert exc.value.phase == "trace-enumeration"
        else:
            assert not has_buggy_trace(q, Limits(max_traces=0))
        answers.add(expected)
    assert answers == {True, False}


@pytest.mark.parametrize("make, n", [(mp_pairs, 3), (sb_ring, 6)])
def test_a_trace_bound_changes_no_candidate_checked_and_no_report(monkeypatch, make, n):
    # A bound that is never reached selects no other path: mp pairs stays
    # split into parts, and the ring's enumeration stays pruned.
    p = elaborate(parse_program(make(n)), 16)
    unbounded, checked = checked_candidates(monkeypatch, lambda: opt_outputs(p))
    bounded, bounded_checked = checked_candidates(monkeypatch, lambda: opt_outputs(p, Limits(max_traces=10**9)))
    assert bounded[0].status == "fixed" and unbounded[1:] == bounded[1:]
    assert bounded_checked == checked


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


# ---------------------------------------------------------------------------
# Opt and sanity by parts against the whole path

def corpus_join(a, b, combine="(%s) && (%s)"):
    """Corpus programs ``a`` and ``b`` side by side under ``combine`` of their
    assertions; ``b``'s threads, objects and locals take a ``_b`` suffix."""

    def pieces(name, suffix):
        text = corpus_text(name)
        lines = [line for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")]
        if suffix:
            p = parse_program(text)
            names = set(p.init) | {t.tid for t in p.threads}
            names |= {n for t in p.threads for n in p.locals_of(t.tid)}
            pattern = re.compile(r"\b(%s)\b" % "|".join(sorted(names)))
            lines = [pattern.sub(r"\1" + suffix, line) for line in lines]
        return lines[1][len("init "):], lines[2:-1], lines[-1][len("assert "):]

    (init_a, threads_a, assert_a), (init_b, threads_b, assert_b) = pieces(a, ""), pieces(b, "_b")
    lines = ["program %s_%s" % (a, b), "init %s, %s" % (init_a, init_b)]
    return "\n".join(lines + threads_a + threads_b + ["assert " + combine % (assert_a, assert_b)]) + "\n"


def opt_outputs(p, limits=None):
    """The opt result, its report without the timings line, and the sanity
    report."""
    from fencesynth import driver

    result = driver.synthesize_optimal(p, limits)
    report = "".join(line for line in result.render().splitlines(True) if not line.startswith("timings:"))
    return result, report, driver.sanity_check(result.fixed_program, result, limits).render()


@contextlib.contextmanager
def enumerated_thread_counts():
    """The thread count of each program ``enumerator._traces`` enumerates
    inside the block, in a list."""
    from fencesynth import enumerator

    enumerated = []
    traces = enumerator._traces

    def recording(q, *args, **kw):
        enumerated.append(len(q.threads))
        return traces(q, *args, **kw)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(enumerator, "_traces", recording)
        yield enumerated


@contextlib.contextmanager
def whole_path():
    """Inside the block ``parts`` splits nothing, so every decision takes
    the whole path."""
    from fencesynth import driver, enumerator

    with pytest.MonkeyPatch.context() as m:
        for module in (driver, enumerator):
            m.setattr(module, "parts", lambda q: [q])
        yield


def no_fix_masked(report):
    """``report`` with the no-fix trace number masked: by parts it indexes
    the traces opt analysed, part by part; on the whole path, the whole
    program's."""
    return re.sub(r"^trace \d+ admits", "trace N admits", report, flags=re.M)


def parts_masked(report):
    """``report`` with the no-fix trace number and the ``traces analyzed``
    count masked: by parts they index and count the buggy traces of each
    part; on the whole path, the whole program's."""
    return re.sub(r"^traces analyzed: \d+$", "traces analyzed: N", no_fix_masked(report), flags=re.M)


def assert_parts_path_is_the_whole_path(p):
    """Opt and sanity on ``p`` report as with ``parts`` splitting nothing,
    where every decision takes the whole path: opt's enumeration, its
    verify and each sanity mutant enumerate programs of all ``p``'s
    threads.  Where ``p`` has several parts, the no-fix trace number and
    the ``traces analyzed`` count may differ: a no-fix trace is a buggy
    trace opt analysed and found no solution for, and a fixed run counts
    the traces it analysed."""
    result, report, sanity = opt_outputs(p)
    with whole_path(), enumerated_thread_counts() as enumerated:
        _, whole_report, whole_sanity = opt_outputs(p)
    assert enumerated and set(enumerated) == {len(p.threads)}, p.name
    if result.status == "no-fix":
        assert not result.buggy_traces[result.no_fix_trace].assertion_holds, p.name
        assert result.solutions_by_trace[result.no_fix_trace] == [], p.name
    if result.status == "fixed":
        assert result.traces_analyzed == len(result.buggy_traces), p.name
    if len(parts(p)) > 1:
        report, whole_report = parts_masked(report), parts_masked(whole_report)
    assert (report, sanity) == (whole_report, whole_sanity), p.name
    return result


MANY_BUGS = {
    **{"mp_pairs_%d" % m: (mp_pairs, m) for m in range(1, 6)},
    **{"sb_padded_%d" % m: (sb_padded, m) for m in range(1, 4)},
}


@pytest.mark.parametrize("name", sorted(MANY_BUGS))
def test_opt_by_parts_reports_as_the_whole_path_on_many_bugs(name):
    make, m = MANY_BUGS[name]
    p = elaborate(parse_program(make(m)), 16)
    assert len(parts(p)) == m
    result = assert_parts_path_is_the_whole_path(p)
    assert result.status == "fixed" and len(result.synthesized) == 2 * m


# Fifty joins of two corpus programs, on a fixed seed.  Joins with one of
# the three programs of the most buggy traces are left out: beside another
# program of several, whole-program opt and sanity took over 3 s each.
CORPUS_JOINS = random.Random(17).sample(
    [
        pair
        for pair in itertools.combinations(CORPUS, 2)
        if not {"dekker_core", "fen_strengthen", "relseq_rmw"} & set(pair)
    ],
    50,
)


def test_opt_by_parts_reports_as_the_whole_path_on_corpus_joins():
    statuses = collections.Counter()
    for a, b in CORPUS_JOINS:
        p = elaborate(parse_program(corpus_join(a, b)), 16)
        statuses[assert_parts_path_is_the_whole_path(p).status] += 1
    # Every verdict occurs.
    assert set(statuses) == {"fixed", "no-fix", "already-correct"}


def test_coupled_corpus_joins_take_the_one_part_path():
    for a, b in CORPUS_JOINS[:10]:
        p = elaborate(parse_program(corpus_join(a, b, "(%s) || (%s)")), 16)
        assert len(parts(p)) == 1, p.name
        assert_parts_path_is_the_whole_path(p)


def test_each_sanity_mutant_copies_only_its_fences_part(monkeypatch):
    # A mutant is made from a copy of its fence's part, not of the whole
    # fixed program.
    from fencesynth import driver

    result = driver.synthesize_optimal(elaborate(parse_program(sb_padded(3)), 16))
    copies = []
    copy = driver.elaborate

    def recording(q, *args):
        copies.append(copy(q, *args))
        return copies[-1]

    monkeypatch.setattr(driver, "elaborate", recording)
    report = driver.sanity_check(result.fixed_program, result)
    groups = [{t.tid for t in sub.threads} for sub in parts(result.fixed_program)]
    assert report.passed and len(copies) == len(report.outcomes) == 12
    for q in copies:
        assert {t.tid for t in q.threads} in groups


def test_a_part_without_a_fix_names_a_trace_opt_analysed():
    # The no-fix trace is r_nofix's first, numbered among the traces opt
    # analysed part by part: after sb_rlx's one trace, whose clause the
    # query holds, where sb_rlx's part comes first.  The whole path names
    # its traces 2 and 4 of the product.  Each part's one buggy trace is
    # enumerated before either is solved: 2 traces analysed, where the
    # whole path counts 7 buggy executions of the product.
    for a, b, nofix in (("r_nofix", "sb_rlx", 0), ("sb_rlx", "r_nofix", 1)):
        p = elaborate(parse_program(corpus_join(a, b)), 16)
        assert len(parts(p)) == 2
        result = assert_parts_path_is_the_whole_path(p)
        assert (result.status, result.no_fix_trace, result.traces_analyzed) == ("no-fix", nofix, 2)
        tr = result.buggy_traces[nofix]
        suffix = "_b" if b == "r_nofix" else ""
        assert {e.thr for e in tr.events if not e.is_init} == {"t1" + suffix, "t2" + suffix}
        assert [tid for q in result.queries for tid, _ in q.clauses] == list(range(nofix))


def beside_lone(text):
    """``text`` with one more thread, on an object of its own: a part with
    an empty conjunction."""
    text = re.sub(r"^init (.*)$", r"init \1, lone_obj = 0", text, count=1, flags=re.M)
    return re.sub(r"^assert ", "thread lone {\n  store(lone_obj, 1, rlx)\n}\nassert ", text, flags=re.M)


def test_opt_by_parts_checks_no_more_candidates_than_the_whole_path(monkeypatch):
    # Every part's enumeration is pruned, so the bug-free ring beside a
    # thread checks one candidate, as the whole path does, and a buggy part
    # beside the lone thread checks no candidate more than the whole path,
    # with or without a fix.
    from fencesynth import driver

    p = elaborate(parse_program(ring_beside()), 16)
    for path in (contextlib.nullcontext, whole_path):
        with path():
            result, checked = checked_candidates(monkeypatch, lambda: driver.synthesize_optimal(p))
        assert (result.status, checked) == ("already-correct", 1)

    # Each one-part corpus program beside a lone thread; assert_true's
    # conjunct names nothing, so it is taken whole.
    texts = [beside_lone(corpus_text(name)) for name in CORPUS if len(parts(load(name))) == 1]
    texts.remove(beside_lone(corpus_text("assert_true")))
    texts += [beside_lone(mp_program("mp_poll_%d" % k, polls=k)) for k in (2, 4)]
    compared = collections.Counter()
    for text in texts:
        p = elaborate(parse_program(text), 16)
        assert len(parts(p)) == 2, p.name
        by_parts, checked = checked_candidates(monkeypatch, lambda: driver.synthesize_optimal(p))
        with whole_path():
            whole, whole_checked = checked_candidates(monkeypatch, lambda: driver.synthesize_optimal(p))
        reports = [no_fix_masked(r.render().split("timings:")[0]) for r in (by_parts, whole)]
        assert reports[0] == reports[1], p.name
        assert checked <= whole_checked, p.name
        compared[whole.status] += 1
    assert compared["fixed"] > 20 and compared["already-correct"] > 2 and compared["no-fix"] == 3


@pytest.mark.parametrize("make, weight", [(mp_pairs, 2), (sb_padded, 6)])
def test_opt_and_sanity_by_parts_reach_thirty_bugs(make, weight):
    # The whole path timed out at mp pairs m=7 and padded sb m=4 in a 10 s
    # opt and sanity budget.
    from fencesynth import driver

    m = 30
    limits = Limits(timeout_secs=5)
    result = driver.synthesize_optimal(elaborate(parse_program(make(m)), 16), limits)
    assert result.status == "fixed"
    assert (len(result.synthesized), result.weight) == (2 * m, weight * m)
    report = driver.sanity_check(result.fixed_program, result, limits)
    assert report.passed and len(report.outcomes) >= 2 * m


def nofix_beside_pairs(m):
    """r_nofix's threads beside ``m`` mp pairs, under the conjunction of
    their assertions: r_nofix's part has no fix."""
    threads = [("t1", ["store(x, 1, rlx)", "store(y, 1, rlx)"]), ("t2", ["store(y, 2, rlx)", "a = load(x, rlx)"])]
    bugs = ["!(a == 0 && y == 1)"]
    for i in range(m):
        t, bug = mp(pair=i)
        threads += t
        bugs.append("!(%s)" % bug)
    return program("nofix_beside_%d" % m, threads, " && ".join(bugs))


def test_a_part_without_a_fix_beside_thirty_bugs_reports_no_fix():
    # Thirty parts: a whole-program enumeration grows ×5 per mp pair.
    from fencesynth import driver

    p = elaborate(parse_program(nofix_beside_pairs(30)), 16)
    assert len(parts(p)) == 31
    result = driver.synthesize_optimal(p, Limits(timeout_secs=5))
    assert result.status == "no-fix"
    assert result.solutions_by_trace[result.no_fix_trace] == []


def test_emit_flags_print_what_opt_analysed(tmp_path, capsys):
    # With --emit-* opt enumerates each mp pair's sub-program, as without
    # them, and dumps each pair's one buggy trace (of 781 whole ones).
    from fencesynth.cli import main

    source = tmp_path / "mp_pairs_5.lit"
    source.write_text(mp_pairs(5))
    query, traces = tmp_path / "mp.query", tmp_path / "mp.traces"
    reports = []
    for flags in ([], ["--emit-query", str(query), "--emit-traces", str(traces)]):
        with enumerated_thread_counts() as enumerated:
            assert main([str(source), *flags]) == 0
        assert enumerated and set(enumerated) == {2}
        out = capsys.readouterr().out
        reports.append([line for line in out.splitlines() if not line.startswith("timings:")])
    assert reports[0] == reports[1]
    assert query.read_text().splitlines() == ["trace %d: (r%d@1 ∧ w%d@1)" % (i, i, i) for i in range(5)]
    assert re.findall(r"^trace \d+$", traces.read_text(), re.M) == ["trace %d" % i for i in range(5)]


# ---------------------------------------------------------------------------
# Fast by parts

def fast_outcome(p):
    """Fast's status, fence count and weight on ``p``; its fix is clean."""
    from fencesynth import driver

    result = driver.synthesize_fast(p)
    if result.status == "fixed":
        assert not has_buggy_trace(result.fixed_program), p.name
    return result.status, len(result.synthesized), result.weight


def test_fast_by_parts_never_does_worse_than_fast_whole():
    # A part's passes see only its own traces, so they can pick other
    # fixes than passes over whole traces, but never more or heavier ones
    # on these programs.  One of these joins gets lighter: loop_sb beside
    # sb_scw, 5 fences of weight 15 on the whole path, 4 of weight 12 by
    # parts.
    programs = [elaborate(parse_program(make(m)), 16) for make, m in MANY_BUGS.values()]
    programs += [elaborate(parse_program(corpus_join(a, b)), 16) for a, b in CORPUS_JOINS]
    lighter = 0
    for p in programs:
        status, count, weight = fast_outcome(p)
        with whole_path():
            whole_status, whole_count, whole_weight = fast_outcome(p)
        assert status == whole_status, p.name
        assert count <= whole_count and weight <= whole_weight, p.name
        lighter += (count, weight) != (whole_count, whole_weight)
    assert len(programs) == 58 and lighter == 1


@pytest.mark.parametrize("make, weight", [(mp_pairs, 2), (sb_padded, 6)])
def test_fast_checks_candidates_linear_in_the_number_of_parts(monkeypatch, make, weight):
    # Fast on whole traces checked every execution of the product on each
    # pass: mp pairs m=8 and padded sb m=6 took over 9 s.
    from fencesynth import driver

    limits = Limits(timeout_secs=10)
    checked = {}
    for m in (10, 20, 40):
        p = elaborate(parse_program(make(m)), 16)
        result, checked[m] = checked_candidates(monkeypatch, lambda: driver.synthesize_fast(p, limits))
        assert result.status == "fixed"
        assert (len(result.synthesized), result.weight) == (2 * m, weight * m)
    assert checked[40] <= 2 * checked[20] <= 4 * checked[10]


def ring_beside_pair(n=12):
    """An rlx sb ring of ``n`` beside one mp pair, each with its bug."""
    ring = [
        ("t%d" % i, ["store(x%d, 1, rlx)" % i, "r%d = load(x%d, rlx)" % (i, (i + 1) % n)])
        for i in range(n)
    ]
    pair, bug = mp()
    ring_bug = " && ".join("r%d == 0" % i for i in range(n))
    return program("ring_beside_pair", ring + pair, "!(%s) && !(%s)" % (ring_bug, bug))


def test_opt_beside_a_buggy_part_checks_only_its_buggy_traces(monkeypatch):
    # Opt enumerated the ring whole beside the pair, to count the product's
    # buggy executions: 1.95 s against 0.053 s for the ring alone.  By
    # parts, the pair adds only its own candidates to the ring's.
    from fencesynth import driver

    def checked(text):
        p = elaborate(parse_program(text), 16)
        return checked_candidates(monkeypatch, lambda: driver.synthesize_optimal(p, Limits(timeout_secs=10)))

    result, both = checked(ring_beside_pair(12))
    _, ring = checked(sb_ring(12))
    _, pair = checked(mp_program("mp"))
    assert result.status == "fixed" and both <= ring + pair
    assert "traces analyzed: 2\n" in result.render()


def test_fast_bounds_its_passes_over_all_parts():
    from fencesynth import driver

    p = elaborate(parse_program(mp_pairs(3)), 16)
    assert driver.synthesize_fast(p, Limits(max_iters=3)).iterations == 3
    with pytest.raises(ResourceLimitError) as exc:
        driver.synthesize_fast(p, Limits(max_iters=2))
    assert exc.value.phase == "iterative-synthesis"


def test_fast_runs_its_passes_in_parts_order():
    # On the whole path, pass 1 fixed sb_one_sc's bug, whose trace comes
    # first in the product.
    from fencesynth import driver

    p = elaborate(parse_program(corpus_join("dekker_core", "sb_one_sc")), 16)
    assert [sub.threads[0].tid for sub in parts(p)] == ["t1", "t1_b"]
    result = driver.synthesize_fast(p)
    assert result.notes == ["pass 1: t1@1:sc, t2@1:sc", "pass 2: t2_b@1:sc"]
