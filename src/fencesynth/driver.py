"""Synthesis drivers: whole-program (optimal) and one-trace-at-a-time.

The optimal driver collects every buggy trace, solves one global query and
applies the typed solution once.  The fast driver repairs the first buggy
trace, re-enumerates the rewritten program and repeats; it is near-optimal
and may synthesize extra fences on adversarial query structure.  Both
verify the fix by exhaustive re-enumeration, and a sanity checker confirms
each synthesized fence is load-bearing by weakening or removing it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .cycles import CandidateSolution, analyze_trace
from .errors import InternalCheckError, LitmusError, ResourceLimitError
from .enumerator import find_buggy_traces, iter_buggy_traces
from .limits import Limits, ensure_started
from .litmus import Fence, If, Program, elaborate, preorder, renumber
from .model import FenceSlot, SourceLocation, Trace
from .optimize import Query, TypedSolution, assign_memory_orders, build_query, find_min_model
from .orders import MemoryOrder, lub

FIXED = "fixed"
ALREADY_CORRECT = "already-correct"
NO_FIX = "no-fix"


@dataclass
class SynthesizedFence:
    slot: FenceSlot  # gap in the input program's numbering
    order: MemoryOrder
    iteration: int  # 0 for the whole-program driver
    iter_tag: tuple[int, ...] = ()  # unroll iterations of the neighboring code


@dataclass
class StrengthenedFence:
    loc: SourceLocation  # statement position in the input program
    old: MemoryOrder
    new: MemoryOrder


@dataclass
class SynthesisResult:
    status: str
    synthesized: list[SynthesizedFence] = field(default_factory=list)
    strengthened: list[StrengthenedFence] = field(default_factory=list)
    iterations: int = 0
    traces_analyzed: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    no_fix_trace: int | None = None
    fixed_program: Program | None = None
    # Artifacts for emitters and tests.
    buggy_traces: list[Trace] = field(default_factory=list)
    solutions_by_trace: list[list[CandidateSolution]] = field(default_factory=list)
    queries: list[Query] = field(default_factory=list)

    @property
    def weight(self) -> int:
        return sum(f.order.weight for f in self.synthesized)

    def render(self) -> str:
        lines = ["status: %s" % self.status]
        if self.status == NO_FIX:
            lines.append(
                "trace %d admits no weak or strong cycles; it cannot be "
                "invalidated by inserting fences" % self.no_fix_trace
            )
        if self.synthesized:
            lines.append("synthesized fences (%d, weight %d):" % (len(self.synthesized), self.weight))
            for f in self.synthesized:
                extra = ""
                if f.iter_tag:
                    extra += " [unrolled iteration %s]" % ",".join(map(str, f.iter_tag))
                if f.iteration:
                    extra += " [pass %d]" % f.iteration
                lines.append("  %s: %s%s" % (f.slot, f.order, extra))
        elif self.status == FIXED:
            lines.append("synthesized fences: none")
        if self.strengthened:
            lines.append("strengthened fences (%d):" % len(self.strengthened))
            for s in self.strengthened:
                lines.append("  %s: %s -> %s" % (s.loc, s.old, s.new))
        for n in self.notes:
            lines.append("note: %s" % n)
        lines.append("iterations: %d" % self.iterations)
        lines.append("traces analyzed: %d" % self.traces_analyzed)
        if self.timings:
            lines.append(
                "timings: "
                + " ".join("%s=%.3fs" % (k, v) for k, v in self.timings.items())
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Applying a typed solution to a program


def apply_solution(p: Program, ts: TypedSolution, synth_iter: int = 0) -> Program:
    """Insert the solution's fences, strengthen existing ones, merge
    synthesized fences that land adjacent to another fence (keeping the
    least upper bound), and renumber."""
    q = elaborate(p)

    for loc, new_ord in ts.strengthened:
        stmt = q.statements(loc.thread).get(loc.index)
        if not isinstance(stmt, Fence):
            raise LitmusError("no fence at %s to strengthen" % loc)
        if stmt.ord.weaker_than(new_ord):
            stmt.ord = new_ord

    for slot, order in ts.assignment:
        if slot.thread not in [t.tid for t in q.threads]:
            raise LitmusError("slot %s names an unknown thread" % slot)
        if not 0 <= slot.gap <= q.thread(slot.thread).size:
            raise LitmusError("slot %s out of range" % slot)
        block, pos = q.locate_gap(slot.thread, slot.gap)
        neighbor = block[pos] if pos < len(block) else (block[pos - 1] if block else None)
        tag = neighbor.iter_tag if neighbor is not None else ()
        block.insert(pos, Fence(order, synth_iter=synth_iter, iter_tag=tag))

    for t in q.threads:
        _merge_adjacent(t.body)
    return renumber(q)


def _merge_adjacent(block) -> None:
    for s in block:
        if isinstance(s, If):
            _merge_adjacent(s.then)
            _merge_adjacent(s.orelse)
    i = 0
    while i < len(block) - 1:
        a, b = block[i], block[i + 1]
        if (
            isinstance(a, Fence)
            and isinstance(b, Fence)
            and (a.synthesized or b.synthesized)
        ):
            # Keep a pre-existing program fence when one side has it (its
            # identity records the strengthening); else keep the earlier
            # synthesized fence.  Either way the merged order is the lub.
            if not a.synthesized:
                survivor, drop_at = a, i + 1
            elif not b.synthesized:
                survivor, drop_at = b, i
            else:
                survivor, drop_at = a, i + 1
                survivor.synth_iter = min(a.synth_iter, b.synth_iter)
            survivor.ord = lub(a.ord, b.ord)
            del block[drop_at]
            # Stay at i: chains of adjacent fences fold into one.
        else:
            i += 1


def _diff(original: Program, fixed: Program):
    """Synthesized and strengthened fences of ``fixed`` relative to
    ``original``, in the original program's coordinates."""
    orig_stmts = {s.uid: s for t in original.threads for _, _, s in preorder(t.body)}
    synthesized: list[SynthesizedFence] = []
    strengthened: list[StrengthenedFence] = []
    for t in fixed.threads:
        counter = 0
        for _, _, s in preorder(t.body):
            orig = orig_stmts.get(s.uid)
            if orig is not None:
                if isinstance(s, Fence) and s.ord is not orig.ord:
                    strengthened.append(
                        StrengthenedFence(SourceLocation(t.tid, orig.idx), orig.ord, s.ord)
                    )
                counter += 1
            elif isinstance(s, Fence) and s.synthesized:
                synthesized.append(
                    SynthesizedFence(FenceSlot(t.tid, counter), s.ord, s.synth_iter, s.iter_tag)
                )
            else:
                raise InternalCheckError(
                    "fixed program has a statement that is neither in the "
                    "original nor a synthesized fence: %r" % (s,)
                )
    return synthesized, strengthened


# ---------------------------------------------------------------------------
# Whole-program synthesis (optimal)


def synthesize_optimal(p: Program, limits: Limits | None = None) -> SynthesisResult:
    """Collect all buggy traces, solve one global query, fix, re-verify."""
    limits = ensure_started(limits)
    if not p.elaborated:
        p = elaborate(p)
    timings: dict[str, float] = {}

    t0 = time.monotonic()
    buggy = find_buggy_traces(p, limits)
    timings["enumerate"] = time.monotonic() - t0
    result = SynthesisResult(status=FIXED, buggy_traces=buggy, traces_analyzed=len(buggy))
    result.timings = timings
    if not buggy:
        result.status = ALREADY_CORRECT
        result.fixed_program = p
        return result

    t0 = time.monotonic()
    memo: dict = {}
    for tid, tr in enumerate(buggy):
        sols = analyze_trace(tr, tid, limits, memo=memo)
        if not sols:
            timings["analyze"] = time.monotonic() - t0
            result.status = NO_FIX
            result.no_fix_trace = tid
            result.solutions_by_trace.append([])
            return result
        result.solutions_by_trace.append(sols)
    timings["analyze"] = time.monotonic() - t0

    t0 = time.monotonic()
    query = build_query(result.solutions_by_trace)
    result.queries.append(query)
    model = find_min_model(query, limits)
    typed = assign_memory_orders(model, result.solutions_by_trace, limits)
    timings["solve"] = time.monotonic() - t0

    t0 = time.monotonic()
    fixed = apply_solution(p, typed, synth_iter=0)
    leftover = find_buggy_traces(fixed, limits)
    timings["verify"] = time.monotonic() - t0
    if leftover:
        raise InternalCheckError(
            "solution verification failed: %d buggy traces remain" % len(leftover)
        )
    result.fixed_program = fixed
    result.iterations = 1
    result.synthesized, result.strengthened = _diff(p, fixed)
    return result


# ---------------------------------------------------------------------------
# One-trace-at-a-time synthesis (fast, near-optimal)


def synthesize_fast(p: Program, limits: Limits | None = None) -> SynthesisResult:
    """Fix the first buggy trace, re-enumerate, repeat until clean."""
    limits = ensure_started(limits)
    if not p.elaborated:
        p = elaborate(p)
    original = p
    timings = {"enumerate": 0.0, "analyze": 0.0, "solve": 0.0}
    result = SynthesisResult(status=FIXED, timings=timings)

    # A component no pass has touched keeps its source positions, and so
    # its memo key, from one pass to the next.
    memo: dict = {}
    iteration = 0
    while True:
        t0 = time.monotonic()
        first = next(iter_buggy_traces(p, limits), None)
        timings["enumerate"] += time.monotonic() - t0
        if first is None:
            break
        if iteration >= limits.max_iters:
            raise ResourceLimitError("iterative-synthesis", "max iterations reached")
        result.buggy_traces.append(first)
        result.traces_analyzed += 1

        t0 = time.monotonic()
        sols = analyze_trace(first, iteration, limits, memo=memo)
        timings["analyze"] += time.monotonic() - t0
        result.solutions_by_trace.append(sols)
        if not sols:
            result.status = NO_FIX
            result.no_fix_trace = iteration
            result.iterations = iteration
            return result

        t0 = time.monotonic()
        query = build_query([sols])
        result.queries.append(query)
        model = find_min_model(query, limits)
        typed = assign_memory_orders(model, [sols], limits)
        timings["solve"] += time.monotonic() - t0

        iteration += 1
        result.notes.append(
            "pass %d: %s" % (
                iteration,
                ", ".join("%s:%s" % (s, o) for s, o in typed.assignment)
                + (
                    "; strengthen " + ", ".join("%s->%s" % (l, o) for l, o in typed.strengthened)
                    if typed.strengthened
                    else ""
                ),
            )
        )
        p = apply_solution(p, typed, synth_iter=iteration)

    result.status = FIXED if iteration > 0 else ALREADY_CORRECT
    result.iterations = iteration
    result.fixed_program = p
    result.synthesized, result.strengthened = _diff(original, p)
    return result


def synthesize(p: Program, mode: str = "opt", limits: Limits | None = None) -> SynthesisResult:
    if mode == "opt":
        return synthesize_optimal(p, limits)
    if mode == "fast":
        return synthesize_fast(p, limits)
    raise ValueError("mode must be 'opt' or 'fast'")


# ---------------------------------------------------------------------------
# Sanity check: every synthesized fence is load-bearing


@dataclass
class MutantOutcome:
    fence: str
    mutation: str
    verdict: str  # 'bug-reappears' | 'still-clean' | 'inconclusive'


@dataclass
class SanityReport:
    outcomes: list[MutantOutcome] = field(default_factory=list)
    passed: bool = True

    def render(self) -> str:
        if not self.outcomes:
            return "sanity check: vacuously passed (no synthesized fences)\n"
        lines = ["sanity check: %s" % ("passed" if self.passed else "FAILED")]
        for o in self.outcomes:
            lines.append("  %s %s: %s" % (o.fence, o.mutation, o.verdict))
        return "\n".join(lines) + "\n"


_WEAKENINGS = {
    MemoryOrder.SC: (MemoryOrder.AR,),
    MemoryOrder.AR: (MemoryOrder.REL, MemoryOrder.ACQ),
    MemoryOrder.REL: (),
    MemoryOrder.ACQ: (),
}


def sanity_check(p_fixed: Program, result: SynthesisResult, limits: Limits | None = None) -> SanityReport:
    """Remove or one-step-weaken each synthesized fence and re-enumerate.

    Passes iff every mutant program has at least one buggy trace; a mutant
    hitting a resource limit is reported inconclusive.
    """
    limits = ensure_started(limits)
    report = SanityReport()
    if result.status != FIXED:
        return report

    synth_uids = [
        s.uid
        for t in p_fixed.threads
        for _, _, s in preorder(t.body)
        if isinstance(s, Fence) and s.synthesized
    ]

    def locate(program, uid):
        for t in program.threads:
            for block, i, s in preorder(t.body):
                if s.uid == uid:
                    return block, i, s
        raise InternalCheckError("lost a synthesized fence while mutating")

    def probe(mutant, fence_name, mutation):
        try:
            buggy = next(iter_buggy_traces(renumber(mutant), limits), None)
        except ResourceLimitError:
            report.outcomes.append(MutantOutcome(fence_name, mutation, "inconclusive"))
            report.passed = False
            return
        verdict = "bug-reappears" if buggy is not None else "still-clean"
        if verdict != "bug-reappears":
            report.passed = False
        report.outcomes.append(MutantOutcome(fence_name, mutation, verdict))

    for uid in synth_uids:
        _, _, stmt = locate(p_fixed, uid)
        name = "fence(%s) uid=%d" % (stmt.ord, uid)

        removal = elaborate(p_fixed)
        block, i, _ = locate(removal, uid)
        del block[i]
        probe(removal, name, "removed")

        for weaker in _WEAKENINGS[stmt.ord]:
            weakened = elaborate(p_fixed)
            _, _, target = locate(weakened, uid)
            target.ord = weaker
            probe(weakened, name, "weakened to %s" % weaker)

    return report
