"""Synthesis drivers: optimal and one-trace-at-a-time, both by parts.

Both drivers work on each assertion-independent part (``enumerator.parts``;
the whole program is the one part where there is no split) through its
pruned buggy-trace enumeration, and feed buggy traces to one solve step,
which analyses each trace whole.  The optimal driver feeds every buggy
trace of each part and applies the union of the parts' typed solutions
once, or stops at the first part without a fix; the fast driver feeds a
part's first buggy trace, applies that fix, re-enumerates the part and
repeats, then moves to the next part.  Fast is near-optimal and may
synthesize extra fences on adversarial query structure.  Both verify the
fix exactly: ``opt`` decides with ``has_buggy_trace`` that no consistent
execution of the fixed program falsifies the assertion, and ``fast`` stops
when its next pass finds no buggy trace in the last part.  A sanity
checker confirms each synthesized fence is load-bearing by weakening or
removing it in a copy of its part's sub-program and deciding the same
question there.  A fence already in the program changes only when a
synthesized fence is merged into it; the report lists that as a
strengthening.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .cycles import CandidateSolution, analyze_trace
from .errors import InternalCheckError, LitmusError, ResourceLimitError
from .enumerator import find_buggy_traces, has_buggy_trace, iter_buggy_traces, parts
from .limits import Limits
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
    iteration: int  # 0 for the optimal driver
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
    traces_analyzed: int = 0  # buggy traces enumerated, summed over parts
    timings: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    no_fix_trace: int | None = None
    fixed_program: Program | None = None
    # Artifacts for emitters and tests: the traces ``_solve`` analysed, in
    # order (``no_fix_trace`` and query clauses index them), each of its
    # part's sub-program with part-local event ids.
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
    """Insert the solution's fences, merge synthesized fences that land
    adjacent to another fence (keeping the least upper bound, so a merge
    into a program fence strengthens it), and renumber."""
    q = elaborate(p)

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
# The solve step both drivers share, and synthesis by parts (optimal)


def _solve(traces: list[Trace], result: SynthesisResult, limits: Limits) -> TypedSolution | None:
    """Analyse ``traces`` as the result's next trace ids and solve their
    query; None, with the no-fix verdict recorded, when a trace has no
    solution.  Adds to ``timings["analyze"]`` and ``timings["solve"]``."""
    timings = result.timings
    start = len(result.buggy_traces)
    result.buggy_traces += traces
    t0 = time.monotonic()
    for tid, tr in enumerate(traces, start):
        sols = analyze_trace(tr, tid, limits)
        result.solutions_by_trace.append(sols)
        if not sols:
            result.status = NO_FIX
            result.no_fix_trace = tid
            break
    timings["analyze"] = timings.get("analyze", 0.0) + time.monotonic() - t0
    if result.status == NO_FIX:
        return None

    t0 = time.monotonic()
    solutions = result.solutions_by_trace[start:]
    query = build_query(solutions)
    result.queries.append(query)
    model = find_min_model(query, limits)
    typed = assign_memory_orders(model, solutions, limits)
    timings["solve"] = timings.get("solve", 0.0) + time.monotonic() - t0
    return typed


def synthesize_optimal(p: Program, limits: Limits | None = None) -> SynthesisResult:
    """Collect all buggy traces, solve their query, fix, re-verify.

    The program is solved part by part (``parts``; the whole program is the
    one part where there is no split).  Each part's buggy executions are
    enumerated pruned, as in ``has_buggy_trace``, so a program without a
    bug builds no execution that holds.  Each buggy part is solved on its
    own and the typed solutions' union is applied, verified and reported
    once.  ``traces analyzed`` is the number of buggy traces enumerated,
    summed over the parts.  A part without a fix ends the run:
    ``no_fix_trace`` indexes ``buggy_traces``, the parts' traces in the
    order they were analysed.

    Soundness.  No relation crosses parts (``has_buggy_trace``), so a fence
    in one part changes no execution of another, and a falsifying whole
    execution fails some part's conjunction: a fence set fixes the program
    iff its share in each part fixes that part.  Each part keeps an
    execution that no fence set removes (an sc interleaving), so the whole
    query's minimum models are the unions of the parts', and their
    cardinality and weight add up over parts.  For two slot sets of equal
    size, the smallest element of their symmetric difference decides their
    lexicographic order, and for equal weights the first slot whose order
    differs decides the order key; each lies in one part, so the union of
    the per-part least answers is the least answer.
    """
    limits = limits or Limits()
    if not p.elaborated:
        p = elaborate(p)

    t0 = time.monotonic()
    buggy = list(filter(None, (list(iter_buggy_traces(sub, limits)) for sub in parts(p))))
    timings = {"enumerate": time.monotonic() - t0}
    result = SynthesisResult(status=FIXED, traces_analyzed=sum(map(len, buggy)), timings=timings)
    if not buggy:
        result.status = ALREADY_CORRECT
        result.fixed_program = p
        return result
    assignment: list = []
    for traces in buggy:
        typed = _solve(traces, result, limits)
        if typed is None:
            return result
        assignment += typed.assignment

    t0 = time.monotonic()
    fixed = apply_solution(p, TypedSolution(tuple(sorted(assignment))), synth_iter=0)
    if has_buggy_trace(fixed, limits):
        raise InternalCheckError(
            "solution verification failed: %d buggy traces remain"
            % sum(len(find_buggy_traces(sub, limits)) for sub in parts(fixed))
        )
    result.timings["verify"] = time.monotonic() - t0
    result.fixed_program = fixed
    result.iterations = 1
    result.synthesized, result.strengthened = _diff(p, fixed)
    return result


# ---------------------------------------------------------------------------
# One-trace-at-a-time synthesis (fast, near-optimal)


def synthesize_fast(p: Program, limits: Limits | None = None) -> SynthesisResult:
    """Fix the first buggy trace, re-enumerate, repeat until clean, one part
    at a time (``parts``, in order).  A fence changes no part, so the
    program is clean once each part is; pass numbers count across parts,
    and ``max_iters`` bounds them all."""
    limits = limits or Limits()
    if not p.elaborated:
        p = elaborate(p)
    original = p
    timings = {"enumerate": 0.0, "analyze": 0.0, "solve": 0.0}
    result = SynthesisResult(status=FIXED, timings=timings)

    for part in parts(p):
        tids = {t.tid for t in part.threads}
        while True:
            t0 = time.monotonic()
            part = replace(part, threads=[t for t in p.threads if t.tid in tids])
            first = next(iter_buggy_traces(part, limits), None)
            timings["enumerate"] += time.monotonic() - t0
            if first is None:
                break
            if result.iterations >= limits.max_iters:
                raise ResourceLimitError("iterative-synthesis", "max iterations reached")
            result.traces_analyzed += 1
            typed = _solve([first], result, limits)
            if typed is None:
                return result

            result.iterations += 1
            result.notes.append(
                "pass %d: %s" % (result.iterations, ", ".join("%s:%s" % (s, o) for s, o in typed.assignment))
            )
            p = apply_solution(p, typed, synth_iter=result.iterations)

    result.status = FIXED if result.iterations > 0 else ALREADY_CORRECT
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
    """Remove or one-step-weaken each synthesized fence and re-check.

    Passes iff every mutant program has at least one buggy trace; a mutant
    hitting a resource limit is reported inconclusive.  The fixed program
    has no buggy trace, and a mutant differs from it in one fence, which
    lies in one assertion-independent part and changes no part
    (``parts``).  So a mutant has a buggy trace iff the sub-program of its
    fence's part has one, and only a copy of that sub-program is mutated
    and decided, with no further split: the fixed program's parts are
    computed once.
    """
    limits = limits or Limits()
    report = SanityReport()
    if result.status != FIXED:
        return report

    synth = [
        (t.tid, s)
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

    part_of = {t.tid: sub for sub in parts(p_fixed) for t in sub.threads}

    def probe(mutant, fence_name, mutation):
        try:
            # One part by construction, so no split is asked for.
            buggy = next(iter_buggy_traces(renumber(mutant), limits), None) is not None
            verdict = "bug-reappears" if buggy else "still-clean"
        except ResourceLimitError:
            verdict = "inconclusive"
        if verdict != "bug-reappears":
            report.passed = False
        report.outcomes.append(MutantOutcome(fence_name, mutation, verdict))

    for tid, stmt in synth:
        name = "fence(%s) uid=%d" % (stmt.ord, stmt.uid)

        removal = elaborate(part_of[tid])
        block, i, _ = locate(removal, stmt.uid)
        del block[i]
        probe(removal, name, "removed")

        for weaker in _WEAKENINGS[stmt.ord]:
            weakened = elaborate(part_of[tid])
            _, _, target = locate(weakened, stmt.uid)
            target.ord = weaker
            probe(weakened, name, "weakened to %s" % weaker)

    return report
