"""Outside-in tracing of fencesynth's layers for the benchmark's traced run.

The tracer replaces public functions, as module attributes, with wrappers
that record a span around each call.  The package looks these names up at
call time (module globals, and the lazy ``from .relations import ...`` in
``model``), so no source edit is needed.  Every wrapped attribute is put
back when the traced run ends.  A generator function is timed around each
``next()``, not around the call that creates it, which does no work.

Spans (name, phase, start, end, parent, job) stay in memory and are written
out once at the end.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import time
from dataclasses import dataclass, field

from fencesynth.limits import Limits

# (module, attribute, span name).  Where the driver calls a function through
# its own imported name, the driver's attribute is the one to wrap.
TARGETS = (
    ("fencesynth.driver", "find_buggy_traces", "enumerator.enumerate"),
    ("fencesynth.driver", "iter_buggy_traces", "enumerator.enumerate"),
    ("fencesynth.driver", "analyze_trace", "cycles.analyze"),
    ("fencesynth.driver", "build_query", "optimize.query"),
    ("fencesynth.driver", "find_min_model", "optimize.min_model"),
    ("fencesynth.driver", "assign_memory_orders", "optimize.assign"),
    ("fencesynth.driver", "apply_solution", "driver.apply"),
    ("fencesynth.enumerator", "coherence_violations", "enumerator.coherence"),
    ("fencesynth.enumerator", "exists_sc_total_order", "enumerator.sc_search"),
    ("fencesynth.relations", "compute_hb_info", "relations.hb"),
    ("fencesynth.relations", "compute_so_info", "relations.so"),
    ("fencesynth.cycles", "insert_candidate_fences", "cycles.insert"),
    ("fencesynth.cycles", "find_weak_cycles", "cycles.weak"),
    ("fencesynth.cycles", "find_strong_cycles", "cycles.strong"),
    ("fencesynth.cycles", "enumerate_simple_cycles", "cycles.johnson"),
)
GENERATORS = {"iter_buggy_traces"}

# Self time is grouped into these layers for the printed shares; the first
# matching prefix wins.
GROUPS = (
    ("enumerator.sc_search", "sc_search"),
    ("litmus.", "litmus"),
    ("enumerator.", "enumerator"),
    ("relations.", "relations"),
    ("cycles.", "cycles"),
    ("optimize.", "optimize"),
    ("driver.", "driver"),
    ("job", "driver"),
)
GROUP_NAMES = ("litmus", "enumerator", "sc_search", "relations", "cycles", "optimize", "driver")

# The attributes each metric needs.  A metric whose attribute no longer
# exists is reported as absent; metrics not listed need none.
NEEDS = {
    "enumerator.enumerate_s": ("find_buggy_traces", "iter_buggy_traces"),
    "enumerator.candidates": ("coherence_violations",),
    "enumerator.consistent": ("coherence_violations", "exists_sc_total_order"),
    "enumerator.keep_ratio": ("coherence_violations", "exists_sc_total_order"),
    "enumerator.coherence_s": ("coherence_violations",),
    "enumerator.coherence_rejects": ("coherence_violations",),
    "enumerator.sc_search_s": ("exists_sc_total_order",),
    "enumerator.sc_search_calls": ("exists_sc_total_order",),
    "enumerator.sc_rejects": ("exists_sc_total_order",),
    "enumerator.buggy_traces": ("find_buggy_traces", "iter_buggy_traces"),
    "relations.hb_s": ("compute_hb_info",),
    "relations.hb_calls": ("compute_hb_info",),
    "relations.so_s": ("compute_so_info",),
    "relations.so_calls": ("compute_so_info",),
    "cycles.analyze_s": ("analyze_trace",),
    "cycles.insert_s": ("insert_candidate_fences",),
    "cycles.weak_s": ("find_weak_cycles",),
    "cycles.strong_s": ("find_strong_cycles",),
    "cycles.johnson_s": ("enumerate_simple_cycles",),
    "cycles.simple_cycles": ("enumerate_simple_cycles",),
    "cycles.solutions": ("analyze_trace",),
    "cycles.solutions_per_cycle": ("analyze_trace", "enumerate_simple_cycles"),
    "cycles.max_cycles_per_trace": ("analyze_trace", "enumerate_simple_cycles"),
    "optimize.query_s": ("build_query",),
    "optimize.clauses": ("build_query",),
    "optimize.slots": ("build_query",),
    "optimize.model_size": ("find_min_model",),
    "optimize.min_model_s": ("find_min_model",),
    "optimize.assign_s": ("assign_memory_orders",),
    "optimize.orders_inexact": ("assign_memory_orders",),
    "driver.apply_s": ("apply_solution",),
    "driver.verify_s": ("find_buggy_traces", "apply_solution"),
}


@dataclass
class CountingLimits(Limits):
    """Limits that count ``check_time`` calls per phase.

    The enumerator checks once per thread-choice and rf-choice, the
    min-model search once per subset probed and order assignment once per
    coalescing choice, so these counts measure those searches.
    """

    checks: collections.Counter = field(default_factory=collections.Counter, repr=False)

    def check_time(self, phase: str) -> None:
        self.checks[phase] += 1
        super().check_time(phase)


class NoTrace:
    """The untraced run: the same hooks as ``Tracer``, doing nothing."""

    phase = None

    def limits(self, timeout_secs: float) -> Limits:
        return Limits(timeout_secs=timeout_secs)

    def job(self, family: str, mode: str):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, **amounts) -> None:
        pass


class Tracer:
    """Spans and counters for the traced run; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []  # [name, phase, start, end, parent, job]
        self.counts: collections.Counter = collections.Counter()
        self.checks: collections.Counter = collections.Counter()
        self.job_family: list[str] = []
        self.missing: list[str] = []
        self.max_cycles_per_trace = 0
        self.phase = None
        self._mode = None
        self._stack: list[int] = []
        self._cycles_this_trace = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installing and restoring the wrappers

    def __enter__(self) -> "Tracer":
        try:
            for module_name, attr, span_name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(attr)
                    continue
                wrap = self._wrap_generator if attr in GENERATORS else self._wrap
                self._saved.append((module, attr, original))
                setattr(module, attr, wrap(original, attr, span_name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, attr, span_name):
        on_result = getattr(self, "_on_" + attr, None)

        def traced(*args, **kwargs):
            idx = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrap_generator(self, fn, attr, span_name):
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def timed():
                while True:
                    idx = self._open(span_name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    if self.phase == "synthesize":
                        self.counts["buggy_traces"] += 1
                    yield item

            return timed()

        return traced

    # -- result counters, one per wrapped attribute that has any

    def _on_find_buggy_traces(self, traces) -> None:
        if self.phase == "synthesize":
            self.counts["buggy_traces"] += len(traces)

    def _on_coherence_violations(self, violated) -> None:
        self.counts.update(candidates=1, coherence_rejects=bool(violated))

    def _on_exists_sc_total_order(self, ok) -> None:
        self.counts.update(sc_search_calls=1, sc_rejects=not ok)

    def _on_compute_hb_info(self, _) -> None:
        self.counts["hb_calls"] += 1

    def _on_compute_so_info(self, _) -> None:
        self.counts["so_calls"] += 1

    def _on_enumerate_simple_cycles(self, cycles) -> None:
        self.counts["simple_cycles"] += len(cycles)
        self._cycles_this_trace += len(cycles)

    def _on_analyze_trace(self, solutions) -> None:
        self.counts["solutions"] += len(solutions)
        self.max_cycles_per_trace = max(self.max_cycles_per_trace, self._cycles_this_trace)
        self._cycles_this_trace = 0

    def _on_build_query(self, query) -> None:
        self.counts.update(clauses=len(query.clauses), slots=len(query.slots))

    def _on_find_min_model(self, model) -> None:
        self.counts["model_size"] += len(model)

    def _on_assign_memory_orders(self, typed) -> None:
        self.counts["orders_inexact"] += not typed.orders_exact

    def _on_apply_solution(self, _) -> None:
        # The opt driver applies once and then re-enumerates to verify; the
        # fast driver's next enumeration is its next pass.
        if self._mode == "opt" and self.phase == "synthesize":
            self.phase = "verify"

    # -- hooks for the benchmark's job runner

    def limits(self, timeout_secs: float) -> CountingLimits:
        return CountingLimits(timeout_secs=timeout_secs, checks=self.checks)

    @contextlib.contextmanager
    def job(self, family: str, mode: str):
        self.job_family.append(family)
        self._mode, self.phase = mode, "synthesize"
        with self.span("job"):
            yield

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, **amounts) -> None:
        self.counts.update(amounts)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.phase, time.perf_counter(), None, parent,
                           len(self.job_family) - 1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    # -- results

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def group_shares(self, selftimes, family: str) -> dict[str, float]:
        """Share of the family's job time spent in each layer's own code."""
        by_group = dict.fromkeys(GROUP_NAMES, 0.0)
        for (name, _, _, _, _, job), st in zip(self.spans, selftimes):
            if self.job_family[job] == family:
                by_group[_group(name)] += st
        total = sum(by_group.values()) or 1.0
        return {g: v / total for g, v in by_group.items()}

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass, without those whose target is gone.

        Times are self times, except enumerate_s, analyze_s, verify_s and
        sanity_s, which cover a whole phase.
        """
        selftimes = self.self_times()
        own = collections.Counter()
        whole = collections.Counter()  # inclusive time per (name, phase)
        for (name, phase, start, end, _, _), st in zip(self.spans, selftimes):
            own[name] += st
            whole[name, phase] += end - start
        c, k = self.counts, self.checks
        consistent = c["candidates"] - c["coherence_rejects"] - c["sc_rejects"]
        raw = {
            "litmus.parse_s": own["litmus.parse"],
            "litmus.statements": c["statements"],
            "enumerator.enumerate_s": whole["enumerator.enumerate", "synthesize"],
            "enumerator.candidates": c["candidates"],
            "enumerator.consistent": consistent,
            "enumerator.coherence_s": own["enumerator.coherence"],
            "enumerator.coherence_rejects": c["coherence_rejects"],
            "enumerator.sc_search_s": own["enumerator.sc_search"],
            "enumerator.sc_search_calls": c["sc_search_calls"],
            "enumerator.sc_rejects": c["sc_rejects"],
            "enumerator.buggy_traces": c["buggy_traces"],
            "enumerator.limit_checks": k["trace-enumeration"],
            "relations.hb_s": own["relations.hb"],
            "relations.hb_calls": c["hb_calls"],
            "relations.so_s": own["relations.so"],
            "relations.so_calls": c["so_calls"],
            "cycles.analyze_s": whole["cycles.analyze", "synthesize"],
            "cycles.insert_s": own["cycles.insert"],
            "cycles.weak_s": own["cycles.weak"],
            "cycles.strong_s": own["cycles.strong"],
            "cycles.johnson_s": own["cycles.johnson"],
            "cycles.simple_cycles": c["simple_cycles"],
            "cycles.solutions": c["solutions"],
            "optimize.query_s": own["optimize.query"],
            "optimize.clauses": c["clauses"],
            "optimize.slots": c["slots"],
            "optimize.model_size": c["model_size"],
            "optimize.min_model_s": own["optimize.min_model"],
            "optimize.subsets_probed": k["min-model"],
            "optimize.assign_s": own["optimize.assign"],
            "optimize.coalesce_choices": k["order-assignment"],
            "optimize.orders_inexact": c["orders_inexact"],
            "driver.synthesize_s": own["driver.synthesize"],
            "driver.apply_s": own["driver.apply"],
            "driver.verify_s": whole["enumerator.enumerate", "verify"],
            "driver.fast_iterations": c["fast_iterations"],
            "driver.sanity_s": whole["driver.sanity", "sanity"],
            "driver.sanity_mutants": c["sanity_mutants"],
        }
        out = {name: value / passes for name, value in raw.items()}
        out["enumerator.keep_ratio"] = consistent / c["candidates"] if c["candidates"] else 0.0
        out["cycles.solutions_per_cycle"] = (
            c["solutions"] / c["simple_cycles"] if c["simple_cycles"] else 0.0
        )
        out["cycles.max_cycles_per_trace"] = self.max_cycles_per_trace
        return {
            name: value for name, value in out.items()
            if not any(attr in self.missing for attr in NEEDS.get(name, ()))
        }

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("name\tphase\tstart\tend\tparent\tjob\n")
            for name, phase, start, end, parent, job in self.spans:
                fh.write("%s\t%s\t%.9f\t%.9f\t%d\t%d\n" % (name, phase, start, end, parent, job))


def _group(span_name: str) -> str:
    for prefix, group in GROUPS:
        if span_name.startswith(prefix):
            return group
    raise ValueError("span %r belongs to no layer" % span_name)
