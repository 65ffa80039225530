"""The fencesynth benchmark: one command, four seeded workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Runs the workload's jobs in a closed loop (one process, one job at a time)
for ``--seconds``, in whole passes over the workload's job list and at
least ``MIN_PASSES`` of them.  A job is one program run in one driver mode,
through the public API the way ``fensy`` runs it: ``parse_program`` ->
``elaborate`` -> ``synthesize(mode=...)``, plus ``sanity_check`` after
every opt fix.  Every answer is checked after its pass, outside the timed
region; the last line of standard output is one JSON object with the result.  The command exits
nonzero when any check fails.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced (see tracer.py), and reports the per-layer
metrics plus ``trace.overhead``, the untraced jobs per second over the
traced ones.  bench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import array
import collections
import importlib.util
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import fencesynth  # noqa: E402

if Path(fencesynth.__file__).resolve().parent != SRC / "fencesynth":
    raise ImportError("fencesynth was imported from %s, not from %s" % (fencesynth.__file__, SRC))

from fencesynth import ResourceLimitError, elaborate, parse_program, sanity_check, synthesize  # noqa: E402

import workloads  # noqa: E402
from tracer import NoTrace, Tracer  # noqa: E402
from workloads import ALREADY_CORRECT, FIXED, UNROLL  # noqa: E402

# The tail is the job time with 10 samples beyond it; from 11 passes on it
# always falls among the samples of the workload's slowest job.
MIN_PASSES = 11
JOB_TIMEOUT_S = 30.0
SETUP_PROBES = 11
SPANS_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class Record:
    """What one job produced, kept until its pass has been checked."""

    case: workloads.Case
    mode: str
    seconds: float
    status: str | None = None
    fences: int = 0
    weight: int = 0
    render: str = ""
    sanity: tuple[str, ...] | None = None  # mutant verdicts
    error: str | None = None
    fixed: object = None  # the fixed Program, for the oracle


def run_job(case, mode, tracer, timeout_s=JOB_TIMEOUT_S) -> Record:
    limits = tracer.limits(timeout_s).start()
    rec = Record(case, mode, 0.0)
    phase = "parse"
    t0 = time.perf_counter()
    try:
        with tracer.job(case.family, mode):
            with tracer.span("litmus.parse"):
                program = elaborate(parse_program(case.text), UNROLL)
            phase = "synthesize"
            with tracer.span("driver.synthesize"):
                result = synthesize(program, mode=mode, limits=limits)
            report = None
            if mode == "opt" and result.status == FIXED:
                phase = tracer.phase = "sanity"
                with tracer.span("driver.sanity"):
                    report = sanity_check(result.fixed_program, result, limits)
    except ResourceLimitError as exc:
        rec.error = "limit reached in %s: %s" % (phase, exc)
    except Exception:  # a crash is one failed job; the run goes on
        rec.error = "exception in %s:\n%s" % (phase, traceback.format_exc())
    rec.seconds = time.perf_counter() - t0
    if rec.error is None:
        rec.status = result.status
        rec.fences = len(result.synthesized)
        rec.weight = result.weight
        # The timings line is wall-clock time; everything else must repeat.
        rec.render = "".join(
            line for line in result.render().splitlines(True) if not line.startswith("timings:")
        )
        if report is not None:
            rec.sanity = tuple(o.verdict for o in report.outcomes)
        rec.fixed = result.fixed_program
        tracer.count(
            statements=sum(t.size for t in program.threads),
            fast_iterations=result.iterations if mode == "fast" else 0,
            sanity_mutants=len(rec.sanity or ()),
        )
    return rec


def measure(cases, rng, seconds, min_passes, tracer, gate, after_pass=None):
    """Run whole passes until ``seconds`` have gone and ``min_passes`` are done.

    Each pass is checked by ``gate`` as soon as it ends, and then
    ``after_pass`` is called with the wall time so far, both outside the
    timed region.  Returns the job times, the number of passes and the wall
    time of the jobs.
    """
    times = array.array("d")
    passes = 0
    wall = 0.0
    while passes < min_passes or wall < seconds:
        order = workloads.jobs(cases)
        rng.shuffle(order)
        t0 = time.perf_counter()
        records = [run_job(case, mode, tracer) for case, mode in order]
        wall += time.perf_counter() - t0
        times.extend(rec.seconds for rec in records)
        gate.check_pass(records)
        passes += 1
        if after_pass is not None:
            after_pass(wall)
    return times, passes, wall


# ---------------------------------------------------------------------------
# Checks, all made outside the timed region


def load_oracle():
    """The independent brute-force oracle of the test suite."""
    spec = importlib.util.spec_from_file_location("fencesynth_oracle", ROOT / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_disagreement(case, fixed, oracle) -> str | None:
    """Why the oracle disagrees with the opt answer for ``case``, if it does."""
    program = elaborate(parse_program(case.text), UNROLL)
    buggy = any(not sig[3] for sig in oracle.oracle_traces(program))
    if buggy == (case.status == ALREADY_CORRECT):
        return "oracle: the original program %s buggy executions" % ("has" if buggy else "has no")
    if case.status == FIXED and any(not sig[3] for sig in oracle.oracle_traces(fixed)):
        return "oracle: the fixed program still has buggy executions"
    return None


class Gate:
    """Checks every job's answer, one pass at a time.

    Only the first job of each (case, mode) is kept, as the reference for
    the report of every later job, so what the benchmark holds in memory
    does not grow with the number of passes.  The oracle runs in
    ``finish``, after the peak memory has been read.
    """

    def __init__(self):
        self.first: dict[tuple[str, str], Record] = {}
        self.passed: collections.Counter = collections.Counter()  # opt jobs per case
        self.failures: list[tuple[str, str, str]] = []  # (case, mode, why)
        self.attempted = 0
        self.fast_excess = 0  # fences fast synthesized beyond opt

    def check_pass(self, records: list[Record]) -> None:
        for rec in records:
            self.first.setdefault((rec.case.name, rec.mode), rec)
        for rec in records:
            self.attempted += 1
            why = self._why_failed(rec)
            if why is not None:
                self.failures.append((rec.case.name, rec.mode, why))
            elif rec.mode == "opt":
                self.passed[rec.case.name] += 1
            else:
                self.fast_excess += rec.fences - self._opt_fences(rec.case)

    def finish(self) -> None:
        """Re-check each opt answer with the oracle, once per program.  A
        disagreement fails every opt job of the program that passed the
        other checks: their reports are identical."""
        oracle = load_oracle()
        for (name, mode), rec in self.first.items():
            if mode == "opt" and rec.error is None and self.passed[name]:
                why = oracle_disagreement(rec.case, rec.fixed, oracle)
                if why is not None:
                    self.failures += [(name, mode, why)] * self.passed[name]

    def _opt_fences(self, case) -> int:
        """The closed form where one is known, else what opt synthesized."""
        if case.fences is not None:
            return case.fences
        return self.first[case.name, "opt"].fences

    def _why_failed(self, rec: Record) -> str | None:
        case = rec.case
        if rec.error is not None:
            return rec.error
        if rec.status != case.status:
            return "status %s, expected %s" % (rec.status, case.status)
        if rec.mode == "opt":
            if case.fences is not None and (rec.fences, rec.weight) != (case.fences, case.weight):
                return "%d fences of weight %d, expected %d of weight %d" % (
                    rec.fences, rec.weight, case.fences, case.weight)
            if rec.status == FIXED and (not rec.sanity or set(rec.sanity) != {"bug-reappears"}):
                return "sanity check: %s" % ", ".join(rec.sanity or ("no mutants",))
        elif rec.fences < self._opt_fences(case):
            return "fast synthesized %d fences, opt %d" % (rec.fences, self._opt_fences(case))
        ref = self.first[case.name, rec.mode]
        if ref.error is None and rec.render != ref.render:
            return "report differs from the first pass"
        return None


# ---------------------------------------------------------------------------
# Metrics


def setup_seconds(workload: str, seed: int) -> float:
    """Time to start an interpreter, import fencesynth and generate the
    workload's programs, in a fresh process."""
    code = "import sys; sys.path[:0] = %r; import fencesynth, workloads; workloads.build(%r, %d)" % (
        [str(SRC), str(BENCH)], workload, seed)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its
    percentile rank."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        raise ValueError("the tail needs at least 11 job times, got %d" % n)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(times, passes, wall, setup_s, rss_mb) -> dict[str, float]:
    tail_s, tail_pct = tail(times)
    print("samples: %d jobs in %d passes, %.2f s" % (len(times), passes, wall))
    print("verdict_s_tail is p%.2f of %d job times (10 beyond it)" % (tail_pct, len(times)))
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(times) / wall,
        "verdict_s_p50": statistics.median(times),
        "verdict_s_tail": tail_s,
        "peak_rss_mb": rss_mb,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cases = workloads.build(args.workload, args.seed)
    rng = random.Random("jobs/%d" % args.seed)
    gate = Gate()
    if args.trace:
        times, untraced_passes, wall = measure(cases, rng, args.seconds / 2, 1, NoTrace(), gate)
        untraced_rate = len(times) / wall
        with Tracer() as tracer:
            times, passes, wall = measure(cases, rng, args.seconds / 2, 1, tracer, gate)
        metrics = tracer.metrics(passes)
        metrics["trace.overhead"] = untraced_rate / (len(times) / wall)
        metrics["driver.fast_excess_fences"] = gate.fast_excess / (untraced_passes + passes)
        selftimes = tracer.self_times()
        for family in sorted(set(tracer.job_family)):
            shares = tracer.group_shares(selftimes, family)
            print("self-time share on %s: %s" % (family, "  ".join(
                "%s %.3f" % kv for kv in sorted(shares.items(), key=lambda kv: -kv[1]))))
        for attr in tracer.missing:
            print("absent: fencesynth no longer has %s; its metrics are left out" % attr)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / ("spans-%s-seed%d.tsv" % (args.workload, args.seed)))
    else:
        # The set-up probes are spread over the run, so that they see the
        # machine at the same mix of speeds as the jobs do.
        setup = []

        def probe_setup(wall):
            while len(setup) < SETUP_PROBES and wall >= args.seconds * len(setup) / SETUP_PROBES:
                setup.append(setup_seconds(args.workload, args.seed))

        times, passes, wall = measure(cases, rng, args.seconds, MIN_PASSES, NoTrace(), gate, probe_setup)
        rss_mb = peak_rss_mb()
        probe_setup(math.inf)
        metrics = end_to_end(times, passes, wall, statistics.median(setup), rss_mb)
        print("fast_excess_fences = %g fences/pass" % (gate.fast_excess / passes))

    gate.finish()
    failed = len(gate.failures)
    for name, mode, why in gate.failures[:5]:
        print("FAILED %s (%s): %s" % (name, mode, why), file=sys.stderr)
    if failed > 5:
        print("... and %d more failed jobs" % (failed - 5), file=sys.stderr)
    print("fail_share = %.4f ratio (%d of %d jobs)" % (failed / gate.attempted, failed, gate.attempted))
    for name, value in metrics.items():
        print("%s = %.6g %s" % (name, value, UNITS[name]))
    print(json.dumps({
        "correct": not failed,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
