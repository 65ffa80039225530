"""The ``fensy`` command line interface.

Exit codes: 0 fixed or already correct, 1 no fix exists, 2 resource limit
exceeded or out of memory, 3 input error, 4 internal error (a tool bug).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .driver import ALREADY_CORRECT, FIXED, NO_FIX, sanity_check, synthesize
from .errors import InternalCheckError, LitmusError, ResourceLimitError
from .limits import Limits
from .litmus import elaborate, parse_program, print_program, DEFAULT_UNROLL
from .model import dump_trace


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fensy",
        description="Synthesize a minimal set of weakest C11 fences that "
        "eliminates every assertion-violating execution of a litmus program.",
    )
    ap.add_argument("file", help="litmus program (.lit)")
    ap.add_argument("--mode", choices=("opt", "fast"), default="opt",
                    help="opt: one global solve over all buggy traces; "
                    "fast: fix one trace at a time (default: opt)")
    ap.add_argument("--unroll", type=int, default=DEFAULT_UNROLL, metavar="N",
                    help="bound for 'repeat' unrolling (default %d)" % DEFAULT_UNROLL)
    ap.add_argument("--timeout-secs", type=float, default=None, metavar="N")
    ap.add_argument("--max-traces", type=int, default=None, metavar="N",
                    help="bound on the executions one enumeration yields; each "
                    "part's sub-program is enumerated on its own; exceeding it "
                    "exits 2 (default: no bound)")
    ap.add_argument("--max-iters", type=int, default=Limits.max_iters, metavar="N",
                    help="iteration guard for --mode fast (default %d)" % Limits.max_iters)
    ap.add_argument("--emit-traces", metavar="PATH",
                    help="dump the analyzed buggy traces (each part's, with "
                    "part-local event ids), one fact per line")
    ap.add_argument("--emit-cycles", metavar="PATH",
                    help="dump every candidate solution, one line each")
    ap.add_argument("--emit-query", metavar="PATH",
                    help="dump the slot query of each part, one clause per line")
    ap.add_argument("--sanity-check", action="store_true",
                    help="weaken/remove each synthesized fence and re-check")
    ap.add_argument("--print-fixed", action="store_true",
                    help="print the rewritten program")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code is reserved for
        # resource limits here, so remap bad usage to the input-error code.
        if exc.code not in (0, None):
            return 3
        return 0
    for flag in ("unroll", "max_traces", "max_iters", "timeout_secs"):
        if (getattr(args, flag) or 0) < 0:
            print("fensy: --%s must not be negative" % flag.replace("_", "-"), file=sys.stderr)
            return 3

    for path in (args.emit_traces, args.emit_cycles, args.emit_query):
        if path and not Path(path).parent.is_dir():
            reason = "%s is not a directory" % Path(path).parent
            print("fensy: cannot write %s: %s" % (path, reason), file=sys.stderr)
            return 3

    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print("fensy: cannot read %s: %s" % (args.file, exc), file=sys.stderr)
        return 3
    try:
        program = elaborate(parse_program(text), args.unroll)
    except LitmusError as exc:
        print("fensy: %s" % exc, file=sys.stderr)
        return 3

    limits = Limits(
        max_traces=args.max_traces,
        timeout_secs=args.timeout_secs,
        max_iters=args.max_iters,
    ).start()

    phase = "synthesis"
    try:
        result = synthesize(program, mode=args.mode, limits=limits)

        emits = []
        if args.emit_traces:
            chunks = []
            for i, tr in enumerate(result.buggy_traces):
                chunks.append("trace %d\n%s" % (i, dump_trace(tr)))
            emits.append((args.emit_traces, "\n".join(chunks)))
        if args.emit_cycles:
            lines = [s.render() for sols in result.solutions_by_trace for s in sols]
            emits.append((args.emit_cycles, "\n".join(lines) + ("\n" if lines else "")))
        if args.emit_query:
            emits.append((args.emit_query, "".join(q.render() for q in result.queries)))
        for path, text in emits:
            try:
                Path(path).write_text(text, encoding="utf-8")
            except OSError as exc:
                print("fensy: cannot write %s: %s" % (path, exc), file=sys.stderr)
                return 3

        sys.stdout.write(result.render())

        if args.sanity_check and result.status == FIXED:
            phase = "sanity-check"
            sys.stdout.write(sanity_check(result.fixed_program, result, limits).render())
    except ResourceLimitError as exc:
        print("fensy: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("fensy: out of memory during %s" % phase, file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print("fensy: internal error: %s" % exc, file=sys.stderr)
        return 4

    if args.print_fixed and result.fixed_program is not None:
        sys.stdout.write(print_program(result.fixed_program))

    if result.status in (FIXED, ALREADY_CORRECT):
        return 0
    if result.status == NO_FIX:
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
