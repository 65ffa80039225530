"""The fensy command line: exit codes, report, emitters, round trips."""

import time

import pytest

from conftest import CORPUS_DIR
from fencesynth import enumerator
from fencesynth.cli import build_parser, main
from fencesynth.errors import InternalCheckError
from fencesynth.limits import Limits
from fencesynth.litmus import parse_program, print_program


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixed_program_exits_zero(capsys):
    code, out, _ = run(capsys, str(CORPUS_DIR / "rwrw.lit"), "--mode", "opt")
    assert code == 0
    assert "status: fixed" in out
    assert "t1@1: rel" in out


def test_already_correct_exits_zero(capsys):
    code, out, _ = run(capsys, str(CORPUS_DIR / "sb_sc.lit"))
    assert code == 0 and "already-correct" in out


def test_no_fix_exits_one(capsys):
    code, out, _ = run(capsys, str(CORPUS_DIR / "iriw_rlx.lit"))
    assert code == 1
    assert "no-fix" in out and "trace 0" in out


def test_missing_file_exits_three(capsys):
    code, _, err = run(capsys, "no-such-file.lit")
    assert code == 3 and "cannot read" in err


def test_input_that_is_not_utf8_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.lit"
    bad.write_bytes(b"program x\xff\n")
    code, _, err = run(capsys, str(bad))
    assert code == 3
    assert err.startswith("fensy: cannot read %s: " % bad) and "Traceback" not in err


def test_unwritable_emit_path_exits_three(tmp_path, capsys):
    target = tmp_path / "missing" / "query"
    code, out, err = run(capsys, str(CORPUS_DIR / "sb_rlx.lit"), "--emit-query", str(target))
    assert code == 3 and out == ""
    assert err.startswith("fensy: cannot write %s: " % target) and "Traceback" not in err


def test_unwritable_emit_path_exits_before_synthesis(tmp_path, capsys, monkeypatch):
    from fencesynth import cli

    def no_synthesis(*args, **kw):
        raise AssertionError("synthesis ran before the emit paths were checked")

    monkeypatch.setattr(cli, "synthesize", no_synthesis)
    good, target = tmp_path / "traces", tmp_path / "missing" / "query"
    argv = ["--emit-traces", str(good), "--emit-query", str(target)]
    code, out, err = run(capsys, str(CORPUS_DIR / "sb_rlx.lit"), *argv)
    assert code == 3 and out == "" and not good.exists()
    assert err.startswith("fensy: cannot write %s: " % target) and "Traceback" not in err


def test_parse_error_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.lit"
    bad.write_text("program x\ninit a = 0\nthread t {\n  wibble\n}\nassert true\n")
    code, _, err = run(capsys, str(bad))
    assert code == 3 and "line 4" in err


def test_unroll_bound_error_exits_three(tmp_path, capsys):
    src = (
        "program big\ninit x = 0\nthread t1 {\n"
        "  repeat 50 {\n    store(x, 1, rlx)\n  }\n}\nassert true\n"
    )
    f = tmp_path / "big.lit"
    f.write_text(src)
    code, _, err = run(capsys, str(f), "--unroll", "10")
    assert code == 3 and "unroll bound" in err


@pytest.mark.parametrize("flag", ["--unroll", "--max-traces", "--max-iters", "--timeout-secs"])
def test_negative_limit_is_an_input_error(flag, capsys):
    # Rejected before any work: not a resource limit (exit 2), and never
    # silently accepted.
    code, out, err = run(capsys, str(CORPUS_DIR / "rwrw.lit"), "--mode", "fast", flag, "-1")
    assert code == 3
    assert out == "" and "%s must not be negative" % flag in err


def test_zero_limits_are_valid(capsys):
    code, out, _ = run(capsys, str(CORPUS_DIR / "rwrw.lit"), "--unroll", "0")
    assert code == 0 and "status: fixed" in out


def test_timeout_exits_two(tmp_path, capsys):
    code, _, err = run(
        capsys, str(CORPUS_DIR / "two_bugs.lit"), "--timeout-secs", "0"
    )
    assert code == 2 and "resource limit" in err


def test_sc_order_timeout_exits_two(monkeypatch, capsys):
    # The deadline lapses as the sc-order search starts: the search itself
    # checks it, and the limit is reported with its phase.
    search = enumerator.exists_sc_total_order

    def expire_then_search(tr, limits=None):
        limits.timeout_secs = -1.0
        return search(tr, limits.start())

    monkeypatch.setattr(enumerator, "exists_sc_total_order", expire_then_search)
    code, _, err = run(capsys, str(CORPUS_DIR / "sb_sc.lit"), "--timeout-secs", "60")
    assert code == 2 and "sc-order" in err


def test_timeout_inside_the_mo_product_exits_two(tmp_path, capsys):
    from test_enumerator import mo_stores

    path = tmp_path / "mo4.lit"
    path.write_text(mo_stores(4))
    start = time.monotonic()
    code, _, err = run(capsys, str(path), "--timeout-secs", "0.3")
    assert code == 2 and "trace-enumeration" in err
    assert time.monotonic() - start < 0.3 + 0.25


def test_max_traces_exits_two(capsys):
    # The bound counts the buggy executions enumerated, and sb_rlx has one.
    code, _, err = run(capsys, str(CORPUS_DIR / "sb_rlx.lit"), "--max-traces", "0")
    assert code == 2 and "trace-enumeration" in err


@pytest.mark.parametrize("name, phase", [("synthesize", "synthesis"), ("sanity_check", "sanity-check")])
def test_out_of_memory_exits_two_with_the_phase_named(monkeypatch, capsys, name, phase):
    from fencesynth import cli

    def exhausted(*args, **kw):
        raise MemoryError

    monkeypatch.setattr(cli, name, exhausted)
    code, _, err = run(capsys, str(CORPUS_DIR / "sb_rlx.lit"), "--sanity-check")
    assert code == 2 and err == "fensy: out of memory during %s\n" % phase


@pytest.mark.parametrize("name", ["synthesize", "sanity_check"])
def test_internal_error_exits_four(monkeypatch, capsys, name):
    # A failed internal check is a bug in the tool: it gets its own code,
    # not the "no fix exists" one that an escaping traceback would give.
    from fencesynth import cli

    def broken(*args, **kw):
        raise InternalCheckError("check failed")

    monkeypatch.setattr(cli, name, broken)
    code, _, err = run(capsys, str(CORPUS_DIR / "sb_rlx.lit"), "--sanity-check")
    assert code == 4 and err == "fensy: internal error: check failed\n"


@pytest.mark.parametrize("mode", ["opt", "fast"])
def test_sc_read_of_a_relaxed_write_is_fixed_by_one_sc_fence(tmp_path, capsys, mode):
    # scfr3's buggy execution has t3's sc load of x after t2's sc store of
    # x = 2 in S, which C11 allows since it reads a relaxed write: the
    # strong analysis must not force the pair the other way.
    from test_differential import SCFR3

    path = tmp_path / "scfr3.lit"
    path.write_text(SCFR3)
    code, out, err = run(capsys, str(path), "--mode", mode, "--sanity-check")
    assert code == 0 and err == "", err
    assert "synthesized fences (1, weight 3):\n  t2@1: sc" in out
    assert "sanity check: passed" in out
    assert "removed: bug-reappears" in out and "weakened to ar: bug-reappears" in out


def test_emitters_write_files(tmp_path, capsys):
    traces = tmp_path / "traces.txt"
    cycles = tmp_path / "cycles.txt"
    query = tmp_path / "query.txt"
    code, _, _ = run(
        capsys,
        str(CORPUS_DIR / "sb_rlx.lit"),
        "--emit-traces", str(traces),
        "--emit-cycles", str(cycles),
        "--emit-query", str(query),
    )
    assert code == 0
    t = traces.read_text()
    assert t.startswith("trace 0\n")
    # This trace reads the initial values, so from-reads is nonempty;
    # unsynchronized relaxed accesses leave sw and so empty.
    for fact in ("event ", "sb ", "rf ", "mo ", "hb ", "fr "):
        assert "\n" + fact in t
    c = cycles.read_text()
    assert "cycle 0 strong to-sc" in c and "fences=t1@1,t2@1" in c
    q = query.read_text()
    assert q.startswith("trace 0: ") and "t1@1" in q


def test_trace_dump_includes_synchronization_lines():
    # A release/acquire pair produces sw and derived hb lines in the dump.
    from conftest import make_trace, O
    from fencesynth.model import dump_trace

    tr, ids = make_trace(
        init={"x": 0},
        threads={
            "t1": [("w", "write", "x", O.REL, None, 1)],
            "t2": [("r", "read", "x", O.ACQ, 1, None)],
        },
        rf=[("w", "r")],
        mo_tail={"x": ["w"]},
    )
    dump = dump_trace(tr)
    assert "sw %d %d" % (ids["w"], ids["r"]) in dump
    assert "hb %d %d" % (ids["w"], ids["r"]) in dump
    assert "event %d t1 0 write x rel t1:0" % ids["w"] in dump


def test_print_fixed_round_trips(capsys):
    code, out, _ = run(
        capsys, str(CORPUS_DIR / "rwrw.lit"), "--print-fixed"
    )
    assert code == 0
    dsl = out[out.index("program rwrw") :]
    reparsed = parse_program(dsl)
    assert print_program(reparsed) == dsl
    assert "fence(rel)" in dsl


def test_sanity_flag_reports(capsys):
    code, out, _ = run(capsys, str(CORPUS_DIR / "sb_rlx.lit"), "--sanity-check")
    assert code == 0
    assert "sanity check: passed" in out
    assert "weakened to ar: bug-reappears" in out


def test_fast_mode_flag(capsys):
    code, out, _ = run(capsys, str(CORPUS_DIR / "two_bugs.lit"), "--mode", "fast")
    assert code == 0
    assert "iterations: 2" in out


def test_fast_mode_needs_no_pass_beyond_the_fix(capsys):
    # mp_rlx is fixed in exactly one pass, and a correct program needs none:
    # the guard fires only on a buggy trace left after max-iters passes.
    code, out, _ = run(capsys, str(CORPUS_DIR / "mp_rlx.lit"), "--mode", "fast", "--max-iters", "1")
    assert code == 0 and "status: fixed" in out and "iterations: 1" in out
    code, out, _ = run(
        capsys, str(CORPUS_DIR / "assert_true.lit"), "--mode", "fast", "--max-iters", "0"
    )
    assert code == 0 and "status: already-correct" in out


def test_max_iters_defaults_to_the_limits_default():
    args = build_parser().parse_args([str(CORPUS_DIR / "mp_rlx.lit")])
    assert args.max_iters == Limits().max_iters


def test_usage_error_exits_three(capsys):
    code = main(["tests/corpus/rwrw.lit", "--mode", "bogus"])
    assert code == 3


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
