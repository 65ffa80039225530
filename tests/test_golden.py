"""Byte-for-byte pins of the reports and trace dumps on the corpus.

Each ``tests/golden/<program>.txt`` holds the opt and fast reports of one
corpus program with the timings line removed; ``<program>.traces`` holds
the ``--emit-traces`` dump of a few programs; ``<program>.query`` holds the
``--emit-query`` dump (the pruned opt query) of every corpus program and of
the generated programs in ``GENERATED``.  Together they pin verdicts, fence
sets, orders, queries, trace order and report determinism.

After an intended change of output, rewrite the files with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import CORPUS, CORPUS_DIR, corpus_text
from fencesynth.cli import main
from fencesynth.driver import synthesize
from fencesynth.litmus import DEFAULT_UNROLL, elaborate, parse_program

GOLDEN_DIR = Path(__file__).parent / "golden"
# Beside mp and sb shapes, these cover release sequences, rmws (fr across
# an rmw), a program fence, sc accesses (an so pair) and three threads.
TRACE_DUMPS = (
    "dekker_core", "fen_strengthen", "iriw_rlx", "lb3", "mp_rlx", "relseq_fix",
    "relseq_rmw", "sb_one_sc", "sb_sc", "sb_scw", "two_bugs", "wrir",
)

# Generated shapes whose queries the corpus does not reach: a flag load
# unrolled four times, a store-buffer pair padded with private stores, and
# two independent message-passing pairs under one assertion.
GENERATED = {
    "gen_mp_poll_4": """program mp_poll_4
init d = 0, f = 0
thread w {
  store(d, 1, rlx)
  store(f, 1, rlx)
}
thread r {
  repeat 4 {
    a = load(f, rlx)
  }
  b = load(d, rlx)
}
assert !(a == 1 && b != 1)
""",
    "gen_sb_padded_1": """program sb_padded_1
init x = 0, y = 0, p = 0, q = 0, u = 0, v = 0
thread t0 {
  store(x, 1, rlx)
  store(p, 1, rlx)
  store(q, 1, rlx)
  a = load(y, rlx)
}
thread t1 {
  store(y, 1, rlx)
  store(u, 1, rlx)
  store(v, 1, rlx)
  b = load(x, rlx)
}
assert !(a == 0 && b == 0)
""",
    "gen_mp_pairs_2": """program mp_pairs_2
init d0 = 0, f0 = 0, d1 = 0, f1 = 0
thread w0 {
  store(d0, 1, rlx)
  store(f0, 1, rlx)
}
thread r0 {
  a0 = load(f0, rlx)
  b0 = load(d0, rlx)
}
thread w1 {
  store(d1, 1, rlx)
  store(f1, 1, rlx)
}
thread r1 {
  a1 = load(f1, rlx)
  b1 = load(d1, rlx)
}
assert !((a0 == 1 && b0 != 1) || (a1 == 1 && b1 != 1))
""",
}


def reports(name: str) -> str:
    chunks = []
    for mode in ("opt", "fast"):
        result = synthesize(elaborate(parse_program(corpus_text(name)), DEFAULT_UNROLL), mode)
        text = "".join(
            line for line in result.render().splitlines(keepends=True)
            if not line.startswith("timings:")
        )
        chunks.append("== %s\n%s" % (mode, text))
    return "".join(chunks)


def trace_dump(name: str, tmp: Path) -> str:
    out = tmp / (name + ".traces")
    main([str(CORPUS_DIR / (name + ".lit")), "--emit-traces", str(out)])
    return out.read_text()


def query_dump(name: str, tmp: Path) -> str:
    if name in GENERATED:
        source = tmp / (name + ".lit")
        source.write_text(GENERATED[name])
    else:
        source = CORPUS_DIR / (name + ".lit")
    out = tmp / (name + ".query")
    main([str(source), "--emit-query", str(out)])
    return out.read_text()


@pytest.mark.parametrize("name", CORPUS)
def test_reports_match_golden(name):
    assert reports(name) == (GOLDEN_DIR / (name + ".txt")).read_text()


@pytest.mark.parametrize("name", TRACE_DUMPS)
def test_trace_dump_matches_golden(name, tmp_path):
    assert trace_dump(name, tmp_path) == (GOLDEN_DIR / (name + ".traces")).read_text()


@pytest.mark.parametrize("name", CORPUS + sorted(GENERATED))
def test_query_matches_golden(name, tmp_path, capsys):
    assert query_dump(name, tmp_path) == (GOLDEN_DIR / (name + ".query")).read_text()


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in CORPUS:
        (GOLDEN_DIR / (name + ".txt")).write_text(reports(name))
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for name in TRACE_DUMPS:
            (GOLDEN_DIR / (name + ".traces")).write_text(trace_dump(name, Path(tmp)))
        for name in CORPUS + sorted(GENERATED):
            (GOLDEN_DIR / (name + ".query")).write_text(query_dump(name, Path(tmp)))
