"""Byte-for-byte pins of the reports and trace dumps on the corpus.

Each ``tests/golden/<program>.txt`` holds the opt and fast reports of one
corpus program with the timings line removed; ``<program>.traces`` holds
the ``--emit-traces`` dump of a few programs.  Together they pin verdicts,
fence sets, orders, trace order and report determinism.

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
TRACE_DUMPS = ("mp_rlx", "sb_sc", "two_bugs")


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


@pytest.mark.parametrize("name", CORPUS)
def test_reports_match_golden(name):
    assert reports(name) == (GOLDEN_DIR / (name + ".txt")).read_text()


@pytest.mark.parametrize("name", TRACE_DUMPS)
def test_trace_dump_matches_golden(name, tmp_path):
    assert trace_dump(name, tmp_path) == (GOLDEN_DIR / (name + ".traces")).read_text()


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
