"""Tests of the benchmark itself: its generators, its gate and its tracer."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import fencesynth.cycles
import fencesynth.driver
import run
import tracer
import workloads
from fencesynth import Limits, elaborate, parse_program

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def quick(monkeypatch, tmp_path):
    """One pass per run and one set-up probe, so a run takes about a second."""
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_pure_functions_of_the_seed(name):
    cases = workloads.build(name, 7)
    assert cases == workloads.build(name, 7)
    for case in cases:
        elaborate(parse_program(case.text), workloads.UNROLL)
    if name != "corpus":
        assert [c.text for c in cases] != [c.text for c in workloads.build(name, 8)]


def test_names_sort_like_their_indices():
    for seed in range(20):
        nm = workloads.Names(random.Random(seed))
        for make in (nm.obj, nm.thread, nm.reg):
            names = [make(i) for i in range(12)]
            assert names == sorted(names)


def test_clean_run_reports_every_end_to_end_metric(quick, capsys, monkeypatch):
    monkeypatch.setattr(run, "MIN_PASSES", 3)  # the tail needs 11 job times
    assert run.main(["--workload", "poll_sweep", "--seed", "3", "--seconds", "0"]) == 0
    result = last_json(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 15
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_wrong_expectation_fails_the_run(quick, capsys, monkeypatch):
    monkeypatch.setitem(workloads.CORPUS_EXPECT, "sb_rlx", workloads.NO_FIX)
    assert run.main(["--workload", "corpus", "--seed", "1", "--seconds", "0"]) == 1
    result = last_json(capsys)
    assert not result["correct"] and result["failed"] == 2  # its opt and fast jobs


def test_wrong_closed_form_fails_the_job():
    text = workloads.mp_stores(2, random.Random(0))
    right = workloads.Case("mp", "mp_stores", text, workloads.FIXED, 2, 2, workloads.OPT)
    wrong = workloads.Case("mp", "mp_stores", text, workloads.FIXED, 3, 3, workloads.OPT)
    for case, failed in ((right, 0), (wrong, 1)):
        gate = run.Gate()
        gate.check_pass([run.run_job(case, "opt", tracer.NoTrace())])
        gate.finish()
        assert len(gate.failures) == failed


def test_limit_is_recorded_as_a_failure_with_its_phase():
    text = workloads.mp_poll(5, random.Random(0))
    case = workloads.Case("poll", "mp_poll", text, workloads.FIXED, 2, 2, workloads.OPT)
    rec = run.run_job(case, "opt", tracer.NoTrace(), timeout_s=0.0)
    assert rec.error.startswith("limit reached in synthesize")
    gate = run.Gate()
    gate.check_pass([rec])
    assert gate.failures == [("poll", "opt", rec.error)]


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_traced_run_reports_every_per_layer_metric(quick, capsys):
    originals = {attr: getattr(fencesynth.driver, attr) for attr in ("find_buggy_traces", "iter_buggy_traces")}
    assert run.main(["--workload", "poll_sweep", "--seed", "2", "--seconds", "0", "--trace", "1"]) == 0
    result = last_json(capsys)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for attr, fn in originals.items():
        assert getattr(fencesynth.driver, attr) is fn


def test_generator_is_timed_around_each_next():
    program = elaborate(parse_program(workloads.mp_pairs(2, random.Random(0))), workloads.UNROLL)
    with tracer.Tracer() as tr:
        with tr.job("mp_pairs", "fast"):
            gen = fencesynth.driver.iter_buggy_traces(program, Limits())
            assert not [s for s in tr.spans if s[0] == "enumerator.enumerate"]
            next(gen)
            next(gen)
    assert len([s for s in tr.spans if s[0] == "enumerator.enumerate"]) == 2
    assert tr.counts["buggy_traces"] == 2


def test_missing_target_is_reported_absent(monkeypatch):
    original = fencesynth.driver.analyze_trace
    monkeypatch.delattr(fencesynth.cycles, "enumerate_simple_cycles")
    with tracer.Tracer() as tr:
        assert fencesynth.driver.analyze_trace is not original
    assert fencesynth.driver.analyze_trace is original
    assert tr.missing == ["enumerate_simple_cycles"]
    metrics = tr.metrics(1)
    assert "cycles.johnson_s" not in metrics and "cycles.simple_cycles" not in metrics
    assert "cycles.weak_s" in metrics
