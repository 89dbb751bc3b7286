"""Tracing hygiene and metric coverage of the benchmark.

Run from the repository root:

    python3 -m pytest -q benchmarks/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny(name, tmp_path, seed=5):
    """A workload small enough for a unit test."""
    if name == "mc-generate":
        return workloads.McGenerate(seed, samples=4, spot=2)
    if name == "wls-estimate":
        return workloads.WlsEstimate(seed, samples=10, unobservable=1, train_epochs=2, chunk=4)
    if name == "train":
        return workloads.Train(seed, samples=40, epochs=3)
    return workloads.Bench6Bus(seed, tmp_path / "bench", samples=40, epochs=2)


def traced_pass(workload):
    tracer = tracing.Tracer(tracing.dsse_targets())
    with tracer:
        workload.setup()
        workload.run()
    return tracer.spans


def snapshot(targets):
    return [(t, t.owner.__dict__[t.attr]) for t in targets]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_patched_name_is_restored(name, tmp_path):
    targets = tracing.dsse_targets()
    before = snapshot(targets)
    spans = traced_pass(tiny(name, tmp_path))
    assert spans
    for t, original in before:
        assert t.owner.__dict__[t.attr] is original, t.span
    assert tracing.installed_wrappers(targets) == []


def test_names_are_restored_when_the_traced_code_raises():
    targets = tracing.dsse_targets()
    before = snapshot(targets)
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer(targets):
            assert len(tracing.installed_wrappers(targets)) == len(targets)
            1 / 0
    for t, original in before:
        assert t.owner.__dict__[t.attr] is original, t.span


def test_untraced_rounds_run_with_no_wrapper_installed(tmp_path):
    seen = []

    class Probe(workloads.McGenerate):
        def run(self):
            seen.append(tracing.installed_wrappers(tracing.dsse_targets()))
            return super().run()

    probe = Probe(5, samples=3, spot=2)
    run.measure(probe, 0.0, workloads.Tally(), tracing, run.Speed(np))
    assert seen and all(w == [] for w in seen)

    seen.clear()
    run.trace(probe, 0.0, workloads.Tally(), tracing, run.Speed(np))
    # rounds are traced in alternate blocks, starting with the second
    assert len(seen) >= 2 * run.TRACE_BLOCK
    for n, wrapped in enumerate(seen):
        assert bool(wrapped) == (n // run.TRACE_BLOCK % 2 == 1), n


@pytest.mark.parametrize("name", ["wls-estimate", "bench-6bus"])
def test_self_time_plus_children_adds_up_to_the_span(name, tmp_path):
    spans = traced_pass(tiny(name, tmp_path))
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    assert children
    for s in spans:
        kids = sorted(children.get(s.id, []), key=lambda c: c.t0)
        assert s.self_s + sum(c.duration for c in kids) == pytest.approx(s.duration, abs=1e-9)
        assert s.self_s >= 0
        for a, b in zip(kids, kids[1:]):
            assert a.t1 <= b.t0
        for c in kids:
            assert s.t0 <= c.t0 and c.t1 <= s.t1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    first = tracing.layer_metrics(traced_pass(tiny(name, tmp_path / "a")))
    second = tracing.layer_metrics(traced_pass(tiny(name, tmp_path / "b")))
    assert {k: first[k] for k in tracing.COUNTS} == {k: second[k] for k in tracing.COUNTS}


def test_reported_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = set(tracing.layer_metrics([])) | {"trace.overhead_s"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(run.END_TO_END) == set(units)
    for name in workloads.WORKLOADS:
        metrics, _ = run.measure(tiny(name, tmp_path / name), 0.0, workloads.Tally(), tracing, run.Speed(np))
        for key in run.END_TO_END:
            value, unit = metrics[key]
            assert units[key] == unit, (name, key)
            assert value > 0, (name, key)
