"""Every committed BENCH_*.json (written by tools/bench.py) read back: its schema,
its units against BENCHMARK.json, and a provenance that names a commit. Also, the
recorder stops its child when it is stopped."""

import importlib.util
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file(path):
    doc = json.loads(path.read_text())
    seeds = doc["seeds"]
    assert seeds and all(isinstance(s, int) for s in seeds)
    assert doc["run_seconds"] == SPEC["run_seconds"]
    assert list(doc["workloads"]) == sorted(w["name"] for w in SPEC["workloads"])
    for name, w in doc["workloads"].items():
        prov = w["provenance"]
        assert re.fullmatch(r"[0-9a-f]{40}", prov["git_commit"]), name
        assert prov["src_lines"] > 0 and prov["nproc"] >= 1
        assert {"python", "numpy", "blas", "blas_threads"} <= set(prov)
        assert [r["seed"] for r in w["runs"]] == seeds
        for run in w["runs"]:
            assert isinstance(run["correct"], bool) and 0 <= run["failed"] <= run["attempted"]
            assert all(isinstance(v, (int, float)) for v in run["details"].values())
            assert all(isinstance(v, (int, float)) for v in run["raw"].values())
        assert sorted(w["end_to_end"]) == sorted(m["name"] for m in SPEC["end_to_end"])
        for metric, stats in w["end_to_end"].items():
            assert stats["unit"] == UNITS[metric], (name, metric)
            assert len(stats["values"]) == len(seeds)
            low, high = min(stats["values"]), max(stats["values"])
            assert low <= stats["q1"] <= stats["median"] <= stats["q3"] <= high, (name, metric)
        trace = w["trace"]
        assert isinstance(trace["correct"], bool) and trace["seed"] in seeds
        assert sorted(trace["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
        for metric, m in trace["metrics"].items():
            assert m["unit"] == UNITS[metric], (name, metric)
        for counter, count in trace["counts"].items():
            assert UNITS[counter] == "count" and isinstance(count, int), (name, counter)
    tier1 = doc["tier1"]
    assert tier1["passed"] > 0 and tier1["failed"] >= 0 and tier1["wall_s"] > 0
    assert len(tier1["slowest"]) == 5


def running(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_stops_the_recorder_and_its_child(tmp_path):
    root = tmp_path / "root"
    (root / "benchmarks").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1,
                                                     "workloads": [{"name": "stub"}]}))
    (root / "benchmarks" / "run.py").write_text(
        "import os, time\n"
        "open('pid.tmp', 'w').write(str(os.getpid()))\n"
        "os.replace('pid.tmp', 'child.pid')\n"
        "time.sleep(60)\n")
    recorder = subprocess.Popen([sys.executable, str(ROOT / "tools" / "bench.py"),
                                 "--out", str(tmp_path / "out.json"), "--root", str(root)])
    pid_file, child = root / "child.pid", None
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists():
            assert recorder.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text())
        recorder.send_signal(signal.SIGTERM)
        recorder.wait(timeout=10)
        deadline = time.monotonic() + 5
        while running(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not running(child)
        assert recorder.returncode == 128 + signal.SIGTERM
        assert not (tmp_path / "out.json").exists()
    finally:
        if child is not None and running(child):
            os.kill(child, signal.SIGKILL)
        if recorder.poll() is None:
            recorder.kill()
            recorder.wait()


def test_against_summary_arithmetic(monkeypatch, capsys, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_recorder", ROOT / "tools" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    base, change = tmp_path, ROOT
    # op_ms_p50 in call order. Each pair runs base and change (the change first
    # in odd pairs), then the change twice for its A/A pair
    ops = iter([1.0, 0.9, 0.5, 0.6,
                1.0, 1.2, 1.3, 1.0,
                1.1, 1.2, 1.0, 1.0,
                0.8, 0.9, 2.0, 1.5])
    calls = []

    def run_json(root, workload, seed, seconds, trace):
        assert (workload, seconds, trace) == ("wls-estimate", 2.0, 0)
        calls.append((root, seed))
        op = next(ops)
        return {"seed": seed, "correct": (root, seed) != (base, 3),
                "metrics": {name: {"value": op if name == "op_ms_p50" else 1.0, "unit": "?"}
                            for name in ("setup_s", "wall_s", "op_ms_p50", "peak_rss_mb",
                                         "success_ratio")},
                "raw": {"setup_s": 1.0, "wall_s": 1.0, "op_ms_p50": 2 * op}}

    monkeypatch.setattr(bench, "run_json", run_json)
    assert bench.against(change, base, "wls-estimate", 4, 2.0, SPEC["end_to_end"]) == 1
    assert calls == [(base, 1), (change, 1), (change, 1), (change, 1),
                     (change, 2), (base, 2), (change, 2), (change, 2),
                     (base, 3), (change, 3), (change, 3), (change, 3),
                     (change, 1), (base, 1), (change, 1), (change, 1)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "check failed in A/B pair 2 (seed 3)"
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[2:-1]}
    assert [name for name, _ in rows] == ["setup_s", "setup_s", "wall_s", "wall_s", "op_ms_p50",
                                          "op_ms_p50", "peak_rss_mb", "success_ratio"]
    # base 1.0, 1.2, 1.1, 0.9 against change 0.9, 1.0, 1.2, 0.8: medians 1.05
    # and 0.95 with inclusive quartiles, -9.5%, lower in pairs 0, 1 and 3. A/A
    # 0.5, 1.3, 1.0, 2.0 against 0.6, 1.0, 1.0, 1.5: medians 1.15 and 1.0,
    # -13.0%, lower in pairs 1 and 3 (pair 2 ties)
    assert rows["op_ms_p50", "ms"] == ["1.05", "[0.975,", "1.125]", "0.95", "[0.875,", "1.05]",
                                       "-9.5%", "3/4", "-13.0%", "2/4"]
    assert rows["op_ms_p50", "(raw)"] == ["ms", "2.1", "[1.95,", "2.25]", "1.9", "[1.75,",
                                          "2.1]", "-9.5%", "3/4", "-13.0%", "2/4"]
    assert rows["success_ratio", "ratio"][-4:] == ["+0.0%", "0/4", "+0.0%", "0/4"]
