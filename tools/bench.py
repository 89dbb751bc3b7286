#!/usr/bin/env python3
"""Write a BENCH file: every benchmark workload at fixed seeds, and the tier-1 suite.

Run from the repository root:

    python3 tools/bench.py --out BENCH_29.json [--root DIR]

``--root`` is the checkout to measure (default: this one); its own
``benchmarks/run.py`` and ``src/`` are run unchanged, one subprocess per run.
Each workload of ``BENCHMARK.json`` runs at SEEDS with ``--trace 0`` for
``run_seconds``, and once more with ``--trace 1`` at the first seed. The
tier-1 suite runs once, and its wall time, test counts and five slowest
tests are recorded. A SIGTERM stops the recorder and the run it has started.

Per workload the file holds ``run.py``'s provenance line, the median and
quartiles over the seeds of each end-to-end metric with its unit, each seed's
outcome, ``details`` values and unscaled times, and the traced run's
per-layer metrics and work counts. ``tests/test_bench_files.py`` reads every
committed file back.
"""

import argparse
import json
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEEDS = (1, 2, 3)


def run_json(root, workload, seed, seconds, trace):
    """The JSON lines ``benchmarks/run.py`` prints, merged into one dict."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    merged = {}
    for line in done.stdout.splitlines():
        merged.update(json.loads(line))
    return merged


def spread(values):
    """Median and quartiles (inclusive method) of one metric over the seeds."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def measure_workload(root, workload, seconds):
    runs = [run_json(root, workload, seed, seconds, 0) for seed in SEEDS]
    traced = run_json(root, workload, SEEDS[0], seconds, 1)
    end_to_end = {name: {"unit": runs[0]["metrics"][name]["unit"],
                         **spread([r["metrics"][name]["value"] for r in runs])}
                  for name in runs[0]["metrics"]}
    return {
        "provenance": runs[0]["provenance"],
        "runs": [{"seed": r["seed"], "correct": r["correct"], "attempted": r["attempted"],
                  "failed": r["failed"], "details": r["details"], "raw": r["raw"]}
                 for r in runs],
        "end_to_end": end_to_end,
        "trace": {"seed": traced["seed"], "correct": traced["correct"],
                  "metrics": traced["metrics"], "counts": traced["counts"]},
    }


def measure_tier1(root):
    """Wall time, outcome counts and the five slowest tests of one tier-1 run."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--durations=5"], cwd=root, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|skipped)",
                                                     lines[-1])}
    slowest = [{"s": float(m[1]), "test": m[2]}
               for m in map(re.compile(r"([\d.]+)s (?:call|setup|teardown) +(\S+)").fullmatch,
                            lines) if m]
    return {"wall_s": wall, "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "skipped": counts.get("skipped", 0), "summary": lines[-1], "slowest": slowest}


def stop(signum, frame):
    """Raise SystemExit, so that ``subprocess.run`` kills the running child."""
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    spec = json.loads((args.root / "BENCHMARK.json").read_text())
    doc = {"seeds": list(SEEDS), "run_seconds": spec["run_seconds"],
           "workloads": {w["name"]: measure_workload(args.root, w["name"], spec["run_seconds"])
                         for w in spec["workloads"]},
           "tier1": measure_tier1(args.root)}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
