#!/usr/bin/env python3
"""Write a BENCH file (every benchmark workload at fixed seeds, and the tier-1 suite),
or compare two checkouts on one workload.

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

    python3 tools/bench.py --against PATH --workload wls-estimate [--pairs 10]

compares this checkout (or ``--root``) with the checkout at PATH on one
workload instead. Pair i runs both trees at seed SEEDS[i % 3], the base first
in even pairs and this tree first in odd ones, then runs an A/A pair of this
tree against itself at the same seed. For each end-to-end metric it prints
each side's median and quartiles, the change of the medians in % of the
base's, how many pairs this tree read better (ties count for neither), the
same change and count for the A/A pairs, and then the same figures on the
unscaled times that ``run.py`` prints beside the scaled ones. It exits 1 if
any run reports ``correct: false``.
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
    """Median and quartiles (inclusive method) of one metric over runs."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
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


def compare(pairs, better):
    """Spreads of the (base, change) ``pairs`` of one metric, the change of the
    medians in % of the base's, and the pairs whose change reads better."""
    base, change = spread([b for b, _ in pairs]), spread([c for _, c in pairs])
    sign = 1 if better == "lower" else -1
    return {"base": base, "change": change,
            "change_pct": 100 * (change["median"] / base["median"] - 1) if base["median"]
            else float("nan"),
            "wins": sum(sign * (c - b) < 0 for b, c in pairs), "pairs": len(pairs)}


def summarize(ab, aa, end_to_end):
    """Per end-to-end metric (``BENCHMARK.json`` entries), the comparison of
    the A/B run pairs and of the A/A ones, on the scaled values and, for the
    metrics in ``run.py``'s ``raw`` line, on the unscaled ones."""
    rows = []
    for m in end_to_end:
        name = m["name"]
        readers = {"scaled": lambda run: run["metrics"][name]["value"]}
        if name in ab[0][0]["raw"]:
            readers["raw"] = lambda run: run["raw"][name]
        for scale, value in readers.items():
            rows.append({"metric": name, "unit": m["unit"], "scale": scale,
                         "ab": compare([(value(b), value(c)) for b, c in ab], m["better"]),
                         "aa": compare([(value(b), value(c)) for b, c in aa], m["better"])})
    return rows


def format_row(row):
    def side(s):
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"

    def wins(c):
        return f"{c['wins']}/{c['pairs']}"
    ab, aa = row["ab"], row["aa"]
    name = row["metric"] + (" (raw)" if row["scale"] == "raw" else "")
    return (f"{name:<22} {row['unit']:<5} {side(ab['base']):<28} {side(ab['change']):<28}"
            f" {ab['change_pct']:+7.1f}% {wins(ab):<7} {aa['change_pct']:+7.1f}% {wins(aa)}")


def against(root, base, workload, pairs, seconds, end_to_end):
    """Print the A/B and A/A comparison of one workload on the ``end_to_end``
    metrics of BENCHMARK.json; 1 if a run failed its checks."""
    ab, aa = [], []
    for i in range(pairs):
        seed = SEEDS[i % len(SEEDS)]
        order = (base, root) if i % 2 == 0 else (root, base)
        runs = [run_json(tree, workload, seed, seconds, 0) for tree in order]
        ab.append(runs if i % 2 == 0 else runs[::-1])
        aa.append([run_json(root, workload, seed, seconds, 0) for _ in range(2)])
    print(f"{workload}: {pairs} pairs of base {base} and change {root}, "
          f"{pairs} A/A pairs of the change, {seconds:g} s per run, seeds {list(SEEDS)} cycling")
    print(f"{'metric':<22} {'unit':<5} {'base median [q1, q3]':<28} {'change median [q1, q3]':<28}"
          f" {'change':>8} {'wins':<7} {'A/A':>8} A/A wins")
    for row in summarize(ab, aa, end_to_end):
        print(format_row(row))
    failed = [f"{kind} pair {i} (seed {pair[0]['seed']})"
              for kind, runs in (("A/B", ab), ("A/A", aa)) for i, pair in enumerate(runs)
              if not all(run["correct"] for run in pair)]
    for pair in failed:
        print(f"check failed in {pair}")
    return 1 if failed else 0


def stop(signum, frame):
    """Raise SystemExit, so that ``subprocess.run`` kills the running child."""
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="the BENCH file to write")
    mode.add_argument("--against", type=Path, metavar="PATH",
                      help="the checkout to compare this one with")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--workload", help="with --against: the workload to compare")
    parser.add_argument("--pairs", type=int, default=10, help="with --against (default 10)")
    parser.add_argument("--seconds", type=float,
                        help="with --against: seconds per run (default: run_seconds)")
    args = parser.parse_args(argv)
    spec = json.loads((args.root / "BENCHMARK.json").read_text())
    if args.against:
        if args.workload not in [w["name"] for w in spec["workloads"]] or args.pairs < 1:
            parser.error("--against needs a --workload of BENCHMARK.json and --pairs >= 1")
        return against(args.root.resolve(), args.against.resolve(), args.workload, args.pairs,
                       args.seconds or spec["run_seconds"], spec["end_to_end"])
    doc = {"seeds": list(SEEDS), "run_seconds": spec["run_seconds"],
           "workloads": {w["name"]: measure_workload(args.root, w["name"], spec["run_seconds"])
                         for w in spec["workloads"]},
           "tier1": measure_tier1(args.root)}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
