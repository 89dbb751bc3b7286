#!/usr/bin/env python3
"""dsse benchmark: four workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 benchmarks/run.py --workload mc-generate --seed 1 --seconds 20 --trace 0

Workloads: mc-generate, wls-estimate, train, bench-6bus (see workloads.py).
Each run sets up its inputs from ``--seed`` several times and reports the
median set-up time, then repeats rounds of timed work for ``--seconds``
seconds (at least two rounds) and checks every round's outputs.

``--trace 0`` reports the end-to-end metrics, measured with no wrapper
installed. Every workload reports the same five (END_TO_END); the
workload's own figures, such as ν and inference latency, go on a
``details`` line before the result and are not gated.

``--trace 1`` traces one set-up and one round (see tracing.py) and reports
the per-layer metrics of that pass. It goes on tracing every other block of
rounds and states the tracing overhead as the median traced round minus the
median untraced round.

Times are reported at a reference machine speed. On a shared host the speed
of a core drifts by up to 2x over seconds, so the runner times a fixed
kernel (``Speed``) before and after every set-up and round, and scales that
set-up's or round's times by REFERENCE_S over the median kernel time within
WINDOW_S of it; rates follow from the scaled times. A single kernel time
also catches sub-second jitter that a whole round averages out, which is why
the median is taken over a window rather than over the samples next to the
round. The unscaled metrics are printed on the line before the result.

Standard output ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it hold the run's provenance,
the workload's details and, with ``--trace 1``, the exact work counts of the
traced pass. Failed checks are listed on standard error. dsse is imported from ``src/`` next to
this directory; without it the run exits with status 2.
"""

import os

# Pin BLAS threads before numpy loads: the timed matrices are small, and
# threads competing for the few cores make per-call times erratic.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 2
TRACE_BLOCK = 4  # rounds per traced or untraced block of a traced run
REFERENCE_S = 1e-3  # kernel time that the reported times are scaled to
SAMPLES_AROUND = 3  # kernel samples before and after each set-up and round
WINDOW_S = 2.5  # kernel samples this close to a set-up or round set its speed
TIME_UNITS = ("s", "ms", "us")
END_TO_END = ("setup_s", "wall_s", "op_ms_p50", "peak_rss_mb", "success_ratio")


class Speed:
    """Times of a fixed kernel shaped like dsse's work: interpreted dict,
    complex and numpy-scalar updates, small matrix-vector products, matrix
    products of the size the networks use, and a minibatch through dense
    layers with a gradient product."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.normal(size=(48, 48))
        self.b = rng.normal(size=(96, 96)) / 10
        self.v = rng.normal(size=48)
        self.x = rng.normal(size=(64, 128))
        self.w = rng.normal(size=(128, 128)) / 10
        self.samples = []  # (start, kernel seconds)

    def sample(self) -> float:
        np, a, b, v, x, w = self.np, self.a, self.b, self.v, self.x, self.w
        t0 = time.perf_counter()
        d = {}
        z = 0j
        for i in range(600):
            d[i % 89] = d.get(i % 89, 0.0) + v[i % 48]
            z += complex(d[i % 89], 1.0) * z.conjugate() * 1e-3 + 1.0
        acc = 0.0
        for _ in range(60):
            u = a @ v
            acc += float(u @ u)
        c = b
        for _ in range(6):
            c = np.tanh(c @ b)
        h = x
        for _ in range(4):
            h = h @ w
            h = np.maximum(h, 0.01 * h)
        h.T @ x
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt))
        return dt

    def timed(self, fn):
        """Run ``fn()`` between kernel samples; return its result and its
        (start, end) times, to pass to ``factor`` once the run is over."""
        for _ in range(SAMPLES_AROUND):
            self.sample()
        t0 = time.perf_counter()
        out = fn()
        span = (t0, time.perf_counter())
        for _ in range(SAMPLES_AROUND):
            self.sample()
        return out, span

    def factor(self, span=None) -> float:
        """Factor that scales times measured during ``span`` to the reference
        speed: REFERENCE_S over the median kernel time within WINDOW_S of it,
        or over the whole run when ``span`` is None."""
        if span is None:
            times = [dt for _, dt in self.samples]
        else:
            times = [dt for t, dt in self.samples if span[0] - WINDOW_S <= t <= span[1] + WINDOW_S]
        return REFERENCE_S / statistics.median(times)


def scale_times(record: dict, factor: float) -> dict:
    """Multiply every field named ``*_s`` (a time or a list of times)."""
    return {
        k: ([t * factor for t in v] if isinstance(v, list) else v * factor) if k.endswith("_s") else v
        for k, v in record.items()
    }


def at_reference_speed(metrics, factor):
    """Scale times by ``factor`` and rates (unit ``1/s``) by its inverse."""
    scaled = {}
    for name, (value, unit) in metrics.items():
        if unit in TIME_UNITS:
            value *= factor
        elif unit == "1/s":
            value /= factor
        scaled[name] = (value, unit)
    return scaled


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "dsse").rglob("*.py")),
    }


def _rounds(workload, seconds, least=MIN_ROUNDS):
    """Yield round numbers until ``seconds`` have passed and the minimum ran."""
    least = max(least, getattr(workload, "min_rounds", 0))
    start = time.perf_counter()
    n = 0
    while n < least or time.perf_counter() - start < seconds:
        yield n
        n += 1


def measure(workload, seconds, tally, tracing, speed):
    """Untraced run: end-to-end metrics and the workload's details,
    ``name -> (value, unit)``, scaled to the reference speed and unscaled."""
    targets = tracing.dsse_targets()

    def assert_untraced():
        wrapped = tracing.installed_wrappers(targets)
        if wrapped:
            raise RuntimeError(f"untraced run found wrappers on {wrapped}")

    def timed_setup():
        t0 = time.perf_counter()
        workload.setup()
        return time.perf_counter() - t0

    assert_untraced()
    setups = [speed.timed(timed_setup) for _ in range(workload.setup_repeats)]
    rounds = []
    for _ in _rounds(workload, seconds):
        (result, wall), span = speed.timed(workload.run)
        record = workload.check(result, tally)
        record["wall_s"] = wall
        rounds.append((record, span))
    assert_untraced()
    setups = [(t, speed.factor(span)) for t, span in setups]
    records = [(r, speed.factor(span)) for r, span in rounds]
    scaled = workload.metrics([scale_times(r, f) for r, f in records])
    scaled["setup_s"] = (statistics.median(t * f for t, f in setups), "s")
    raw = workload.metrics([r for r, _ in records])
    raw["setup_s"] = (statistics.median(t for t, _ in setups), "s")
    scaled["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    scaled["success_ratio"] = (1.0 - tally.failed / max(tally.attempted, 1), "ratio")
    return scaled, raw


def trace(workload, seconds, tally, tracing, speed):
    """Traced run: per-layer metrics of one traced set-up plus the first traced
    round, scaled to the reference speed and unscaled.

    Rounds are traced in alternate blocks of TRACE_BLOCK (rounds 4-7, 12-15,
    ...), so that traced and untraced rounds cover the same workload cycle
    (bench variants, train plans); the tracing overhead is the median traced
    round minus the median untraced round.
    """
    targets = tracing.dsse_targets()
    first = tracing.Tracer(targets)

    def traced_round(tracer):
        with tracer:
            return workload.run()

    with first:
        workload.setup()
    walls = {True: [], False: []}
    for n in _rounds(workload, seconds, least=2 * TRACE_BLOCK):
        traced = n // TRACE_BLOCK % 2 == 1
        tracer = first if n == TRACE_BLOCK else tracing.Tracer(targets)
        (result, wall), span = speed.timed(lambda: traced_round(tracer) if traced else workload.run())
        walls[traced].append((wall, span))
        workload.check(result, tally)
    def overhead(scale):
        traced, untraced = ([w * scale(span) for w, span in walls[k]] for k in (True, False))
        return statistics.median(traced) - statistics.median(untraced), "s"

    raw = tracing.layer_metrics(first.spans)
    raw["trace.overhead_s"] = overhead(lambda span: 1.0)
    scaled = at_reference_speed(raw, speed.factor())
    scaled["trace.overhead_s"] = overhead(speed.factor)
    return scaled, raw


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dsse" / "__init__.py").is_file():
        print(f"error: dsse sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import dsse
    import tracing
    import workloads

    if not Path(dsse.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported dsse from {dsse.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    print(json.dumps({"provenance": provenance(np), "workload": args.workload, "seed": args.seed}),
          flush=True)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, workdir) if cls is workloads.Bench6Bus else cls(args.seed)
    tally = workloads.Tally()
    speed = Speed(np)
    try:
        if args.trace:
            metrics, raw = trace(workload, args.seconds, tally, tracing, speed)
            print(json.dumps({"counts": {k: raw[k][0] for k in tracing.COUNTS}}), flush=True)
        else:
            metrics, raw = measure(workload, args.seconds, tally, tracing, speed)
            print(json.dumps({"details": {k: v for k, (v, _) in sorted(metrics.items())
                                          if k not in END_TO_END}}), flush=True)
            metrics = {k: metrics[k] for k in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    print(json.dumps({"speed_factor": speed.factor(), "kernel_samples": len(speed.samples),
                      "raw": {k: v for k, (v, u) in sorted(raw.items()) if u in TIME_UNITS + ("1/s",)}}))
    for failure in tally.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
