"""Span tracing for the benchmark, installed by patching dsse's public functions.

Each target names the object a caller looks the function up on -- a module
(``dsse.pipeline.solve_power_flow``) or a class (``RowEvaluator.h``) -- and
the span name of the layer it belongs to. ``Tracer`` swaps every target for
a wrapper while it is active and puts the original object back on exit, so
an untraced run executes dsse's own functions with no wrapper installed.

Spans are kept in memory in start order. Each span records its parent (the
span open when it started) and, through a per-target ``info`` function,
what the call did: power-flow sweeps, WLS iterations, batch sizes. A span's
self time is its duration minus the durations of its children; calls are
nested and single-threaded, so the children never overlap.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

_WRAPPER_FLAG = "__dsse_bench_wrapper__"


@dataclass(frozen=True)
class Target:
    owner: object  # module or class holding the attribute callers look up
    attr: str
    span: str  # "<layer>.<function>"
    info: object = None  # (args, result, exc) -> dict, or None


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    t0: float
    t1: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)
    child_s: float = 0.0  # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _pf_info(args, result, exc):
    return {"sweeps": result.iterations} if result is not None else {}


def _wls_info(args, result, exc):
    report = result if result is not None else getattr(exc, "report", None)
    return {"iterations": report.iterations} if report is not None else {}


def _rows(args, result, exc):
    x = np.asarray(args[1])
    return {"rows": 1 if x.ndim == 1 else int(x.shape[0])}


def _samples(args, result, exc):
    return {"samples": len(result)} if result is not None else {}


def _scenario(args, result, exc):
    return {"scenario": args[1].name}


def _params(args, result, exc):
    if result is None:
        return {}
    return {"pruned": args[0].pruned, "p2n2": result.p2n2_params, "pawnn": result.pawnn_params}


def dsse_targets() -> list:
    """Every patch point, grouped by the layer that owns the function."""
    from dsse import cli, grid_model, measurements, network, partitioning, pipeline, wls

    RowEvaluator = measurements.RowEvaluator
    MeasurementSet = measurements.MeasurementSet
    InputEmbedding = network.InputEmbedding
    MaskedNetwork = network.MaskedNetwork
    return [
        Target(grid_model, "load_feeder", "grid_model.load_feeder"),
        Target(cli, "load_feeder", "grid_model.load_feeder"),
        Target(pipeline, "solve_power_flow", "powerflow.solve_power_flow", _pf_info),
        Target(pipeline, "plan_measurements", "measurements.plan_measurements"),
        Target(pipeline, "synthesize", "measurements.synthesize"),
        Target(pipeline, "jacobian_rows", "measurements.jacobian_rows"),
        Target(measurements, "measurement_function", "measurements.measurement_function"),
        Target(measurements, "row_sigmas", "measurements.row_sigmas"),
        Target(RowEvaluator, "__init__", "measurements.RowEvaluator"),
        Target(RowEvaluator, "h", "measurements.h"),
        Target(RowEvaluator, "jacobian", "measurements.jacobian"),
        Target(MeasurementSet, "with_values", "measurements.with_values"),
        Target(pipeline, "estimate", "wls.estimate", _wls_info),
        Target(wls, "estimate", "wls.estimate", _wls_info),
        Target(wls, "objective", "wls.objective"),
        Target(pipeline, "partition_at_pmus", "partitioning.partition_at_pmus"),
        Target(cli, "partition_at_pmus", "partitioning.partition_at_pmus"),
        Target(partitioning, "partition_at_pmus", "partitioning.partition_at_pmus"),
        Target(pipeline, "build_mask_plan", "partitioning.build_mask_plan"),
        Target(cli, "build_mask_plan", "partitioning.build_mask_plan"),
        Target(partitioning, "build_mask_plan", "partitioning.build_mask_plan"),
        Target(pipeline, "count_params", "partitioning.count_params", _params),
        Target(partitioning, "count_params", "partitioning.count_params", _params),
        Target(InputEmbedding, "__init__", "network.InputEmbedding"),
        Target(InputEmbedding, "embed_values", "network.embed_values", _rows),
        Target(pipeline, "train", "network.train"),
        Target(cli, "train", "network.train"),
        Target(network, "train", "network.train"),
        Target(network, "evaluate", "network.evaluate"),
        Target(MaskedNetwork, "__init__", "network.MaskedNetwork"),
        Target(MaskedNetwork, "forward", "network.forward", _rows),
        Target(MaskedNetwork, "loss_and_gradients", "network.loss_and_gradients"),
        Target(pipeline, "generate_dataset", "pipeline.generate_dataset", _samples),
        Target(cli, "generate_dataset", "pipeline.generate_dataset", _samples),
        Target(pipeline, "scenario_template", "pipeline.scenario_template"),
        Target(cli, "scenario_template", "pipeline.scenario_template"),
        Target(pipeline, "remove_pseudo_until_unobservable",
               "pipeline.remove_pseudo_until_unobservable"),
        Target(pipeline, "wls_test_run", "pipeline.wls_test_run"),
        Target(pipeline, "nn_test_run", "pipeline.nn_test_run"),
        Target(pipeline, "run_scenario", "pipeline.run_scenario", _scenario),
        Target(cli, "run_scenario", "pipeline.run_scenario", _scenario),
        Target(pipeline, "report", "pipeline.report"),
        Target(cli, "report", "pipeline.report"),
        Target(cli, "main", "cli.main"),
    ]


def is_wrapper(obj) -> bool:
    return getattr(obj, _WRAPPER_FLAG, False)


def installed_wrappers(targets) -> list:
    """Span names of targets whose attribute currently holds a wrapper."""
    return [t.span for t in targets if is_wrapper(t.owner.__dict__.get(t.attr))]


class Tracer:
    """Context manager that patches ``targets`` and records spans."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list = []

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for t in self.targets:
                original = t.owner.__dict__[t.attr]
                if is_wrapper(original):
                    raise RuntimeError(f"{t.span} is already wrapped")
                self._saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(original, t))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, target: Target):
        spans, stack = self.spans, self._stack
        info = target.info
        name = target.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), parent.id if parent else None, name, 0.0)
            spans.append(span)
            stack.append(span)
            result = exc = None
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                span.error = type(e).__name__
                raise
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                if info is not None:
                    span.info = info(args, result, exc)

        setattr(wrapper, _WRAPPER_FLAG, True)
        return wrapper


# Per-layer metrics whose values are exact counts of work; two traced runs
# of the same code and seed must report identical values for these.
COUNTS = (
    "powerflow.calls", "powerflow.sweeps", "powerflow.resamples",
    "measurements.synthesize_calls", "measurements.evaluator_builds",
    "measurements.h_calls", "measurements.jacobian_calls",
    "wls.calls", "wls.iterations", "wls.objective_calls", "wls.unobservable", "wls.nonconverged",
    "pipeline.rank_tests", "network.train_steps",
    "partitioning.live_params_p2n2", "partitioning.live_params_pawnn", "trace.spans",
)
SCENARIOS = ("scenario1", "scenario2", "scenario3")


def layer_metrics(spans) -> dict:
    """Per-layer metrics, ``name -> (value, unit)``, from one traced pass.

    A metric over calls that did not happen reads 0.
    """
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def calls(name):
        return by.get(name, [])

    def ids(name):
        return {s.id for s in calls(name)}

    def mean(values):
        return float(np.mean(values)) if len(values) else 0.0

    def per_call(name, scale):
        return mean([s.duration for s in calls(name)]) * scale

    def ratio(total, n):
        return float(total) / n if n else 0.0

    pf = calls("powerflow.solve_power_flow")
    est = calls("wls.estimate")
    est_ids = ids("wls.estimate")
    train_ids = ids("network.train")
    steps = [s for s in calls("network.loss_and_gradients") if s.parent in train_ids]
    forward = calls("network.forward")
    inference = [s for s in forward if s.parent not in train_ids]
    single = [s for s in inference if s.info["rows"] == 1]
    batch = [s for s in inference if s.info["rows"] > 1]
    embed = calls("network.embed_values")
    generate = calls("pipeline.generate_dataset")
    plans = calls("partitioning.build_mask_plan")
    params = calls("partitioning.count_params")
    iterations = [s.info["iterations"] for s in est if "iterations" in s.info]
    objective = sum(1 for s in calls("wls.objective") if s.parent in est_ids)
    rank_tests = sum(1 for s in calls("measurements.jacobian_rows")
                     if s.parent in ids("pipeline.remove_pseudo_until_unobservable"))
    n_steps = len(steps)

    m = {
        "grid_model.load_ms": (per_call("grid_model.load_feeder", 1e3), "ms"),
        "partitioning.plan_ms": (ratio(1e3 * sum(
            s.duration for s in calls("partitioning.partition_at_pmus") + plans), len(plans)), "ms"),
        "partitioning.live_params_p2n2": (next((s.info["p2n2"] for s in params if s.info.get("pruned")), 0), "count"),
        "partitioning.live_params_pawnn": (next((s.info["pawnn"] for s in params if s.info), 0), "count"),
        "powerflow.calls": (len(pf), "count"),
        "powerflow.ms_per_call": (per_call("powerflow.solve_power_flow", 1e3), "ms"),
        "powerflow.sweeps": (sum(s.info.get("sweeps", 0) for s in pf), "count"),
        "powerflow.sweeps_per_call": (mean([s.info["sweeps"] for s in pf if "sweeps" in s.info]), "count"),
        "powerflow.resamples": (sum(s.error == "NotConvergedError" for s in pf), "count"),
        "measurements.synthesize_calls": (len(calls("measurements.synthesize")), "count"),
        "measurements.synthesize_ms_per_call": (per_call("measurements.synthesize", 1e3), "ms"),
        "measurements.row_sigmas_us": (per_call("measurements.row_sigmas", 1e6), "us"),
        "measurements.evaluator_builds": (len(calls("measurements.RowEvaluator")), "count"),
        "measurements.evaluator_build_ms": (per_call("measurements.RowEvaluator", 1e3), "ms"),
        "measurements.h_calls": (len(calls("measurements.h")), "count"),
        "measurements.h_us_per_call": (per_call("measurements.h", 1e6), "us"),
        "measurements.jacobian_calls": (len(calls("measurements.jacobian")), "count"),
        "measurements.jacobian_us_per_call": (per_call("measurements.jacobian", 1e6), "us"),
        "wls.calls": (len(est), "count"),
        "wls.iterations": (sum(iterations), "count"),
        "wls.iterations_per_call": (mean(iterations), "count"),
        "wls.objective_calls": (objective, "count"),
        "wls.objective_calls_per_call": (ratio(objective, len(est)), "count"),
        "wls.self_ms_per_call": (ratio(1e3 * sum(s.self_s for s in est), len(est)), "ms"),
        "wls.unobservable": (sum(s.error == "UnobservableError" for s in est), "count"),
        "wls.nonconverged": (sum(s.error == "NonConvergedError" for s in est), "count"),
        "network.embed_ms_per_sample": (ratio(1e3 * sum(s.duration for s in embed),
                                              sum(s.info["rows"] for s in embed)), "ms"),
        "network.train_steps": (n_steps, "count"),
        "network.step_ms": (mean([s.duration for s in steps]) * 1e3, "ms"),
        "network.val_forward_ms": (mean([s.duration for s in forward if s.parent in train_ids]) * 1e3, "ms"),
        "network.adam_self_ms_per_step": (ratio(1e3 * sum(s.self_s for s in calls("network.train")), n_steps), "ms"),
        "network.forward_us_single": (mean([s.duration for s in single]) * 1e6, "us"),
        "network.forward_us_batch_per_sample": (ratio(1e6 * sum(s.duration for s in batch),
                                                      sum(s.info["rows"] for s in batch)), "us"),
        "pipeline.generate_self_ms_per_sample": (ratio(1e3 * sum(s.self_s for s in generate),
                                                       sum(s.info.get("samples", 0) for s in generate)), "ms"),
        "pipeline.scenario_template_ms": (per_call("pipeline.scenario_template", 1e3), "ms"),
        "pipeline.rank_tests": (rank_tests, "count"),
        "pipeline.report_ms": (per_call("pipeline.report", 1e3), "ms"),
        "pipeline.unattributed_ms": (1e3 * sum(s.self_s for s in spans if s.name.startswith("pipeline.")
                                               and s.name != "pipeline.generate_dataset"), "ms"),
        "cli.self_ms": (1e3 * sum(s.self_s for s in calls("cli.main")), "ms"),
        "trace.spans": (len(spans), "count"),
    }
    for name in SCENARIOS:
        m[f"pipeline.run_scenario_s.{name}"] = (
            sum(s.duration for s in calls("pipeline.run_scenario") if s.info.get("scenario") == name), "s")
    return m
