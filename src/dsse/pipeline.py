"""Monte Carlo dataset generation, scenario orchestration, and benchmarking.

A dataset sample is one synthetic operating point: draw per-load multipliers from a
daily shape with multiplicative noise, solve the power flow, record the true per-unit
voltage magnitudes as labels, and synthesize a noisy measurement vector. Sample i draws
its hour and one fused normal row (load noise, then row noise) from the stream of
``default_rng([seed, i, attempt])``: all samples' streams are seeded in one vectorized
pass, exact while NumPy keeps SeedSequence and PCG64 stable (NEP 19), and drawn through
one reused Generator. A draw whose power flow does not converge is redrawn with
attempt + 1, at most 20 times. ``generate_dataset`` solves all samples in one batch
(``solve_batch``) and evaluates h(x) once; sample i is bit-for-bit the same in a dataset
of any size, so parallel and serial generation produce identical data. It matches a
per-sample ``solve_power_flow`` and ``synthesize`` loop up to rounding (1e-12 p.u.
labels, 1e-7 sigma values) with the same resampling.

Scenario semantics: scenario 1 is the full measurement plan with 30%
pseudo noise; scenario 2 raises pseudo noise to 50% with the same rows;
scenario 3 keeps 30% noise but removes pseudo rows until WLS's own
observability test, ``wls.check_observable``, fails.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
import os
import time
from collections.abc import Iterator
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np
from numpy.random import PCG64, Generator

from dsse.grid_model import FeederModel, check_fields, is_bus_list
# solve_power_flow and synthesize go unused here; benchmarks/tracing.py patches them
from dsse.measurements import (PSEUDO_NOISE, MeasurementSet, RowEvaluator, jacobian_rows,
                               plan_measurements, row_sigmas, synthesize, unit_bases)  # noqa: F401
from dsse.network import (InputEmbedding, TrainConfig, Workspace, nu, read_npz, split_indices,
                          train, write_npz)
from dsse.partitioning import BLOCK_WIDTH, build_mask_plan, count_params, partition_at_pmus
from dsse.powerflow import (NotConvergedError, StateVector, slack_state, solve_batch,
                            solve_power_flow)  # noqa: F401
from dsse.wls import NonConvergedError, UnobservableError, check_observable, estimate


PEAK_HOUR = 18.0  # hour of the daily load shape's peak
MULTIPLIER_FLOOR = 0.2  # minimum load multiplier


@dataclass
class LoadProfileConfig:
    samples: int = 10_000
    seed: int = 0
    amplitude: float = 0.15  # daily shape swing around 1.0, at most 1 so it stays >= 0
    # lognormal sigma of per-load multiplier, in [0, 1]: the multiplier floor
    # clips about 14% of draws at 1 and 58% at 2
    noise_sigma: float = 0.08

    def __post_init__(self):
        check_fields(vars(self), (("samples", self.samples >= 1, ">= 1"),
                                  ("seed", self.seed >= 0, ">= 0"),
                                  ("amplitude", 0 <= self.amplitude <= 1, "in [0, 1]"),
                                  ("noise_sigma", 0 <= self.noise_sigma <= 1, "in [0, 1]")))


@dataclass
class Scenario:
    name: str
    pmu_buses: tuple
    metered_loads: tuple = ()
    pseudo_noise: float = PSEUDO_NOISE
    make_unobservable: bool = False

    def __post_init__(self):
        check_fields(vars(self), (
            ("pseudo_noise", 0 < self.pseudo_noise < np.inf, "finite and > 0"),
            # past 100% every pseudo load's 3-sigma band crosses zero
            ("pseudo_noise", self.pseudo_noise <= 1, "<= 1")))


@dataclass
class BenchRow:
    scenario: str
    estimator: str
    nu: float | None
    median_time_s: float | None
    status: str
    failures: int = 0
    params: int | None = None


@dataclass
class Dataset:
    """Samples of one template; ``features`` derive from ``values`` and are never saved."""

    template: MeasurementSet
    pmu_buses: tuple
    values: np.ndarray  # (M, rows)
    variances: np.ndarray  # (M, rows)
    features: np.ndarray  # (M, n_buses * channels)
    v_true_pu: np.ndarray  # (M, n_slots) magnitudes, per-unit
    seed: int
    resampled: int
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.values)


def _multipliers(cfg: LoadProfileConfig, u, z) -> np.ndarray:
    """Load multipliers from uniform draws ``u`` (the hour is 24u) and standard
    normal draws ``z`` (the noise is exp(sigma z - sigma^2 / 2)), any batch shape."""
    shape = 1.0 + cfg.amplitude * np.cos(2.0 * np.pi * (24.0 * u - PEAK_HOUR) / 24.0)
    noise = np.exp(cfg.noise_sigma * z - cfg.noise_sigma**2 / 2)
    return np.maximum(shape * noise, MULTIPLIER_FLOOR)


def sample_multipliers(cfg: LoadProfileConfig, rng, n_loads: int) -> np.ndarray:
    return _multipliers(cfg, rng.random(), rng.standard_normal(n_loads))


# NumPy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = 2**32 - 1, 2**128 - 1


def _pcg64_states(seed: int, i: np.ndarray, attempt: np.ndarray) -> Iterator[dict]:
    """Yields ``default_rng([seed, i[k], attempt[k]]).bit_generator.state["state"]`` for
    each k: SeedSequence's pool mixing (``hashmix``/``mix``, XSHIFT 16) and ``generate_state(4,
    uint64)`` run on uint32 arrays of all k at once, then PCG64's two seeding LCG steps."""
    if max(i.max(), attempt.max()) > _M32:
        raise OverflowError("a sample index or attempt does not fit one 32-bit seed word")
    # NumPy's coercion of [seed, i, attempt] (the seed's 32-bit words, i, attempt), zero-padded
    n = (seed.bit_length() + 31) // 32 or 1
    words = np.zeros((max(n + 2, 4), len(i)), np.uint32)
    words[:n] = np.array([seed >> 32 * k & _M32 for k in range(n)], np.uint32)[:, None]
    words[n], words[n + 1] = i, attempt
    mult = _INIT_A  # the hash multiplier advances on every call, whatever the data

    def hash32(x, step):
        nonlocal mult
        x, mult = x ^ mult, mult * step & _M32
        x = x * mult
        return x ^ x >> 16

    def mix(x, y):
        x = x * _MIX_L - hash32(y, _MULT_A) * _MIX_R
        return x ^ x >> 16

    pool = [hash32(word, _MULT_A) for word in words[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], pool[src])
    for word in words[4:]:  # entropy longer than the pool
        pool = [mix(x, word) for x in pool]
    mult = _INIT_B
    out = [hash32(pool[k % 4], _MULT_B).astype(np.uint64) for k in range(8)]
    w0, w1, w2, w3 = ((lo | hi << 32).tolist() for lo, hi in zip(out[::2], out[1::2]))
    incs = (((c << 64 | d) << 1 | 1) & _M128 for c, d in zip(w2, w3))
    return ({"state": ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _M128, "inc": inc}
            for a, b, inc in zip(w0, w1, incs))  # one at a time: no list of K states


def _generation_record(model: FeederModel, template: MeasurementSet) -> tuple:
    """The inputs of ``generate_dataset`` that the template and feeder fix: (input
    embedding, row evaluator, the load matrix's (slot, load) cells, their base powers)."""
    embedding, evaluator = InputEmbedding(model, template), RowEvaluator(model, template)
    base_loads = sorted(model.loads, key=lambda l: l.bus)
    slot = [model.slot_index(ld.bus, p) for ld in base_loads for p in ld.power]
    load = [k for k, ld in enumerate(base_loads) for _ in ld.power]
    power = np.array([s for ld in base_loads for s in ld.power.values()], dtype=complex)
    return embedding, evaluator, slot, load, power


def generate_dataset(model: FeederModel, template: MeasurementSet, profile: LoadProfileConfig,
                     pmu_buses) -> Dataset:
    """M samples of (measurement vector, per-unit magnitude labels).

    Each pass seeds every pending sample's PCG64 stream at once (``_pcg64_states``;
    NumPy keeps SeedSequence and PCG64 stable, NEP 19, and
    ``test_sample_generators_are_numpys_seeding_of_the_triple`` checks it), and one
    reused ``Generator`` draws sample i's hour and one normal row, load noise then
    row noise. The multipliers come from one batched ``_multipliers`` call and the
    power flows from one ``solve_batch``; the embedding, evaluator and load cells
    are built once per (template, model) through ``MeasurementSet.compiled``."""
    pmu_buses = model.pmu_placement(pmu_buses)
    embedding, evaluator, slot, load, power = template.compiled(model, _generation_record)
    m, seed, n_loads = profile.samples, operator.index(profile.seed), len(model.loads)
    u, draws = np.empty((m, 1)), np.empty((m, n_loads + len(template)))
    z, normal = draws[:, :n_loads], draws[:, n_loads:]  # one normal draw fills both
    v = np.empty((m, model.n_slots), complex)
    bits = PCG64()  # its state is set before each sample's draws
    rng, state = Generator(bits), bits.state
    attempt = np.zeros(m, dtype=int)
    todo = np.arange(m)
    while len(todo):
        for i, sample_state in zip(todo.tolist(), _pcg64_states(seed, todo, attempt[todo])):
            state["state"] = sample_state
            bits.state = state
            rng.random(out=u[i])
            rng.standard_normal(out=draws[i])
        s = np.zeros((len(todo), model.n_slots), complex)
        s[:, slot] = _multipliers(profile, u[todo], z[todo])[:, load] * power
        v[todo], sweeps, converged, mismatch = solve_batch(model, s)
        attempt[todo[~converged]] += 1
        if attempt.max() > 20:
            raise NotConvergedError(sweeps.max(), float(mismatch[~converged].max()))
        todo = todo[~converged]
    h_true = evaluator.h(StateVector(v))
    with np.errstate(over="ignore", invalid="ignore"):
        sigmas = row_sigmas(model, template, h_true)
        if not np.isfinite(sigmas**2).all():
            raise ValueError("pseudo_noise must be small enough that no row's variance overflows")
    values = h_true + normal * sigmas
    return Dataset(
        template=template,
        pmu_buses=pmu_buses,
        values=values,
        variances=sigmas**2,
        features=embedding.embed_values(values),
        v_true_pu=np.abs(v) / model.base_voltage,
        seed=profile.seed,
        resampled=int(attempt.sum()),
        meta={"profile": asdict(profile)},
    )


def save_dataset(ds: Dataset, path) -> None:
    buf = io.StringIO()
    ds.template.write_csv(buf)
    meta = dict(ds.meta, schema_version=2, seed=ds.seed, resampled=ds.resampled,
                pmu_buses=list(ds.pmu_buses))
    write_npz(path, meta, dict(values=ds.values, variances=ds.variances, v_true_pu=ds.v_true_pu,
                               template=np.frombuffer(buf.getvalue().encode(), dtype=np.uint8)))


def load_dataset(path, model: FeederModel) -> Dataset:
    """A ``save_dataset`` file (``read_npz``); features stored by schema 1 are ignored. A
    ValueError for an unreadable archive, a missing field or array, untyped ``pmu_buses``,
    labels of another slot count, or misshapen or non-finite values, variances or labels."""
    meta, data = read_npz(path)
    missing = [f"metadata lacks the field {k!r}" for k in ("seed", "resampled") if k not in meta]
    missing += [f"lacks the array {k!r}" for k in ("values", "variances", "v_true_pu", "template")
                if k not in data]
    if missing:
        raise ValueError(f"dataset {missing[0]}")
    check_fields(meta, (("pmu_buses", is_bus_list(meta.get("pmu_buses")), "a list of ints"),),
                 "dataset metadata {!r}")
    template = MeasurementSet.read_csv(io.StringIO(bytes(data["template"]).decode()))
    values, variances, labels = data["values"], data["variances"], data["v_true_pu"]
    if labels.ndim == 2 and labels.shape[1] != model.n_slots:
        raise ValueError(
            f"dataset labels have {labels.shape[1]} slots but the feeder has "
            f"{model.n_slots}; was the dataset generated on another feeder?"
        )
    arrays = {"values": (values, len(template)), "variances": (variances, len(template)),
              "v_true_pu": (labels, model.n_slots)}
    for name, (a, cols) in arrays.items():
        if a.ndim != 2 or a.shape[1] != cols:
            raise ValueError(f"dataset {name} has shape {a.shape}, expected (M, {cols})")
    m = sorted(len(a) for a, _ in arrays.values())[1]  # the row count two arrays share
    for name, (a, cols) in arrays.items():
        if len(a) != m:
            raise ValueError(f"dataset {name} has shape {a.shape}, expected ({m}, {cols})")
    if not all(np.isfinite(a).all() for a in (values, variances, labels)):
        raise ValueError("dataset values, variances and labels must be finite")
    return Dataset(
        template=template,
        pmu_buses=tuple(meta["pmu_buses"]),
        values=values,
        variances=variances,
        features=InputEmbedding(model, template).embed_values(values),
        v_true_pu=labels,
        seed=meta["seed"],
        resampled=meta["resampled"],
        meta={k: v for k, v in meta.items() if k not in ("schema_version",)},
    )


def remove_pseudo_until_unobservable(
    model: FeederModel, template: MeasurementSet
) -> tuple[MeasurementSet, int]:
    """Drop pseudo P/Q rows (highest bus first) until ``check_observable``,
    the test WLS applies, rejects the template; returns the reduced template
    and the removal count. Each step tests rows of one per-unit flat-start
    Jacobian (a row does not depend on the others). A template that stays
    observable without any pseudo row (none to remove, say) is a ``ValueError``."""
    H = jacobian_rows(model, slack_state(model), template) / unit_bases(model, template)[:, None]
    pseudo = template.noise_kind == "pseudo_power"
    loci = set(zip(template.locus[pseudo].tolist(), template.phase[pseudo].tolist()))
    keep = np.ones(len(template), dtype=bool)
    for locus, phase in sorted(loci, reverse=True):
        keep &= ~(pseudo & (template.locus == locus) & (template.phase == phase))
        try:
            check_observable(H[keep])
        except UnobservableError:
            return template.select(keep), int(np.count_nonzero(~keep))
    cause = (f"it stays observable with all {int(pseudo.sum())} pseudo rows removed"
             if pseudo.any() else "it has no pseudo rows")
    raise ValueError(f"cannot make the template unobservable: {cause}; "
                     "meter fewer loads or place fewer PMUs")


def scenario_template(model: FeederModel, scenario: Scenario) -> tuple[MeasurementSet, int]:
    template = plan_measurements(model, scenario.pmu_buses, metered_loads=scenario.metered_loads,
                                 pseudo_noise=scenario.pseudo_noise)
    removed = 0
    if scenario.make_unobservable:
        template, removed = remove_pseudo_until_unobservable(model, template)
    return template, removed


def standard_scenarios(pmu_buses) -> list:
    pmu = tuple(pmu_buses)
    return [
        Scenario("scenario1", pmu),
        Scenario("scenario2", pmu, pseudo_noise=0.5),
        Scenario("scenario3", pmu, make_unobservable=True),
    ]


def wls_test_run(model, template, dataset, test_idx):
    """Per-sample WLS estimates on the test split, individually timed.

    Returns (per-sample magnitude estimates p.u. or None, times, status,
    failure count). Timing covers the estimate call only. The status is
    "nonconverged" when no sample converged.
    """
    estimates = []
    times = []
    failures = 0
    for i in test_idx:
        mset = template.with_values(dataset.values[i], dataset.variances[i])
        t0 = time.perf_counter()
        try:
            report = estimate(model, mset)
        except UnobservableError:
            return None, [], "unobservable", len(test_idx)
        except NonConvergedError:
            report = None
        times.append(time.perf_counter() - t0)
        failures += report is None
        estimates.append(None if report is None else report.x_hat.magnitudes() / model.base_voltage)
    status = "ok" if failures < len(test_idx) else "nonconverged"
    return estimates, times, status, failures


def nn_test_run(net, dataset, test_idx):
    """Per-sample forward passes on the test split, individually timed. One
    workspace serves every sample, as it would a stream of estimates."""
    outs = []
    times = []
    ws = Workspace(net, 1, backward=False)
    for i in test_idx:
        x = dataset.features[i]
        t0 = time.perf_counter()
        out = net.forward(x, ws)
        times.append(time.perf_counter() - t0)
        outs.append(out)
    return outs, times


def _nu(estimates, truth) -> float:
    kept = [i for i, e in enumerate(estimates) if e is not None]
    return nu([estimates[i] for i in kept], truth[kept])


def run_scenario(
    model: FeederModel,
    scenario: Scenario,
    profile: LoadProfileConfig,
    train_config: TrainConfig | None = None,
    block_width: int = BLOCK_WIDTH,
):
    """Benchmark rows for one scenario: WLS, pawnn and p2n2, in that order, on one test split.
    Each network row comes from its own plan's network, trained and timed once per distinct
    ``plan.life``: where pruning removes nothing, both rows come from one network."""
    train_config = train_config or TrainConfig()
    template, removed = scenario_template(model, scenario)
    dataset = generate_dataset(model, template, profile, scenario.pmu_buses)
    _, test_idx = split_indices(len(dataset), train_config.train_fraction, train_config.seed)
    truth = dataset.v_true_pu[test_idx]
    artifacts = {"template": template, "removed_pseudo": removed, "dataset": dataset,
                 "test_idx": test_idx, "traces": {"true": truth}}

    estimates, times, status, failures = wls_test_run(model, template, dataset, test_idx)
    ok = status == "ok"
    rows = [BenchRow(scenario.name, "wls", _nu(estimates, truth) if ok else None,
                     float(np.median(times)) if times else None, status, failures)]
    if ok:
        artifacts["traces"]["wls"] = estimates

    partitions = partition_at_pmus(model, scenario.pmu_buses)
    plans = {kind: build_mask_plan(model, partitions, block_width=block_width,
                                   prune=kind == "p2n2") for kind in ("pawnn", "p2n2")}
    counts = count_params(plans["p2n2"])  # the pruned plan's count and its unpruned twin's
    runs = {}  # plan.life bytes -> (network, test outputs, test times)
    for kind, plan in plans.items():
        key = plan.life.tobytes()
        if key not in runs:
            net, _, val_idx = train(plan, model, dataset.features, dataset.v_true_pu,
                                    train_config)
            assert np.array_equal(val_idx, test_idx)
            runs[key] = (net, *nn_test_run(net, dataset, test_idx))
        net, outs, times = runs[key]
        params = counts.p2n2_params if kind == "p2n2" else counts.pawnn_params
        rows.append(BenchRow(scenario.name, kind, _nu(outs, truth), float(np.median(times)),
                             "ok", 0, params))
        artifacts["traces"][kind] = outs
        artifacts[f"net_{kind}"] = net
    return rows, artifacts


def format_report(rows) -> str:
    header = f"{'scenario':<12} {'estimator':<9} {'nu':>12} {'median_time_s':>13} {'status':<13} {'params':>8}"
    lines = [header, "-" * len(header)]
    for r in rows:
        nu = f"{r.nu:.6f}" if r.nu is not None else "-"
        tm = f"{r.median_time_s:.6f}" if r.median_time_s is not None else "-"
        params = str(r.params) if r.params is not None else "-"
        lines.append(
            f"{r.scenario:<12} {r.estimator:<9} {nu:>12} {tm:>13} {r.status:<13} {params:>8}"
        )
    return "\n".join(lines) + "\n"


def report(rows, out_dir, traces_by_scenario) -> None:
    """``summary.txt``, ``summary.csv`` (one column per ``BenchRow`` field), and per scenario
    ``trace_<name>.csv``: each estimator's per-slot mean over its non-None samples."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(format_report(rows))
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f.name for f in fields(BenchRow)])
        w.writerows(astuple(r) for r in rows)
    for name, traces in traces_by_scenario.items():
        kept = {est: [s for s in samples if s is not None] for est, samples in traces.items()}
        cols = {est: np.mean(samples, axis=0) for est, samples in kept.items() if samples}
        by_slot = np.transpose([*cols.values()]).tolist()
        with open(os.path.join(out_dir, f"trace_{name}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["slot", *cols])
            w.writerows([s, *means] for s, means in enumerate(by_slot))
