"""Monte Carlo dataset generation, scenario orchestration, and benchmarking.

A dataset sample is one synthetic operating point: draw per-load
multipliers from a daily shape with multiplicative noise, solve the power
flow, record the true per-unit voltage magnitudes as labels, and
synthesize a noisy measurement vector. Sample i uses the seed sequence
(seed, i), so parallel and serial generation produce identical data.

Scenario semantics: scenario 1 is the full measurement plan with 30%
pseudo noise; scenario 2 raises pseudo noise to 50% with the same rows;
scenario 3 keeps 30% noise but removes pseudo rows until WLS's own
observability test, ``wls.check_observable``, fails.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from dsse.grid_model import FeederModel
from dsse.measurements import (
    MeasurementSet,
    jacobian_rows,
    plan_measurements,
    synthesize,
)
from dsse.network import (
    InputEmbedding,
    TrainConfig,
    split_indices,
    train,
)
from dsse.partitioning import build_mask_plan, count_params, partition_at_pmus
from dsse.powerflow import NotConvergedError, slack_state, solve_power_flow
from dsse.wls import NonConvergedError, UnobservableError, WlsConfig, check_observable, estimate


@dataclass
class LoadProfileConfig:
    samples: int = 10_000
    seed: int = 0
    peak_hour: float = 18.0
    amplitude: float = 0.15  # daily shape swing around 1.0
    noise_sigma: float = 0.08  # lognormal sigma of per-load multiplier
    floor: float = 0.2  # minimum multiplier

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


@dataclass
class Scenario:
    name: str
    pmu_buses: tuple
    metered_loads: tuple = ()
    pseudo_noise: float = 0.3
    make_unobservable: bool = False


@dataclass
class BenchRow:
    scenario: str
    estimator: str
    nu: float | None
    mean_time_s: float | None
    status: str
    failures: int = 0
    params: int | None = None


@dataclass
class Dataset:
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


def config_hash(*parts) -> str:
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if hasattr(o, "__dict__"):
            return o.__dict__
        return str(o)

    payload = json.dumps(parts, sort_keys=True, default=default).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def sample_multipliers(cfg: LoadProfileConfig, rng, n_loads: int) -> np.ndarray:
    hour = rng.uniform(0.0, 24.0)
    shape = 1.0 + cfg.amplitude * np.cos(
        2.0 * np.pi * (hour - cfg.peak_hour) / 24.0
    )
    noise = np.exp(rng.normal(0.0, cfg.noise_sigma, n_loads) - cfg.noise_sigma**2 / 2)
    return np.maximum(shape * noise, cfg.floor)


def generate_dataset(
    model: FeederModel,
    template: MeasurementSet,
    profile: LoadProfileConfig,
    pmu_buses,
    seed: int | None = None,
) -> Dataset:
    """M samples of (measurement vector, per-unit magnitude labels)."""
    seed = profile.seed if seed is None else seed
    embedding = InputEmbedding(model, template, pmu_buses)
    base_loads = sorted(model.loads, key=lambda l: l.bus)

    m_rows = len(template)
    values = np.empty((profile.samples, m_rows))
    variances = np.empty((profile.samples, m_rows))
    v_true = np.empty((profile.samples, model.n_slots))
    resampled = 0
    for i in range(profile.samples):
        attempt = 0
        while True:
            rng = np.random.default_rng([seed, i, attempt])
            mult = sample_multipliers(profile, rng, len(base_loads))
            loads = {
                ld.bus: {p: s * k for p, s in ld.power.items()}
                for ld, k in zip(base_loads, mult)
            }
            try:
                pf = solve_power_flow(model, loads)
                break
            except NotConvergedError:
                resampled += 1
                attempt += 1
                if attempt > 20:
                    raise
        mset = synthesize(template, pf.state, model, rng)
        values[i] = mset.values()
        variances[i] = mset.variances()
        v_true[i] = pf.state.magnitudes() / model.base_voltage

    features = embedding.embed_values(values)
    return Dataset(
        template=template,
        pmu_buses=tuple(sorted(set(pmu_buses))),
        values=values,
        variances=variances,
        features=features,
        v_true_pu=v_true,
        seed=seed,
        resampled=resampled,
        meta={"profile": asdict(profile)},
    )


def save_dataset(ds: Dataset, path) -> None:
    buf = io.StringIO()
    ds.template.write_csv(buf)
    meta = dict(ds.meta, schema_version=1, seed=ds.seed, resampled=ds.resampled,
                pmu_buses=list(ds.pmu_buses))
    with open(path, "wb") as fh:
        np.savez(
            fh,
            values=ds.values,
            variances=ds.variances,
            features=ds.features,
            v_true_pu=ds.v_true_pu,
            template=np.frombuffer(buf.getvalue().encode(), dtype=np.uint8),
            meta=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
        )


def load_dataset(path) -> Dataset:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        template = MeasurementSet.read_csv(io.StringIO(bytes(data["template"]).decode()))
        return Dataset(
            template=template,
            pmu_buses=tuple(meta["pmu_buses"]),
            values=data["values"].copy(),
            variances=data["variances"].copy(),
            features=data["features"].copy(),
            v_true_pu=data["v_true_pu"].copy(),
            seed=meta["seed"],
            resampled=meta["resampled"],
            meta={k: v for k, v in meta.items() if k not in ("schema_version",)},
        )


def remove_pseudo_until_unobservable(
    model: FeederModel, template: MeasurementSet
) -> tuple[MeasurementSet, int]:
    """Drop pseudo P/Q rows (highest bus first) until ``check_observable``,
    the test WLS applies, rejects the template; returns the reduced template
    and the removal count."""
    x0 = slack_state(model)
    pseudo = template.noise_kind == "pseudo_power"
    loci = set(zip(template.locus[pseudo].tolist(), template.phase[pseudo].tolist()))
    keep = np.ones(len(template), dtype=bool)
    for locus, phase in sorted(loci, reverse=True):
        keep &= ~(pseudo & (template.locus == locus) & (template.phase == phase))
        reduced = template.select(keep)
        try:
            check_observable(model, reduced, jacobian_rows(model, x0, reduced))
        except UnobservableError:
            return reduced, len(template) - len(reduced)
    raise RuntimeError("removing every pseudo row did not break observability")


def scenario_template(model: FeederModel, scenario: Scenario) -> tuple[MeasurementSet, int]:
    template = plan_measurements(
        model,
        scenario.pmu_buses,
        metered_loads=scenario.metered_loads,
        pseudo_noise=scenario.pseudo_noise,
    )
    removed = 0
    if scenario.make_unobservable:
        template, removed = remove_pseudo_until_unobservable(model, template)
    return template, removed


def standard_scenarios(pmu_buses) -> list:
    pmu = tuple(pmu_buses)
    return [
        Scenario("scenario1", pmu, pseudo_noise=0.3),
        Scenario("scenario2", pmu, pseudo_noise=0.5),
        Scenario("scenario3", pmu, pseudo_noise=0.3, make_unobservable=True),
    ]


def wls_test_run(model, template, dataset, test_idx, wls_config=None):
    """Per-sample WLS estimates on the test split, individually timed.

    Returns (per-sample magnitude estimates p.u. or None, times, status,
    failure count). Timing covers the estimate call only. The status is
    "nonconverged" when no sample converged.
    """
    ev_cfg = wls_config or WlsConfig()
    estimates = []
    times = []
    failures = 0
    for i in test_idx:
        mset = template.with_values(dataset.values[i], dataset.variances[i])
        t0 = time.perf_counter()
        try:
            report = estimate(model, mset, ev_cfg)
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
    """Per-sample forward passes on the test split, individually timed."""
    outs = []
    times = []
    for i in test_idx:
        x = dataset.features[i]
        t0 = time.perf_counter()
        out = net.forward(x)
        times.append(time.perf_counter() - t0)
        outs.append(out)
    return outs, times


def _nu(estimates, truth) -> float:
    pairs = [(e, t) for e, t in zip(estimates, truth) if e is not None]
    return float(np.mean([np.sum((e - t) ** 2) for e, t in pairs]))


def run_scenario(
    model: FeederModel,
    scenario: Scenario,
    profile: LoadProfileConfig,
    train_config: TrainConfig | None = None,
    block_width: int = 8,
    wls_config: WlsConfig | None = None,
    estimators=("wls", "pawnn", "p2n2"),
):
    """Benchmark rows for one scenario; all estimators share the test split."""
    train_config = train_config or TrainConfig()
    template, removed = scenario_template(model, scenario)
    dataset = generate_dataset(model, template, profile, scenario.pmu_buses)
    _, test_idx = split_indices(len(dataset), train_config.train_fraction, train_config.seed)
    truth = dataset.v_true_pu[test_idx]

    partitions = partition_at_pmus(model, scenario.pmu_buses)
    rows = []
    artifacts = {"template": template, "removed_pseudo": removed, "dataset": dataset,
                 "test_idx": test_idx, "traces": {"true": truth}}

    if "wls" in estimators:
        estimates, times, status, failures = wls_test_run(
            model, template, dataset, test_idx, wls_config
        )
        ok = status == "ok"
        nu = _nu(estimates, truth) if ok else None
        mean_time = float(np.mean(times)) if times else None
        rows.append(BenchRow(scenario.name, "wls", nu, mean_time, status, failures))
        if ok:
            artifacts["traces"]["wls"] = estimates

    for kind in ("pawnn", "p2n2"):
        if kind not in estimators:
            continue
        plan = build_mask_plan(
            model, partitions, block_width=block_width, prune=kind == "p2n2"
        )
        net, curve, val_idx = train(
            plan, model, dataset.features, dataset.v_true_pu, train_config
        )
        assert np.array_equal(val_idx, test_idx)
        outs, times = nn_test_run(net, dataset, test_idx)
        counts = count_params(plan)
        params = counts.p2n2_params if kind == "p2n2" else counts.pawnn_params
        rows.append(BenchRow(scenario.name, kind, _nu(outs, truth), float(np.mean(times)),
                             "ok", 0, params))
        artifacts["traces"][kind] = outs
        artifacts[f"net_{kind}"] = net
    return rows, artifacts


def format_report(rows) -> str:
    header = f"{'scenario':<12} {'estimator':<9} {'nu':>12} {'mean_time_s':>12} {'status':<13} {'params':>8}"
    lines = [header, "-" * len(header)]
    for r in rows:
        nu = f"{r.nu:.6f}" if r.nu is not None else "-"
        tm = f"{r.mean_time_s:.6f}" if r.mean_time_s is not None else "-"
        params = str(r.params) if r.params is not None else "-"
        lines.append(
            f"{r.scenario:<12} {r.estimator:<9} {nu:>12} {tm:>12} {r.status:<13} {params:>8}"
        )
    return "\n".join(lines) + "\n"


def report(rows, out_dir, traces_by_scenario=None) -> None:
    """Human-readable table plus machine-readable columnar files."""
    import csv
    import os

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(format_report(rows))
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "estimator", "nu", "mean_time_s", "status", "failures", "params"])
        for r in rows:
            w.writerow(
                [r.scenario, r.estimator,
                 "" if r.nu is None else repr(r.nu),
                 "" if r.mean_time_s is None else repr(r.mean_time_s),
                 r.status, r.failures, "" if r.params is None else r.params]
            )
    for name, traces in (traces_by_scenario or {}).items():
        truth = np.asarray(traces["true"])
        cols = {"true": truth.mean(axis=0)}
        for est, samples in traces.items():
            if est == "true":
                continue
            kept = [s for s in samples if s is not None]
            if kept:
                cols[est] = np.mean(np.asarray(kept), axis=0)
        with open(os.path.join(out_dir, f"trace_{name}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["slot"] + list(cols))
            for s in range(truth.shape[1]):
                w.writerow([s] + [repr(float(cols[c][s])) for c in cols])
