"""The four benchmark workloads.

Each workload has four steps. ``setup()`` builds the inputs from the
workload seed and is timed as ``setup_s``. ``run()`` is one round of the
timed work; it returns its result and the wall time of the program work
alone. ``check(result, tally)`` verifies the round's outputs with dsse's
public functions, outside the timed span and outside any trace; each check
is one attempted operation in ``tally``. It returns a small record of the
round, so that memory use does not grow with the number of rounds.
``metrics(records)`` turns the records into the two timed end-to-end
metrics every workload reports, ``wall_s`` (one round) and ``op_ms_p50``
(one unit operation, named in the workload's docstring), plus details of
its own such as ν, which are printed but not gated.

Every workload calls dsse through module and class attributes
(``wls.estimate``, ``net.forward``) so that a traced run sees each call.

Why these four:

* ``mc-generate`` -- Monte Carlo dataset generation on the 13-bus feeder.
  Power flow and measurement synthesis do the work; WLS and training none.
* ``wls-estimate`` -- per-sample WLS on scenario-1/2 vectors plus the
  scenario-3 unobservability check and p2n2 inference. WLS and the
  measurement Jacobian/h evaluations do the work; no power flow runs.
* ``train`` -- fixed-epoch training of both mask plans on a 13-bus dataset.
  Forward, backward and ADAM do the work; power flow and WLS none.
* ``bench-6bus`` -- ``dsse bench`` in-process on the 6-bus feeder: scenario
  orchestration, pseudo-row removal and report writing on a feeder small
  enough that fixed per-call costs dominate.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dsse import cli, grid_model, measurements, network, partitioning, pipeline, powerflow, wls
from dsse.fixtures import fixture_path

PMU_LABELS_13 = (1, 12)
PMU_LABELS_6 = (4,)

# |z| bound on a noise draw; a standard normal exceeds it with p ~ 2e-9
Z_LIMIT = 6.0
# Plausible per-unit magnitudes. The 13-bus fixture has no voltage regulator,
# and at peak load phase A at its far end sags to about 0.87 p.u.
V_BAND = (0.8, 1.1)


@dataclass
class Tally:
    """Attempted and failed checks of one run, with the first failures."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return bool(ok)


def _percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _thirteen_bus():
    model = grid_model.load_feeder(fixture_path("thirteen_bus"))
    return model, [model.bus_by_label(label) for label in PMU_LABELS_13]


class McGenerate:
    """Monte Carlo generation: a round is one 100-sample dataset and the unit
    operation is one sample."""

    name = "mc-generate"
    setup_repeats = 7

    def __init__(self, seed: int, samples: int = 100, spot: int = 8):
        self.seed = seed
        self.samples = samples
        self.spot = spot

    def setup(self):
        self.model, self.pmu = _thirteen_bus()
        scenario1 = pipeline.standard_scenarios(self.pmu)[0]
        self.template, _ = pipeline.scenario_template(self.model, scenario1)
        self.profile = pipeline.LoadProfileConfig(samples=self.samples, seed=self.seed)

    def run(self):
        t0 = time.perf_counter()
        ds = pipeline.generate_dataset(self.model, self.template, self.profile, self.pmu)
        return ds, time.perf_counter() - t0

    def check(self, ds, tally: Tally):
        finite = (
            np.isfinite(ds.values).all(axis=1)
            & np.isfinite(ds.variances).all(axis=1)
            & np.isfinite(ds.v_true_pu).all(axis=1)
            & np.isfinite(ds.features).all(axis=1)
        )
        in_band = ((ds.v_true_pu >= V_BAND[0]) & (ds.v_true_pu <= V_BAND[1])).all(axis=1)
        tally.check(len(ds) == self.samples, "mc-generate: sample count")
        for i in range(len(ds)):
            tally.check(finite[i] and in_band[i], f"mc-generate: sample {i} non-finite or |V| outside {V_BAND}")

        # Spot samples: re-solve each sample's power flow from its load draw
        # on the (seed, i, attempt=0) stream and compare with the dataset.
        model, template = self.model, self.template
        base_loads = sorted(model.loads, key=lambda ld: ld.bus)
        zs = []
        for i in np.linspace(0, len(ds) - 1, self.spot).astype(int):
            rng = np.random.default_rng([self.seed, int(i), 0])
            mult = pipeline.sample_multipliers(self.profile, rng, len(base_loads))
            loads = {ld.bus: {p: s * k for p, s in ld.power.items()} for ld, k in zip(base_loads, mult)}
            pf = powerflow.solve_power_flow(model, loads)
            s_src, s_load, s_loss = powerflow.complex_power_balance(model, pf, loads)
            balanced = abs(s_src - s_load - s_loss) < max(1e-7 * model.power_base, 1.0)
            labels_match = ds.resampled > 0 or np.allclose(
                pf.state.magnitudes() / model.base_voltage, ds.v_true_pu[i], rtol=0, atol=1e-6
            )
            z = (ds.values[i] - measurements.measurement_function(model, pf.state, template)) / np.sqrt(ds.variances[i])
            zs.append(z)
            tally.check(
                balanced and labels_match and np.all(np.abs(z) < Z_LIMIT),
                f"mc-generate: spot sample {i} balance/labels/noise",
            )
        sd = float(np.std(np.concatenate(zs)))
        tally.check(0.85 < sd < 1.15, f"mc-generate: noise z-score std {sd:.3f}")
        return {}

    def metrics(self, records):
        wall = float(np.median([r["wall_s"] for r in records]))
        return {
            "wall_s": (wall, "s"),
            "op_ms_p50": (wall / self.samples * 1e3, "ms"),
            "gen_samples_per_s": (self.samples / wall, "1/s"),
        }


class WlsEstimate:
    """Per-sample WLS, the scenario-3 check and p2n2 inference, one chunk a round.

    Round r takes the r-th chunk of ``chunk`` samples (cycling): it estimates
    the chunk's scenario-1 and scenario-2 vectors, runs every scenario-3
    vector (each must raise ``UnobservableError``), then p2n2 on the chunk's
    features one sample at a time and once on the whole feature matrix.
    Short rounds let the runner sample the machine's speed between them.
    The unit operation is one WLS estimate, scenarios 1 and 2 pooled.
    ν is taken over the first pass through all samples.
    """

    name = "wls-estimate"
    setup_repeats = 3

    def __init__(self, seed: int, samples: int = 150, unobservable: int = 4,
                 train_epochs: int = 10, chunk: int = 15):
        self.seed = seed
        self.samples = samples
        self.unobservable = unobservable
        self.train_epochs = train_epochs
        self.chunk = chunk
        self.min_rounds = -(-samples // chunk)
        self.rounds = 0

    def setup(self):
        model, pmu = _thirteen_bus()
        s1, s2, s3 = pipeline.standard_scenarios(pmu)
        profile = pipeline.LoadProfileConfig(samples=self.samples, seed=self.seed)
        self.model = model
        self.sets = {}
        self.truth = {}
        for scenario in (s1, s2):
            template, _ = pipeline.scenario_template(model, scenario)
            ds = pipeline.generate_dataset(model, template, profile, pmu)
            self.sets[scenario.name] = [
                template.with_values(ds.values[i], ds.variances[i]) for i in range(len(ds))
            ]
            self.truth[scenario.name] = ds.v_true_pu
            if scenario is s1:
                self.features = ds.features
                targets = ds.v_true_pu
        template3, _ = pipeline.scenario_template(model, s3)
        ds3 = pipeline.generate_dataset(
            model, template3,
            pipeline.LoadProfileConfig(samples=self.unobservable, seed=self.seed), pmu,
        )
        self.sets3 = [template3.with_values(ds3.values[i], ds3.variances[i]) for i in range(len(ds3))]

        plan = partitioning.build_mask_plan(model, partitioning.partition_at_pmus(model, pmu), prune=True)
        partitioning.count_params(plan)
        config = network.TrainConfig(epochs=self.train_epochs, patience=self.train_epochs + 1, seed=0)
        self.net, _, _ = network.train(plan, model, self.features, targets, config)

    def run(self):
        model, net = self.model, self.net
        start = self.rounds * self.chunk % self.samples
        idx = list(range(start, min(start + self.chunk, self.samples)))
        self.rounds += 1
        out = {"idx": idx, "latency_s": [], "estimates": {}, "unobservable": [],
               "single_s": [], "single": [], "batch_s": None, "batch": None}
        t_round = time.perf_counter()
        for name, sets in self.sets.items():
            out["estimates"][name] = estimates = []
            for i in idx:
                t0 = time.perf_counter()
                try:
                    report = wls.estimate(model, sets[i])
                except (wls.UnobservableError, wls.NonConvergedError) as exc:
                    report = exc
                out["latency_s"].append(time.perf_counter() - t0)
                estimates.append(report)
        for z in self.sets3:
            try:
                wls.estimate(model, z)
                out["unobservable"].append(False)
            except wls.UnobservableError:
                out["unobservable"].append(True)
            except wls.NonConvergedError:
                out["unobservable"].append(False)
        for i in idx:
            t0 = time.perf_counter()
            y = net.forward(self.features[i])
            out["single_s"].append(time.perf_counter() - t0)
            out["single"].append(y)
        t0 = time.perf_counter()
        out["batch"] = net.forward(self.features)
        out["batch_s"] = (time.perf_counter() - t0) / len(self.features)
        return out, time.perf_counter() - t_round

    def check(self, out, tally: Tally):
        idx = out["idx"]
        record = {"latency_s": out["latency_s"], "single_s": out["single_s"],
                  "batch_s": out["batch_s"], "sq_err": {}}
        for name, reports in out["estimates"].items():
            record["sq_err"][name] = errs = {}
            for i, report in zip(idx, reports):
                ok = (not isinstance(report, Exception)) and report.converged
                mags = report.x_hat.magnitudes() / self.model.base_voltage if ok else None
                if tally.check(ok and np.all(np.isfinite(mags)),
                               f"wls-estimate: {name} sample {i}: {type(report).__name__}"):
                    errs[i] = float(np.sum((mags - self.truth[name][i]) ** 2))
        for k, unobservable in enumerate(out["unobservable"]):
            tally.check(unobservable, f"wls-estimate: scenario3 vector {k} did not raise UnobservableError")
        single = np.asarray(out["single"])
        tally.check(np.all(np.isfinite(single)), "wls-estimate: p2n2 single-sample output non-finite")
        tally.check(
            np.allclose(out["batch"][idx], single, rtol=0, atol=1e-12),
            "wls-estimate: batched p2n2 output differs from single-sample output",
        )
        return record

    def metrics(self, records):
        latency_ms = [t * 1e3 for r in records for t in r["latency_s"]]
        single_us = [t * 1e6 for r in records for t in r["single_s"]]
        metrics = {
            "wall_s": (float(np.median([r["wall_s"] for r in records])), "s"),
            "op_ms_p50": (_percentile(latency_ms, 50), "ms"),
            "wls_ms_p95": (_percentile(latency_ms, 95), "ms"),
            "nn_us_p50": (_percentile(single_us, 50), "us"),
            "nn_batch_us_per_sample": (float(np.median([r["batch_s"] for r in records])) * 1e6, "us"),
        }
        first_pass = records[: self.min_rounds]
        for name, key in (("scenario1", "nu_wls_s1"), ("scenario2", "nu_wls_s2")):
            errs = [e for r in first_pass for e in r["sq_err"][name].values()]
            if errs:
                metrics[key] = (float(np.mean(errs)), "pu2")
        return metrics


class Train:
    """Fixed-epoch training, one network a round.

    Round r trains plan ``kinds[r mod 2]`` with initialisation seed
    (r div 2) mod ``init_seeds``. The held-out ν of one training moves by tens
    of percent with that seed, and now and then a seed lands far off, so
    ``nu_p2n2_s1`` is the median over the first ``init_seeds`` p2n2
    trainings. On the 13-bus feeder with PMUs at labels 1 and 12 the two
    plans have the same masks, so both kinds train the same network.
    The unit operation is one epoch.
    """

    name = "train"
    setup_repeats = 3
    kinds = ("p2n2", "pawnn")
    init_seeds = 6
    min_rounds = len(kinds) * init_seeds

    def __init__(self, seed: int, samples: int = 600, epochs: int = 100,
                 learning_rate: float = 3e-3, batch_size: int = 64, train_fraction: float = 0.5):
        self.seed = seed
        self.samples = samples
        self.config = network.TrainConfig(
            learning_rate=learning_rate, batch_size=batch_size, epochs=epochs,
            patience=epochs + 1, train_fraction=train_fraction, seed=0,
        )
        self.rounds = 0

    def setup(self):
        model, pmu = _thirteen_bus()
        template, _ = pipeline.scenario_template(model, pipeline.standard_scenarios(pmu)[0])
        profile = pipeline.LoadProfileConfig(samples=self.samples, seed=self.seed)
        self.model = model
        self.ds = pipeline.generate_dataset(model, template, profile, pmu)
        partitions = partitioning.partition_at_pmus(model, pmu)
        self.plans = {
            kind: partitioning.build_mask_plan(model, partitions, prune=kind == "p2n2")
            for kind in self.kinds
        }
        partitioning.count_params(self.plans["p2n2"])

    def run(self):
        kind = self.kinds[self.rounds % len(self.kinds)]
        config = dataclasses.replace(self.config, seed=self.rounds // len(self.kinds) % self.init_seeds)
        self.rounds += 1
        t0 = time.perf_counter()
        net, curve, val_idx = network.train(
            self.plans[kind], self.model, self.ds.features, self.ds.v_true_pu, config
        )
        return (kind, config.seed, net, len(curve), val_idx), time.perf_counter() - t0

    def _held_out_nu(self, net, val_idx):
        return network.evaluate(net, self.ds.features[val_idx], self.ds.v_true_pu[val_idx]).nu

    def check(self, result, tally: Tally):
        kind, init_seed, net, epochs, val_idx = result
        start = network.MaskedNetwork(self.plans[kind], self.model, seed=init_seed)
        before = self._held_out_nu(start, val_idx)
        after = self._held_out_nu(net, val_idx)
        tally.check(epochs == self.config.epochs, f"train: {kind} ran {epochs} epochs")
        tally.check(np.isfinite(after) and after < before,
                    f"train: {kind} held-out loss {after:.3e} not below start {before:.3e}")
        return {"kind": kind, "epochs": epochs, "nu": after}

    def metrics(self, records):
        p2n2 = [r["nu"] for r in records[: self.min_rounds] if r["kind"] == "p2n2"]
        return {
            "wall_s": (float(np.median([r["wall_s"] for r in records])), "s"),
            "op_ms_p50": (float(np.median([r["wall_s"] / r["epochs"] for r in records])) * 1e3, "ms"),
            "nu_p2n2_s1": (float(np.median(p2n2)), "pu2"),
        }


class Bench6Bus:
    """``dsse bench`` on the 6-bus feeder, with base loads drawn from the seed.

    Round r runs the bench on feeder variant r mod ``variants``: the bundled
    feeder with every load phase scaled by a factor in [0.8, 1.2] drawn from
    (seed, variant). The bench's own ``--seed`` stays 0, so network
    initialisation and minibatch order are the same in every run. Even so, ν
    of a briefly trained network moves by 15-30% between variants, so the ν
    metrics are means over the first ``variants`` rounds. The unit operation
    is one bench call, so ``op_ms_p50`` is the round's wall time.
    """

    name = "bench-6bus"
    setup_repeats = 5
    variants = 4
    min_rounds = variants
    rows = 9
    nu_rows = (
        ("scenario1", "wls", "nu_wls_s1"), ("scenario2", "wls", "nu_wls_s2"),
        ("scenario1", "p2n2", "nu_p2n2_s1"), ("scenario2", "p2n2", "nu_p2n2_s2"),
        ("scenario3", "p2n2", "nu_p2n2_s3"),
    )

    def __init__(self, seed: int, workdir: Path, samples: int = 100, epochs: int = 20,
                 learning_rate: float = 1e-2, batch_size: int = 32, train_fraction: float = 0.5):
        self.seed = seed
        self.workdir = Path(workdir)
        self.flags = [
            "--samples", str(samples), "--epochs", str(epochs),
            "--learning-rate", str(learning_rate), "--batch-size", str(batch_size),
            "--train-fraction", str(train_fraction), "--seed", "0",
        ]
        self.rounds = 0

    def setup(self):
        base = grid_model.load_feeder(fixture_path("six_bus"))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.feeders = []
        for k in range(self.variants):
            rng = np.random.default_rng([self.seed, k])
            loads = [
                grid_model.Load(ld.bus, {p: s * rng.uniform(0.8, 1.2) for p, s in sorted(ld.power.items())})
                for ld in sorted(base.loads, key=lambda ld: ld.bus)
            ]
            path = self.workdir / f"six_bus_{k}.yaml"
            grid_model.dump_feeder(grid_model.FeederModel(base.buses, base.branches, loads), path)
            self.feeders.append(path)

    def run(self):
        out = self.workdir / f"report{self.rounds}"
        feeder = self.feeders[self.rounds % self.variants]
        self.rounds += 1
        argv = ["bench", "--feeder", str(feeder), "--pmu", *map(str, PMU_LABELS_6),
                "--out", str(out), *self.flags]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return (code, out), time.perf_counter() - t0

    def check(self, result, tally: Tally):
        code, out = result
        if not tally.check(code == 0, f"bench-6bus: exit code {code}"):
            return {}
        with open(out / "summary.csv", newline="") as fh:
            rows = {(r["scenario"], r["estimator"]): r for r in csv.DictReader(fh)}
        shutil.rmtree(out)
        tally.check(len(rows) == self.rows, f"bench-6bus: summary.csv has {len(rows)} rows")
        for (scenario, estimator), r in rows.items():
            if (scenario, estimator) == ("scenario3", "wls"):
                tally.check(r["status"] == "unobservable", f"bench-6bus: scenario3 wls status {r['status']}")
            else:
                ok = r["status"] == "ok" and r["nu"] != "" and np.isfinite(float(r["nu"]))
                tally.check(ok, f"bench-6bus: {scenario} {estimator} status {r['status']} nu {r['nu']!r}")
        return {
            key: float(rows[(scenario, estimator)]["nu"])
            for scenario, estimator, key in self.nu_rows
            if rows.get((scenario, estimator), {}).get("nu")
        }

    def metrics(self, records):
        wall = float(np.median([r["wall_s"] for r in records]))
        metrics = {"wall_s": (wall, "s"), "op_ms_p50": (wall * 1e3, "ms")}
        first = records[: self.variants]
        for _, _, key in self.nu_rows:
            if all(key in r for r in first):
                metrics[key] = (float(np.mean([r[key] for r in first])), "pu2")
        return metrics


WORKLOADS = {w.name: w for w in (McGenerate, WlsEstimate, Train, Bench6Bus)}
