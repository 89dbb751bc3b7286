"""Command line interface.

Subcommands: ``generate`` (Monte Carlo dataset), ``train`` (fit a masked
network), ``estimate`` (run WLS or a checkpoint on a measurement file),
``bench`` (three-scenario benchmark suite), ``masks`` (export a mask plan).

Exit codes: 0 success, 2 validation error, 3 unobservable, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from dsse import network, wls
from dsse.grid_model import FeederParseError, FeederValidationError, load_feeder
from dsse.measurements import MeasurementSet
from dsse.network import TrainConfig, load_checkpoint, save_checkpoint, train
from dsse.partitioning import build_mask_plan, export_mask_plan, partition_at_pmus
from dsse.pipeline import (
    LoadProfileConfig,
    Scenario,
    generate_dataset,
    load_dataset,
    report,
    run_scenario,
    save_dataset,
    scenario_template,
    standard_scenarios,
)
from dsse.powerflow import NotConvergedError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNOBSERVABLE = 3
EXIT_NON_CONVERGED = 4


def _pmu_indices(model, labels):
    return [model.bus_by_label(int(l)) for l in labels]


def _add_profile_args(p):
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--amplitude", type=float, default=0.15)
    p.add_argument("--noise-sigma", type=float, default=0.08)


def _add_train_args(p):
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--train-fraction", type=float, default=0.9)
    p.add_argument("--block-width", type=int, default=8)


def _train_config(args):
    return TrainConfig(
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        epochs=args.epochs,
        patience=args.patience,
        train_fraction=args.train_fraction,
        seed=args.seed,
    )


def cmd_generate(args):
    model = load_feeder(args.feeder)
    pmu = _pmu_indices(model, args.pmu)
    scenario = Scenario(
        "generate",
        tuple(pmu),
        metered_loads=tuple(_pmu_indices(model, args.metered or [])),
        pseudo_noise=args.pseudo_noise,
        make_unobservable=args.unobservable,
    )
    template, removed = scenario_template(model, scenario)
    profile = LoadProfileConfig(
        samples=args.samples,
        seed=args.seed,
        amplitude=args.amplitude,
        noise_sigma=args.noise_sigma,
    )
    ds = generate_dataset(model, template, profile, pmu)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds)} samples ({len(template)} rows, {removed} pseudo rows removed) to {args.out}")
    return EXIT_OK


def cmd_train(args):
    model = load_feeder(args.feeder)
    ds = load_dataset(args.dataset)
    pmu = list(ds.pmu_buses)
    partitions = partition_at_pmus(model, pmu)
    plan = build_mask_plan(
        model, partitions, block_width=args.block_width, prune=args.kind == "p2n2"
    )
    net, curve, _ = train(plan, model, ds.features, ds.v_true_pu, _train_config(args))
    save_checkpoint(
        net,
        args.out,
        extra_meta={
            "kind": args.kind,
            "pmu_buses": pmu,
            "block_width": args.block_width,
            "template_signature": ds.template.signature(),
        },
    )
    print(f"trained {args.kind}: final held-out loss {curve[-1][2]:.6e}, checkpoint {args.out}")
    return EXIT_OK


def cmd_estimate(args):
    model = load_feeder(args.feeder)
    mset = MeasurementSet.load(args.measurements)
    if args.wls:
        try:
            rep = wls.estimate(model, mset)
        except wls.UnobservableError as exc:
            print(f"UNOBSERVABLE: {exc}", file=sys.stderr)
            return EXIT_UNOBSERVABLE
        except wls.NonConvergedError as exc:
            print(f"NON_CONVERGED: {exc}", file=sys.stderr)
            return EXIT_NON_CONVERGED
        mags = rep.x_hat.magnitudes() / model.base_voltage
        print(f"# converged in {rep.iterations} iterations, J={rep.objective:.6e}")
    else:
        with np.load(args.checkpoint) as data:
            meta = json.loads(bytes(data["meta"]).decode())
        pmu = meta["pmu_buses"]
        partitions = partition_at_pmus(model, pmu)
        plan = build_mask_plan(
            model, partitions, block_width=meta["block_width"],
            prune=meta.get("kind", "p2n2") == "p2n2",
        )
        net = load_checkpoint(args.checkpoint, plan, model)
        if mset.signature() != meta["template_signature"]:
            print("measurement rows do not match the training template", file=sys.stderr)
            return EXIT_VALIDATION
        if not (np.isfinite(mset.values()).all() and np.isfinite(mset.variances()).all()):
            raise ValueError("measurement values and variances must be finite")
        embedding = network.InputEmbedding(model, mset, pmu)
        mags = net.forward(embedding.embed_values(mset.values()))
    for (b, p), v in zip(model.slots, mags):
        print(f"{model.buses[b].label},{p},{v:.6f}")
    return EXIT_OK


def cmd_bench(args):
    model = load_feeder(args.feeder)
    pmu = _pmu_indices(model, args.pmu)
    profile = LoadProfileConfig(
        samples=args.samples, seed=args.seed,
        amplitude=args.amplitude, noise_sigma=args.noise_sigma,
    )
    rows = []
    traces = {}
    for scenario in standard_scenarios(pmu):
        scen_rows, artifacts = run_scenario(
            model, scenario, profile, _train_config(args), block_width=args.block_width
        )
        rows.extend(scen_rows)
        traces[scenario.name] = artifacts["traces"]
    report(rows, args.out, traces)
    with open(f"{args.out}/summary.txt") as fh:
        print(fh.read(), end="")
    return EXIT_OK


def cmd_masks(args):
    model = load_feeder(args.feeder)
    pmu = _pmu_indices(model, args.pmu)
    partitions = partition_at_pmus(model, pmu)
    plan = build_mask_plan(
        model, partitions, block_width=args.block_width, prune=not args.no_prune
    )
    export_mask_plan(plan, args.out)
    print(f"wrote {plan.depth}-layer mask plan to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="dsse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a Monte Carlo dataset")
    p.add_argument("--feeder", required=True)
    p.add_argument("--pmu", nargs="+", required=True, help="PMU bus ids (file labels)")
    p.add_argument("--metered", nargs="*", help="smart-metered load bus ids")
    p.add_argument("--pseudo-noise", type=float, default=0.3)
    p.add_argument("--unobservable", action="store_true",
                   help="remove pseudo rows until WLS rank deficiency")
    p.add_argument("--out", required=True)
    _add_profile_args(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a masked network on a dataset")
    p.add_argument("--feeder", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", choices=["pawnn", "p2n2"], default="p2n2")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_train_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("estimate", help="estimate from a measurement file")
    p.add_argument("--feeder", required=True)
    p.add_argument("--measurements", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--wls", action="store_true")
    group.add_argument("--checkpoint")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bench", help="run the three-scenario benchmark suite")
    p.add_argument("--feeder", required=True)
    p.add_argument("--pmu", nargs="+", required=True)
    p.add_argument("--out", required=True)
    _add_profile_args(p)
    _add_train_args(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("masks", help="export a mask plan")
    p.add_argument("--feeder", required=True)
    p.add_argument("--pmu", nargs="+", required=True)
    p.add_argument("--block-width", type=int, default=8)
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_masks)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FeederParseError, FeederValidationError, ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NotConvergedError as exc:
        print(f"NON_CONVERGED: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
