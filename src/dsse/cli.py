"""Command line interface.

Subcommands: ``generate`` (Monte Carlo dataset), ``train`` (fit a masked
network), ``estimate`` (run WLS or a checkpoint on a measurement file),
``bench`` (three-scenario benchmark suite), ``masks`` (export a mask plan).

Exit codes: 0 success, 2 validation error (bad input, or a path or archive that
cannot be read or written; ``--out`` is checked before any work), 3 unobservable,
4 non-convergence (a power flow, a WLS estimate or a training run that diverged).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from dsse import network, wls
from dsse.grid_model import load_feeder
from dsse.measurements import PSEUDO_NOISE, MeasurementSet, check_usable
from dsse.network import TrainConfig, load_checkpoint, save_checkpoint, train
from dsse.partitioning import BLOCK_WIDTH, build_mask_plan, export_mask_plan, partition_at_pmus
from dsse.pipeline import (
    LoadProfileConfig,
    Scenario,
    format_report,
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


def _add_config_flags(p, *configs):
    """One ``--flag`` per field of the ``configs`` dataclasses, typed and defaulted
    by the field; a field two configs share is one flag."""
    for f in {f.name: f for config in configs for f in fields(config)}.values():
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def _config(cls, args):
    """The ``cls`` config holding the parsed value of each of its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def cmd_generate(model, args):
    pmu = _pmu_indices(model, args.pmu)
    scenario = Scenario("generate", tuple(pmu),
                        metered_loads=tuple(_pmu_indices(model, args.metered or [])),
                        pseudo_noise=args.pseudo_noise, make_unobservable=args.unobservable)
    template, removed = scenario_template(model, scenario)
    ds = generate_dataset(model, template, _config(LoadProfileConfig, args), pmu)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds)} samples ({len(template)} rows, {removed} pseudo rows removed, "
          f"{ds.resampled} load draws resampled) to {args.out}")
    return EXIT_OK


def cmd_train(model, args):
    ds = load_dataset(args.dataset, model)
    plan = build_mask_plan(model, partition_at_pmus(model, ds.pmu_buses),
                           block_width=args.block_width, prune=args.kind == "p2n2")
    net, curve, _ = train(plan, model, ds.features, ds.v_true_pu, _config(TrainConfig, args))
    save_checkpoint(net, args.out, ds.pmu_buses, ds.template)
    kept = 0 if net.best_epoch is None else net.best_epoch + 1
    print(f"trained {args.kind} for {len(curve)} epochs; checkpoint {args.out} holds epoch "
          f"{kept} (0 is the initialisation), held-out loss {net.best_loss:.6e}")
    return EXIT_OK


def cmd_estimate(model, args):
    mset = MeasurementSet.load(args.measurements)
    if args.wls:
        rep = wls.estimate(model, mset)
        mags = rep.x_hat.magnitudes() / model.base_voltage
        print(f"# converged in {rep.iterations} iterations, J={rep.objective:.6e}")
    else:
        net, meta = load_checkpoint(args.checkpoint, model)
        embedding = network.InputEmbedding(model, mset)  # rows first, in WLS's order
        if mset.signature() != meta["template_signature"]:
            raise ValueError("measurement rows do not match the training template")
        check_usable(mset)
        mags = net.forward(embedding.embed_values(mset.values()))
    for (b, p), v in zip(model.slots, mags):
        print(f"{model.buses[b].label},{p},{v:.6f}")
    return EXIT_OK


def cmd_bench(model, args):
    pmu = _pmu_indices(model, args.pmu)
    profile, train_config = _config(LoadProfileConfig, args), _config(TrainConfig, args)
    rows = []
    traces = {}
    for scenario in standard_scenarios(pmu):
        scen_rows, artifacts = run_scenario(
            model, scenario, profile, train_config, block_width=args.block_width
        )
        rows.extend(scen_rows)
        traces[scenario.name] = artifacts["traces"]
    report(rows, args.out, traces)
    print(format_report(rows), end="")
    return EXIT_OK


def cmd_masks(model, args):
    pmu = _pmu_indices(model, args.pmu)
    partitions = partition_at_pmus(model, pmu)
    plan = build_mask_plan(
        model, partitions, block_width=args.block_width, prune=not args.no_prune
    )
    export_mask_plan(plan, args.out)
    print(f"wrote {plan.depth}-layer mask plan to {args.out}")
    return EXIT_OK


def _check_out(path, directory: bool):
    """An OSError, before any work, where writing ``--out`` would fail after it: a directory
    made with its parents if ``directory``, else a file."""
    if os.path.exists(path) and os.path.isdir(path) != directory:
        raise OSError(f"--out {path} is {'a file' if directory else 'a directory'}")
    if not directory and not os.path.isdir(os.path.dirname(path) or "."):
        raise OSError(f"--out {path} is in a directory that does not exist")


def build_parser():
    parser = argparse.ArgumentParser(prog="dsse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a Monte Carlo dataset")
    p.add_argument("--feeder", required=True)
    p.add_argument("--pmu", nargs="+", required=True, help="PMU bus ids (file labels)")
    p.add_argument("--metered", nargs="*", help="smart-metered load bus ids")
    p.add_argument("--pseudo-noise", type=float, default=PSEUDO_NOISE)
    p.add_argument("--unobservable", action="store_true",
                   help="remove pseudo rows until WLS rank deficiency")
    p.add_argument("--out", required=True)
    _add_config_flags(p, LoadProfileConfig)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a masked network on a dataset")
    p.add_argument("--feeder", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", choices=["pawnn", "p2n2"], default="p2n2")
    p.add_argument("--out", required=True)
    _add_config_flags(p, TrainConfig)
    p.add_argument("--block-width", type=int, default=BLOCK_WIDTH)
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
    _add_config_flags(p, LoadProfileConfig, TrainConfig)
    p.add_argument("--block-width", type=int, default=BLOCK_WIDTH)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("masks", help="export a mask plan")
    p.add_argument("--feeder", required=True)
    p.add_argument("--pmu", nargs="+", required=True)
    p.add_argument("--block-width", type=int, default=BLOCK_WIDTH)
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_masks)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "out" in args:
            _check_out(args.out, directory=args.command == "bench")
        return args.func(load_feeder(args.feeder), args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except wls.UnobservableError as exc:
        print(f"UNOBSERVABLE: {exc}", file=sys.stderr)
        return EXIT_UNOBSERVABLE
    except (NotConvergedError, wls.NonConvergedError) as exc:
        print(f"NON_CONVERGED: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGED
    except network.TrainingDiverged as exc:
        print(f"NON_CONVERGED: training diverged: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
