import csv
import dataclasses
import hashlib
import json
import pickle
import re

import numpy as np
import pytest
import yaml

import oracles
from conftest import forged_npz
from dsse import cli
from dsse.cli import (
    EXIT_NON_CONVERGED,
    EXIT_OK,
    EXIT_UNOBSERVABLE,
    EXIT_VALIDATION,
    _config,
    build_parser,
    main,
)
from dsse.fixtures import fixture_path
from dsse.measurements import PSEUDO_NOISE, MeasurementSet, plan_measurements, synthesize
from dsse.network import (InputEmbedding, MaskedNetwork, TrainConfig, evaluate, load_checkpoint,
                          save_checkpoint, split_indices)
from dsse.grid_model import dump_feeder
from dsse.partitioning import BLOCK_WIDTH, build_mask_plan, export_mask_plan, partition_at_pmus
from dsse.pipeline import (LoadProfileConfig, Scenario, load_dataset,
                           remove_pseudo_until_unobservable)

SIX = str(fixture_path("six_bus"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset_path(workdir):
    out = workdir / "ds.npz"
    code = main(
        [
            "generate", "--feeder", SIX, "--pmu", "4", "--out", str(out),
            "--samples", "120", "--seed", "1",
        ]
    )
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def checkpoint_path(workdir, dataset_path):
    out = workdir / "net.npz"
    code = main(
        [
            "train", "--feeder", SIX, "--dataset", str(dataset_path),
            "--kind", "p2n2", "--out", str(out), "--epochs", "10", "--seed", "1",
        ]
    )
    assert code == EXIT_OK
    return out


def test_generate_writes_loadable_dataset(dataset_path, six_bus):
    from dsse.pipeline import load_dataset

    ds = load_dataset(dataset_path, six_bus)
    assert len(ds) == 120


def test_masks_export(workdir, six_bus):
    partitions = partition_at_pmus(six_bus, [3])  # label 4
    for flags, pruned in (([], True), (["--no-prune"], False)):
        out, ref = workdir / f"plan_{pruned}.json", workdir / f"plan_{pruned}_ref.json"
        assert main(["masks", "--feeder", SIX, "--pmu", "4", *flags, "--out", str(out)]) == EXIT_OK
        export_mask_plan(build_mask_plan(six_bus, partitions, block_width=BLOCK_WIDTH,
                                         prune=pruned), ref)
        assert out.read_bytes() == ref.read_bytes()
        doc = json.loads(out.read_text())
        assert doc["depth"] == 3
        assert doc["pruned"] is pruned


def test_checkpoint_meta_bytes_pinned(workdir, dataset_path):
    # estimate rebuilds the plan from this metadata, and its block_width is
    # written once, by save_checkpoint
    out = workdir / "net_pinned.npz"
    assert main(["train", "--feeder", SIX, "--dataset", str(dataset_path), "--epochs", "2",
                 "--out", str(out)]) == EXIT_OK
    with np.load(out) as data:
        assert hashlib.sha256(bytes(data["meta"])).hexdigest() == (
            "85fc9a4490b68868bf21b7c2d5969dd4624cddcd1536298d59977071aee2961a")


@pytest.mark.parametrize("feeder, pmu, seed, digest", [
    ("six_bus", ["4"], 1, "1bd99029c9191ec8c736f63a491b0b1c650d213ec8fd3aa2483cd467a9f98bca"),
    ("six_bus", ["4"], 2**32 + 7,
     "8e1d1b81412e3603fab3da8420f292bc60f52982e80b5a577161eae2774a194a"),
    ("thirteen_bus", ["1", "12"], 1,
     "04d15cc96b22f870d7c6a64ccbe41e5e596a5a0a3347b7247c9f04723e4c444d"),
    ("thirteen_bus", ["1", "12"], 2**32 + 7,
     "17dfea588272eea0617b8f4bbdad9a4c7c3695098a9951549d593f48dbaac142"),
    # five seeding words: more entropy than SeedSequence's four-word pool
    ("six_bus", ["4"], 2**64 + 5,
     "66a7055627585772c0bad44128cc514eecf638d4009bae9180e46a68270a7a83"),
    ("thirteen_bus", ["1", "12"], 2**64 + 5,
     "3e942dbaeba030afe8470043f639a39a649a2b419595a323db0c42a09adcfd6c"),
    # mutual terms a third of the self term on every branch: one Zbus group
    ("six_bus_coupled", ["4"], 1,
     "ab24d560a781e8dfcafe7b371a53af09087d1d8f430de423006c2e2c3e231876"),
], ids=["six_bus-1", "six_bus-2**32+7", "thirteen_bus-1", "thirteen_bus-2**32+7",
        "six_bus-2**64+5", "thirteen_bus-2**64+5", "six_bus_coupled-1"])
def test_generate_file_bytes_pinned(workdir, six_bus, feeder, pmu, seed, digest):
    # the whole file: array bytes, and each array's .npy header (dtype, shape,
    # memory order); np.savez dates every entry 1980-01-01
    if feeder == "six_bus_coupled":
        model, path = oracles.fully_coupled(six_bus), workdir / "coupled.yaml"
        assert [len(g) for g, _ in model.zbus_groups] == [15]
        dump_feeder(model, path)
    else:
        path = fixture_path(feeder)
    out = workdir / f"pinned_{feeder}_{seed}.npz"
    assert main(["generate", "--feeder", str(path), "--pmu", *pmu,
                 "--samples", "200", "--seed", str(seed), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("command, required, configs", [
    ("generate", ["--pmu", "4"], (LoadProfileConfig,)),
    ("train", ["--dataset", "ds.npz"], (TrainConfig,)),
    ("bench", ["--pmu", "4"], (LoadProfileConfig, TrainConfig)),
    ("masks", ["--pmu", "4"], ()),
], ids=["generate", "train", "bench", "masks"])
def test_flags_mirror_config_fields(command, required, configs):
    parser = build_parser()
    args = parser.parse_args([command, "--feeder", SIX, "--out", "x", *required])
    sub = parser._subparsers._group_actions[0].choices[command]
    options = [o for action in sub._actions for o in action.option_strings]
    for cls in configs:
        assert _config(cls, args) == cls()
        for f in dataclasses.fields(cls):
            assert options.count("--" + f.name.replace("_", "-")) == 1
    if command != "generate":
        assert args.block_width == BLOCK_WIDTH
    else:
        assert args.pseudo_noise == PSEUDO_NOISE == Scenario("s", ()).pseudo_noise


def test_estimate_wls(workdir, six_bus, six_bus_pf, capsys):
    template = plan_measurements(six_bus, [3])
    z = synthesize(template, six_bus_pf.state, six_bus, 0)
    zpath = workdir / "z.csv"
    z.save(zpath)
    code = main(["estimate", "--feeder", SIX, "--measurements", str(zpath), "--wls"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(data) == six_bus.n_slots
    label, phase, mag = data[0].split(",")
    assert (label, phase) == ("1", "A")
    assert float(mag) == pytest.approx(1.0, abs=0.05)


def test_estimate_checkpoint(workdir, checkpoint_path, six_bus, six_bus_pf, capsys):
    template = plan_measurements(six_bus, [3])
    z = synthesize(template, six_bus_pf.state, six_bus, 5)
    zpath = workdir / "z2.csv"
    z.save(zpath)
    code = main(
        [
            "estimate", "--feeder", SIX, "--measurements", str(zpath),
            "--checkpoint", str(checkpoint_path),
        ]
    )
    assert code == EXIT_OK
    data = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert len(data) == six_bus.n_slots


def test_estimate_unobservable_exit_code(workdir, six_bus, six_bus_pf):
    template = plan_measurements(six_bus, [3])
    reduced, _ = remove_pseudo_until_unobservable(six_bus, template)
    z = synthesize(reduced, six_bus_pf.state, six_bus, 0)
    zpath = workdir / "z3.csv"
    z.save(zpath)
    code = main(["estimate", "--feeder", SIX, "--measurements", str(zpath), "--wls"])
    assert code == EXIT_UNOBSERVABLE


def test_generate_unobservable_without_pseudo_rows_is_validation_error(workdir, capsys):
    # every load metered: there is no pseudo row to remove
    code = main(["generate", "--feeder", SIX, "--pmu", "4", "--metered", "2", "3", "5", "6",
                 "--unobservable", "--samples", "5", "--out", str(workdir / "x.npz")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "cannot make the template unobservable: it has no pseudo rows" in err


def _move_rows(text, kinds, locus, phase, to):
    """Template CSV ``text`` with its ``kinds`` rows at (``locus``, ``phase``)
    moved to ``to``, the first such row's index and kind."""
    lines = text.splitlines()
    moved = [r for r, line in enumerate(lines[1:])
             if line.split(",")[0] in kinds and line.split(",")[1:3] == [str(locus), phase]]
    assert moved
    for r in moved:
        cells = lines[r + 1].split(",")
        lines[r + 1] = ",".join([cells[0], str(to[0]), to[1], *cells[3:]])
    return "\n".join(lines) + "\n", moved[0], lines[moved[0] + 1].split(",")[0]


OFF_THE_FEEDER = {  # feeder, PMU bus, moved kinds, (locus, phase), where to
    # bus 99 does not exist
    "bus-99": ("six_bus", 3, ["v_real"], (3, "A"), (99, "A")),
    # bus 6 (label 7) carries phase A only: a pseudo P/Q pair moved to its phase C
    "phase-c-at-a-phase-a-bus": ("thirteen_bus", 0, ["p_injection", "q_injection"], (6, "A"),
                                 (6, "C")),
}


@pytest.mark.parametrize("estimator", ["wls", "checkpoint"])
@pytest.mark.parametrize("case", list(OFF_THE_FEEDER))
def test_estimate_row_off_the_feeder_is_validation_error(workdir, request, capsys, case, estimator):
    feeder, pmu, kinds, at, to = OFF_THE_FEEDER[case]
    model = request.getfixturevalue(feeder)
    template = plan_measurements(model, [pmu])
    z = synthesize(template, request.getfixturevalue(f"{feeder}_pf").state, model, 0)
    zpath, net = workdir / f"z_off_{case}.csv", workdir / f"net_off_{case}.npz"
    z.save(zpath)
    text, row, kind = _move_rows(zpath.read_text(), kinds, *at, to)
    zpath.write_text(text)
    plan = build_mask_plan(model, partition_at_pmus(model, [pmu]), block_width=2, prune=True)
    save_checkpoint(MaskedNetwork(plan, model, seed=0), net, [pmu], template)
    how = ["--wls"] if estimator == "wls" else ["--checkpoint", str(net)]
    capsys.readouterr()
    code = main(["estimate", "--feeder", str(fixture_path(feeder)), "--measurements", str(zpath),
                 *how])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (f"error: measurement row {row} ({kind}, locus {to[0]}, "
                                       f"phase {to[1]}) is not on the feeder\n")


def test_train_on_a_dataset_with_a_row_off_the_feeder_is_validation_error(workdir, capsys):
    thirteen = str(fixture_path("thirteen_bus"))
    ds = workdir / "ds13_off.npz"
    assert main(["generate", "--feeder", thirteen, "--pmu", "1", "--out", str(ds),
                 "--samples", "10"]) == EXIT_OK
    with forged_npz(ds) as (_, arrays):
        text, row, kind = _move_rows(bytes(arrays["template"]).decode(),
                                     ["p_injection", "q_injection"], 6, "A", (6, "C"))
        arrays["template"] = np.frombuffer(text.encode(), dtype=np.uint8)
    out = workdir / "net13_off.npz"
    capsys.readouterr()
    assert main(["train", "--feeder", thirteen, "--dataset", str(ds), "--out", str(out),
                 "--epochs", "1"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: measurement row {row} ({kind}, locus 6, phase C) is not on the feeder\n")
    assert not out.exists()


def test_estimate_template_mismatch_is_validation_error(
    workdir, checkpoint_path, six_bus, six_bus_pf
):
    other = plan_measurements(six_bus, [2])
    z = synthesize(other, six_bus_pf.state, six_bus, 0)
    zpath = workdir / "z4.csv"
    z.save(zpath)
    code = main(
        [
            "estimate", "--feeder", SIX, "--measurements", str(zpath),
            "--checkpoint", str(checkpoint_path),
        ]
    )
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("estimator", ["wls", "checkpoint"])
@pytest.mark.parametrize("column, cell", [("value", ""), ("value", "nan"), ("variance", "0"),
                                          ("variance", "-1")],
                         ids=["empty", "nan", "zero-variance", "negative-variance"])
def test_estimate_nonfinite_input_is_validation_error(
    workdir, checkpoint_path, six_bus, six_bus_pf, capsys, estimator, column, cell
):
    # an empty value cell is what a saved template holds; both estimators apply
    # one rule to the values and variances
    z = synthesize(plan_measurements(six_bus, [3]), six_bus_pf.state, six_bus, 0)
    zpath = workdir / f"z_nonfinite_{estimator}_{column}_{cell}.csv"
    z.save(zpath)
    with open(zpath, newline="") as fh:
        recs = list(csv.DictReader(fh))
    recs[1][column] = cell
    with open(zpath, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(recs[0]))
        w.writeheader()
        w.writerows(recs)
    how = ["--wls"] if estimator == "wls" else ["--checkpoint", str(checkpoint_path)]
    capsys.readouterr()
    code = main(["estimate", "--feeder", SIX, "--measurements", str(zpath), *how])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: measurement values must be finite, variances finite and positive\n")


@pytest.mark.parametrize("corrupt", ["short-readout_b", "nan-w0", "missing-b1"])
def test_estimate_invalid_checkpoint_is_validation_error(
    workdir, checkpoint_path, six_bus, six_bus_pf, corrupt
):
    bad = workdir / f"bad_{corrupt}.npz"
    with forged_npz(checkpoint_path, bad) as (_, arrays):
        if corrupt == "short-readout_b":
            arrays["readout_b"] = arrays["readout_b"][:1]
        elif corrupt == "nan-w0":
            arrays["w0"] = np.full_like(arrays["w0"], np.nan)
        else:
            del arrays["b1"]
    z = synthesize(plan_measurements(six_bus, [3]), six_bus_pf.state, six_bus, 0)
    zpath = workdir / f"z_bad_{corrupt}.csv"
    z.save(zpath)
    code = main(["estimate", "--feeder", SIX, "--measurements", str(zpath),
                 "--checkpoint", str(bad)])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize(
    "field, message",
    [("kind", "lacks the field 'kind'"),
     ("pmu_buses", "lacks the field 'pmu_buses'"),
     ("block_width", "lacks the field 'block_width'"),
     ("plan_signature", "lacks the field 'plan_signature'"),
     ("template_signature", "lacks the field 'template_signature'"),
     # same array shapes as a current checkpoint, but trained on the old embedding
     ("input_layout", "retrain")],
)
def test_estimate_checkpoint_meta_missing_field(
    workdir, checkpoint_path, six_bus, six_bus_pf, capsys, field, message
):
    bad = workdir / f"no_{field}.npz"
    with forged_npz(checkpoint_path, bad) as (meta, _):
        del meta[field]
    z = synthesize(plan_measurements(six_bus, [3]), six_bus_pf.state, six_bus, 0)
    zpath = workdir / f"z_no_{field}.csv"
    z.save(zpath)
    code = main(["estimate", "--feeder", SIX, "--measurements", str(zpath),
                 "--checkpoint", str(bad)])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value, rule", [
    ("kind", "foo", "'p2n2' or 'pawnn'"),
    ("pmu_buses", "3", "a list of ints"),
    ("pmu_buses", [True], "a list of ints"),
    ("block_width", "8", "an int >= 1"),
    ("block_width", 0, "an int >= 1"),
], ids=["kind-foo", "pmu_buses-string", "pmu_buses-bool", "block_width-string", "block_width-0"])
def test_estimate_checkpoint_meta_of_the_wrong_type_is_validation_error(
    workdir, six_bus, six_bus_pf, capsys, field, value, rule
):
    # a pawnn checkpoint: any kind but p2n2 used to rebuild its plan unpruned
    template = plan_measurements(six_bus, [3])
    plan = build_mask_plan(six_bus, partition_at_pmus(six_bus, [3]), block_width=2, prune=False)
    path = workdir / f"mistyped_{field}_{value}.npz"
    save_checkpoint(MaskedNetwork(plan, six_bus, seed=4), path, [3], template)
    with forged_npz(path) as (meta, _):
        meta[field] = value
    zpath = workdir / f"z_mistyped_{field}_{value}.csv"
    synthesize(template, six_bus_pf.state, six_bus, 0).save(zpath)
    code = main(["estimate", "--feeder", SIX, "--measurements", str(zpath),
                 "--checkpoint", str(path)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: checkpoint metadata {field!r} must be {rule}, got {value!r}\n")


@pytest.mark.parametrize("inputs, message", [
    ([5, 3], "input cells must increase"),
    ([3, 3], "input cells must increase"),
    ([0, 108], "input cells must increase"),
    ([1.5], "'inputs' must be a list of ints"),
    ([True], "'inputs' must be a list of ints"),
    ("3", "'inputs' must be a list of ints"),
], ids=["unsorted", "repeated", "past-the-end", "float", "bool", "string"])
def test_estimate_checkpoint_with_bad_inputs_is_validation_error(
    workdir, checkpoint_path, six_bus, six_bus_pf, capsys, inputs, message
):
    bad = workdir / f"inputs_{'_'.join(map(str, inputs))}.npz"
    with forged_npz(checkpoint_path, bad) as (meta, _):
        meta["inputs"] = inputs
    zpath = workdir / "z_bad_inputs.csv"
    synthesize(plan_measurements(six_bus, [3]), six_bus_pf.state, six_bus, 0).save(zpath)
    code = main(["estimate", "--feeder", SIX, "--measurements", str(zpath),
                 "--checkpoint", str(bad)])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["3", 3, [True]], ids=["string", "int", "bool"])
def test_train_on_a_dataset_with_mistyped_pmu_buses_is_validation_error(
    workdir, dataset_path, capsys, value
):
    bad = workdir / f"ds_pmu_buses_{value}.npz"
    with forged_npz(dataset_path, bad) as (meta, _):
        meta["pmu_buses"] = value
    out = workdir / f"net_pmu_buses_{value}.npz"
    code = main(["train", "--feeder", SIX, "--dataset", str(bad), "--out", str(out),
                 "--epochs", "1"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: dataset metadata 'pmu_buses' must be a list of ints, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["p2n2", "pawnn"])
def test_estimate_library_checkpoint(workdir, six_bus, six_bus_pf, capsys, kind):
    # a checkpoint saved from library code carries all that estimate reads
    template = plan_measurements(six_bus, [3])
    plan = build_mask_plan(six_bus, partition_at_pmus(six_bus, [3]), block_width=2,
                           prune=kind == "p2n2")
    net = MaskedNetwork(plan, six_bus, seed=4)
    path = workdir / f"library_{kind}.npz"
    save_checkpoint(net, path, [3], template)
    zpath = workdir / f"z_library_{kind}.csv"
    synthesize(template, six_bus_pf.state, six_bus, 0).save(zpath)
    code = main(["estimate", "--feeder", SIX, "--measurements", str(zpath),
                 "--checkpoint", str(path)])
    assert code == EXIT_OK
    z = MeasurementSet.load(zpath)
    mags = net.forward(InputEmbedding(six_bus, z).embed_values(z.values()))
    assert capsys.readouterr().out.splitlines() == [
        f"{six_bus.buses[b].label},{p},{v:.6f}" for (b, p), v in zip(six_bus.slots, mags)]


@pytest.mark.parametrize("feeder, pmu_buses, message", [
    ("six_bus", [99], "invalid pmu bus id 99"),
    ("six_bus", [2], "plan hash does not match"),
    ("thirteen_bus", None, "plan hash does not match"),
], ids=["bus-off-the-feeder", "other-placement", "thirteen-bus-feeder"])
def test_estimate_checkpoint_for_another_plan_is_validation_error(
    workdir, checkpoint_path, six_bus, six_bus_pf, capsys, feeder, pmu_buses, message
):
    # checkpoint_path is cut at PMU bus 3; None keeps its pmu_buses
    bad = workdir / f"pmu_{feeder}_{pmu_buses}.npz"
    with forged_npz(checkpoint_path, bad) as (meta, _):
        assert meta["pmu_buses"] == [3]
        if pmu_buses is not None:
            meta["pmu_buses"] = pmu_buses
    zpath = workdir / f"z_pmu_{feeder}_{pmu_buses}.csv"
    synthesize(plan_measurements(six_bus, [3]), six_bus_pf.state, six_bus, 0).save(zpath)
    code = main(["estimate", "--feeder", str(fixture_path(feeder)), "--measurements", str(zpath),
                 "--checkpoint", str(bad)])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def test_train_on_another_feeders_dataset_is_validation_error(workdir):
    thirteen = str(fixture_path("thirteen_bus"))
    ds = workdir / "ds13.npz"
    assert main(["generate", "--feeder", thirteen, "--pmu", "1", "12", "--out", str(ds),
                 "--samples", "20"]) == EXIT_OK
    code = main(["train", "--feeder", SIX, "--dataset", str(ds),
                 "--out", str(workdir / "net13.npz"), "--epochs", "1"])
    assert code == EXIT_VALIDATION


def test_train_on_a_dataset_of_another_slot_count_names_both(workdir, dataset_path, capsys):
    # a 6-bus dataset whose loci all exist on the 13-bus feeder
    code = main(["train", "--feeder", str(fixture_path("thirteen_bus")), "--dataset",
                 str(dataset_path), "--out", str(workdir / "net6on13.npz"), "--epochs", "1"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "dataset labels have 18 slots but the feeder has 31" in err
    assert "broadcast" not in err


def test_train_on_a_dataset_with_cut_labels_is_validation_error(workdir, dataset_path, capsys):
    bad = workdir / "ds_cut_labels.npz"
    with forged_npz(dataset_path, bad) as (_, arrays):
        arrays["v_true_pu"] = arrays["v_true_pu"][:10]
    out = workdir / "net_cut_labels.npz"
    code = main(["train", "--feeder", SIX, "--dataset", str(bad), "--out", str(out),
                 "--epochs", "1"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: dataset v_true_pu has shape (10, 18), expected (120, 18)\n")
    assert not out.exists()


def test_generate_reports_resampled_draws(workdir, six_bus, capsys):
    from dsse.grid_model import dump_feeder, feeder_from_dict
    from dsse.pipeline import load_dataset

    doc = six_bus.to_dict()
    for ld in doc["loads"]:
        ld["power"] = {p: [12.0 * s for s in pq] for p, pq in ld["power"].items()}
    heavy = workdir / "six_bus_x12.yaml"
    dump_feeder(feeder_from_dict(doc), heavy)
    out = workdir / "ds_heavy.npz"
    capsys.readouterr()
    assert main(["generate", "--feeder", str(heavy), "--pmu", "4", "--out", str(out),
                 "--samples", "60", "--seed", "4"]) == EXIT_OK
    resampled = load_dataset(out, feeder_from_dict(doc)).resampled
    assert resampled > 0
    assert f"{resampled} load draws resampled" in capsys.readouterr().out


def test_bad_feeder_is_validation_error(workdir):
    bad = workdir / "bad.yaml"
    bad.write_text("buses: [{id: 1, phases: Q, kind: source, base_voltage_v: 1.0}]\n")
    code = main(["generate", "--feeder", str(bad), "--pmu", "1",
                 "--out", str(workdir / "x.npz")])
    assert code == EXIT_VALIDATION


def _feeder_file(path, doc):
    """``doc`` as YAML; the string '1e400' is written bare, as a hand edit would."""
    path.write_text(yaml.safe_dump(doc, sort_keys=False).replace("'1e400'", "1e400"))
    return path


BAD_NUMBERS = {
    "zero-base-voltage": (lambda d: d["buses"][1].update(base_voltage_v=0.0),
                          "bus 2 base_voltage_v must be finite and positive, got 0.0"),
    "negative-base-voltage": (lambda d: d["buses"][1].update(base_voltage_v=-2400.0),
                              "bus 2 base_voltage_v must be finite and positive, got -2400.0"),
    "nan-base-voltage": (lambda d: d["buses"][1].update(base_voltage_v=float("nan")),
                         "bus 2 base_voltage_v must be finite and positive, got nan"),
    "nan-load": (lambda d: d["loads"][0]["power"]["A"].__setitem__(0, float("nan")),
                 "load on bus 2 phase A must be finite, got (nan+9000j)"),
    "inf-load": (lambda d: d["loads"][0]["power"]["B"].__setitem__(0, float("inf")),
                 "load on bus 2 phase B must be finite, got (inf+8000j)"),
    "overflowing-load": (lambda d: d["loads"][0]["power"]["C"].__setitem__(0, "1e400"),
                         "load on bus 2 phase C must be finite, got (inf+7000j)"),
    "nan-impedance": (lambda d: d["branches"][1]["impedance"][0][0].__setitem__(1, float("nan")),
                      "impedance of branch 1-2 has a non-finite entry"),
    "list-base-voltage": (lambda d: d["buses"][1].update(base_voltage_v=[1.0]),
                          "bus 2 base_voltage_v must be a number, got [1.0]"),
    "other-base-voltage": (lambda d: d["buses"][1].update(base_voltage_v=3000.0),
                           "bus 2 base_voltage_v 3000.0 differs from the source's 2400.0"),
    "scalar-buses": (lambda d: d.update(buses=5), "feeder section 'buses' must be a list, got 5"),
}


@pytest.mark.parametrize("case", list(BAD_NUMBERS))
def test_feeder_with_a_bad_number_is_validation_error(workdir, six_bus, capsys, case):
    mutate, message = BAD_NUMBERS[case]
    doc = six_bus.to_dict()
    mutate(doc)
    feeder, out = _feeder_file(workdir / f"{case}.yaml", doc), workdir / f"{case}.npz"
    capsys.readouterr()
    assert main(["generate", "--feeder", str(feeder), "--pmu", "4", "--samples", "20",
                 "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "train", "estimate", "bench", "masks"])
def test_every_command_rejects_a_zero_base_voltage(workdir, six_bus, six_bus_pf, dataset_path,
                                                   capsys, command):
    doc = six_bus.to_dict()
    doc["buses"][1]["base_voltage_v"] = 0.0
    feeder, out = _feeder_file(workdir / "zero_volts.yaml", doc), workdir / f"zero_{command}"
    z = workdir / "zero_volts_z.csv"
    synthesize(plan_measurements(six_bus, [3]), six_bus_pf.state, six_bus, 0).save(z)
    extra = {"generate": ["--pmu", "4", "--out", str(out)],
             "train": ["--dataset", str(dataset_path), "--out", str(out)],
             "estimate": ["--measurements", str(z), "--wls"],
             "bench": ["--pmu", "4", "--out", str(out)],
             "masks": ["--pmu", "4", "--out", str(out)]}[command]
    capsys.readouterr()
    assert main([command, "--feeder", str(feeder), *extra]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "bus 2 base_voltage_v must be finite and positive" in captured.err
    assert captured.out == "" and not out.exists()


def test_feeder_yaml_syntax_error_is_validation_error(workdir, capsys):
    bad = workdir / "broken.yaml"
    bad.write_text("buses: [\n")
    code = main(["generate", "--feeder", str(bad), "--pmu", "1",
                 "--out", str(workdir / "x.npz")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse") and "Traceback" not in err


def test_missing_file_is_validation_error(workdir):
    code = main(["estimate", "--feeder", SIX,
                 "--measurements", str(workdir / "nope.csv"), "--wls"])
    assert code == EXIT_VALIDATION


# the path each argv names in its error (first), then the argv: {dir} is an empty
# directory, {file} a file holding b"keep", {out} a path that must stay absent,
# {orphan} a file path in a directory that does not exist, {cut_*} the first 300
# bytes of a good archive, {flipped} a good archive with its middle byte (array
# data) inverted, {empty} an empty file, {npy} one array saved by np.save, {text} a
# 5-byte text file and {pickle} a pickle.dump file
PATH_AND_ARCHIVE_ERRORS = {
    "bench-out-file": ("file", ["bench", "--feeder", SIX, "--pmu", "4", "--samples", "40",
                                "--epochs", "2", "--out", "{file}"]),
    "generate-out-dir": ("dir", ["generate", "--feeder", SIX, "--pmu", "4", "--samples", "20",
                                 "--out", "{dir}"]),
    "train-out-dir": ("dir", ["train", "--feeder", SIX, "--dataset", "{dataset}",
                              "--epochs", "2", "--out", "{dir}"]),
    "masks-out-dir": ("dir", ["masks", "--feeder", SIX, "--pmu", "4", "--out", "{dir}"]),
    "generate-out-orphan": ("orphan", ["generate", "--feeder", SIX, "--pmu", "4",
                                       "--samples", "20", "--out", "{orphan}"]),
    "train-out-orphan": ("orphan", ["train", "--feeder", SIX, "--dataset", "{dataset}",
                                    "--epochs", "2", "--out", "{orphan}"]),
    "generate-feeder-dir": ("dir", ["generate", "--feeder", "{dir}", "--pmu", "4",
                                    "--out", "{out}"]),
    "train-feeder-dir": ("dir", ["train", "--feeder", "{dir}", "--dataset", "{dataset}",
                                 "--out", "{out}"]),
    "estimate-feeder-dir": ("dir", ["estimate", "--feeder", "{dir}", "--measurements", "{z}",
                                    "--wls"]),
    "bench-feeder-dir": ("dir", ["bench", "--feeder", "{dir}", "--pmu", "4", "--out", "{out}"]),
    "masks-feeder-dir": ("dir", ["masks", "--feeder", "{dir}", "--pmu", "4", "--out", "{out}"]),
    "estimate-measurements-dir": ("dir", ["estimate", "--feeder", SIX, "--measurements", "{dir}",
                                          "--wls"]),
    "train-dataset-cut": ("cut_dataset", ["train", "--feeder", SIX, "--dataset", "{cut_dataset}",
                                          "--out", "{out}"]),
    "train-dataset-empty": ("empty", ["train", "--feeder", SIX, "--dataset", "{empty}",
                                      "--out", "{out}"]),
    "train-dataset-npy": ("npy", ["train", "--feeder", SIX, "--dataset", "{npy}",
                                  "--out", "{out}"]),
    "train-dataset-flipped": ("flipped", ["train", "--feeder", SIX, "--dataset", "{flipped}",
                                          "--out", "{out}"]),
    "estimate-checkpoint-cut": ("cut_checkpoint", ["estimate", "--feeder", SIX, "--measurements",
                                                   "{z}", "--checkpoint", "{cut_checkpoint}"]),
    "train-dataset-text": ("text", ["train", "--feeder", SIX, "--dataset", "{text}",
                                    "--out", "{out}"]),
    "train-dataset-pickle": ("pickle", ["train", "--feeder", SIX, "--dataset", "{pickle}",
                                        "--out", "{out}"]),
    "estimate-checkpoint-text": ("text", ["estimate", "--feeder", SIX, "--measurements", "{z}",
                                          "--checkpoint", "{text}"]),
    "estimate-checkpoint-pickle": ("pickle", ["estimate", "--feeder", SIX, "--measurements",
                                              "{z}", "--checkpoint", "{pickle}"]),
}


@pytest.mark.parametrize("case", list(PATH_AND_ARCHIVE_ERRORS))
def test_path_and_archive_errors_are_validation_errors(
    workdir, dataset_path, checkpoint_path, six_bus, six_bus_pf, capsys, monkeypatch, case
):
    # an --out that cannot be written fails before the work
    for name in ("run_scenario", "train", "generate_dataset"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    base = workdir / "path_errors" / case
    (base / "dir").mkdir(parents=True)
    paths = {name: base / name for name in ("dir", "file", "out", "empty", "npy", "z", "text",
                                            "pickle", "cut_dataset", "cut_checkpoint",
                                            "flipped")}
    paths["orphan"] = base / "absent" / "out.npz"
    paths["file"].write_bytes(b"keep")
    paths["empty"].write_bytes(b"")
    paths["text"].write_bytes(b"text\n")
    with open(paths["pickle"], "wb") as fh:
        pickle.dump({"meta": {}}, fh)
    with open(paths["npy"], "wb") as fh:
        np.save(fh, np.zeros(3))
    paths["cut_dataset"].write_bytes(dataset_path.read_bytes()[:300])
    paths["cut_checkpoint"].write_bytes(checkpoint_path.read_bytes()[:300])
    flipped = bytearray(dataset_path.read_bytes())
    flipped[len(flipped) // 2] ^= 0xFF
    paths["flipped"].write_bytes(flipped)
    synthesize(plan_measurements(six_bus, [3]), six_bus_pf.state, six_bus, 0).save(paths["z"])
    fill = {name: str(p) for name, p in paths.items()} | {"dataset": str(dataset_path)}
    named, argv = PATH_AND_ARCHIVE_ERRORS[case]
    capsys.readouterr()
    assert main([a.format(**fill) for a in argv]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and fill[named] in captured.err
    assert "allow_pickle" not in captured.err
    assert captured.out == ""
    assert list(paths["dir"].iterdir()) == []
    assert paths["file"].read_bytes() == b"keep"
    assert not paths["out"].exists() and not paths["orphan"].parent.exists()


def test_bench_writes_report(workdir, capsys):
    # pruning changes the 6-bus plan at PMU 4 and nothing at 13-bus PMUs 1 and 12,
    # where one network gives the pawnn and p2n2 rows and their trace columns
    for feeder, pmu, samples, epochs, one_net in (("six_bus", ["4"], "120", "8", False),
                                                  ("thirteen_bus", ["1", "12"], "60", "2", True)):
        out = workdir / f"bench_{feeder}"
        assert main(["bench", "--feeder", str(fixture_path(feeder)), "--pmu", *pmu,
                     "--out", str(out), "--samples", samples, "--seed", "2",
                     "--epochs", epochs]) == EXIT_OK
        assert (out / "summary.txt").exists()
        with open(out / "summary.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 9
        traces = sorted(out.glob("trace_*.csv"))
        assert [p.name for p in traces] == [f"trace_scenario{k}.csv" for k in (1, 2, 3)]
        for path in traces:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert ([r["pawnn"] for r in rows] == [r["p2n2"] for r in rows]) is one_net
        text = capsys.readouterr().out
        assert "scenario3" in text and "unobservable" in text


@pytest.mark.parametrize(
    "flag, value, field",
    [("--epochs", "0", "epochs"), ("--batch-size", "0", "batch_size"),
     ("--learning-rate", "-0.001", "learning_rate"), ("--learning-rate", "inf", "learning_rate"),
     ("--train-fraction", "1.0", "train_fraction"), ("--patience", "0", "patience"),
     ("--seed", "-1", "seed")],
)
def test_train_with_an_invalid_setting_is_validation_error(
    workdir, dataset_path, capsys, flag, value, field
):
    code = main(["train", "--feeder", SIX, "--dataset", str(dataset_path),
                 "--out", str(workdir / "net_bad.npz"), flag, value])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be")
    assert "Traceback" not in err and not (workdir / "net_bad.npz").exists()


def test_bench_with_zero_epochs_is_validation_error(workdir, capsys):
    out = workdir / "bench_zero"
    code = main(["bench", "--feeder", SIX, "--pmu", "4", "--out", str(out),
                 "--samples", "20", "--epochs", "0"])
    assert code == EXIT_VALIDATION
    assert "error: epochs must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, name", [("--seed", "-1", "seed"),
                                               ("--noise-sigma", "1e155", "noise_sigma")])
def test_bench_with_an_invalid_setting_is_validation_error(workdir, capsys, flag, value, name):
    out = workdir / f"bench_bad_{name}_{value}"  # one per case: a written file fails only its own
    code = main(["bench", "--feeder", SIX, "--pmu", "4", "--out", str(out), "--samples", "20",
                 "--epochs", "2", flag, value])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {name} must be ")
    assert not out.exists()


def test_train_divergence_is_non_convergence(workdir, dataset_path, capsys):
    out = workdir / "net_diverged.npz"
    code = main(["train", "--feeder", SIX, "--dataset", str(dataset_path), "--out", str(out),
                 "--learning-rate", "1e300", "--epochs", "5"])
    assert code == EXIT_NON_CONVERGED
    err = capsys.readouterr().err
    assert err.startswith("NON_CONVERGED: training diverged: loss became")
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("rate, code", [("1e300", EXIT_NON_CONVERGED), ("inf", EXIT_VALIDATION)])
def test_bench_with_a_diverging_learning_rate(workdir, capsys, rate, code):
    out = workdir / f"bench_lr_{rate}"
    assert main(["bench", "--feeder", SIX, "--pmu", "4", "--out", str(out), "--samples", "40",
                 "--epochs", "5", "--learning-rate", rate]) == code
    err = capsys.readouterr().err
    assert err.startswith("NON_CONVERGED: training diverged" if code == EXIT_NON_CONVERGED
                          else "error: learning_rate must be finite")
    assert not out.exists()


def test_train_reports_the_kept_epoch(workdir, dataset_path, six_bus, capsys):
    out = workdir / "net_early.npz"
    patience = 3
    code = main(["train", "--feeder", SIX, "--dataset", str(dataset_path), "--out", str(out),
                 "--epochs", "200", "--patience", str(patience), "--learning-rate", "1e-2",
                 "--batch-size", "32", "--seed", "1"])
    assert code == EXIT_OK
    found = re.fullmatch(r"trained p2n2 for (\d+) epochs; checkpoint .+ holds epoch (\d+) "
                         r"\(0 is the initialisation\), held-out loss (\S+)\n",
                         capsys.readouterr().out)
    ran, kept, loss = int(found[1]), int(found[2]), found[3]
    assert ran < 200 and kept == ran - patience  # early stopping fired; the best came earlier
    # the printed loss is the checkpoint's held-out loss, not the last epoch's
    ds = load_dataset(dataset_path, six_bus)
    _, val_idx = split_indices(len(ds), 0.9, 1)
    net, meta = load_checkpoint(out, six_bus)
    assert (meta["kind"], meta["pmu_buses"], meta["block_width"]) == ("p2n2", [3], 8)
    assert loss == f"{evaluate(net, ds.features[val_idx], ds.v_true_pu[val_idx]).nu:.6e}"


@pytest.mark.parametrize("flag, value, name", [
    ("--amplitude", "nan", "amplitude"), ("--amplitude", "-5", "amplitude"),
    ("--noise-sigma", "nan", "noise_sigma"), ("--noise-sigma", "inf", "noise_sigma"),
    ("--noise-sigma", "1e155", "noise_sigma"), ("--noise-sigma", "5", "noise_sigma"),
    ("--seed", "-1", "seed"), ("--pseudo-noise", "-1", "pseudo_noise"),
    ("--pseudo-noise", "0", "pseudo_noise"), ("--pseudo-noise", "nan", "pseudo_noise"),
    # past the 100% bound; 1e200's squared sigmas would also overflow
    ("--pseudo-noise", "1.5", "pseudo_noise"), ("--pseudo-noise", "1e150", "pseudo_noise"),
    ("--pseudo-noise", "1e200", "pseudo_noise"),
])
def test_generate_with_a_bad_load_profile_is_validation_error(workdir, capsys, flag, value, name):
    out = workdir / f"bad_profile_{name}_{value}.npz"  # one per case, as in the bench test
    code = main(["generate", "--feeder", SIX, "--pmu", "4", "--samples", "20",
                 flag, value, "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {name} must be ")
    assert not out.exists()


def test_generate_with_infinite_pseudo_noise_is_validation_error(workdir, capsys):
    out = workdir / "inf_pseudo.npz"
    code = main(["generate", "--feeder", SIX, "--pmu", "4", "--samples", "20",
                 "--pseudo-noise", "inf", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "error: pseudo_noise must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()
