import csv
import json

import numpy as np
import pytest

from dsse.cli import (
    EXIT_OK,
    EXIT_UNOBSERVABLE,
    EXIT_VALIDATION,
    main,
)
from dsse.fixtures import fixture_path
from dsse.measurements import plan_measurements, synthesize
from dsse.pipeline import remove_pseudo_until_unobservable

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


def test_generate_writes_loadable_dataset(dataset_path):
    from dsse.pipeline import load_dataset

    ds = load_dataset(dataset_path)
    assert len(ds) == 120


def test_masks_export(workdir):
    out = workdir / "plan.json"
    assert main(["masks", "--feeder", SIX, "--pmu", "4", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["depth"] == 3
    assert doc["pruned"] is True


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
@pytest.mark.parametrize("cell", ["", "nan"], ids=["empty", "nan"])
def test_estimate_nonfinite_input_is_validation_error(
    workdir, checkpoint_path, six_bus, six_bus_pf, estimator, cell
):
    # an empty value cell is what a saved template holds
    z = synthesize(plan_measurements(six_bus, [3]), six_bus_pf.state, six_bus, 0)
    zpath = workdir / f"z_nonfinite_{estimator}_{cell}.csv"
    z.save(zpath)
    with open(zpath, newline="") as fh:
        recs = list(csv.DictReader(fh))
    recs[1]["value"] = cell
    with open(zpath, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(recs[0]))
        w.writeheader()
        w.writerows(recs)
    how = ["--wls"] if estimator == "wls" else ["--checkpoint", str(checkpoint_path)]
    code = main(["estimate", "--feeder", SIX, "--measurements", str(zpath), *how])
    assert code == EXIT_VALIDATION


def test_bad_feeder_is_validation_error(workdir):
    bad = workdir / "bad.yaml"
    bad.write_text("buses: [{id: 1, phases: Q, kind: source, base_voltage_v: 1.0}]\n")
    code = main(["generate", "--feeder", str(bad), "--pmu", "1",
                 "--out", str(workdir / "x.npz")])
    assert code == EXIT_VALIDATION


def test_missing_file_is_validation_error(workdir):
    code = main(["estimate", "--feeder", SIX,
                 "--measurements", str(workdir / "nope.csv"), "--wls"])
    assert code == EXIT_VALIDATION


def test_bench_writes_report(workdir, capsys):
    out = workdir / "bench"
    code = main(
        [
            "bench", "--feeder", SIX, "--pmu", "4", "--out", str(out),
            "--samples", "120", "--seed", "2", "--epochs", "8",
        ]
    )
    assert code == EXIT_OK
    assert (out / "summary.txt").exists()
    assert (out / "summary.csv").exists()
    assert (out / "trace_scenario1.csv").exists()
    text = capsys.readouterr().out
    assert "scenario3" in text and "unobservable" in text
