import csv
import io

import numpy as np
import pytest

from dsse.measurements import measurement_function, plan_measurements
from dsse.network import TrainConfig
from dsse.pipeline import (
    BenchRow,
    Dataset,
    LoadProfileConfig,
    Scenario,
    config_hash,
    format_report,
    generate_dataset,
    load_dataset,
    remove_pseudo_until_unobservable,
    report,
    run_scenario,
    sample_multipliers,
    save_dataset,
    scenario_template,
    standard_scenarios,
)
from dsse.powerflow import StateVector, solve_power_flow
from dsse.wls import UnobservableError, WlsConfig, estimate


SMALL_PROFILE = LoadProfileConfig(samples=200, seed=3)
SMALL_TRAIN = TrainConfig(epochs=25, seed=3, patience=25)


class TestLoadProfiles:
    def test_multipliers_bounded_and_deterministic(self):
        cfg = LoadProfileConfig(samples=10, seed=0, amplitude=0.15, noise_sigma=0.08)
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        a = sample_multipliers(cfg, rng1, 8)
        b = sample_multipliers(cfg, rng2, 8)
        assert np.array_equal(a, b)
        assert np.all(a >= cfg.floor)
        assert np.all(a < 2.5)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            LoadProfileConfig(samples=0)


@pytest.fixture(scope="module")
def six_ds(six_bus):
    template = plan_measurements(six_bus, [3])
    return generate_dataset(six_bus, template, SMALL_PROFILE, [3])


class TestGenerateDataset:
    def test_shapes(self, six_bus, six_ds):
        assert len(six_ds) == 200
        assert six_ds.values.shape == (200, len(six_ds.template))
        assert six_ds.features.shape[1] == 6 * 18
        assert six_ds.v_true_pu.shape == (200, six_bus.n_slots)

    def test_degenerate_profile_matches_nominal_flow(self, six_bus):
        template = plan_measurements(six_bus, [3])
        cfg = LoadProfileConfig(samples=1, seed=0, amplitude=0.0, noise_sigma=0.0)
        ds = generate_dataset(six_bus, template, cfg, [3])
        pf = solve_power_flow(six_bus)
        assert np.allclose(
            ds.v_true_pu[0], pf.state.magnitudes() / six_bus.base_voltage, atol=1e-9
        )
        h = measurement_function(six_bus, pf.state, template)
        sig = np.sqrt(ds.variances[0])
        assert np.all(np.abs(ds.values[0] - h) <= 6 * sig)

    def test_labels_within_physical_bounds(self, six_bus):
        template = plan_measurements(six_bus, [3])
        cfg = LoadProfileConfig(samples=1000, seed=1)
        ds = generate_dataset(six_bus, template, cfg, [3])
        assert ds.v_true_pu.min() >= 0.85
        assert ds.v_true_pu.max() <= 1.05

    def test_same_seed_same_file(self, six_bus, tmp_path):
        template = plan_measurements(six_bus, [3])
        cfg = LoadProfileConfig(samples=20, seed=5)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_dataset(generate_dataset(six_bus, template, cfg, [3]), p1)
        save_dataset(generate_dataset(six_bus, template, cfg, [3]), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip(self, six_ds, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(six_ds, path)
        back = load_dataset(path)
        assert back.template.signature() == six_ds.template.signature()
        assert back.pmu_buses == six_ds.pmu_buses
        assert np.array_equal(back.values, six_ds.values)
        assert np.array_equal(back.features, six_ds.features)
        assert np.array_equal(back.v_true_pu, six_ds.v_true_pu)

    def test_loads_five_column_template(self, six_ds, tmp_path):
        # files written before the template CSV shared MeasurementSet's
        # writer carry no value/variance columns
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["kind", "locus", "phase", "noise_class", "max_error"])
        for m in six_ds.template:
            w.writerow([m.kind, m.locus, m.phase, m.noise.kind, repr(m.noise.max_error)])
        path = tmp_path / "ds.npz"
        save_dataset(six_ds, path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["template"] = np.frombuffer(buf.getvalue().encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        back = load_dataset(path)
        assert back.template.signature() == six_ds.template.signature()
        assert all(m.value is None and m.variance is None for m in back.template)
        assert np.array_equal(back.values, six_ds.values)

    def test_config_hash_stable(self):
        a = config_hash(SMALL_PROFILE, [1, 2])
        b = config_hash(SMALL_PROFILE, [1, 2])
        c = config_hash(SMALL_PROFILE, [1, 3])
        assert a == b != c


class TestScenarios:
    def test_standard_scenarios(self):
        s1, s2, s3 = standard_scenarios((3,))
        assert s1.pseudo_noise == 0.3 and not s1.make_unobservable
        assert s2.pseudo_noise == 0.5 and not s2.make_unobservable
        assert s3.make_unobservable

    def test_pseudo_removal_reaches_rank_deficiency(self, six_bus, six_bus_pf):
        template = plan_measurements(six_bus, [3])
        reduced, removed = remove_pseudo_until_unobservable(six_bus, template)
        assert removed > 0
        assert len(reduced) == len(template) - removed
        from dsse.measurements import synthesize

        z = synthesize(reduced, six_bus_pf.state, six_bus, 0)
        with pytest.raises(UnobservableError):
            estimate(six_bus, z)

    def test_removal_is_minimal_under_its_order(self, six_bus):
        from dsse.measurements import MeasurementSet, jacobian_rows
        from dsse.powerflow import slack_state

        template = plan_measurements(six_bus, [3])
        reduced, removed = remove_pseudo_until_unobservable(six_bus, template)
        # restoring the last removed pseudo pair restores full rank; the
        # removal loop walks (bus, phase) pairs highest-first, so the last
        # pair dropped is the lowest-ordered one among the missing rows
        kept = {m.key() for m in reduced}
        dropped = [m for m in template if m.key() not in kept]
        last_key = min((m.locus, m.phase) for m in dropped)
        last_pair = [m for m in dropped if (m.locus, m.phase) == last_key]
        assert len(last_pair) == 2
        rows = reduced.rows + last_pair
        H = jacobian_rows(six_bus, slack_state(six_bus), MeasurementSet(rows))
        assert np.linalg.matrix_rank(H) == 2 * six_bus.n_slots

    def test_scenario_template_row_classes(self, six_bus):
        template, removed = scenario_template(
            six_bus, Scenario("s", (3,), pseudo_noise=0.5)
        )
        assert removed == 0
        pseudo = {m.noise.max_error for m in template if m.noise.kind == "pseudo_power"}
        assert pseudo == {0.5}


@pytest.mark.parametrize(
    "feeder,pmu_labels", [("six_bus", (4,)), ("thirteen_bus", (1, 12))]
)
def test_tight_zero_injection_keeps_observability(
    request, monkeypatch, feeder, pmu_labels
):
    # a more accurate zero-injection row adds information: scenario 1 must
    # stay observable and scenario 3 must still fail, whatever the row weights
    from dsse import measurements
    from dsse.measurements import synthesize

    monkeypatch.setattr(measurements, "ZERO_INJECTION_MAX_ERROR", 1e-7)
    model = request.getfixturevalue(feeder)
    pf = request.getfixturevalue(f"{feeder}_pf")
    s1, _, s3 = standard_scenarios([model.bus_by_label(b) for b in pmu_labels])
    template, _ = scenario_template(model, s1)
    assert {m.noise.max_error for m in template if m.noise.kind == "zero_injection"} == {1e-7}
    for seed in range(5):
        report = estimate(model, synthesize(template, pf.state, model, seed))
        assert report.converged
        err = np.max(np.abs(report.x_hat.magnitudes() - pf.state.magnitudes()))
        assert err / model.base_voltage < 0.05

    reduced, removed = scenario_template(model, s3)
    assert removed > 0
    with pytest.raises(UnobservableError):
        estimate(model, synthesize(reduced, pf.state, model, 0))


@pytest.fixture(scope="module")
def six_results(six_bus):
    scenario = Scenario("scenario1", (3,), pseudo_noise=0.3)
    return run_scenario(six_bus, scenario, SMALL_PROFILE, SMALL_TRAIN)


class TestRunScenario:
    def test_row_schema(self, six_results):
        rows, artifacts = six_results
        assert [r.estimator for r in rows] == ["wls", "pawnn", "p2n2"]
        for r in rows:
            assert r.scenario == "scenario1"
            assert r.status == "ok"
            assert r.nu is not None and np.isfinite(r.nu)
            assert r.mean_time_s > 0

    def test_nn_beats_nothing_burned(self, six_results):
        rows, _ = six_results
        by = {r.estimator: r for r in rows}
        # same data, same seed: the pruned and unpruned nets stay close
        assert by["p2n2"].nu < 10 * by["pawnn"].nu
        assert by["p2n2"].params <= by["pawnn"].params

    def test_unobservable_scenario_marks_wls_failed(self, six_bus):
        scenario = Scenario("scenario3", (3,), pseudo_noise=0.3, make_unobservable=True)
        rows, artifacts = run_scenario(
            six_bus, scenario, SMALL_PROFILE, SMALL_TRAIN, estimators=("wls", "p2n2")
        )
        by = {r.estimator: r for r in rows}
        assert by["wls"].status == "unobservable"
        assert by["wls"].nu is None
        assert by["p2n2"].status == "ok"
        assert np.isfinite(by["p2n2"].nu)
        assert artifacts["removed_pseudo"] > 0

    def test_all_wls_samples_failing_is_nonconverged(self, six_bus):
        scenario = Scenario("scenario1", (3,), pseudo_noise=0.3)
        rows, artifacts = run_scenario(
            six_bus, scenario, LoadProfileConfig(samples=20, seed=3), SMALL_TRAIN,
            wls_config=WlsConfig(max_iter=1), estimators=("wls",),
        )
        (row,) = rows
        assert row.status == "nonconverged"
        assert row.nu is None
        assert row.failures == len(artifacts["test_idx"]) > 0
        assert format_report(rows).splitlines()[2].split()[2] == "-"


class TestReport:
    def test_single_row_table(self):
        text = format_report([BenchRow("s1", "wls", 0.001, 0.01, "ok")])
        lines = text.strip().splitlines()
        assert len(lines) == 3  # header, rule, one row
        assert "wls" in lines[2]

    def test_report_files(self, tmp_path):
        rows = [
            BenchRow("s1", "wls", 0.001, 0.01, "ok", 0, None),
            BenchRow("s3", "wls", None, None, "unobservable", 20, None),
            BenchRow("s1", "p2n2", 0.0005, 0.0001, "ok", 0, 1234),
        ]
        truth = np.ones((4, 3))
        traces = {"s1": {"true": truth, "wls": list(truth * 1.01)}}
        report(rows, tmp_path / "out", traces)
        with open(tmp_path / "out" / "summary.csv") as fh:
            recs = list(csv.DictReader(fh))
        assert {r["estimator"] for r in recs} == {"wls", "p2n2"}
        unob = next(r for r in recs if r["status"] == "unobservable")
        assert unob["nu"] == ""
        with open(tmp_path / "out" / "trace_s1.csv") as fh:
            rows2 = list(csv.DictReader(fh))
        assert len(rows2) == 3
        assert float(rows2[0]["wls"]) == pytest.approx(1.01)
