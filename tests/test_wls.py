import hashlib

import numpy as np
import pytest

import oracles
from conftest import noiseless
from dsse import load_feeder, wls
from dsse.fixtures import fixture_path
from dsse.measurements import (
    MeasurementSet,
    RowEvaluator,
    plan_measurements,
    synthesize,
)
from dsse.pipeline import (
    LoadProfileConfig,
    generate_dataset,
    remove_pseudo_until_unobservable,
    scenario_template,
    standard_scenarios,
)
from dsse.powerflow import StateVector, slack_state
from dsse.wls import (
    NonConvergedError,
    UnobservableError,
    WlsReport,
    estimate,
    objective,
)


@pytest.fixture(scope="module")
def six_plan(six_bus):
    return plan_measurements(six_bus, [six_bus.bus_by_label(4)])


def voltage_columns(model, state, sigma=1.0):
    """``MeasurementSet`` columns of one exact v_real/v_imag row per state component."""
    cols = {k: [] for k in ("kind", "locus", "phase", "noise_kind", "max_error", "values",
                            "variances")}
    for b, p in model.slots:
        v = state.values[model.slot_index(b, p)]
        for kind, value in (("v_real", v.real), ("v_imag", v.imag)):
            for name, x in zip(cols, (kind, b, p, "pmu_voltage", 0.01, value, sigma**2)):
                cols[name].append(x)
    return cols


def direct_voltage_rows(model, state, sigma=1.0):
    """One exact v_real/v_imag row per state component."""
    return MeasurementSet(**voltage_columns(model, state, sigma))


class TestObjective:
    def test_zero_at_truth_noiseless(self, six_bus, six_plan, six_bus_pf):
        z = noiseless(six_plan, six_bus_pf.state, six_bus)
        assert objective(six_bus, z, six_bus_pf.state) == 0.0

    def test_single_row_formula(self, six_bus):
        state = slack_state(six_bus)
        truth = state.values[0].real
        z = MeasurementSet(
            ["v_real"], [0], ["A"], ["pmu_voltage"], [0.01], [truth + 3.0], [4.0]
        )
        assert objective(six_bus, z, state) == pytest.approx(9.0 / 4.0)

    def test_matches_naive_double_loop(self, six_bus, six_plan, six_bus_pf):
        from dsse.measurements import measurement_function

        rng = np.random.default_rng(11)
        z = synthesize(six_plan, six_bus_pf.state, six_bus, 1)
        x = StateVector.from_rect(
            six_bus_pf.state.rect + rng.normal(0, 20, 2 * six_bus.n_slots)
        )
        h = measurement_function(six_bus, x, six_plan)
        naive = 0.0
        for r, (value, variance) in enumerate(zip(z.values().tolist(), z.variances().tolist())):
            naive += (value - h[r]) ** 2 / variance
        assert objective(six_bus, z, x) == pytest.approx(naive, rel=1e-12)


class TestEstimate:
    def test_identity_rows_recover_exactly(self, six_bus, six_bus_pf):
        z = direct_voltage_rows(six_bus, six_bus_pf.state)
        report = estimate(six_bus, z)
        assert report.converged
        assert report.iterations <= 2
        assert np.allclose(
            report.x_hat.values, six_bus_pf.state.values, atol=1e-9 * 2400
        )

    def test_noiseless_plan_recovers_truth(self, six_bus, six_plan, six_bus_pf):
        z = noiseless(six_plan, six_bus_pf.state, six_bus)
        report = estimate(six_bus, z)
        err = np.max(np.abs(report.x_hat.values - six_bus_pf.state.values))
        assert err / six_bus.base_voltage < 1e-8

    def test_noisy_estimates_converge(self, thirteen_bus, thirteen_bus_pf):
        plan = plan_measurements(
            thirteen_bus,
            [thirteen_bus.bus_by_label(1), thirteen_bus.bus_by_label(12)],
            pseudo_noise=0.5,
        )
        for seed in range(10):
            z = synthesize(plan, thirteen_bus_pf.state, thirteen_bus, seed)
            report = estimate(thirteen_bus, z)
            assert report.converged
            err = np.max(
                np.abs(report.x_hat.magnitudes() - thirteen_bus_pf.state.magnitudes())
            )
            assert err / thirteen_bus.base_voltage < 0.05

    def test_unobservable_when_pseudo_removed(self, six_bus, six_plan, six_bus_pf):
        reduced, removed = remove_pseudo_until_unobservable(six_bus, six_plan)
        assert removed > 0
        z = synthesize(reduced, six_bus_pf.state, six_bus, 0)
        with pytest.raises(UnobservableError):
            estimate(six_bus, z)

    def test_unobservable_is_deterministic(self, six_bus, six_plan, six_bus_pf):
        reduced, _ = remove_pseudo_until_unobservable(six_bus, six_plan)
        for seed in range(5):
            z = synthesize(reduced, six_bus_pf.state, six_bus, seed)
            with pytest.raises(UnobservableError):
                estimate(six_bus, z)

    def test_untouched_state_component_flagged(self, six_bus):
        state = slack_state(six_bus)
        rows = direct_voltage_rows(six_bus, state).select(np.arange(4))
        with pytest.raises(UnobservableError):
            estimate(six_bus, rows)

    def test_nonpositive_variance_rejected(self, six_bus):
        state = slack_state(six_bus)
        z = direct_voltage_rows(six_bus, state, sigma=1.0)
        variances = z.variances().copy()
        variances[0] = 0.0
        z = z.with_values(z.values(), variances)
        with pytest.raises(ValueError):
            estimate(six_bus, z)

    def test_max_iter_exhaustion_reports(self, six_bus, six_plan, six_bus_pf, monkeypatch):
        z = synthesize(six_plan, six_bus_pf.state, six_bus, 0)
        monkeypatch.setattr(wls, "MAX_ITER", 1)
        with pytest.raises(NonConvergedError) as exc:
            estimate(six_bus, z)
        assert isinstance(exc.value.report, WlsReport)
        assert not exc.value.report.converged
        assert exc.value.report.iterations == 1

    def test_objective_never_increases(self, six_bus, six_plan, six_bus_pf):
        z = synthesize(six_plan, six_bus_pf.state, six_bus, 4)
        report = estimate(six_bus, z)
        flat = slack_state(six_bus)
        assert report.objective <= objective(six_bus, z, flat) * (1 + 1e-9)


# -- compiled templates ----------------------------------------------------

PMU_LABELS = {"six_bus": (4,), "thirteen_bus": (1, 12)}


def scenario_sets(model, labels, scenario_index, samples=30, seed=7):
    """``samples`` realized sets of one standard scenario's template."""
    pmu = [model.bus_by_label(label) for label in labels]
    template, _ = scenario_template(model, standard_scenarios(pmu)[scenario_index])
    ds = generate_dataset(model, template, LoadProfileConfig(samples=samples, seed=seed), pmu)
    return [template.with_values(ds.values[i], ds.variances[i]) for i in range(len(ds))]


def outcome(fn, *args, **kwargs):
    """(exception type or None, report) of one estimate."""
    try:
        return None, fn(*args, **kwargs)
    except NonConvergedError as exc:
        return NonConvergedError, exc.report


class CountCalls:
    """Wraps ``fn`` and counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.fixture
def counts(monkeypatch):
    """Counters of evaluator builds and observability tests inside WLS."""
    init = CountCalls(RowEvaluator.__init__)
    check = CountCalls(wls.check_observable)
    monkeypatch.setattr(RowEvaluator, "__init__", lambda *a: init(*a))
    monkeypatch.setattr(wls, "check_observable", check)
    return init, check


class TestCompiledTemplate:
    @pytest.mark.parametrize("fixture", ["six_bus", "thirteen_bus"])
    @pytest.mark.parametrize("scenario_index", [0, 1], ids=["scenario1", "scenario2"])
    @pytest.mark.parametrize("start", ["cold", "max_iter_1"])
    def test_matches_reference_estimate(self, request, monkeypatch, fixture, scenario_index,
                                        start):
        model = request.getfixturevalue(fixture)
        sets = scenario_sets(model, PMU_LABELS[fixture], scenario_index)
        if start == "max_iter_1":
            monkeypatch.setattr(wls, "MAX_ITER", 1)
        for z in sets:
            kind, report = outcome(estimate, model, z)
            ref_kind, ref = outcome(oracles.reference_estimate, model, z)
            assert kind is ref_kind
            assert (report.iterations, report.converged) == (ref.iterations, ref.converged)
            assert report.observability_margin == ref.observability_margin
            dx = np.max(np.abs(report.x_hat.values - ref.x_hat.values)) / model.base_voltage
            assert dx <= 1e-10
            assert report.objective == pytest.approx(ref.objective, rel=1e-9)
        if start == "max_iter_1":
            assert kind is NonConvergedError

    @pytest.mark.parametrize("fixture,digest", [
        ("six_bus", "63c1048938494cda02ddcea2f04e1436499bf229c6392b003b8559c7a28ff278"),
        ("thirteen_bus", "80d32e304974fa55ae1111f1b7a6044e56c23968a7d15ecbfc17d8a189f5aec6"),
    ])
    def test_estimates_bytes_pinned(self, request, fixture, digest):
        # a faster Gauss-Newton step must not move one bit of any estimate.
        # The digests were taken with numpy 2.4 on OpenBLAS 0.3.31; another
        # BLAS or LAPACK build may round differently and needs new digests
        model = request.getfixturevalue(fixture)
        h = hashlib.sha256()
        for scenario_index in (0, 1):
            for z in scenario_sets(model, PMU_LABELS[fixture], scenario_index, samples=20):
                report = estimate(model, z)
                h.update(report.x_hat.values.tobytes())
                h.update(np.float64(report.objective).tobytes())
                h.update(np.int64(report.iterations).tobytes())
        assert h.hexdigest() == digest

    def test_one_compile_per_template(self, thirteen_bus, counts):
        init, check = counts
        sets = scenario_sets(thirteen_bus, PMU_LABELS["thirteen_bus"], 0, samples=8)
        built = init.calls  # generate_dataset builds its own evaluators
        for z in sets:
            assert estimate(thirteen_bus, z).converged
        assert (init.calls - built, check.calls) == (1, 1)

    def test_select_and_another_model_recompile(self, six_bus, six_plan, six_bus_pf, counts):
        init, check = counts
        template = plan_measurements(six_bus, [six_bus.bus_by_label(4)])
        z = synthesize(template, six_bus_pf.state, six_bus, 0)
        estimate(six_bus, z)
        estimate(six_bus, z.with_values(z.values(), z.variances()))
        assert check.calls == 1
        selected = z.select(np.ones(len(z), dtype=bool))
        estimate(six_bus, selected)
        assert check.calls == 2
        estimate(six_bus, z)  # the template keeps its own record
        assert check.calls == 2
        twin = load_feeder(fixture_path("six_bus"))
        twin_report = estimate(twin, z)
        assert check.calls == 3
        assert np.array_equal(twin_report.x_hat.values, estimate(six_bus, z).x_hat.values)
        assert check.calls == 4  # switching back rebuilds too: one model per record
        assert init.calls == 4 + 1  # one evaluator per compile, one in synthesize

    def test_unobservable_template_raises_same_message_every_call(
        self, six_bus, six_plan, six_bus_pf, counts
    ):
        _, check = counts
        reduced, _ = remove_pseudo_until_unobservable(six_bus, six_plan)
        calls = check.calls
        messages = []
        for seed in range(4):
            z = synthesize(reduced, six_bus_pf.state, six_bus, seed)
            with pytest.raises(UnobservableError) as exc:
                estimate(six_bus, z)
            messages.append(str(exc.value))
        with pytest.raises(UnobservableError) as ref:
            oracles.reference_estimate(six_bus, z)
        assert messages == [str(ref.value)] * 4
        assert check.calls - calls == 1

    def test_mutating_x_hat_leaves_next_estimate(self, six_bus, six_plan, six_bus_pf,
                                                  monkeypatch):
        template = plan_measurements(six_bus, [six_bus.bus_by_label(4)])
        z = synthesize(template, six_bus_pf.state, six_bus, 3)
        first = estimate(six_bus, z)
        kept = first.x_hat.values.copy()
        first.x_hat.values[:] = 0.0
        with monkeypatch.context() as m, pytest.raises(NonConvergedError) as exc:
            m.setattr(wls, "MAX_ITER", 1)
            estimate(six_bus, z)
        exc.value.report.x_hat.values[:] = 0.0
        assert np.array_equal(estimate(six_bus, z).x_hat.values, kept)

    def test_stalled_cold_start_returns_a_copy_of_the_flat_state(self, six_bus, monkeypatch):
        # a huge, exact P row: no step from flat lowers J, so x_hat is the start
        flat = slack_state(six_bus)
        cols = voltage_columns(six_bus, flat, sigma=100.0)
        for col, x in zip(cols.values(), ("p_injection", 3, "A", "smart_meter_power", 0.02,
                                           1e10, 1.0)):
            col.append(x)
        z = MeasurementSet(**cols)
        monkeypatch.setattr(wls, "MAX_ITER", 1)
        for _ in range(2):
            with pytest.raises(NonConvergedError) as exc:
                estimate(six_bus, z)
            x_hat = exc.value.report.x_hat
            assert np.array_equal(x_hat.values, flat.values)
            x_hat.values[:] = 0.0
