import numpy as np
import pytest

from dsse.measurements import (
    Measurement,
    MeasurementSet,
    NoiseClass,
    plan_measurements,
    synthesize,
)
from dsse.pipeline import remove_pseudo_until_unobservable
from dsse.powerflow import StateVector, slack_state
from dsse.wls import (
    NonConvergedError,
    UnobservableError,
    WlsConfig,
    WlsReport,
    estimate,
    objective,
)


@pytest.fixture(scope="module")
def six_plan(six_bus):
    return plan_measurements(six_bus, [six_bus.bus_by_label(4)])


def direct_voltage_rows(model, state, sigma=1.0):
    """One exact v_real/v_imag row per state component."""
    rows = []
    cls = NoiseClass("pmu_voltage", 0.01)
    for b, p in model.slots:
        v = state.values[model.slot_index(b, p)]
        rows.append(Measurement("v_real", b, p, cls, v.real, sigma**2))
        rows.append(Measurement("v_imag", b, p, cls, v.imag, sigma**2))
    return MeasurementSet(rows)


class TestObjective:
    def test_zero_at_truth_noiseless(self, six_bus, six_plan, six_bus_pf):
        z = synthesize(six_plan, six_bus_pf.state, six_bus, 0, noiseless=True)
        assert objective(six_bus, z, six_bus_pf.state) == 0.0

    def test_single_row_formula(self, six_bus):
        state = slack_state(six_bus)
        cls = NoiseClass("pmu_voltage", 0.01)
        truth = state.values[0].real
        z = MeasurementSet(
            [Measurement("v_real", 0, "A", cls, truth + 3.0, 4.0)]
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
        for r, m in enumerate(z):
            naive += (m.value - h[r]) ** 2 / m.variance
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
        z = synthesize(six_plan, six_bus_pf.state, six_bus, 0, noiseless=True)
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
        rows = direct_voltage_rows(six_bus, state).rows[:4]
        with pytest.raises(UnobservableError):
            estimate(six_bus, MeasurementSet(rows))

    def test_nonpositive_variance_rejected(self, six_bus):
        state = slack_state(six_bus)
        z = direct_voltage_rows(six_bus, state, sigma=1.0)
        variances = z.variances().copy()
        variances[0] = 0.0
        z = z.with_values(z.values(), variances)
        with pytest.raises(ValueError):
            estimate(six_bus, z)

    def test_max_iter_exhaustion_reports(self, six_bus, six_plan, six_bus_pf):
        z = synthesize(six_plan, six_bus_pf.state, six_bus, 0)
        with pytest.raises(NonConvergedError) as exc:
            estimate(six_bus, z, WlsConfig(tolerance=1e-7, max_iter=1))
        assert isinstance(exc.value.report, WlsReport)
        assert not exc.value.report.converged

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WlsConfig(tolerance=0.0)

    def test_warm_start_converges_faster(self, six_bus, six_plan, six_bus_pf):
        z = synthesize(six_plan, six_bus_pf.state, six_bus, 2)
        cold = estimate(six_bus, z)
        warm = estimate(six_bus, z, x0=cold.x_hat)
        assert warm.iterations <= cold.iterations
        assert np.allclose(warm.x_hat.values, cold.x_hat.values, atol=1e-3)

    def test_objective_never_increases(self, six_bus, six_plan, six_bus_pf):
        z = synthesize(six_plan, six_bus_pf.state, six_bus, 4)
        report = estimate(six_bus, z)
        flat = slack_state(six_bus)
        assert report.objective <= objective(six_bus, z, flat) * (1 + 1e-9)
