import dataclasses

import numpy as np
import pytest

import oracles
from dsse.grid_model import feeder_from_dict
from dsse.measurements import (
    I_IMAG,
    I_REAL,
    P_INJ,
    Q_INJ,
    V_IMAG,
    V_REAL,
    MeasurementSet,
    NoiseClass,
    RowEvaluator,
    ZERO_INJECTION_MAX_ERROR,
    jacobian_rows,
    measurement_function,
    plan_measurements,
    row_sigmas,
    synthesize,
)
from dsse.powerflow import StateVector, slack_state


@pytest.fixture(scope="module")
def six_plan(six_bus):
    return plan_measurements(six_bus, [six_bus.bus_by_label(4)])


PMU_LABELS = {"six_bus": (4,), "thirteen_bus": (1, 12)}


@pytest.fixture(params=sorted(PMU_LABELS))
def feeder_case(request):
    """(model, plan, power flow) per fixture; the 13-bus feeder adds 1- and
    2-phase laterals and zero-injection buses."""
    model = request.getfixturevalue(request.param)
    plan = plan_measurements(
        model, [model.bus_by_label(label) for label in PMU_LABELS[request.param]]
    )
    return model, plan, request.getfixturevalue(f"{request.param}_pf")


class TestPlan:
    def test_six_bus_pmu_rows(self, six_bus, six_plan):
        pmu = six_bus.bus_by_label(4)
        v_rows = [m for m in six_plan if m.kind in (V_REAL, V_IMAG)]
        assert {m.locus for m in v_rows} == {pmu}
        assert len(v_rows) == 6  # three phases, real+imag
        i_rows = [m for m in six_plan if m.kind in (I_REAL, I_IMAG)]
        touched = {
            frozenset(
                {
                    six_bus.branches[m.locus].from_bus,
                    six_bus.branches[m.locus].to_bus,
                }
            )
            for m in i_rows
        }
        assert touched == {
            frozenset({six_bus.bus_by_label(3), pmu}),
            frozenset({pmu, six_bus.bus_by_label(5)}),
            frozenset({pmu, six_bus.bus_by_label(6)}),
        }

    def test_six_bus_row_classes(self, six_bus, six_plan):
        pseudo = [m for m in six_plan if m.noise.kind == "pseudo_power"]
        zero = [m for m in six_plan if m.noise.kind == "zero_injection"]
        # four three-phase load buses, P+Q each phase
        assert len(pseudo) == 4 * 3 * 2
        # one three-phase zero-injection bus
        assert len(zero) == 6
        assert len(six_plan) == 6 + 18 + 24 + 6

    def test_thirteen_bus_row_count_oracle(self, thirteen_bus):
        m = thirteen_bus
        metered = [m.bus_by_label(2), m.bus_by_label(11)]
        plan = plan_measurements(m, [m.bus_by_label(1), m.bus_by_label(5)], metered)
        # independent enumeration of the row rule
        expected = 0
        for b in (m.bus_by_label(1), m.bus_by_label(5)):
            expected += 2 * len(m.buses[b].phases)  # PMU voltage
            for br in m.branches_at(b):
                expected += 2 * len(br.phases)  # PMU current
        for ld in m.loads:
            expected += 2 * len(ld.power)  # P/Q per load phase
        for bus in m.buses:
            if bus.kind == "zero_injection":
                expected += 2 * len(bus.phases)
        assert len(plan) == expected
        smart = [r for r in plan if r.noise.kind == "smart_meter_power"]
        assert {r.locus for r in smart} == set(metered)

    def test_minimal_plan(self):
        m = feeder_from_dict(
            {
                "buses": [
                    {"id": 1, "phases": "A", "kind": "source", "base_voltage_v": 2400.0},
                    {"id": 2, "phases": "A", "kind": "junction", "base_voltage_v": 2400.0},
                ],
                "branches": [
                    {"from": 1, "to": 2, "phases": "A", "impedance": [[[0.3, 0.6]]]}
                ],
                "loads": [],
            }
        )
        plan = plan_measurements(m, [0])
        # only bus 1's PMU voltage rows and the incident branch current rows
        assert [r.kind for r in plan] == [V_REAL, V_IMAG, I_REAL, I_IMAG]

    def test_rejects_bad_inputs(self, six_bus):
        with pytest.raises(ValueError):
            plan_measurements(six_bus, [])
        with pytest.raises(KeyError):
            plan_measurements(six_bus, [99])
        with pytest.raises(ValueError, match="no load"):
            plan_measurements(six_bus, [3], metered_loads=[3])

    def test_signature_tracks_structure_not_values(self, six_bus, six_plan, six_bus_pf):
        realized = synthesize(six_plan, six_bus_pf.state, six_bus, 0)
        assert realized.signature() == six_plan.signature()
        other = plan_measurements(six_bus, [six_bus.bus_by_label(2)])
        assert other.signature() != six_plan.signature()

    @pytest.mark.parametrize(
        "feeder,digest",
        [
            ("six_bus", "cade1e00c6231732e8cb6e85df4cc6833dcc3cb4e6231cb74fb36cbed79b6f8d"),
            ("thirteen_bus", "f9152e792e98a96fbb7574ef886e2c2fae1a8248502ed602744f9ea24d8ce63c"),
        ],
    )
    def test_signature_pinned(self, request, feeder, digest):
        # checkpoints store this digest as their template signature
        model = request.getfixturevalue(feeder)
        plan = plan_measurements(model, [model.bus_by_label(b) for b in PMU_LABELS[feeder]])
        assert plan.signature() == digest

    def test_rows_read_only(self, six_plan):
        with pytest.raises(dataclasses.FrozenInstanceError):
            six_plan.rows[0].variance = 0.0
        with pytest.raises(ValueError):
            six_plan.values()[0] = 1.0
        with pytest.raises(ValueError, match="expected 54"):
            six_plan.with_values(np.zeros(53), np.ones(53))

    def test_csv_roundtrip(self, six_bus, six_plan, six_bus_pf, tmp_path):
        realized = synthesize(six_plan, six_bus_pf.state, six_bus, 3)
        path = tmp_path / "z.csv"
        realized.save(path)
        back = MeasurementSet.load(path)
        assert back.signature() == realized.signature()
        assert np.array_equal(back.values(), realized.values())
        assert np.array_equal(back.variances(), realized.variances())


class TestMeasurementFunction:
    def test_voltage_rows_project_state(self, six_bus, six_plan, six_bus_pf):
        h = measurement_function(six_bus, six_bus_pf.state, six_plan)
        for r, m in enumerate(six_plan):
            if m.kind == V_REAL:
                assert h[r] == six_bus_pf.state.values[
                    six_bus.slot_index(m.locus, m.phase)
                ].real
            elif m.kind == V_IMAG:
                assert h[r] == six_bus_pf.state.values[
                    six_bus.slot_index(m.locus, m.phase)
                ].imag

    def test_injection_rows_zero_on_flat_zero_load_state(self, six_bus, six_plan):
        h = measurement_function(six_bus, slack_state(six_bus), six_plan)
        for r, m in enumerate(six_plan):
            if m.kind in (P_INJ, Q_INJ):
                assert abs(h[r]) < 1e-6

    def test_injection_rows_equal_loads_consumption_positive(self, feeder_case):
        model, plan, pf = feeder_case
        h = measurement_function(model, pf.state, plan)
        for r, m in enumerate(plan):
            if m.kind not in (P_INJ, Q_INJ):
                continue
            load = model.loads_by_bus.get(m.locus)
            s = load.power.get(m.phase, 0.0) if load else 0.0
            want = s.real if m.kind == P_INJ else s.imag
            assert h[r] == pytest.approx(want, abs=1e-2)

    def test_current_rows_match_power_flow(self, feeder_case):
        model, plan, pf = feeder_case
        h = measurement_function(model, pf.state, plan)
        for r, m in enumerate(plan):
            if m.kind not in (I_REAL, I_IMAG):
                continue
            br = model.branches[m.locus]
            i_true = pf.branch_currents[br.index][br.phases.index(m.phase)]
            want = i_true.real if m.kind == I_REAL else i_true.imag
            assert h[r] == pytest.approx(want, abs=1e-6)


class TestJacobian:
    def test_voltage_rows_are_unit_vectors(self, six_bus, six_plan, six_bus_pf):
        H = jacobian_rows(six_bus, six_bus_pf.state, six_plan)
        for r, m in enumerate(six_plan):
            if m.kind in (V_REAL, V_IMAG):
                s = six_bus.slot_index(m.locus, m.phase)
                want = np.zeros(H.shape[1])
                want[2 * s + (m.kind == V_IMAG)] = 1.0
                assert np.array_equal(H[r], want)

    def test_current_rows_are_state_independent(self, six_bus, six_plan):
        rng = np.random.default_rng(0)
        x1 = StateVector.from_rect(rng.normal(0, 2400, 36))
        x2 = StateVector.from_rect(rng.normal(0, 2400, 36))
        H1 = jacobian_rows(six_bus, x1, six_plan)
        H2 = jacobian_rows(six_bus, x2, six_plan)
        for r, m in enumerate(six_plan):
            if m.kind in (I_REAL, I_IMAG):
                assert np.array_equal(H1[r], H2[r])

    def test_matches_finite_differences(self, feeder_case):
        model, plan, _ = feeder_case
        ev = RowEvaluator(model, plan)
        rng = np.random.default_rng(7)
        base = slack_state(model).rect
        for _ in range(5):
            x = base + rng.normal(0, 100, base.shape)
            H = ev.jacobian(StateVector.from_rect(x))
            Hfd = oracles.fd_jacobian(
                lambda xr: ev.h(StateVector.from_rect(xr)), x, h=1e-3
            )
            scale = np.maximum(np.abs(Hfd).max(axis=1, keepdims=True), 1.0)
            assert np.max(np.abs(H - Hfd) / scale) < 1e-6


class TestSynthesis:
    def test_noiseless_values_equal_h(self, six_bus, six_plan, six_bus_pf):
        z = synthesize(six_plan, six_bus_pf.state, six_bus, 0, noiseless=True)
        h = measurement_function(six_bus, six_bus_pf.state, six_plan)
        assert np.array_equal(z.values(), h)
        assert np.all(z.variances() > 0)

    def test_deterministic_per_seed(self, six_bus, six_plan, six_bus_pf):
        a = synthesize(six_plan, six_bus_pf.state, six_bus, 42)
        b = synthesize(six_plan, six_bus_pf.state, six_bus, 42)
        c = synthesize(six_plan, six_bus_pf.state, six_bus, 43)
        assert np.array_equal(a.values(), b.values())
        assert not np.array_equal(a.values(), c.values())

    def test_pmu_voltage_sigma_convention(self, six_bus, six_plan, six_bus_pf):
        # 1% maximum error at |V| = 2400 V -> sigma = 0.01 * 2400 / 3 = 8 V
        h = measurement_function(six_bus, six_bus_pf.state, six_plan)
        sig = row_sigmas(six_bus, six_plan, h)
        r = next(
            i for i, m in enumerate(six_plan) if m.kind == V_REAL and m.phase == "A"
        )
        mag = abs(complex(h[r], h[r + 1]))
        assert sig[r] == pytest.approx(0.01 * mag / 3.0, rel=0.05)

    def test_three_sigma_coverage(self, six_bus, six_plan, six_bus_pf):
        # >= 99.5% of 1e5 draws of the phase-A voltage row within 1% of truth
        rng = np.random.default_rng(5)
        h = measurement_function(six_bus, six_bus_pf.state, six_plan)
        sig = row_sigmas(six_bus, six_plan, h)
        r = next(
            i for i, m in enumerate(six_plan) if m.kind == V_REAL and m.phase == "A"
        )
        draws = h[r] + rng.normal(0.0, sig[r], 100_000)
        frac = np.mean(np.abs(draws - h[r]) <= 0.01 * abs(h[r]))
        assert frac >= 0.995

    def test_zero_injection_sigma(self, six_bus, six_plan, six_bus_pf):
        h = measurement_function(six_bus, six_bus_pf.state, six_plan)
        sig = row_sigmas(six_bus, six_plan, h)
        for r, m in enumerate(six_plan):
            if m.noise.kind == "zero_injection":
                assert sig[r] == pytest.approx(
                    ZERO_INJECTION_MAX_ERROR * six_bus.power_base / 3.0
                )

    def test_pseudo_sigma_scales_with_value(self, six_bus, six_bus_pf):
        h30 = synthesize(
            plan_measurements(six_bus, [3], pseudo_noise=0.3),
            six_bus_pf.state, six_bus, 0, noiseless=True,
        )
        h50 = synthesize(
            plan_measurements(six_bus, [3], pseudo_noise=0.5),
            six_bus_pf.state, six_bus, 0, noiseless=True,
        )
        for m30, m50 in zip(h30, h50):
            if m30.noise.kind == "pseudo_power":
                assert np.sqrt(m50.variance / m30.variance) == pytest.approx(
                    0.5 / 0.3, rel=1e-9
                )

    def test_unpaired_pmu_rows_rejected(self, six_bus, six_plan, six_bus_pf):
        h = measurement_function(six_bus, six_bus_pf.state, six_plan)
        lone_real = MeasurementSet([six_plan.rows[0]])
        assert lone_real.rows[0].kind == V_REAL
        with pytest.raises(ValueError, match="unpaired"):
            row_sigmas(six_bus, lone_real, h[:1])
        lone_imag = MeasurementSet(six_plan.rows[1:])
        with pytest.raises(ValueError, match="unpaired"):
            row_sigmas(six_bus, lone_imag, h[1:])

    def test_noise_class_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NoiseClass("pseudo_power", 0.0)
