import io

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
    KIND_CODE,
    MeasurementSet,
    RowEvaluator,
    ZERO_INJECTION_MAX_ERROR,
    jacobian_rows,
    measurement_function,
    plan_measurements,
    row_sigmas,
    synthesize,
)
from dsse.pipeline import (LoadProfileConfig, generate_dataset, scenario_template,
                           standard_scenarios)
from dsse.powerflow import StateVector, slack_state, solve_batch
from dsse.wls import estimate


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
        v_rows = np.isin(six_plan.code, [KIND_CODE[V_REAL], KIND_CODE[V_IMAG]])
        assert set(six_plan.locus[v_rows].tolist()) == {pmu}
        assert v_rows.sum() == 6  # three phases, real+imag
        i_rows = np.isin(six_plan.code, [KIND_CODE[I_REAL], KIND_CODE[I_IMAG]])
        touched = {
            frozenset(
                {
                    six_bus.branches[locus].from_bus,
                    six_bus.branches[locus].to_bus,
                }
            )
            for locus in six_plan.locus[i_rows].tolist()
        }
        assert touched == {
            frozenset({six_bus.bus_by_label(3), pmu}),
            frozenset({pmu, six_bus.bus_by_label(5)}),
            frozenset({pmu, six_bus.bus_by_label(6)}),
        }

    def test_six_bus_row_classes(self, six_bus, six_plan):
        pseudo = six_plan.noise_kind == "pseudo_power"
        zero = six_plan.noise_kind == "zero_injection"
        # four three-phase load buses, P+Q each phase
        assert pseudo.sum() == 4 * 3 * 2
        # one three-phase zero-injection bus
        assert zero.sum() == 6
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
        smart = plan.noise_kind == "smart_meter_power"
        assert set(plan.locus[smart].tolist()) == set(metered)

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
        assert [key[0] for key in plan._keys()] == [V_REAL, V_IMAG, I_REAL, I_IMAG]

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

    def test_realized_set_reuses_template_digest(self, six_bus, six_bus_pf, monkeypatch):
        template = plan_measurements(six_bus, [six_bus.bus_by_label(4)])
        digest = template.signature()
        keep = template.noise_kind != "pseudo_power"
        monkeypatch.setattr(MeasurementSet, "_keys", lambda self: pytest.fail("hashed again"))
        realized = synthesize(template, six_bus_pf.state, six_bus, 0)
        assert realized.signature() == digest
        assert realized.with_values(realized.values(), realized.variances()).signature() == digest
        monkeypatch.undo()
        # a selection is a new column set, with its own digest
        assert template.select(keep).signature() != digest
        assert template.select(np.ones(len(template), bool)).signature() == digest

    def test_rows_read_only(self, six_plan):
        with pytest.raises(ValueError):
            six_plan.max_error[0] = 0.0
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


class TestColumns:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown measurement kind 'v_abs'"):
            MeasurementSet([V_REAL, "v_abs"], [0, 0], ["A", "A"], ["pmu_voltage"] * 2, [0.01] * 2)

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="differ in length"):
            MeasurementSet([V_REAL], [0, 0], ["A"], ["pmu_voltage"], [0.01])
        with pytest.raises(ValueError, match="differ in length"):
            MeasurementSet([V_REAL], [0], ["A"], ["pmu_voltage"], [0.01], values=[1.0, 2.0])

    @pytest.mark.parametrize("column", ["kind", "locus", "phase", "noise_class", "max_error"])
    @pytest.mark.parametrize("absent", [False, True])
    def test_read_csv_requires_every_structure_cell(self, six_plan, column, absent):
        buf = io.StringIO()
        six_plan.write_csv(buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()]
        at = rows[0].index(column)
        if absent:  # no such column
            rows = [cells[:at] + cells[at + 1:] for cells in rows]
        else:
            rows[3][at] = ""
        text = "\n".join(",".join(cells) for cells in rows)
        with pytest.raises(ValueError, match=f"row {0 if absent else 2} has no '{column}' cell"):
            MeasurementSet.read_csv(io.StringIO(text))

    def test_read_csv_value_cells_may_be_blank_or_absent(self, six_bus, six_plan, six_bus_pf):
        realized = synthesize(six_plan, six_bus_pf.state, six_bus, 3)
        buf = io.StringIO()
        realized.write_csv(buf)
        lines = buf.getvalue().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:5])  # no value or variance cell
        lines[2] = ",".join(lines[2].split(",")[:5] + ["", ""])
        back = MeasurementSet.read_csv(io.StringIO("\n".join(lines)))
        assert back.signature() == six_plan.signature()
        assert np.isnan(back.values()[:2]).all() and np.isnan(back.variances()[:2]).all()
        assert np.array_equal(back.values()[2:], realized.values()[2:])

    @pytest.mark.parametrize(
        "kind, locus, phase", [(V_REAL, 99, "A"), (V_IMAG, 0, "D"), (I_REAL, 99, "B")]
    )
    def test_row_off_the_feeder_named(self, six_bus, kind, locus, phase):
        z = MeasurementSet([V_REAL, V_IMAG, kind], [0, 0, locus], ["A", "A", phase],
                           ["pmu_voltage"] * 3, [0.01] * 3)
        named = rf"row 2 \({kind}, locus {locus}, phase {phase}\) is not on the feeder"
        with pytest.raises(ValueError, match=named):
            RowEvaluator(six_bus, z)


class TestMeasurementFunction:
    def test_voltage_rows_project_state(self, six_bus, six_plan, six_bus_pf):
        h = measurement_function(six_bus, six_bus_pf.state, six_plan)
        for r, (kind, locus, phase, _, _) in enumerate(six_plan._keys()):
            if kind == V_REAL:
                assert h[r] == six_bus_pf.state.values[
                    six_bus.slot_index(locus, phase)
                ].real
            elif kind == V_IMAG:
                assert h[r] == six_bus_pf.state.values[
                    six_bus.slot_index(locus, phase)
                ].imag

    def test_injection_rows_zero_on_flat_zero_load_state(self, six_bus, six_plan):
        h = measurement_function(six_bus, slack_state(six_bus), six_plan)
        for r, (kind, *_) in enumerate(six_plan._keys()):
            if kind in (P_INJ, Q_INJ):
                assert abs(h[r]) < 1e-6

    def test_injection_rows_equal_loads_consumption_positive(self, feeder_case):
        model, plan, pf = feeder_case
        h = measurement_function(model, pf.state, plan)
        for r, (kind, locus, phase, _, _) in enumerate(plan._keys()):
            if kind not in (P_INJ, Q_INJ):
                continue
            s = sum(ld.power.get(phase, 0.0) for ld in model.loads if ld.bus == locus)
            want = s.real if kind == P_INJ else s.imag
            assert h[r] == pytest.approx(want, abs=1e-2)

    def test_current_rows_match_power_flow(self, feeder_case):
        model, plan, pf = feeder_case
        h = measurement_function(model, pf.state, plan)
        for r, (kind, locus, phase, _, _) in enumerate(plan._keys()):
            if kind not in (I_REAL, I_IMAG):
                continue
            br = model.branches[locus]
            i_true = pf.branch_currents[br.index][br.phases.index(phase)]
            want = i_true.real if kind == I_REAL else i_true.imag
            assert h[r] == pytest.approx(want, abs=1e-6)


class TestJacobian:
    def test_voltage_rows_are_unit_vectors(self, six_bus, six_plan, six_bus_pf):
        H = jacobian_rows(six_bus, six_bus_pf.state, six_plan)
        for r, (kind, locus, phase, _, _) in enumerate(six_plan._keys()):
            if kind in (V_REAL, V_IMAG):
                s = six_bus.slot_index(locus, phase)
                want = np.zeros(H.shape[1])
                want[2 * s + (kind == V_IMAG)] = 1.0
                assert np.array_equal(H[r], want)

    def test_current_rows_are_state_independent(self, six_bus, six_plan):
        rng = np.random.default_rng(0)
        x1 = StateVector.from_rect(rng.normal(0, 2400, 36))
        x2 = StateVector.from_rect(rng.normal(0, 2400, 36))
        H1 = jacobian_rows(six_bus, x1, six_plan)
        H2 = jacobian_rows(six_bus, x2, six_plan)
        for r, (kind, *_) in enumerate(six_plan._keys()):
            if kind in (I_REAL, I_IMAG):
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

    @pytest.mark.parametrize("fixture", sorted(PMU_LABELS))
    @pytest.mark.parametrize("scenario_index", [0, 1, 2],
                             ids=["scenario1", "scenario2", "scenario3"])
    def test_matches_reference_jacobian(self, request, fixture, scenario_index):
        # compiled PMU rows plus per-state injection rows, entry for entry
        # the dense one-hot evaluation they replaced
        model = request.getfixturevalue(fixture)
        pmu = [model.bus_by_label(label) for label in PMU_LABELS[fixture]]
        scenarios = standard_scenarios(pmu)
        template, _ = scenario_template(model, scenarios[scenario_index])
        flat = slack_state(model)
        rng = np.random.default_rng(scenario_index)
        states = [flat] + [StateVector.from_rect(flat.rect + rng.normal(0, 100, flat.rect.shape))
                           for _ in range(5)]
        # converged estimates come from scenario 1: scenario 3 is unobservable
        observable, _ = scenario_template(model, scenarios[0])
        ds = generate_dataset(model, observable, LoadProfileConfig(samples=5, seed=1), pmu)
        states += [estimate(model, observable.with_values(ds.values[i], ds.variances[i])).x_hat
                   for i in range(len(ds))]
        ev = RowEvaluator(model, template)
        for x in states:
            H = ev.jacobian(x)
            assert np.array_equal(H, oracles.reference_jacobian(ev, x))
            H[:] = np.nan  # each call returns its own array
        assert np.array_equal(ev.jacobian(flat), oracles.reference_jacobian(ev, flat))


def standard_templates(model, fixture):
    pmu = [model.bus_by_label(label) for label in PMU_LABELS[fixture]]
    return [scenario_template(model, scenario)[0] for scenario in standard_scenarios(pmu)]


class TestSparseRows:
    @pytest.mark.parametrize("fixture", sorted(PMU_LABELS))
    def test_rows_list_each_rows_nonzero_columns_ascending(self, request, fixture):
        model = request.getfixturevalue(fixture)
        for template in standard_templates(model, fixture):
            ev = RowEvaluator(model, template)
            cols, coef = ev.sparse_rows
            nnz = np.count_nonzero(ev.C, axis=1)
            assert cols.shape == coef.shape == (len(template), nnz.max())
            assert nnz.max() == 4  # the injection rows of a bus with three neighbours
            for r, k in enumerate(nnz.tolist()):
                assert cols[r, :k].tolist() == np.flatnonzero(ev.C[r]).tolist()
                assert np.array_equal(coef[r], ev.C[r, cols[r]])
                assert not coef[r, k:].any()

    @pytest.mark.parametrize("fixture", sorted(PMU_LABELS))
    def test_batched_h_equals_the_dense_einsum_bytewise(self, request, fixture):
        model = request.getfixturevalue(fixture)
        v, _, converged, _ = solve_batch(model, oracles.random_loads(model, 100, 1.0, seed=3))
        v = v[converged]
        assert len(v) > 50
        for template in standard_templates(model, fixture):
            ev = RowEvaluator(model, template)
            for m in (1, 7, len(v)):
                x = StateVector(v[:m])
                i = np.einsum("rj,mj->mr", ev.C, x.values)
                q = np.where(ev.power, -x.values[..., ev.slot] * np.conj(i), i)
                assert ev.h(x).tobytes() == np.where(ev.imag, q.imag, q.real).tobytes()


class TestSynthesis:
    def test_values_are_h_plus_seeded_noise(self, six_bus, six_plan, six_bus_pf):
        z = synthesize(six_plan, six_bus_pf.state, six_bus, 7)
        h = measurement_function(six_bus, six_bus_pf.state, six_plan)
        sigmas = row_sigmas(six_bus, six_plan, h)
        draws = np.random.default_rng(7).normal(0.0, 1.0, len(h))
        assert np.array_equal(z.values(), h + draws * sigmas)
        assert np.array_equal(z.variances(), sigmas**2)
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
            i for i, (kind, _, phase, _, _) in enumerate(six_plan._keys())
            if kind == V_REAL and phase == "A"
        )
        mag = abs(complex(h[r], h[r + 1]))
        assert sig[r] == pytest.approx(0.01 * mag / 3.0, rel=0.05)

    def test_three_sigma_coverage(self, six_bus, six_plan, six_bus_pf):
        # >= 99.5% of 1e5 draws of the phase-A voltage row within 1% of truth
        rng = np.random.default_rng(5)
        h = measurement_function(six_bus, six_bus_pf.state, six_plan)
        sig = row_sigmas(six_bus, six_plan, h)
        r = next(
            i for i, (kind, _, phase, _, _) in enumerate(six_plan._keys())
            if kind == V_REAL and phase == "A"
        )
        draws = h[r] + rng.normal(0.0, sig[r], 100_000)
        frac = np.mean(np.abs(draws - h[r]) <= 0.01 * abs(h[r]))
        assert frac >= 0.995

    def test_zero_injection_sigma(self, six_bus, six_plan, six_bus_pf):
        h = measurement_function(six_bus, six_bus_pf.state, six_plan)
        sig = row_sigmas(six_bus, six_plan, h)
        for r, noise in enumerate(six_plan.noise_kind.tolist()):
            if noise == "zero_injection":
                assert sig[r] == pytest.approx(
                    ZERO_INJECTION_MAX_ERROR * six_bus.power_base / 3.0
                )

    def test_pseudo_sigma_scales_with_value(self, six_bus, six_bus_pf):
        h30 = synthesize(
            plan_measurements(six_bus, [3], pseudo_noise=0.3),
            six_bus_pf.state, six_bus, 0,
        )
        h50 = synthesize(
            plan_measurements(six_bus, [3], pseudo_noise=0.5),
            six_bus_pf.state, six_bus, 0,
        )
        for noise, s30, s50 in zip(h30.noise_kind, h30.variances(), h50.variances()):
            if noise == "pseudo_power":
                assert np.sqrt(s50 / s30) == pytest.approx(
                    0.5 / 0.3, rel=1e-9
                )

    def test_unpaired_pmu_rows_rejected(self, six_bus, six_plan, six_bus_pf):
        h = measurement_function(six_bus, six_bus_pf.state, six_plan)
        lone_real = six_plan.select([0])
        assert lone_real.code[0] == KIND_CODE[V_REAL]
        with pytest.raises(ValueError, match="unpaired"):
            row_sigmas(six_bus, lone_real, h[:1])
        lone_imag = six_plan.select(np.arange(1, len(six_plan)))
        with pytest.raises(ValueError, match="unpaired"):
            row_sigmas(six_bus, lone_imag, h[1:])

    def test_noise_class_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="max_error must be positive"):
            MeasurementSet([P_INJ], [3], ["A"], ["pseudo_power"], [0.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_noise_class_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="max_error must be positive and finite"):
            MeasurementSet([P_INJ, P_INJ], [2, 3], ["A", "A"], ["pseudo_power"] * 2, [0.3, bad])
