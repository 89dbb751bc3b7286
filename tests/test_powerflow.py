import numpy as np
import pytest

import oracles
from conftest import two_bus_doc
from dsse import powerflow
from dsse.grid_model import feeder_from_dict
from dsse.powerflow import (
    NotConvergedError,
    PowerFlowError,
    StateVector,
    complex_power_balance,
    slack_state,
    solve_batch,
    solve_power_flow,
)


class TestStateVector:
    def test_rect_interleaving_roundtrip(self):
        v = np.array([3.0 + 4.0j, -1.0 + 0.5j])
        s = StateVector(v)
        assert np.array_equal(s.rect, [3.0, 4.0, -1.0, 0.5])
        assert np.array_equal(StateVector.from_rect(s.rect).values, v)

    def test_magnitudes(self):
        assert StateVector(np.array([3.0 + 4.0j])).magnitudes() == [5.0]
        assert StateVector(np.array([2400.0 + 0.0j])).magnitudes() == [2400.0]


class TestSolvePowerFlow:
    def test_zero_load_is_fixed_point(self, six_bus):
        res = solve_power_flow(six_bus, loads={})
        assert res.iterations == 1
        assert np.allclose(res.state.values, slack_state(six_bus).values)

    def test_two_bus_closed_form(self, monkeypatch):
        m = feeder_from_dict(two_bus_doc(r=1.0, x=0.0, p=100_000.0, q=0.0))
        monkeypatch.setattr(powerflow, "TOL_PU", 1e-12 / m.base_voltage)  # 1e-12 V
        res = solve_power_flow(m)
        expected = oracles.two_bus_receiving_voltage(2400.0, 1.0, 100_000.0)
        got = res.state.magnitudes()[m.slot_index(1, "A")]
        # 1e-12 rather than 1e-9: the default 1e-8 p.u. tolerance stops 3e-11 away
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_newton_oracle_six_bus(self, six_bus, six_bus_pf):
        truth = oracles.newton_power_flow(six_bus)
        err = np.max(np.abs(six_bus_pf.state.values - truth.values))
        assert err / six_bus.base_voltage < 1e-6

    def test_matches_newton_oracle_thirteen_bus(self, thirteen_bus, thirteen_bus_pf):
        truth = oracles.newton_power_flow(thirteen_bus)
        err = np.max(np.abs(thirteen_bus_pf.state.values - truth.values))
        assert err / thirteen_bus.base_voltage < 1e-6

    @pytest.mark.parametrize("fixture", ["six_bus", "thirteen_bus"])
    def test_power_balance(self, fixture, request):
        model = request.getfixturevalue(fixture)
        res = solve_power_flow(model)
        s_src, s_load, s_loss = complex_power_balance(model, res)
        slack = 10 * 1e-8 * model.base_voltage * model.power_base / model.base_voltage
        assert abs(s_src - (s_load + s_loss)) < max(slack, 1.0)

    def test_load_override(self, six_bus):
        light = {2: {"A": 1000.0 + 100.0j}}
        res = solve_power_flow(six_bus, loads=light)
        # lighter loading sags less than the fixture loading
        full = solve_power_flow(six_bus)
        assert res.state.magnitudes().min() > full.state.magnitudes().min()

    def test_load_on_missing_phase_rejected(self, thirteen_bus):
        bad = {thirteen_bus.bus_by_label(7): {"B": 1000.0 + 0j}}
        with pytest.raises(PowerFlowError, match="phase"):
            solve_power_flow(thirteen_bus, loads=bad)

    def test_load_without_state_slot_rejected(self, six_bus):
        # bus -1 must not wrap around to the last bus
        with pytest.raises(PowerFlowError, match="slot"):
            solve_power_flow(six_bus, loads={-1: {"A": 5e5}})

    def test_infeasible_load_does_not_converge(self, monkeypatch):
        # beyond the maximum power transfer of the 2-bus line
        m = feeder_from_dict(two_bus_doc(r=1.0, x=0.0, p=2e6, q=0.0))
        monkeypatch.setattr(powerflow, "MAX_ITER", 50)
        with pytest.raises(NotConvergedError) as exc:
            solve_power_flow(m)
        assert exc.value.iterations == 50

    def test_branch_currents_satisfy_ohms_law(self, six_bus, six_bus_pf):
        v = six_bus_pf.state.values
        for br in six_bus.branches:
            vf = np.array([v[six_bus.slot_index(br.from_bus, p)] for p in br.phases])
            vt = np.array([v[six_bus.slot_index(br.to_bus, p)] for p in br.phases])
            i = br.admittance @ (vf - vt)
            assert np.allclose(i, six_bus_pf.branch_currents[br.index], atol=1e-6)

    def test_slack_reference_is_balanced(self, six_bus):
        s = slack_state(six_bus)
        a = s.values[six_bus.slot_index(0, "A")]
        b = s.values[six_bus.slot_index(0, "B")]
        c = s.values[six_bus.slot_index(0, "C")]
        rot = np.exp(-2j * np.pi / 3)
        assert a == pytest.approx(2400.0)
        assert b == pytest.approx(a * rot)
        assert c == pytest.approx(b * rot)


class TestSolveBatch:
    def test_rows_stop_at_their_own_iteration(self, six_bus):
        factors = [0.0, 0.5, 1.0, 1.5]
        s = np.zeros((len(factors), six_bus.n_slots), complex)
        for ld in six_bus.loads:
            for p, value in ld.power.items():
                s[:, six_bus.slot_index(ld.bus, p)] = np.array(factors) * value
        v, iterations, converged, mismatch = solve_batch(six_bus, s)
        assert converged.all() and (mismatch < 1e-8 * six_bus.base_voltage).all()
        assert len(set(iterations.tolist())) > 1
        for row, k in enumerate(factors):
            single = solve_power_flow(
                six_bus, {ld.bus: {p: k * x for p, x in ld.power.items()} for ld in six_bus.loads}
            )
            assert iterations[row] == single.iterations
            assert np.array_equal(v[row], single.state.values)

    def test_nonconverged_row_leaves_the_others_alone(self, monkeypatch):
        m = feeder_from_dict(two_bus_doc())
        monkeypatch.setattr(powerflow, "MAX_ITER", 50)
        slot = m.slot_index(1, "A")
        s = np.zeros((3, m.n_slots), complex)
        s[:, slot] = [1e5, 2e6, 5e4]  # the middle row is beyond maximum power transfer
        v, iterations, converged, _ = solve_batch(m, s)
        assert converged.tolist() == [True, False, True]
        assert iterations[1] == 50
        for row in (0, 2):
            single = solve_power_flow(m, {1: {"A": s[row, slot]}})
            assert iterations[row] == single.iterations
            assert np.array_equal(v[row], single.state.values)

    def test_empty_batch(self, six_bus):
        v, iterations, converged, _ = solve_batch(six_bus, np.zeros((0, six_bus.n_slots), complex))
        assert v.shape == (0, six_bus.n_slots) and len(iterations) == len(converged) == 0


# the 13-bus fixture's first branch couples A-B and branch 3-4 couples B-C: no
# branch couples A with C, yet all 28 free slots form one group
CHAIN_COUPLINGS = {0: [("A", "B")], 2: [("B", "C")]}

SOURCE_ONLY = {"buses": [{"id": 1, "phases": "ABC", "kind": "source", "base_voltage_v": 2400.0}],
               "branches": [], "loads": []}


@pytest.fixture(scope="module")
def sweep_feeders(six_bus, thirteen_bus):
    """Feeders whose Zbus groups differ: per phase, one group, a chain-coupled
    group, a group per subtree of the source, and none."""
    rng = np.random.default_rng(20)
    return {
        "six_bus": six_bus,
        "thirteen_bus": thirteen_bus,
        "thirteen_bus_coupled": oracles.fully_coupled(thirteen_bus),
        "thirteen_bus_chain": oracles.coupled_feeder(thirteen_bus, CHAIN_COUPLINGS),
        **{f"random_tree_{k}": oracles.random_tree_model(rng, n)
           for k, n in enumerate((9, 15, 30))},
        "source_only": feeder_from_dict(SOURCE_ONLY),
    }


class TestGroupedSweep:
    @pytest.mark.parametrize("m", [1, 7, 100])
    @pytest.mark.parametrize("name,scale", [
        ("six_bus", 1), ("six_bus", 12), ("thirteen_bus", 1), ("thirteen_bus", 12),
        ("thirteen_bus_coupled", 1), ("thirteen_bus_chain", 1), ("random_tree_0", 1),
        ("random_tree_1", 1), ("random_tree_2", 1), ("source_only", 1),
    ])
    def test_matches_the_dense_sweep_bytewise(self, sweep_feeders, name, scale, m):
        model = sweep_feeders[name]
        s = oracles.random_loads(model, m, scale, seed=m)
        got, want = solve_batch(model, s), oracles.reference_solve_batch(model, s)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_heavy_loads_leave_rows_unconverged(self, sweep_feeders):
        # the x12 cases above compare rows that stop at MAX_ITER too
        for name in ("six_bus", "thirteen_bus"):
            _, _, converged, _ = solve_batch(sweep_feeders[name], oracles.random_loads(
                sweep_feeders[name], 100, 12, seed=100))
            assert not converged.all()

    def test_source_only_feeder_keeps_the_slack_state(self, sweep_feeders):
        model = sweep_feeders["source_only"]
        assert model.zbus_groups == []
        v, iterations, converged, mismatch = solve_batch(model, np.zeros((4, 3), complex))
        assert np.array_equal(v, np.tile(slack_state(model).values, (4, 1)))
        assert iterations.tolist() == [1] * 4 and converged.all() and not mismatch.any()
