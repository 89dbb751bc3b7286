"""End-to-end acceptance checks.

Each test class covers one release gate: exact mask structure, partition
correctness against brute-force oracles, WLS estimator fidelity,
unobservability handling, noise-robustness ordering, speed ordering,
parameter reduction, gradient correctness, and power-flow validity.
Every class asserts a wall-clock budget so regressions in runtime fail
loudly too.
"""

import time

import numpy as np
import pytest

import oracles
from conftest import noiseless
from dsse import powerflow
from dsse.grid_model import feeder_from_dict
from dsse.measurements import RowEvaluator, plan_measurements, synthesize
from dsse.network import MaskedNetwork, TrainConfig, Workspace, train, save_checkpoint
from dsse.partitioning import (
    build_mask_plan,
    count_params,
    partition_at_pmus,
    resolution_depth,
)
from dsse.pipeline import (
    LoadProfileConfig,
    generate_dataset,
    run_scenario,
    scenario_template,
    standard_scenarios,
)
from dsse.powerflow import (
    StateVector,
    complex_power_balance,
    slack_state,
    solve_power_flow,
)
from dsse.wls import NonConvergedError, UnobservableError, estimate


def two_bus_doc(r, x, p, q):
    return {
        "buses": [
            {"id": 1, "phases": "A", "kind": "source", "base_voltage_v": 2400.0},
            {"id": 2, "phases": "A", "kind": "load", "base_voltage_v": 2400.0},
        ],
        "branches": [{"from": 1, "to": 2, "phases": "A", "impedance": [[[r, x]]]}],
        "loads": [{"bus": 2, "power": {"A": [p, q]}}],
    }


@pytest.fixture(scope="module")
def six_bench(six_bus):
    """One benchmark pass over the 6-bus fixture: the full-measurement
    scenario and the degraded scenario with pseudo rows removed, both
    evaluated with WLS and both networks (PMU label 4's plans differ, so
    two are trained). Shared by the unobservability and speed gates."""
    t0 = time.perf_counter()
    pmu = [six_bus.bus_by_label(4)]
    profile = LoadProfileConfig(samples=1500, seed=0, amplitude=0.1, noise_sigma=0.04)
    tc = TrainConfig(epochs=200, patience=40, seed=0)
    s1, _, s3 = standard_scenarios(pmu)
    out = {}
    for s in (s1, s3):
        rows, artifacts = run_scenario(six_bus, s, profile, tc, block_width=8)
        out[s.name] = {r.estimator: r for r in rows}
        out[s.name]["artifacts"] = artifacts
    return out, time.perf_counter() - t0


class TestMaskExactness:
    def test_six_bus_plan_structure(self, six_bus):
        t0 = time.perf_counter()
        lbl = six_bus.bus_by_label
        parts = partition_at_pmus(six_bus, [lbl(4)])
        plan = build_mask_plan(six_bus, parts, block_width=1)

        assert plan.depth == 3
        exits = {six_bus.buses[b].label: int(plan.exit_layer[b]) for b in range(6)}
        assert exits == {1: 3, 2: 3, 3: 3, 4: 3, 5: 2, 6: 2}

        adjacency = six_bus.adjacency_pattern()
        assert np.array_equal(plan.masks[0], adjacency)

        pruned_at_2 = {
            (int(i), int(j))
            for i, j in zip(*np.nonzero(adjacency & ~plan.masks[1]))
        }
        assert pruned_at_2 == {
            (lbl(4), lbl(5)),
            (lbl(4), lbl(6)),
            (lbl(5), lbl(4)),
            (lbl(6), lbl(4)),
        }
        assert time.perf_counter() - t0 < 1.0


class TestPartitionOracle:
    def test_six_bus_partitions_and_diameters(self, six_bus):
        parts = sorted(
            partition_at_pmus(six_bus, [six_bus.bus_by_label(4)]),
            key=lambda p: (-len(p.buses), sorted(p.buses)),
        )
        got = [{six_bus.buses[b].label for b in p.buses} for p in parts]
        assert got == [{1, 2, 3, 4}, {4, 5}, {4, 6}]
        assert [resolution_depth(six_bus, p) for p in parts] == [3, 2, 2]

    def test_200_random_trees_match_brute_force(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 31))
            m = oracles.random_tree_model(rng, n)
            k = int(rng.integers(1, n + 1))
            pmus = sorted(rng.choice(n, size=k, replace=False).tolist())
            parts = partition_at_pmus(m, pmus)
            assert {p.buses for p in parts} == oracles.enumerate_partitions(m, pmus)
            for p, d in zip(parts, [resolution_depth(m, p) for p in parts]):
                hop = oracles.subgraph_diameter(m, p.buses)
                if len(p.buses) == 1:
                    assert d == 0
                elif p.buses == p.pmus:
                    assert d == hop
                else:
                    assert d == max(hop, 2)
        assert time.perf_counter() - t0 < 30.0


class TestWlsCorrectness:
    def test_noiseless_recovery_within_1e8_pu(self, six_bus, six_bus_pf):
        template = plan_measurements(six_bus, [six_bus.bus_by_label(4)])
        z = noiseless(template, six_bus_pf.state, six_bus)
        report = estimate(six_bus, z)
        assert report.converged
        err = np.max(np.abs(report.x_hat.rect - six_bus_pf.state.rect))
        assert err / six_bus.base_voltage < 1e-8

    def test_jacobian_matches_finite_differences_100_states(self, six_bus):
        t0 = time.perf_counter()
        template = plan_measurements(six_bus, [six_bus.bus_by_label(4)])
        ev = RowEvaluator(six_bus, template)
        rng = np.random.default_rng(11)
        base = slack_state(six_bus).rect
        for _ in range(100):
            x = base + rng.normal(0, 100, base.shape)
            H = ev.jacobian(StateVector.from_rect(x))
            Hfd = oracles.fd_jacobian(
                lambda xr: ev.h(StateVector.from_rect(xr)), x, h=1e-3
            )
            scale = np.maximum(np.abs(Hfd).max(axis=1, keepdims=True), 1.0)
            assert np.max(np.abs(H - Hfd) / scale) < 1e-6
        assert time.perf_counter() - t0 < 30.0


class TestUnobservabilityDetection:
    def test_wls_fails_deterministically_when_pseudo_removed(
        self, six_bus, six_bus_pf
    ):
        pmu = [six_bus.bus_by_label(4)]
        _, _, s3 = standard_scenarios(pmu)
        template, removed = scenario_template(six_bus, s3)
        assert removed > 0
        for seed in range(3):
            z = synthesize(template, six_bus_pf.state, six_bus, seed)
            with pytest.raises(UnobservableError):
                estimate(six_bus, z)

    def test_pruned_network_still_estimates(self, six_bench):
        out, elapsed = six_bench
        wls3 = out["scenario3"]["wls"]
        assert wls3.status == "unobservable"
        assert wls3.nu is None

        nu1 = out["scenario1"]["p2n2"].nu
        nu3 = out["scenario3"]["p2n2"].nu
        assert out["scenario3"]["p2n2"].status == "ok"
        assert np.isfinite(nu3)
        assert nu3 <= 1.5 * nu1
        assert elapsed < 600.0


class TestNoiseRobustnessOrdering:
    def test_thirteen_bus_pseudo_noise_sweep(self, thirteen_bus):
        t0 = time.perf_counter()
        pmu = [thirteen_bus.bus_by_label(1), thirteen_bus.bus_by_label(12)]
        profile = LoadProfileConfig(
            samples=2000, seed=0, amplitude=0.1, noise_sigma=0.04
        )
        tc = TrainConfig(epochs=300, patience=50, seed=0)
        s1, s2, _ = standard_scenarios(pmu)
        nus = {}
        for s in (s1, s2):
            rows, _ = run_scenario(thirteen_bus, s, profile, tc, block_width=8)
            for r in rows:
                assert r.status == "ok"
                nus[(s.name, r.estimator)] = r.nu

        wls_ratio = nus[("scenario2", "wls")] / nus[("scenario1", "wls")]
        nn_ratio = nus[("scenario2", "p2n2")] / nus[("scenario1", "p2n2")]
        assert wls_ratio >= 2.0
        assert abs(nn_ratio - 1.0) < 0.25
        assert time.perf_counter() - t0 < 900.0


class TestSpeedOrdering:
    def test_network_inference_at_least_10x_faster_than_wls(self, six_bus, six_bench):
        out, elapsed = six_bench
        wls = out["scenario1"]["wls"]
        nn = out["scenario1"]["p2n2"]
        assert wls.median_time_s > 0 and nn.median_time_s > 0
        # time both estimators again, interleaved sample by sample on the same
        # scenario-1 test samples, so that a slow spell on a shared host slows
        # both alike. Each timed call repeats an untimed one on the same
        # sample: a call that follows the other estimator runs on caches that
        # estimator filled, which costs the 50 us forward pass about twice its
        # time, while a stream of estimates keeps its own working set warm
        artifacts = out["scenario1"]["artifacts"]
        template, ds, net = artifacts["template"], artifacts["dataset"], artifacts["net_p2n2"]
        ws = Workspace(net, 1, backward=False)
        t_wls, t_nn = [], []
        for i in artifacts["test_idx"]:
            z = template.with_values(ds.values[i], ds.variances[i])
            for _ in range(2):  # the second call is timed
                t0 = time.perf_counter()
                try:
                    estimate(six_bus, z)
                except NonConvergedError:
                    pass
                t = time.perf_counter() - t0
            t_wls.append(t)
            for _ in range(2):
                t0 = time.perf_counter()
                net.forward(ds.features[i], ws)
                t = time.perf_counter() - t0
            t_nn.append(t)
        assert np.mean(t_nn) <= 0.1 * np.mean(t_wls), (
            f"WLS / network time {np.mean(t_wls) / np.mean(t_nn):.2f}x, under the 10x bound")
        assert elapsed < 300.0


class TestParameterReduction:
    def test_six_bus_layer_deficits_match_hand_count(self, six_bus):
        t0 = time.perf_counter()
        parts = partition_at_pmus(six_bus, [six_bus.bus_by_label(4)])
        plan = build_mask_plan(six_bus, parts, block_width=1)
        counts = count_params(plan)

        # adjacency: 6 self-loops + 10 directed neighbor entries
        assert int(plan.adjacency.sum()) == 16
        # layer 2 drops the 4 entries between the metered hub and its two
        # resolved leaves; layer 3 additionally drops the leaves' diagonal
        # entries and their biases
        assert int(plan.masks[0].sum()) == 16
        assert int(plan.masks[1].sum()) == 12
        assert int(plan.masks[2].sum()) == 10
        assert counts.pawnn_params == 3 * (16 + 6)
        assert counts.p2n2_params == (16 + 6) + (12 + 6) + (10 + 4)
        assert counts.p2n2_params < counts.pawnn_params
        assert time.perf_counter() - t0 < 10.0

    def test_random_trees_pruned_never_larger(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 26))
            m = oracles.random_tree_model(rng, n)
            k = int(rng.integers(1, n + 1))
            pmus = sorted(rng.choice(n, size=k, replace=False).tolist())
            plan = build_mask_plan(m, partition_at_pmus(m, pmus), block_width=3)
            counts = count_params(plan)
            assert counts.p2n2_params <= counts.pawnn_params


class TestGradientSuite:
    def test_full_finite_difference_sweep_width_2(self, six_bus):
        t0 = time.perf_counter()
        parts = partition_at_pmus(six_bus, [six_bus.bus_by_label(4)])
        plan = build_mask_plan(six_bus, parts, block_width=2)
        net = MaskedNetwork(plan, six_bus, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (3, net.weights[0].shape[1]))
        y = rng.normal(1, 0.1, (3, six_bus.n_slots))
        _, grads = net.loss_and_gradients(x, y)

        for p, g, mask in zip(net.parameters(), grads, oracles.parameter_masks(net)):
            # masked entries must carry exactly zero gradient
            assert not np.any(g[~mask])
            flat = p.ravel()

            def loss_at(vec, flat=flat):
                saved = flat.copy()
                flat[:] = vec
                loss, _ = net.loss_and_gradients(x, y)
                flat[:] = saved
                return loss

            fd = oracles.fd_scalar_grad(loss_at, flat.copy(), h=1e-6)
            keep = mask.ravel()
            # relative to the tensor's largest gradient component, which
            # keeps finite-difference roundoff on near-zero entries from
            # dominating the comparison
            denom = max(float(np.abs(fd[keep]).max()), 1e-6)
            assert np.max(np.abs(g.ravel()[keep] - fd[keep])) / denom < 1e-5
        assert time.perf_counter() - t0 < 120.0

    def test_identical_seeds_reproduce_identical_checkpoints(
        self, six_bus, tmp_path
    ):
        t0 = time.perf_counter()
        pmu = [six_bus.bus_by_label(4)]
        template = plan_measurements(six_bus, pmu)
        profile = LoadProfileConfig(samples=200, seed=2)
        ds = generate_dataset(six_bus, template, profile, pmu)
        plan = build_mask_plan(six_bus, partition_at_pmus(six_bus, pmu), block_width=2)
        cfg = TrainConfig(epochs=15, seed=9, patience=15)

        paths = []
        for name in ("a.npz", "b.npz"):
            net, _, _ = train(plan, six_bus, ds.features, ds.v_true_pu, cfg)
            path = tmp_path / name
            save_checkpoint(net, path, pmu, template)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert time.perf_counter() - t0 < 120.0


class TestPowerFlowValidity:
    def test_zero_load_flat_profile_is_fixed_point(self, six_bus):
        res = solve_power_flow(six_bus, loads={})
        assert res.iterations == 1
        assert np.allclose(res.state.values, slack_state(six_bus).values)

    def test_two_bus_quadratic_closed_form(self, monkeypatch):
        t0 = time.perf_counter()
        m = feeder_from_dict(two_bus_doc(r=1.0, x=0.0, p=100_000.0, q=0.0))
        monkeypatch.setattr(powerflow, "TOL_PU", 1e-12 / m.base_voltage)  # 1e-12 V
        res = solve_power_flow(m)
        expected = oracles.two_bus_receiving_voltage(2400.0, 1.0, 100_000.0)
        got = res.state.magnitudes()[m.slot_index(1, "A")]
        # 1e-12 rather than 1e-9: the default 1e-8 p.u. tolerance stops 3e-11 away
        assert got == pytest.approx(expected, rel=1e-12)
        assert time.perf_counter() - t0 < 10.0

    @pytest.mark.parametrize("fixture", ["six_bus", "thirteen_bus"])
    def test_power_balance_within_10x_tolerance(self, fixture, request):
        model = request.getfixturevalue(fixture)
        res = solve_power_flow(model)
        s_src, s_load, s_loss = complex_power_balance(model, res)
        slack = 10 * 1e-8 * model.power_base
        assert abs(s_src - (s_load + s_loss)) < max(slack, 1.0)
