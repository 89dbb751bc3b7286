import resource
import statistics

import numpy as np
import pytest

import oracles
from conftest import forged_npz
from dsse.grid_model import feeder_from_dict
from dsse.measurements import (
    I_IMAG,
    I_REAL,
    KIND_CODE,
    V_IMAG,
    V_REAL,
    MeasurementSet,
    plan_measurements,
    synthesize,
    unit_bases,
)
from dsse import network
from dsse.network import (
    CHANNELS_PER_PHASE,
    INPUT_CHANNELS,
    WHOLE,
    InputEmbedding,
    MaskedNetwork,
    TrainConfig,
    TrainingDiverged,
    Workspace,
    evaluate,
    load_checkpoint,
    read_npz,
    save_checkpoint,
    split_indices,
    train,
)
from dsse.partitioning import build_mask_plan, partition_at_pmus
from dsse.pipeline import (
    LoadProfileConfig,
    generate_dataset,
    scenario_template,
    standard_scenarios,
)


def two_bus_model():
    return feeder_from_dict(
        {
            "buses": [
                {"id": 1, "phases": "A", "kind": "source", "base_voltage_v": 2400.0},
                {"id": 2, "phases": "A", "kind": "load", "base_voltage_v": 2400.0},
            ],
            "branches": [
                {"from": 1, "to": 2, "phases": "A", "impedance": [[[0.5, 1.0]]]}
            ],
            "loads": [{"bus": 2, "power": {"A": [20000.0, 8000.0]}}],
        }
    )


def make_plan(model, pmus, block_width, prune=True):
    return build_mask_plan(
        model, partition_at_pmus(model, pmus), block_width=block_width, prune=prune
    )


class TestInputEmbedding:
    def test_zero_values_give_zero_features(self, six_bus, six_bus_pf):
        template = plan_measurements(six_bus, [3])
        emb = InputEmbedding(six_bus, template)
        out = emb.embed_values(np.zeros(len(template)))
        assert out.shape == (6 * INPUT_CHANNELS,)
        assert not out.any()

    def test_source_pmu_current_occupies_downstream_bus(self, six_bus):
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
        template = plan_measurements(m, [0])
        emb = InputEmbedding(m, template)
        feat = emb.embed_values(np.ones(len(template)))
        occupied = {divmod(int(i), INPUT_CHANNELS) for i in np.nonzero(feat)[0]}
        # the PMU's voltage stays at the source, the branch current goes to bus 2
        assert occupied == {(0, 0), (0, 1), (1, 2), (1, 3)}

    def test_scenario_channel_occupancy(self, six_bus, six_bus_pf):
        template = plan_measurements(six_bus, [six_bus.bus_by_label(4)])
        emb = InputEmbedding(six_bus, template)
        z = synthesize(template, six_bus_pf.state, six_bus, 0)
        feat = emb.embed_values(z.values())
        occupancy = {}
        for i in np.nonzero(feat)[0]:
            bus = six_bus.buses[int(i) // INPUT_CHANNELS].label
            kind = int(i) % CHANNELS_PER_PHASE
            occupancy.setdefault(bus, set()).add(kind)
        # channels: 0/1 voltage, 2/3 current, 4/5 power; each branch current
        # sits at its downstream bus (3-4 at 4, 4-5 at 5, 4-6 at 6)
        assert occupancy[4] == {0, 1, 2, 3, 4, 5}  # PMU, current 3-4, zero injection
        for label in (5, 6):
            assert occupancy[label] == {2, 3, 4, 5}  # current + pseudo P/Q
        for label in (2, 3):
            assert occupancy[label] == {4, 5}  # pseudo P/Q only
        assert 1 not in occupancy  # source bus carries no rows here

    @pytest.mark.parametrize("feeder, pmu_labels", [("six_bus", (4,)), ("thirteen_bus", (1, 12))])
    def test_every_row_has_its_own_cell(self, request, feeder, pmu_labels):
        model = request.getfixturevalue(feeder)
        state = request.getfixturevalue(f"{feeder}_pf").state
        pmu = [model.bus_by_label(b) for b in pmu_labels]
        for scenario in standard_scenarios(pmu):
            template, _ = scenario_template(model, scenario)
            z = synthesize(template, state, model, 0)
            feat = InputEmbedding(model, template).embed_values(z.values())
            # oracle cell: a branch row sits at the end farther from the source
            cells = []
            for kind, locus, phase, _, _ in z._keys():
                bus = locus
                if kind in (I_REAL, I_IMAG):
                    br = model.branches[locus]
                    bus = max((br.from_bus, br.to_bus),
                              key=lambda b: oracles.bfs_distance(model, model.source, b))
                phase = "ABC".index(phase)
                cells.append(bus * INPUT_CHANNELS + phase * CHANNELS_PER_PHASE + KIND_CODE[kind])
            assert len(set(cells)) == len(cells), scenario.name
            expected = np.zeros(model.n_buses * INPUT_CHANNELS)
            expected[cells] = z.values() / unit_bases(model, template)
            assert np.array_equal(feat, expected), scenario.name

    def test_shared_cell_rejected(self, six_bus):
        template = plan_measurements(six_bus, [3])
        doubled = template.select(np.r_[np.arange(len(template)), 5])
        with pytest.raises(ValueError, match="row 54 shares an earlier row's input cell"):
            InputEmbedding(six_bus, doubled)

    @pytest.mark.parametrize("feeder, kind, locus, phase", [
        ("six_bus", V_REAL, 6, "A"), ("six_bus", V_REAL, -1, "A"), ("six_bus", I_REAL, 5, "A"),
        ("six_bus", I_IMAG, -2, "A"),
        # bus 6 (label 7) and branch 5, which feeds it, carry phase A only
        ("thirteen_bus", V_IMAG, 6, "C"), ("thirteen_bus", I_REAL, 5, "B"),
    ])
    def test_locus_off_the_feeder_rejected(self, request, feeder, kind, locus, phase):
        # a negative locus would otherwise wrap into another bus's cell, and a
        # phase the locus lacks would fill a cell no trained weight reads
        model = request.getfixturevalue(feeder)
        rows = list(plan_measurements(model, [0])._keys())
        rows[0] = (kind, locus, phase, *rows[0][3:])
        named = rf"measurement row 0 \({kind}, locus {locus}, phase {phase}\) is not on the feeder"
        with pytest.raises(ValueError, match=named):
            InputEmbedding(model, MeasurementSet(*zip(*rows)))

    def test_batched_equals_single(self, six_bus, six_bus_pf):
        template = plan_measurements(six_bus, [3])
        emb = InputEmbedding(six_bus, template)
        vals = np.stack(
            [
                synthesize(template, six_bus_pf.state, six_bus, s).values()
                for s in range(4)
            ]
        )
        batch = emb.embed_values(vals)
        for k in range(4):
            assert np.array_equal(batch[k], emb.embed_values(vals[k]))


class TestForward:
    def test_zero_parameters_output_readout_bias(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        net = MaskedNetwork(plan, six_bus, seed=0)
        net.set_parameters([np.zeros_like(p) for p in net.parameters()])
        out = net.forward(np.ones(net.weights[0].shape[1]))
        assert np.array_equal(out, np.zeros(six_bus.n_slots))

    def test_masked_weights_are_zero(self, six_bus):
        plan = make_plan(six_bus, [3], 3)
        net = MaskedNetwork(plan, six_bus, seed=1)
        for w, m in zip(net.weights, oracles.parameter_masks(net)):
            assert not np.any(w[~m])

    def test_receptive_field_locality(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        net = MaskedNetwork(plan, six_bus, seed=2)
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, net.weights[0].shape[1])
        base = net.forward(x)
        # reachability through the mask chain up to each bus's exit layer
        reach = [np.eye(6, dtype=bool)]
        for mask in plan.masks:
            reach.append(mask @ reach[-1])
        for src in range(6):
            x2 = x.copy()
            cols = slice(src * INPUT_CHANNELS, (src + 1) * INPUT_CHANNELS)
            x2[cols] += rng.normal(0, 1, INPUT_CHANNELS)
            out = net.forward(x2)
            for s, (bus, _) in enumerate(six_bus.slots):
                e = int(plan.exit_layer[bus])
                if not reach[e][bus, src]:
                    assert out[s] == base[s]

    def test_forward_batch_matches_single(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        net = MaskedNetwork(plan, six_bus, seed=3)
        rng = np.random.default_rng(1)
        xs = rng.normal(0, 1, (5, net.weights[0].shape[1]))
        batch = net.forward(xs)
        for k in range(5):
            assert np.allclose(batch[k], net.forward(xs[k]))


class TestGradients:
    @pytest.mark.parametrize("prune", [True, False])
    def test_finite_differences_full_sweep(self, six_bus, prune):
        plan = make_plan(six_bus, [3], 2, prune=prune)
        net = MaskedNetwork(plan, six_bus, seed=4)
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (3, net.weights[0].shape[1]))
        y = rng.normal(1, 0.1, (3, six_bus.n_slots))
        _, grads = net.loss_and_gradients(x, y)
        params = net.parameters()

        # masked entries are compared separately: their analytic gradient is
        # projected to zero while a raw-weight perturbation still moves the loss
        for p, g, m in zip(params, grads, oracles.parameter_masks(net)):
            flat = p.ravel()

            def loss_at(vec, p=p, flat=flat):
                saved = flat.copy()
                flat[:] = vec
                loss, _ = net.loss_and_gradients(x, y)
                flat[:] = saved
                return loss

            fd = oracles.fd_scalar_grad(loss_at, flat.copy(), h=1e-6)
            keep = m.ravel()
            scale = np.maximum(np.abs(fd[keep]), 1e-3)
            assert np.max(np.abs(g.ravel()[keep] - fd[keep]) / scale) < 1e-5

    def test_masked_gradients_exactly_zero(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        net = MaskedNetwork(plan, six_bus, seed=5)
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (4, net.weights[0].shape[1]))
        y = rng.normal(1, 0.1, (4, six_bus.n_slots))
        _, grads = net.loss_and_gradients(x, y)
        for g, m in zip(grads, oracles.parameter_masks(net)):
            assert not np.any(g[~m])

    def test_out_buffer_receives_every_gradient(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        net = MaskedNetwork(plan, six_bus, seed=5)
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (4, net.weights[0].shape[1]))
        y = rng.normal(1, 0.1, (4, six_bus.n_slots))
        loss, grads = net.loss_and_gradients(x, y)
        buf = np.full_like(net.theta, np.nan)  # every entry must be overwritten
        loss_out, grads_out = net.loss_and_gradients(x, y, out=buf)
        assert loss_out == loss
        for g, g_out in zip(grads, grads_out, strict=True):
            assert np.shares_memory(g_out, buf)
            assert g.tobytes() == g_out.tobytes()
        assert not np.shares_memory(grads[0], grads_out[0])

    # the 13-bus plans read every bus from one exit layer (6); the 6-bus p2n2
    # plan at PMU 4 reads from layers 2 and 3, three slots per bus
    @pytest.mark.parametrize("feeder, labels, prune", [
        ("thirteen_bus", (1, 12), True),
        ("thirteen_bus", (1, 12), False),
        ("six_bus", (4,), True),
    ], ids=["True", "False", "six_bus-two_exits"])
    def test_match_dense_reference_bytewise(self, request, feeder, labels, prune):
        model = request.getfixturevalue(feeder)
        pmu = [model.bus_by_label(label) for label in labels]
        net = MaskedNetwork(make_plan(model, pmu, 3, prune=prune), model, seed=6)
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (7, net.weights[0].shape[1]))
        y = rng.normal(1, 0.1, (7, model.n_slots))
        loss, grads = net.loss_and_gradients(x, y)
        ref_loss, ref_grads = oracles.reference_loss_and_gradients(net, x, y)
        assert loss == ref_loss
        assert net.forward(x).tobytes() == oracles.reference_forward(net, x)[0].tobytes()
        for g, ref in zip(grads, ref_grads, strict=True):
            assert g.tobytes() == ref.tobytes()

    # the oracle's dense readout against the gather-and-einsum one it replaced:
    # the same sums, each in the order its products take
    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("feeder, labels, prune", [
        ("thirteen_bus", (1, 12), True),
        ("thirteen_bus", (1, 12), False),
        ("six_bus", (4,), True),
    ], ids=["p2n2", "pawnn", "six_bus-two_exits"])
    def test_dense_readout_matches_einsum_readout(self, request, feeder, labels, prune, rows):
        model = request.getfixturevalue(feeder)
        pmu = [model.bus_by_label(label) for label in labels]
        net = MaskedNetwork(make_plan(model, pmu, 8, prune=prune), model, seed=6)
        rng = np.random.default_rng(rows)
        x = rng.normal(0, 1, (rows, net.weights[0].shape[1]))
        y = rng.normal(1, 0.1, (rows, model.n_slots))
        dense, einsum = (oracles.reference_forward(net, x, readout)[0]
                         for readout in ("dense", "einsum"))
        assert np.abs(dense - einsum).max() <= 1e-15 * np.abs(einsum).max()
        loss, grads = oracles.reference_loss_and_gradients(net, x, y, "dense")
        ref_loss, ref_grads = oracles.reference_loss_and_gradients(net, x, y, "einsum")
        assert abs(loss - ref_loss) <= 1e-15 * ref_loss
        for g, ref in zip(grads, ref_grads, strict=True):
            assert np.abs(g - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_perfect_fit_means_zero_gradients(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        net = MaskedNetwork(plan, six_bus, seed=6)
        x = np.zeros((2, net.weights[0].shape[1]))
        y = np.tile(net.forward(x[0]), (2, 1))
        loss, grads = net.loss_and_gradients(x, y)
        assert loss == 0.0
        assert all(not g.any() for g in grads)


class TestTraining:
    def test_split_is_seeded_partition(self):
        tr, va = split_indices(100, 0.9, 3)
        assert len(tr) == 90 and len(va) == 10
        assert sorted(np.concatenate([tr, va])) == list(range(100))
        tr2, va2 = split_indices(100, 0.9, 3)
        assert np.array_equal(tr, tr2) and np.array_equal(va, va2)

    def test_zero_learning_rate_keeps_init(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (30, 6 * INPUT_CHANNELS))
        y = rng.normal(1, 0.05, (30, six_bus.n_slots))
        cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=9, patience=100)
        net, _, _ = train(plan, six_bus, x, y, cfg)
        init = MaskedNetwork(plan, six_bus, seed=9)
        for a, b in zip(net.parameters(), init.parameters()):
            assert np.array_equal(a, b)

    def test_linear_toy_reaches_least_squares(self):
        model = two_bus_model()
        plan = make_plan(model, [0], 4)
        rng = np.random.default_rng(5)
        n = 400
        x = np.zeros((n, 2 * INPUT_CHANNELS))
        live = [0, 1, INPUT_CHANNELS + 4, INPUT_CHANNELS + 5]
        x[:, live] = rng.normal(1.0, 0.3, (n, len(live)))
        coef = rng.normal(0, 0.2, (len(live), model.n_slots))
        y = 1.0 + x[:, live] @ coef
        cfg = TrainConfig(epochs=400, seed=11, patience=400, batch_size=32)
        net, curve, val_idx = train(plan, model, x, y, cfg)
        # the map is linear and unmasked between these buses: the net can
        # represent it exactly, so held-out loss should approach zero
        rep = evaluate(net, x[val_idx], y[val_idx])
        assert rep.nu < 1e-4

    def test_deterministic_training(self, six_bus, tmp_path):
        plan = make_plan(six_bus, [3], 2)
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, (50, 6 * INPUT_CHANNELS))
        y = rng.normal(1, 0.05, (50, six_bus.n_slots))
        cfg = TrainConfig(epochs=5, seed=13)
        net1, _, _ = train(plan, six_bus, x, y, cfg)
        net2, _, _ = train(plan, six_bus, x, y, cfg)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        template = plan_measurements(six_bus, [3])
        save_checkpoint(net1, p1, [3], template)
        save_checkpoint(net2, p2, [3], template)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "fixture, labels, kind, cfg",
        [
            ("six_bus", (4,), "p2n2",
             dict(epochs=200, patience=3, learning_rate=1e-2, batch_size=32, seed=1)),
            ("thirteen_bus", (1, 12), "p2n2", dict(epochs=20, learning_rate=3e-3, seed=0)),
            ("thirteen_bus", (1, 12), "pawnn", dict(epochs=20, learning_rate=3e-3, seed=3)),
        ],
        ids=["six_bus-early_stop", "thirteen_bus-p2n2", "thirteen_bus-pawnn"],
    )
    def test_matches_reference_trainer_bytewise(self, request, fixture, labels, kind, cfg):
        model = request.getfixturevalue(fixture)
        pmu = [model.bus_by_label(label) for label in labels]
        template = plan_measurements(model, pmu)
        ds = generate_dataset(model, template, LoadProfileConfig(samples=200, seed=5), pmu)
        plan = make_plan(model, pmu, 8, prune=kind == "p2n2")
        config = TrainConfig(**cfg)
        net, curve, val_idx = train(plan, model, ds.features, ds.v_true_pu, config)
        ref, ref_curve, ref_val_idx = oracles.reference_train(
            plan, model, ds.features, ds.v_true_pu, config
        )
        if fixture == "six_bus":
            assert len(curve) < config.epochs  # early stopping fired
        assert curve == ref_curve
        assert np.array_equal(val_idx, ref_val_idx)
        assert net.theta.tobytes() == ref.theta.tobytes()

    def test_masked_entries_stay_zero_after_training(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (60, 6 * INPUT_CHANNELS))
        y = rng.normal(1, 0.05, (60, six_bus.n_slots))
        cfg = TrainConfig(epochs=10, seed=2, learning_rate=1e-2, patience=100)
        net, _, _ = train(plan, six_bus, x, y, cfg)
        masks = oracles.parameter_masks(net)
        for p, m in zip(net.parameters(), masks, strict=True):
            assert np.shares_memory(p, net.theta)
            assert not np.any(p[~m])
        assert len(net.live) == sum(int(m.sum()) for m in masks)
        init = MaskedNetwork(plan, six_bus, seed=2)
        assert not np.array_equal(net.theta[net.live], init.theta[net.live])

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 0), ("epochs", -1), ("batch_size", 0), ("learning_rate", -1e-3),
         ("learning_rate", float("nan")), ("learning_rate", float("inf")),
         ("train_fraction", 0.0), ("train_fraction", 1.0),
         ("train_fraction", 1.5), ("patience", 0), ("patience", -3), ("seed", -1)],
    )
    def test_config_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{field: value})

    def test_too_small_dataset_rejected(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        with pytest.raises(ValueError):
            train(plan, six_bus, np.zeros((1, 6 * INPUT_CHANNELS)),
                  np.zeros((1, six_bus.n_slots)), TrainConfig(epochs=1))

    def test_kept_parameters_are_the_best_epochs(self, six_bus):
        model = six_bus
        pmu = [model.bus_by_label(4)]
        ds = generate_dataset(model, plan_measurements(model, pmu),
                              LoadProfileConfig(samples=200, seed=5), pmu)
        config = TrainConfig(epochs=200, patience=3, learning_rate=1e-2, batch_size=32, seed=1)
        net, curve, val_idx = train(make_plan(model, pmu, 8), model, ds.features, ds.v_true_pu,
                                    config)
        assert len(curve) < config.epochs  # early stopping fired
        # the last `patience` epochs did not improve, so the last one is not kept
        assert net.best_epoch == len(curve) - 1 - config.patience
        assert net.best_loss == curve[net.best_epoch][2]
        assert all(vl >= net.best_loss - 1e-12 for _, _, vl in curve[net.best_epoch + 1 :])
        held_out = evaluate(net, ds.features[val_idx], ds.v_true_pu[val_idx])
        assert held_out.nu == net.best_loss

    def test_untrained_keeps_initialisation_as_best(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (30, 6 * INPUT_CHANNELS))
        y = rng.normal(1, 0.05, (30, six_bus.n_slots))
        net, curve, _ = train(plan, six_bus, x, y, TrainConfig(learning_rate=0.0, epochs=3))
        assert net.best_epoch is None
        assert net.best_loss == curve[0][2]  # unchanged parameters, unchanged loss

    def test_divergence_raises_training_diverged(self, six_bus):
        # pytest turns RuntimeWarning into an error: the overflow on the way
        # must not surface before the trainer's own finite-loss check
        plan = make_plan(six_bus, [3], 2)
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (60, 6 * INPUT_CHANNELS))
        y = rng.normal(1, 0.05, (60, six_bus.n_slots))
        config = TrainConfig(learning_rate=1e300, epochs=20, batch_size=16)
        with pytest.raises(TrainingDiverged, match="loss became"):
            train(plan, six_bus, x, y, config)


class TestInputs:
    """A network reads the feature cells ``inputs`` it is built with; ``train``
    builds one over those its data fills."""

    @pytest.mark.parametrize("f", [2, 3, 8])
    @pytest.mark.parametrize("prune", [True, False], ids=["p2n2", "pawnn"])
    @pytest.mark.parametrize("fixture, labels", [("six_bus", (4,)), ("thirteen_bus", (1, 12))])
    def test_built_as_drawn_in_bus_order_then_permuted(self, request, fixture, labels, prune, f):
        model = request.getfixturevalue(fixture)
        pmu = [model.bus_by_label(label) for label in labels]
        plan = make_plan(model, pmu, f, prune=prune)
        template = plan_measurements(model, pmu)
        filled = InputEmbedding(model, template).embed_values(np.ones(len(template)))
        width = model.n_buses * INPUT_CHANNELS
        for seed, cells in [(0, None), (5, np.flatnonzero(filled)), (1, np.arange(1, width, 3)),
                            (2, [])]:
            net = MaskedNetwork(plan, model, seed, cells)
            theta, mask = oracles.reference_initial_parameters(plan, model, seed, cells)
            assert net.theta.tobytes() == theta.tobytes()
            assert net.mask.tobytes() == mask.tobytes()
            assert net.live.tolist() == np.flatnonzero(mask).tolist()
        # the 13-bus units run in another order than the buses
        assert (net.order != np.arange(model.n_buses)).any() == (fixture == "thirteen_bus")

    @pytest.mark.parametrize("fixture, labels, cells", [
        ("six_bus", (4,), (54, 54, 40)),
        ("thirteen_bus", (1, 12), (80, 80, 66)),
    ])
    def test_train_keeps_the_embedded_cells(self, request, fixture, labels, cells):
        model = request.getfixturevalue(fixture)
        pmu = [model.bus_by_label(label) for label in labels]
        plan = make_plan(model, pmu, 8)
        for scenario, count in zip(standard_scenarios(pmu), cells, strict=True):
            template, _ = scenario_template(model, scenario)
            ds = generate_dataset(model, template, LoadProfileConfig(samples=20, seed=1), pmu)
            net, _, _ = train(plan, model, ds.features, ds.v_true_pu, TrainConfig(epochs=1))
            embedded = InputEmbedding(model, template).embed_values(np.ones(len(template)))
            assert net.inputs.tolist() == np.flatnonzero(embedded).tolist()
            assert len(net.inputs) == count, scenario.name
            assert net.weights[0].shape == (model.n_buses * 8, count)

    @pytest.mark.parametrize("fixture, labels", [("six_bus", (4,)), ("thirteen_bus", (1, 12))])
    def test_restricted_network_matches_the_full_one(self, request, fixture, labels):
        # the same products with the empty cells' terms left out: equal up to
        # the rounding of a shorter sum
        model = request.getfixturevalue(fixture)
        pmu = [model.bus_by_label(label) for label in labels]
        template = plan_measurements(model, pmu)
        cells = np.flatnonzero(InputEmbedding(model, template).embed_values(np.ones(len(template))))
        plan = make_plan(model, pmu, 8)
        full, part = MaskedNetwork(plan, model, seed=0), MaskedNetwork(plan, model, 0, cells)
        dropped = model.n_buses * 8 * (len(full.inputs) - len(cells))
        assert len(part.theta) == len(full.theta) - dropped
        rng = np.random.default_rng(0)
        for rows in (1, 7, 64, 300):
            x = np.zeros((rows, len(full.inputs)))
            x[:, cells] = rng.normal(0, 1, (rows, len(cells)))
            y = rng.normal(1, 0.1, (rows, len(full.slots)))
            out, part_out = full.forward(x), part.forward(x)
            assert np.abs(part_out - out).max() <= 1e-15 * np.abs(out).max()
            loss, grads = full.loss_and_gradients(x, y)
            part_loss, _ = part.loss_and_gradients(x, y, out=(grad := np.empty_like(part.theta)))
            assert abs(part_loss - loss) <= 1e-15 * loss
            grads[0] = grads[0][:, cells]
            kept = np.concatenate([g.ravel() for g in grads])
            assert np.abs(grad - kept).max() <= 1e-15 * np.abs(kept).max()
            assert not np.any(grad[part.mask == 0])

    def test_inputs_keep_the_columns_and_the_rest_of_theta(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        full, net = MaskedNetwork(plan, six_bus, seed=1), MaskedNetwork(plan, six_bus, 1, [5, 40])
        assert net.inputs.tolist() == [5, 40]
        assert net.weights[0].tobytes() == full.weights[0][:, [5, 40]].tobytes()
        assert oracles.parameter_masks(net)[0].tolist() == (
            oracles.parameter_masks(full)[0][:, [5, 40]].tolist())
        for p, q in zip(net.parameters()[1:], full.parameters()[1:], strict=True):
            assert np.shares_memory(p, net.theta) and p.tobytes() == q.tobytes()
        assert net.live.tolist() == np.flatnonzero(net.mask).tolist()

    @pytest.mark.parametrize("cells", [
        [5, 3], [3, 3], [0, 108], [-1, 2], np.array([1.0, 2.0]), np.array([True, False]),
        [[1, 2]], ["a"],
    ], ids=["unsorted", "repeated", "past-the-end", "negative", "floats", "bools", "nested",
            "strings"])
    def test_bad_cells_rejected(self, six_bus, cells):
        with pytest.raises(ValueError, match="input cells must"):
            MaskedNetwork(make_plan(six_bus, [3], 2), six_bus, seed=1, inputs=cells)

    def test_integer_features_read_as_floats(self, six_bus):
        net = MaskedNetwork(make_plan(six_bus, [3], 2), six_bus, seed=1, inputs=[0, 7, 9])
        x = np.arange(3 * 6 * INPUT_CHANNELS).reshape(3, -1) % 5
        assert net.forward(x).tobytes() == net.forward(x.astype(float)).tobytes()
        assert net.forward(x[0]).tobytes() == net.forward(x[0].astype(float)).tobytes()
        loss, _ = net.loss_and_gradients(x, np.ones((3, six_bus.n_slots)))
        assert loss == net.loss_and_gradients(x.astype(float), np.ones((3, six_bus.n_slots)))[0]


class TestBatchShapes:
    """Features are n_buses * INPUT_CHANNELS cells wide and targets one row of
    slot magnitudes per feature row; anything else is a ValueError, not a
    clamped column or a broadcast row."""

    @pytest.mark.parametrize("width", [10, 107, 109, 200])
    def test_feature_width_checked(self, six_bus, width):
        net = MaskedNetwork(make_plan(six_bus, [3], 2), six_bus, seed=1)
        y = np.ones((3, six_bus.n_slots))
        message = rf"features must be of shape \((1|3), 108\), got \(\1, {width}\)"
        for call in (lambda: net.forward(np.ones(width)),
                     lambda: net.forward(np.ones((3, width))),
                     lambda: net.loss_and_gradients(np.ones((3, width)), y),
                     lambda: evaluate(net, np.ones((3, width)), y),
                     lambda: train(net.plan, six_bus, np.ones((3, width)), y)):
            with pytest.raises(ValueError, match=message):
                call()

    # the 6-bus feeder has 18 slots: a one-row target would broadcast, and
    # fewer target rows than feature rows would index past their end
    @pytest.mark.parametrize("shape", [(1, 18), (4, 18), (6, 18), (5, 17), (5, 19), (5,),
                                       (5, 18, 1)],
                             ids=["one-row", "four-rows", "six-rows", "slot-short", "slot-over",
                                  "flat", "three-axes"])
    def test_target_shape_checked(self, six_bus, shape):
        net = MaskedNetwork(make_plan(six_bus, [3], 2), six_bus, seed=1)
        x = np.random.default_rng(0).normal(0, 1, (5, 6 * INPUT_CHANNELS))
        y = np.ones(shape)
        assert six_bus.n_slots == 18
        for call in (lambda: net.loss_and_gradients(x, y), lambda: evaluate(net, x, y),
                     lambda: train(net.plan, six_bus, x, y)):
            with pytest.raises(ValueError, match=r"targets must be of shape \(5, 18\), got"):
                call()


PANEL_PLANS = pytest.mark.parametrize("feeder, labels, prune", [
    ("thirteen_bus", (1, 12), True),
    ("thirteen_bus", (1, 12), False),
    ("six_bus", (4,), True),
], ids=["p2n2", "pawnn", "six_bus-p2n2"])


class TestPanels:
    """Hidden layers multiply panels over the network's banded unit order, with
    the bytes of the whole masked products on that order."""

    def net(self, request, feeder, labels, prune, f=8, inputs=None):
        model = request.getfixturevalue(feeder)
        pmu = [model.bus_by_label(label) for label in labels]
        return MaskedNetwork(make_plan(model, pmu, f, prune=prune), model, 6, inputs)

    # a cost of 0 cuts each hidden layer into its least area, so the 6-bus
    # plan's third layer skips its two dead rows and columns at every count;
    # at F = 16 the 13-bus plan with PMUs at 5, 6 and 10 has several cuts of
    # equal least cost at 34 rows
    @pytest.mark.parametrize("cost", [network.PRODUCT_COST, 0])
    @pytest.mark.parametrize("feeder, labels, prune, f", [
        ("thirteen_bus", (1, 12), True, 8),
        ("thirteen_bus", (1, 12), False, 8),
        ("six_bus", (4,), True, 8),
        ("thirteen_bus", (5, 6, 10), True, 16),
    ], ids=["p2n2", "pawnn", "six_bus-p2n2", "tie-f16"])
    def test_passes_match_whole_products_bytewise(self, request, monkeypatch, feeder, labels,
                                                  prune, f, cost):
        monkeypatch.setattr(network, "PRODUCT_COST", cost)
        net = self.net(request, feeder, labels, prune, f)
        for rows in (1, 7, 34, 44, 64, 300):
            rng = np.random.default_rng(rows)
            x = rng.normal(0, 1, (rows, net.weights[0].shape[1]))
            y = rng.normal(1, 0.1, (rows, len(net.slots)))
            # entries in no panel must come out 0 too, and rows in no panel
            # must not keep what a workspace held
            grad = np.full_like(net.theta, np.nan)
            ws, forward_ws = Workspace(net, rows), Workspace(net, rows, backward=False)
            for pre in ws.pre + forward_ws.pre:
                pre.fill(np.nan)
            loss, grads = net.loss_and_gradients(x, y, out=grad, workspace=ws)
            ref_loss, ref_grads = oracles.reference_loss_and_gradients(net, x, y)
            assert loss == ref_loss
            for g, ref in zip(grads, ref_grads, strict=True):
                assert g.tobytes() == ref.tobytes()
            out = net.forward(x, forward_ws)
            assert out.tobytes() == oracles.reference_forward(net, x)[0].tobytes()
        if feeder == "thirteen_bus" or not cost:
            assert any(panels is not WHOLE for panels, _ in net.panels(300))

    @PANEL_PLANS
    def test_cuts_are_least_cost(self, request, monkeypatch, feeder, labels, prune):
        net = self.net(request, feeder, labels, prune)
        f, n, cost = net.f, net.n_buses, network.PRODUCT_COST
        brute = [oracles.brute_force_cut_areas(mask[np.ix_(net.order, net.order)])
                 for mask in net.plan.masks[1:]]

        def never(*args):
            raise AssertionError("a pass that one product serves ran the cut")

        cut = network.least_cost_cut
        for rows in range(1, 301):
            small = rows * (f * n) ** 2 <= cost
            monkeypatch.setattr(network, "least_cost_cut", never if small else cut)
            for (panels, _), areas in zip(net.panels(rows)[1:], brute, strict=True):
                got = (rows * f * f * areas[0] + cost if panels is WHOLE else
                       sum(rows * (r.stop - r.start) * (c.stop - c.start) + cost
                           for r, c in panels))
                assert got == min(rows * f * f * area + cost * k
                                  for k, area in enumerate(areas, 1))
        assert (f * n) ** 2 <= cost < 300 * (f * n) ** 2  # both kinds of row count ran

    @PANEL_PLANS
    def test_one_row_takes_one_product_per_layer(self, request, feeder, labels, prune):
        net = self.net(request, feeder, labels, prune)
        assert net.panels(1) == [(WHOLE, [])] * net.plan.depth
        assert all(panels is WHOLE for panels, _ in net.panels(1))
        if feeder == "thirteen_bus":  # a 64-row pass cuts every hidden layer in three
            assert [len(panels) for panels, _ in net.panels(64)] == [1] + [3] * 5

    @PANEL_PLANS
    def test_checkpoint_keeps_bus_order(self, request, tmp_path, feeder, labels, prune):
        model = request.getfixturevalue(feeder)
        net = self.net(request, feeder, labels, prune,
                       inputs=np.arange(0, model.n_buses * INPUT_CHANNELS, 2))
        plan, f = net.plan, net.f
        pmu = [model.bus_by_label(label) for label in labels]
        net.theta[net.live] += np.random.default_rng(0).normal(0, 0.1, len(net.live))
        path = tmp_path / "net.npz"
        save_checkpoint(net, path, pmu, plan_measurements(model, pmu))
        _, arrays = read_npz(path)
        cells = [INPUT_CHANNELS] + [f] * (plan.depth - 1)
        for t, (mask, c) in enumerate(zip(plan.masks, cells)):
            keep = np.kron(mask, np.ones((f, c), dtype=bool))
            keep = keep[:, net.inputs] if t == 0 else keep
            w, b = arrays[f"w{t}"], arrays[f"b{t}"]
            assert w[keep].all() and not w[~keep].any()
            assert b[keep.any(axis=1)].all() and not b[~keep.any(axis=1)].any()
        back, _ = load_checkpoint(path, model)
        assert back.theta.tobytes() == net.theta.tobytes()
        x = np.random.default_rng(1).normal(0, 1, (5, INPUT_CHANNELS * model.n_buses))
        assert back.forward(x).tobytes() == net.forward(x).tobytes()


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class TestWorkspace:
    """A workspace serves every pass over exactly its row count, and no other."""

    @pytest.fixture
    def net13(self, thirteen_bus):
        return MaskedNetwork(make_plan(thirteen_bus, [0, 11], 8), thirteen_bus, seed=6)

    def data(self, net, rows, seed=4):
        rng = np.random.default_rng(seed)
        return (rng.normal(0, 1, (rows, net.weights[0].shape[1])),
                rng.normal(1, 0.1, (rows, len(net.slots))))

    def test_interleaved_batch_sizes_match_reference_bytewise(self, net13, six_bus):
        # the 6-bus plan's forward-only workspace gives exit layers 2 and 3
        # their own activation slices and lets layer 1 share a third
        net6 = MaskedNetwork(make_plan(six_bus, [six_bus.bus_by_label(4)], 8), six_bus, seed=6)
        for net in (net13, net6):
            ws = {rows: Workspace(net, rows) for rows in (64, 44, 300)}
            forward_ws = {rows: Workspace(net, rows, backward=False) for rows in (64, 44, 300)}
            grad = np.empty_like(net.theta)
            for rows in (64, 44, 300, 44, 64):
                x, y = self.data(net, rows, seed=rows)
                loss, grads = net.loss_and_gradients(x, y, out=grad, workspace=ws[rows])
                ref_loss, ref_grads = oracles.reference_loss_and_gradients(net, x, y)
                assert loss == ref_loss
                for g, ref in zip(grads, ref_grads, strict=True):
                    assert g.tobytes() == ref.tobytes()
                ref_out = oracles.reference_forward(net, x)[0].tobytes()
                assert net.forward(x, forward_ws[rows]).tobytes() == ref_out
                assert net.forward(x, ws[rows]).tobytes() == ref_out

    def test_held_outputs_survive_later_calls(self, net13):
        ws = Workspace(net13, 64)
        x, y = self.data(net13, 64)
        out = net13.forward(x, ws)
        loss, grads = net13.loss_and_gradients(x, y, workspace=ws)
        held = [out.copy()] + [g.copy() for g in grads]
        x2, y2 = self.data(net13, 64, seed=9)
        net13.forward(x2, ws)
        net13.loss_and_gradients(x2, y2, workspace=ws)
        net13.loss_and_gradients(x2[:10], y2[:10], out=np.empty_like(net13.theta),
                                 workspace=Workspace(net13, 10))
        for now, then in zip([out] + grads, held, strict=True):
            assert now.tobytes() == then.tobytes()
        assert not np.shares_memory(out, net13.forward(x, ws))

    @pytest.mark.parametrize("fixture, labels", [("thirteen_bus", (1, 12)), ("six_bus", (4,))])
    def test_workspaces_made_before_new_parameters_match_fresh_ones(self, request, fixture,
                                                                    labels):
        # the readout matrices are written from ``readout_w`` by every pass, so
        # workspaces used before ``set_parameters`` or an in-place step on theta
        # (what a ``train`` step does) give the bytes of fresh ones
        model = request.getfixturevalue(fixture)
        pmu = [model.bus_by_label(label) for label in labels]
        net = MaskedNetwork(make_plan(model, pmu, 8), model, seed=6)
        old_fwd, old_bwd = Workspace(net, 7, backward=False), Workspace(net, 7)
        x, y = self.data(net, 7)
        net.forward(x, old_fwd)
        net.loss_and_gradients(x, y, workspace=old_bwd)
        rng = np.random.default_rng(3)
        for update in ("set_parameters", "step"):
            if update == "set_parameters":
                net.set_parameters([rng.normal(0, 1, p.shape) for p in net.parameters()])
            else:
                net.theta[net.live] -= rng.normal(0, 0.1, len(net.live))
            fresh_loss, fresh_grads = net.loss_and_gradients(x, y, workspace=Workspace(net, 7))
            loss, grads = net.loss_and_gradients(x, y, workspace=old_bwd)
            assert loss == fresh_loss
            for g, fresh in zip(grads, fresh_grads, strict=True):
                assert g.tobytes() == fresh.tobytes()
            fresh_out = net.forward(x, Workspace(net, 7, backward=False)).tobytes()
            assert net.forward(x, old_fwd).tobytes() == fresh_out
            assert net.forward(x, old_bwd).tobytes() == fresh_out

    def test_misfit_workspace_rejected(self, net13):
        x, y = self.data(net13, 10)
        for rows in (8, 12):  # fewer rows than the pass, and more
            misfit = f"a pass over 10 rows needs a workspace of 10 rows, not {rows}"
            with pytest.raises(ValueError, match=misfit):
                net13.forward(x, Workspace(net13, rows, backward=False))
            with pytest.raises(ValueError, match=misfit):
                net13.loss_and_gradients(x, y, workspace=Workspace(net13, rows))
        with pytest.raises(ValueError, match="forward-only workspace"):
            net13.loss_and_gradients(x, y, workspace=Workspace(net13, 10, backward=False))

    # An array of 128 KiB or more comes from a fresh mmap, whose pages fault in
    # one by one as they are first written (a 300-row, 104-wide layer is 61
    # pages), so a pass that allocated one per layer would fault hundreds of
    # times. A warmed-up workspace pass allocates none and faults (almost) never.

    def test_warm_passes_fault_in_no_pages(self, net13):
        ws = {rows: Workspace(net13, rows) for rows in (64, 44)}
        forward_ws = Workspace(net13, 300, backward=False)
        grad = np.empty_like(net13.theta)
        x, y = self.data(net13, 300)

        def passes():
            for rows in (64, 44):
                net13.loss_and_gradients(x[:rows], y[:rows], out=grad, workspace=ws[rows])
            net13.forward(x, forward_ws)

        passes()
        before = minor_faults()
        for _ in range(20):
            passes()
        assert minor_faults() - before < 20

    def test_warm_training_epochs_fault_in_few_pages(self, thirteen_bus):
        # the workload shape: 600 samples, half held out, 64-row minibatches.
        # The difference of two run lengths leaves out the per-call set-up,
        # whose faults vary by a few hundred; medians of three and a 40-epoch
        # difference keep that variation under 10 per epoch
        plan = make_plan(thirteen_bus, [0, 11], 8)
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (600, 13 * INPUT_CHANNELS))
        y = rng.normal(1, 0.05, (600, thirteen_bus.n_slots))

        def faults(epochs):
            config = TrainConfig(epochs=epochs, patience=epochs + 1, train_fraction=0.5,
                                 learning_rate=3e-3)
            before = minor_faults()
            train(plan, thirteen_bus, x, y, config)
            return minor_faults() - before

        faults(2)
        short = statistics.median(faults(2) for _ in range(3))
        long = statistics.median(faults(42) for _ in range(3))
        assert (long - short) / 40 < 20


class TestEvaluate:
    def test_exact_predictions_zero_nu(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        net = MaskedNetwork(plan, six_bus, seed=7)
        x = np.zeros((3, 6 * INPUT_CHANNELS))
        y = net.forward(x)
        rep = evaluate(net, x, y)
        assert rep.nu == 0.0
        assert rep.n_samples == 3

    def test_single_error_arithmetic(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        net = MaskedNetwork(plan, six_bus, seed=8)
        x = np.zeros((1, 6 * INPUT_CHANNELS))
        y = net.forward(x)
        y[0, 0] += 0.01
        rep = evaluate(net, x, y)
        assert rep.nu == pytest.approx(1e-4)


def one_entry_inf(a):
    """``a`` with its first entry inf, whatever its sign or value."""
    a = a.copy()
    a.flat[0] = np.inf
    return a


class TestCheckpoint:
    def test_roundtrip(self, six_bus, tmp_path):
        template = plan_measurements(six_bus, [3])
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, 6 * INPUT_CHANNELS)
        for kind in ("p2n2", "pawnn"):
            plan = make_plan(six_bus, [3], 2, prune=kind == "p2n2")
            net = MaskedNetwork(plan, six_bus, seed=14)
            path = tmp_path / f"{kind}.npz"
            save_checkpoint(net, path, [3], template)
            back, meta = load_checkpoint(path, six_bus)
            assert back.plan.signature() == plan.signature()
            assert np.array_equal(back.forward(x), net.forward(x))
            assert (meta["kind"], meta["pmu_buses"], meta["block_width"]) == (kind, [3], 2)
            assert meta["template_signature"] == template.signature()

    def test_roundtrip_keeps_inputs(self, six_bus, tmp_path):
        template = plan_measurements(six_bus, [3])
        ds = generate_dataset(six_bus, template, LoadProfileConfig(samples=30, seed=2), [3])
        net, _, _ = train(make_plan(six_bus, [3], 2), six_bus, ds.features, ds.v_true_pu,
                          TrainConfig(epochs=2))
        path = tmp_path / "trained.npz"
        save_checkpoint(net, path, [3], template)
        back, meta = load_checkpoint(path, six_bus)
        assert meta["inputs"] == back.inputs.tolist() == net.inputs.tolist()
        assert len(net.inputs) < 6 * INPUT_CHANNELS
        assert back.theta.tobytes() == net.theta.tobytes()
        assert back.forward(ds.features).tobytes() == net.forward(ds.features).tobytes()

    def test_checkpoint_without_inputs_reads_every_cell(self, six_bus, tmp_path):
        # a file written before networks carried ``inputs`` has W_0 over every cell
        plan = make_plan(six_bus, [3], 2)
        net = MaskedNetwork(plan, six_bus, seed=20)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(net, path, [3], plan_measurements(six_bus, [3]))
        with forged_npz(path) as (meta, _):
            del meta["inputs"]
        back, _ = load_checkpoint(path, six_bus)
        assert back.inputs.tolist() == list(range(6 * INPUT_CHANNELS))
        assert back.theta.tobytes() == net.theta.tobytes()

    def test_plan_mismatch_rejected(self, six_bus, tmp_path):
        # a network saved with PMU buses other than those its plan was cut at
        net = MaskedNetwork(make_plan(six_bus, [3], 2), six_bus, seed=15)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(net, path, [2], plan_measurements(six_bus, [3]))
        with pytest.raises(ValueError, match="plan hash"):
            load_checkpoint(path, six_bus)

    def test_unstamped_layout_rejected(self, six_bus, tmp_path):
        # a checkpoint written before the one-cell-per-row embedding has the
        # same shapes but no layout stamp; it must not load silently
        plan = make_plan(six_bus, [3], 2)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(MaskedNetwork(plan, six_bus, seed=19), path, [3],
                        plan_measurements(six_bus, [3]))
        with forged_npz(path) as (meta, _):
            del meta["input_layout"]
        with pytest.raises(ValueError, match="retrain"):
            load_checkpoint(path, six_bus)

    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("readout_b", lambda a: a[:1]),
            ("w1", lambda a: np.zeros((1, 1))),
            ("b0", lambda a: np.full_like(a, np.nan)),
            ("readout_w", one_entry_inf),
            ("w0", None),
        ],
        ids=["short-readout_b", "tiny-w1", "nan-b0", "inf-readout_w", "missing-w0"],
    )
    def test_invalid_array_rejected(self, six_bus, tmp_path, name, corrupt):
        plan = make_plan(six_bus, [3], 2)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(MaskedNetwork(plan, six_bus, seed=16), path, [3],
                        plan_measurements(six_bus, [3]))
        with forged_npz(path) as (_, arrays):
            if corrupt is None:
                del arrays[name]
            else:
                arrays[name] = corrupt(arrays[name])
        with pytest.raises(ValueError, match=f"parameter {name} "):
            load_checkpoint(path, six_bus)

    def test_set_parameters_validates_before_writing(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        net = MaskedNetwork(plan, six_bus, seed=17)
        before = net.theta.copy()
        params = [p + 1.0 for p in net.parameters()]
        params[-1] = params[-1][:1]
        with pytest.raises(ValueError, match="parameter readout_b "):
            net.set_parameters(params)
        assert net.theta.tobytes() == before.tobytes()
        with pytest.raises(ValueError):
            net.set_parameters(params[:-1])

    def test_set_parameters_masks_entries(self, six_bus):
        plan = make_plan(six_bus, [3], 2)
        net = MaskedNetwork(plan, six_bus, seed=18)
        net.set_parameters([np.ones_like(p) for p in net.parameters()])
        for p, m in zip(net.parameters(), oracles.parameter_masks(net), strict=True):
            assert np.array_equal(p, m.astype(float))
