import csv
import dataclasses
import hashlib
import io

import numpy as np
import pytest

import oracles
from conftest import forged_npz, two_bus_doc
from dsse import cli, pipeline, wls
from dsse.fixtures import fixture_path
from dsse.grid_model import feeder_from_dict
from dsse.measurements import (MeasurementSet, RowEvaluator, jacobian_rows, measurement_function,
                               plan_measurements)
from dsse.network import InputEmbedding, TrainConfig, train
from dsse.pipeline import (
    BenchRow,
    Dataset,
    MULTIPLIER_FLOOR,
    LoadProfileConfig,
    Scenario,
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
from dsse.powerflow import (NotConvergedError, StateVector, slack_state, solve_batch,
                            solve_power_flow)
from dsse.wls import UnobservableError, estimate


SMALL_PROFILE = LoadProfileConfig(samples=200, seed=3)
SMALL_TRAIN = TrainConfig(epochs=25, seed=3, patience=25)


def removal_order(template):
    """Scenario 3's keep masks, one per step: pseudo P/Q rows leave one
    (bus, phase) pair at a time, highest first."""
    pseudo = template.noise_kind == "pseudo_power"
    keep = np.ones(len(template), dtype=bool)
    for locus, phase in sorted(set(zip(template.locus[pseudo].tolist(),
                                       template.phase[pseudo].tolist())), reverse=True):
        keep &= ~(pseudo & (template.locus == locus) & (template.phase == phase))
        yield keep.copy()


class TestLoadProfiles:
    def test_multipliers_bounded_and_deterministic(self):
        cfg = LoadProfileConfig(samples=10, seed=0, amplitude=0.15, noise_sigma=0.08)
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        a = sample_multipliers(cfg, rng1, 8)
        b = sample_multipliers(cfg, rng2, 8)
        assert np.array_equal(a, b)
        assert np.all(a >= MULTIPLIER_FLOOR)
        assert np.all(a < 2.5)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            LoadProfileConfig(samples=0)

    @pytest.mark.parametrize("name, value", [
        ("amplitude", np.nan), ("amplitude", -5.0), ("amplitude", 1.5), ("amplitude", np.inf),
        ("noise_sigma", np.nan), ("noise_sigma", -0.1), ("noise_sigma", np.inf), ("seed", -1),
    ])
    def test_bad_shape_or_noise_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            LoadProfileConfig(samples=10, **{name: value})

    def test_noise_sigma_above_one_rejected(self):
        # past 1 the multiplier floor clips a growing share of the draws (58% at 2)
        assert LoadProfileConfig(samples=1, noise_sigma=1.0).noise_sigma == 1.0
        for value in (np.nextafter(1.0, np.inf), 2.0, 5.0, 1e155):
            with pytest.raises(ValueError) as exc:
                LoadProfileConfig(samples=1, noise_sigma=value)
            assert str(exc.value) == f"noise_sigma must be in [0, 1], got {value!r}"

    def test_shape_and_noise_bounds_accepted(self):
        for amplitude, noise_sigma in ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)):
            cfg = LoadProfileConfig(samples=1, amplitude=amplitude, noise_sigma=noise_sigma)
            assert np.all(sample_multipliers(cfg, np.random.default_rng(0), 4) >= MULTIPLIER_FLOOR)


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

    def test_roundtrip(self, six_bus, six_ds, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(six_ds, path)
        back = load_dataset(path, six_bus)
        assert back.template.signature() == six_ds.template.signature()
        assert back.pmu_buses == six_ds.pmu_buses
        assert np.array_equal(back.values, six_ds.values)
        assert np.array_equal(back.features, six_ds.features)
        assert np.array_equal(back.v_true_pu, six_ds.v_true_pu)

    def test_overflowing_variances_rejected(self, six_bus):
        # a template built directly, past Scenario's bound on pseudo noise
        template = plan_measurements(six_bus, [3], pseudo_noise=1e200)
        with pytest.raises(ValueError, match="no row's variance overflows"):
            generate_dataset(six_bus, template, LoadProfileConfig(samples=2), [3])

    @pytest.mark.parametrize("name", ["values", "variances", "v_true_pu"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_arrays_rejected(self, six_bus, six_ds, tmp_path, name, bad):
        path = tmp_path / "ds.npz"
        save_dataset(six_ds, path)
        with forged_npz(path) as (_, arrays):
            arrays[name][3, 1] = bad
        with pytest.raises(ValueError, match="values, variances and labels must be finite"):
            load_dataset(path, six_bus)

    @pytest.mark.parametrize("name, cut, expected", [
        ("v_true_pu", np.s_[:10], r"\(10, 18\), expected \(200, 18\)"),
        ("v_true_pu", np.s_[:, 0], r"\(200,\), expected \(M, 18\)"),
        ("values", np.s_[:10], r"\(10, 54\), expected \(200, 54\)"),
        ("variances", np.s_[:, :-1], r"\(200, 53\), expected \(M, 54\)"),
        ("values", np.s_[:, :-1], r"\(200, 53\), expected \(M, 54\)"),
    ], ids=["labels-rows", "labels-1d", "values-rows", "variances-cols", "values-cols"])
    def test_misshapen_arrays_rejected(self, six_bus, six_ds, tmp_path, name, cut, expected):
        path = tmp_path / "ds.npz"
        save_dataset(six_ds, path)
        with forged_npz(path) as (_, arrays):
            arrays[name] = arrays[name][cut]
        with pytest.raises(ValueError, match=f"^dataset {name} has shape {expected}$"):
            load_dataset(path, six_bus)

    @pytest.mark.parametrize("name, expected", [
        ("seed", "metadata lacks the field 'seed'"),
        ("resampled", "metadata lacks the field 'resampled'"),
        ("values", "lacks the array 'values'"),
        ("variances", "lacks the array 'variances'"),
        ("v_true_pu", "lacks the array 'v_true_pu'"),
        ("template", "lacks the array 'template'"),
    ])
    def test_missing_field_or_array_rejected(self, six_bus, six_ds, tmp_path, capsys, name,
                                             expected):
        path = tmp_path / "ds.npz"
        save_dataset(six_ds, path)
        with forged_npz(path) as (meta, arrays):
            del (meta if name in meta else arrays)[name]
        with pytest.raises(ValueError, match=f"^dataset {expected}$"):
            load_dataset(path, six_bus)
        # dsse train on that file: the same message, exit 2 and no checkpoint
        out = tmp_path / "net.npz"
        assert cli.main(["train", "--feeder", str(fixture_path("six_bus")), "--dataset",
                         str(path), "--out", str(out)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: dataset {expected}\n"
        assert not out.exists()

    def test_loads_five_column_template(self, six_bus, six_ds, tmp_path):
        # files written before the template CSV shared MeasurementSet's
        # writer carry no value/variance columns
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["kind", "locus", "phase", "noise_class", "max_error"])
        for kind, locus, phase, noise, max_error in six_ds.template._keys():
            w.writerow([kind, locus, phase, noise, repr(max_error)])
        path = tmp_path / "ds.npz"
        save_dataset(six_ds, path)
        with forged_npz(path) as (_, arrays):
            arrays["template"] = np.frombuffer(buf.getvalue().encode(), dtype=np.uint8)
        back = load_dataset(path, six_bus)
        assert back.template.signature() == six_ds.template.signature()
        assert np.isnan(back.template.values()).all()
        assert np.isnan(back.template.variances()).all()
        assert np.array_equal(back.values, six_ds.values)

    def test_features_are_derived_not_stored(self, six_bus, six_ds, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(six_ds, path)
        with forged_npz(path) as (meta, arrays):
            assert "features" not in arrays
            assert meta["schema_version"] == 2
            # a schema-1 file stored features of the old embedding; they are ignored
            meta["schema_version"] = 1
            arrays["features"] = np.full_like(six_ds.features, 7.0)
        back = load_dataset(path, six_bus)
        expected = InputEmbedding(six_bus, six_ds.template).embed_values(six_ds.values)
        assert np.array_equal(back.features, expected)
        assert np.array_equal(back.features, six_ds.features)


def _scaled(model, factor):
    """The feeder with every load multiplied by ``factor``."""
    doc = model.to_dict()
    for ld in doc["loads"]:
        ld["power"] = {p: [s * factor for s in pq] for p, pq in ld["power"].items()}
    return feeder_from_dict(doc)


def _fixture_case(request, feeder):
    model = request.getfixturevalue(feeder)
    pmu = [model.bus_by_label(label) for label in {"six_bus": (4,), "thirteen_bus": (1, 12)}[feeder]]
    return model, plan_measurements(model, pmu), pmu


class TestBatchedGeneration:
    """``generate_dataset`` against the per-sample loop it replaced."""

    @pytest.mark.parametrize(
        "feeder,factor", [("six_bus", 1.0), ("six_bus", 12.0),
                          ("thirteen_bus", 1.0), ("thirteen_bus", 1.5)]
    )
    def test_matches_reference_loop(self, request, feeder, factor):
        model, template, pmu = _fixture_case(request, feeder)
        model = _scaled(model, factor)
        profile = LoadProfileConfig(samples=300, seed=4)
        got = generate_dataset(model, template, profile, pmu)
        ref = oracles.reference_generate(model, template, profile, pmu)
        assert got.resampled == ref.resampled
        if factor > 1.0:
            assert got.resampled > 0  # heavy loading takes the resample path
        assert np.max(np.abs(got.v_true_pu - ref.v_true_pu)) <= 1e-12
        assert np.max(np.abs(got.values - ref.values) / np.sqrt(ref.variances)) <= 1e-7
        assert np.max(np.abs(got.variances - ref.variances) / ref.variances) <= 1e-10
        assert got.meta == ref.meta and got.pmu_buses == ref.pmu_buses

    @pytest.mark.parametrize("feeder", ["six_bus", "thirteen_bus"])
    def test_sample_independent_of_dataset_size(self, request, feeder):
        model, template, pmu = _fixture_case(request, feeder)
        big = generate_dataset(model, template, LoadProfileConfig(samples=600, seed=7), pmu)
        for n in (1, 7, 50):
            ds = generate_dataset(model, template, LoadProfileConfig(samples=n, seed=7), pmu)
            for name in ("values", "variances", "v_true_pu", "features"):
                assert getattr(ds, name).tobytes() == getattr(big, name)[:n].tobytes(), (n, name)

    @pytest.mark.parametrize("feeder, factor, digest", [
        ("six_bus", 1.0, "4b1aa5ca9bd231f0988ec8b81272ccfd75658d97704cb0994bb96a68dc2b61fe"),
        ("six_bus", 12.0, "df25bdb323cf950a288ac6370cabfc0fde50624978171661abe74111ebe5f65c"),
        ("thirteen_bus", 1.0, "dd8adc196468764a82ffbe279a1ad2dcd5a64918b76629152d47c5bec84bb8cf"),
    ])
    def test_datasets_bytes_pinned(self, request, feeder, factor, digest):
        # a faster generator must not move one bit of any dataset, and the
        # WLS digests of test_wls.py are taken on generated datasets too. Taken
        # with numpy 2.4 on x86-64 with AVX-512; another build's cos or exp may
        # round differently and need new digests
        model, _, pmu = _fixture_case(request, feeder)
        model = _scaled(model, factor)
        h = hashlib.sha256()
        for scenario in standard_scenarios(pmu):
            template, _ = scenario_template(model, scenario)
            for seed in (4, 2**32 + 7):
                ds = generate_dataset(model, template, LoadProfileConfig(samples=40, seed=seed),
                                      pmu)
                for a in (ds.values, ds.variances, ds.v_true_pu, ds.features):
                    h.update(a.tobytes())
                h.update(np.int64(ds.resampled).tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("feeder, seed", [
        pytest.param("six_bus", 2, id="six_bus"), pytest.param("thirteen_bus", 2, id="thirteen_bus"),
        pytest.param("six_bus", 2**32 + 7, id="six_bus-seed_2**32+7"),
    ])
    def test_batch_rows_equal_single_solves(self, request, feeder, seed):
        model, template, pmu = _fixture_case(request, feeder)
        profile = LoadProfileConfig(samples=40, seed=seed)
        ds = generate_dataset(model, template, profile, pmu)
        assert ds.resampled == 0  # every sample's load draw is its (seed, i, 0) stream
        base = sorted(model.loads, key=lambda ld: ld.bus)
        loads, s = [], np.zeros((40, model.n_slots), complex)
        for i in range(40):
            mult = sample_multipliers(profile, np.random.default_rng([seed, i, 0]), len(base))
            loads.append({ld.bus: {p: v * k for p, v in ld.power.items()}
                          for ld, k in zip(base, mult)})
            for bus, power in loads[-1].items():
                for p, v in power.items():
                    s[i, model.slot_index(bus, p)] = v
        v, iterations, converged, _ = solve_batch(model, s)
        assert converged.all()
        for i in range(40):
            pf = solve_power_flow(model, loads[i])
            assert np.array_equal(v[i], pf.state.values)
            assert iterations[i] == pf.iterations
            assert np.array_equal(ds.v_true_pu[i], pf.state.magnitudes() / model.base_voltage)

    def test_never_converging_load_raises_after_21_attempts(self, monkeypatch):
        # beyond the line's maximum power transfer even at the 0.2 floor multiplier
        model = feeder_from_dict(two_bus_doc(p=1e7))
        rows = []

        def counting(model, s):
            rows.append(len(s))
            return solve_batch(model, s)

        monkeypatch.setattr(pipeline, "solve_batch", counting)
        with pytest.raises(NotConvergedError):
            generate_dataset(model, plan_measurements(model, [0]),
                             LoadProfileConfig(samples=1, seed=0), [0])
        assert sum(rows) == 21

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 3])
    def test_sample_generators_are_numpys_seeding_of_the_triple(self, six_bus, monkeypatch,
                                                                seed):
        # each sample's generator state must be default_rng([seed, i, attempt])'s;
        # the x12 feeder redraws some samples, so attempts past 0 are covered too.
        # Seeds of 2**64 + 5 and 2**96 + 3 give 5 and 6 entropy words, more than
        # SeedSequence's 4-word pool
        states = []

        class PCG64(np.random.PCG64):  # same name, so its state dicts compare equal
            @property
            def state(self):
                return np.random.PCG64.state.__get__(self)

            @state.setter
            def state(self, value):
                states.append(dict(value, state=dict(value["state"])))  # the dict is reused
                np.random.PCG64.state.__set__(self, value)

        model = _scaled(six_bus, 12.0)
        template = plan_measurements(model, [3])
        monkeypatch.setattr(pipeline, "PCG64", PCG64)
        ds = generate_dataset(model, template, LoadProfileConfig(samples=20, seed=seed), [3])
        monkeypatch.undo()
        assert len(states) == 20 + ds.resampled and ds.resampled > 0
        expected = [np.random.default_rng([seed, i, 0]).bit_generator.state for i in range(20)]
        assert states[:20] == expected
        redrawn = {state["state"]["state"] for state in states[20:]}
        assert redrawn <= {np.random.default_rng([seed, i, a]).bit_generator.state["state"]["state"]
                           for i in range(20) for a in range(1, 21)}

    @pytest.mark.parametrize("i, attempt", [(2**32, 0), (0, 2**32)])
    def test_seeding_refuses_an_index_past_one_word(self, i, attempt):
        # default_rng would give such an index two entropy words; a uint32 cast would wrap it
        with pytest.raises(OverflowError, match="does not fit one 32-bit seed word"):
            pipeline._pcg64_states(1, np.array([0, i]), np.array([0, attempt]))
        edge = list(pipeline._pcg64_states(2**64 + 5, np.array([2**32 - 1]),
                                           np.array([2**32 - 1])))
        expected = np.random.default_rng([2**64 + 5, 2**32 - 1, 2**32 - 1]).bit_generator.state
        assert edge == [expected["state"]]


class TestScenarios:
    def test_standard_scenarios(self):
        s1, s2, s3 = standard_scenarios((3,))
        assert s1.pseudo_noise == 0.3 and not s1.make_unobservable
        assert s2.pseudo_noise == 0.5 and not s2.make_unobservable
        assert s3.pseudo_noise == 0.3 and s3.make_unobservable

    def test_pseudo_noise_at_most_one(self):
        assert Scenario("s", (3,), pseudo_noise=1.0).pseudo_noise == 1.0
        for value in (1.5, 1e150):
            with pytest.raises(ValueError) as exc:
                Scenario("s", (3,), pseudo_noise=value)
            assert str(exc.value) == f"pseudo_noise must be <= 1, got {value!r}"

    def test_pseudo_removal_reaches_rank_deficiency(self, six_bus, six_bus_pf):
        template = plan_measurements(six_bus, [3])
        reduced, removed = remove_pseudo_until_unobservable(six_bus, template)
        assert removed > 0
        assert len(reduced) == len(template) - removed
        from dsse.measurements import synthesize

        z = synthesize(reduced, six_bus_pf.state, six_bus, 0)
        with pytest.raises(UnobservableError):
            estimate(six_bus, z)

    @pytest.mark.parametrize(
        "pmu_labels, metered_labels, cause",
        [((4,), (2, 3, 5, 6), "it has no pseudo rows"),
         ((1, 2, 3, 4, 5, 6), (), "it stays observable with all 24 pseudo rows removed")],
    )
    def test_removal_that_cannot_break_observability_names_the_cause(
        self, six_bus, pmu_labels, metered_labels, cause
    ):
        template = plan_measurements(six_bus, [six_bus.bus_by_label(b) for b in pmu_labels],
                                     [six_bus.bus_by_label(b) for b in metered_labels])
        with pytest.raises(ValueError, match=f"unobservable: {cause};"):
            remove_pseudo_until_unobservable(six_bus, template)

    def test_removal_is_minimal_under_its_order(self, six_bus):
        from dsse.measurements import jacobian_rows
        from dsse.powerflow import slack_state

        template = plan_measurements(six_bus, [3])
        reduced, removed = remove_pseudo_until_unobservable(six_bus, template)
        # restoring the last removed pseudo pair restores full rank; the
        # removal loop walks (bus, phase) pairs highest-first, so the last
        # pair dropped is the lowest-ordered one among the missing rows
        kept = set(reduced._keys())
        keys = list(template._keys())
        dropped = [r for r, key in enumerate(keys) if key not in kept]
        last_key = min(keys[r][1:3] for r in dropped)
        last_pair = [r for r in dropped if keys[r][1:3] == last_key]
        assert len(last_pair) == 2
        rows = [r for r, key in enumerate(keys) if key in kept] + last_pair
        H = jacobian_rows(six_bus, slack_state(six_bus), template.select(rows))
        assert np.linalg.matrix_rank(H) == 2 * six_bus.n_slots

    @pytest.mark.parametrize("models", ["six_bus", "thirteen_bus", "random_trees"])
    def test_jacobian_rows_do_not_depend_on_the_other_rows(self, request, models):
        # the removal search tests rows of one flat-start Jacobian in place of
        # the Jacobian of each reduced template: at every step of its order,
        # with a PMU at each bus, the two agree byte for byte
        if models == "random_trees":
            rng = np.random.default_rng(30)
            models = [oracles.random_tree_model(rng, n) for n in (3, 8, 17, 39)]
        else:
            models = [request.getfixturevalue(models)]
        for model in models:
            flat = slack_state(model)
            for pmu in range(len(model.buses)):
                template = plan_measurements(model, [pmu])
                H = jacobian_rows(model, flat, template)
                steps = list(removal_order(template))
                assert steps  # every load is a pseudo row
                for keep in steps:
                    reduced = jacobian_rows(model, flat, template.select(keep))
                    assert H[keep].shape == reduced.shape
                    assert H[keep].tobytes() == reduced.tobytes()

    @pytest.mark.parametrize("feeder, pmu_labels, digest", [
        ("six_bus", (4,), "140baec4f0f611f3b99318a4183d02bd1a8b31e2f57c0ba0f2ecb3e3e5c59536"),
        ("thirteen_bus", (1, 12),
         "706304701f9ffb1cdc3bed2a582b88a6147a94722e2a41c7c79dc0ea654ce79c"),
    ], ids=["six_bus", "thirteen_bus"])
    def test_removal_builds_one_evaluator_and_one_template(self, request, monkeypatch, feeder,
                                                           pmu_labels, digest):
        model = request.getfixturevalue(feeder)
        template = plan_measurements(model, [model.bus_by_label(b) for b in pmu_labels])
        calls = {"init": 0, "select": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(RowEvaluator, "__init__", counted("init", RowEvaluator.__init__))
        monkeypatch.setattr(MeasurementSet, "select", counted("select", MeasurementSet.select))
        reduced, removed = remove_pseudo_until_unobservable(model, template)
        assert calls == {"init": 1, "select": 1}
        # the same rows as a search that rebuilt the Jacobian at each of its 7 steps
        assert removed == 14 and reduced.signature() == digest

    def test_scenario_template_row_classes(self, six_bus):
        template, removed = scenario_template(
            six_bus, Scenario("s", (3,), pseudo_noise=0.5)
        )
        assert removed == 0
        pseudo = set(template.max_error[template.noise_kind == "pseudo_power"].tolist())
        assert pseudo == {0.5}

    @pytest.mark.parametrize(
        "feeder, scenario, bare, realized",
        [
            ("six_bus", 0, "b8aad72e77501c425e471a8b66127f6b15d8b601d981fb046dcbd7588ebbb66c",
             "ddedd928dc93dbe1d3b8ea7cb677b0f461b487a7211dd5c85ddf44c15283ab7e"),
            ("six_bus", 2, "14071c7ddf22c316ef9dbdf48c7582007b8ec6dc244109a4cb777b22d724c8c3",
             "5acc559dff4894e5fab0142fc2b6babc73ee502cd14e5b01b820af2554289475"),
            ("thirteen_bus", 0, "2272e4ec4063df7a9b4860d02069c10718a54be0642a61a23fa2728d5f599e9d",
             "a5904e95a5de234123f04071f516efa144e076adab2aacda43881d1165bec407"),
            ("thirteen_bus", 2, "9aaed0defcbc1db3de25383299f0d5487abb31cf85942f909d74ef68d3bbec77",
             "49bc9f5b8d89bad9823f4efd0ce0884f42824980ddab1b973f60c042fab9c54d"),
        ],
    )
    def test_template_csv_bytes_pinned(self, request, feeder, scenario, bare, realized):
        # datasets embed this text as their template, so its bytes must not drift
        model, _, pmu = _fixture_case(request, feeder)
        template, _ = scenario_template(model, standard_scenarios(pmu)[scenario])
        ds = generate_dataset(model, template, LoadProfileConfig(samples=1, seed=0), pmu)
        for mset, digest in ((template, bare),
                             (template.with_values(ds.values[0], ds.variances[0]), realized)):
            buf = io.StringIO()
            mset.write_csv(buf)
            assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


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
    assert set(template.max_error[template.noise_kind == "zero_injection"].tolist()) == {1e-7}
    for seed in range(5):
        report = estimate(model, synthesize(template, pf.state, model, seed))
        assert report.converged
        err = np.max(np.abs(report.x_hat.magnitudes() - pf.state.magnitudes()))
        assert err / model.base_voltage < 0.05

    reduced, removed = scenario_template(model, s3)
    assert removed > 0
    with pytest.raises(UnobservableError):
        estimate(model, synthesize(reduced, pf.state, model, 0))


def run_counting_train(model, pmu, monkeypatch):
    """``run_scenario`` on scenario 1 at ``pmu``: its rows, its artifacts and the plans it
    trained a network on."""
    plans = []

    def counting_train(plan, *args):
        plans.append(plan)
        return train(plan, *args)

    monkeypatch.setattr(pipeline, "train", counting_train)
    rows, artifacts = run_scenario(model, Scenario("scenario1", pmu), SMALL_PROFILE, SMALL_TRAIN)
    return rows, artifacts, plans


@pytest.fixture(scope="module")
def six_results(six_bus):
    with pytest.MonkeyPatch.context() as mp:  # bus index 3, label 4: pruning changes the plan
        return run_counting_train(six_bus, (3,), mp)


class TestRunScenario:
    def test_row_schema(self, six_results):
        rows, _, _ = six_results
        assert [r.estimator for r in rows] == ["wls", "pawnn", "p2n2"]
        for r in rows:
            assert r.scenario == "scenario1"
            assert r.status == "ok"
            assert r.nu is not None and np.isfinite(r.nu)
            assert r.median_time_s > 0

    def test_nn_beats_nothing_burned(self, six_results):
        rows, _, _ = six_results
        by = {r.estimator: r for r in rows}
        # same data, same seed: the pruned and unpruned nets stay close
        assert by["p2n2"].nu < 10 * by["pawnn"].nu
        assert by["p2n2"].params <= by["pawnn"].params

    def test_unobservable_scenario_marks_wls_failed(self, six_bus):
        scenario = Scenario("scenario3", (3,), pseudo_noise=0.3, make_unobservable=True)
        rows, artifacts = run_scenario(six_bus, scenario, SMALL_PROFILE, SMALL_TRAIN)
        by = {r.estimator: r for r in rows}
        assert by["wls"].status == "unobservable"
        assert by["wls"].nu is None
        assert by["p2n2"].status == "ok"
        assert np.isfinite(by["p2n2"].nu)
        assert artifacts["removed_pseudo"] > 0

    def test_all_wls_samples_failing_is_nonconverged(self, six_bus, monkeypatch):
        scenario = Scenario("scenario1", (3,), pseudo_noise=0.3)
        monkeypatch.setattr(wls, "MAX_ITER", 1)
        rows, artifacts = run_scenario(
            six_bus, scenario, LoadProfileConfig(samples=20, seed=3), SMALL_TRAIN
        )
        (row,) = [r for r in rows if r.estimator == "wls"]
        assert row.status == "nonconverged"
        assert row.nu is None
        assert row.failures == len(artifacts["test_idx"]) > 0
        assert format_report(rows).splitlines()[2].split()[2] == "-"

    def test_equal_plans_train_one_network(self, six_bus, monkeypatch):
        # at PMU label 3 pruning removes nothing: both rows come from one network
        pmu = (six_bus.bus_by_label(3),)
        (_, pawnn, p2n2), _, plans = run_counting_train(six_bus, pmu, monkeypatch)
        assert len(plans) == 1
        assert pawnn == dataclasses.replace(p2n2, estimator="pawnn")

    def test_distinct_plans_train_one_network_each(self, six_results):
        (_, pawnn, p2n2), _, plans = six_results
        assert [plan.pruned for plan in plans] == [False, True]
        assert (pawnn.params, p2n2.params) == (3216, 2560)

    def test_one_slow_sample_does_not_move_a_row_time(self, six_bus, monkeypatch):
        # every sample but the first takes 0.1 ms and the first, descheduled, 100 ms
        def one_slow(run):
            def timed(*args):
                out = list(run(*args))
                out[1] = [0.1] + [1e-4] * (len(out[1]) - 1)  # the per-sample times
                return tuple(out)
            return timed

        for name in ("wls_test_run", "nn_test_run"):
            monkeypatch.setattr(pipeline, name, one_slow(getattr(pipeline, name)))
        scenario = Scenario("scenario1", (six_bus.bus_by_label(3),))
        rows, _ = run_scenario(six_bus, scenario, SMALL_PROFILE, SMALL_TRAIN)
        assert [r.median_time_s for r in rows] == [1e-4] * 3


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

    def test_report_bytes_pinned(self, tmp_path):
        rows = [
            BenchRow("s1", "wls", 0.00123456789, 0.0101, "ok", 2, None),
            BenchRow("s1", "p2n2", 5.5e-05, 0.000125, "ok", 0, 1234),
            BenchRow("s3", "wls", None, None, "unobservable", 20, None),  # nu, time, params None
        ]
        truth = np.linspace(0.95, 1.05, 12).reshape(4, 3)
        traces = {
            # wls has None samples, and p2n2's mean sums the rows in another order
            "s1": {"true": truth, "wls": [truth[0] * 1.01, None, truth[2] / 3, None],
                   "p2n2": list(truth[::-1])},
            # an estimator with no sample gets no column
            "s3": {"true": truth[:2], "wls": [None, None], "pawnn": list(truth[:2] + 1e-3)},
        }
        report(rows, tmp_path, traces)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir()}
        assert digests == {
            "summary.csv": "393ac0cac8236c452c29404014844d12352dc2486ce2b38d10444b25ed45468d",
            "summary.txt": "a04841daf7ddbf1fe8af77be22995c26477c73092263c1bd93962df484e12b99",
            "trace_s1.csv": "a304c74f776544af048f080ee7d0dbc2dbe5bbd0f9d851e162df78d5076e775b",
            "trace_s3.csv": "71f69a6f9336d57f87465a2fcafd3f35a63485b4f3a7958216ca871c07e33d9d",
        }
