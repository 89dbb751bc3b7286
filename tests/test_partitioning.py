import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dsse import partitioning
from dsse.grid_model import feeder_from_dict
from dsse.network import MaskedNetwork
from dsse.partitioning import (
    MaskPlan,
    Partition,
    build_mask_plan,
    count_params,
    export_mask_plan,
    least_cost_cut,
    partition_at_pmus,
    rcm_order,
    resolution_depth,
)


def star_model(n_leaves=4):
    doc = {
        "buses": [
            {"id": 1, "phases": "A", "kind": "source", "base_voltage_v": 2400.0}
        ]
        + [
            {"id": i + 2, "phases": "A", "kind": "load", "base_voltage_v": 2400.0}
            for i in range(n_leaves)
        ],
        "branches": [
            {"from": 1, "to": i + 2, "phases": "A", "impedance": [[[0.3, 0.6]]]}
            for i in range(n_leaves)
        ],
        "loads": [
            {"bus": i + 2, "power": {"A": [1000.0, 0.0]}} for i in range(n_leaves)
        ],
    }
    return feeder_from_dict(doc)


class TestPartitioning:
    def test_six_bus_pmu_4(self, six_bus):
        parts = partition_at_pmus(six_bus, [six_bus.bus_by_label(4)])
        got = {frozenset(six_bus.buses[b].label for b in p.buses) for p in parts}
        assert got == {
            frozenset({1, 2, 3, 4}),
            frozenset({4, 5}),
            frozenset({4, 6}),
        }

    def test_six_bus_diameters(self, six_bus):
        parts = sorted(
            partition_at_pmus(six_bus, [six_bus.bus_by_label(4)]),
            key=lambda p: (-len(p.buses), sorted(p.buses)),
        )
        assert [resolution_depth(six_bus, p) for p in parts] == [3, 2, 2]

    def test_pmu_everywhere(self, six_bus):
        parts = partition_at_pmus(six_bus, list(range(6)))
        # every branch becomes its own two-bus partition
        assert len(parts) == 5
        assert all(len(p.buses) == 2 and p.buses == p.pmus for p in parts)
        assert all(resolution_depth(six_bus, p) <= 1 for p in parts)

    def test_thirteen_bus_matches_enumeration_oracle(self, thirteen_bus):
        pmus = [thirteen_bus.bus_by_label(1), thirteen_bus.bus_by_label(5)]
        parts = partition_at_pmus(thirteen_bus, pmus)
        got = {p.buses for p in parts}
        assert got == oracles.enumerate_partitions(thirteen_bus, pmus)

    def test_partitions_cover_buses_and_branches(self, thirteen_bus):
        pmus = [thirteen_bus.bus_by_label(5), thirteen_bus.bus_by_label(10)]
        parts = partition_at_pmus(thirteen_bus, pmus)
        covered = set().union(*(p.buses for p in parts))
        assert covered == set(range(13))
        for br in thirteen_bus.branches:
            assert any(
                br.from_bus in p.buses and br.to_bus in p.buses for p in parts
            )

    def test_rejects_bad_input(self, six_bus):
        with pytest.raises(ValueError):
            partition_at_pmus(six_bus, [])
        with pytest.raises(KeyError):
            partition_at_pmus(six_bus, [17])

    def test_single_bus_partition_depth_zero(self, six_bus):
        assert resolution_depth(six_bus, Partition(frozenset({2}), frozenset())) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.data())
    def test_random_trees_match_oracle(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        m = oracles.random_tree_model(rng, n)
        k = data.draw(st.integers(1, n))
        pmus = sorted(rng.choice(n, size=k, replace=False).tolist())
        parts = partition_at_pmus(m, pmus)
        assert {p.buses for p in parts} == oracles.enumerate_partitions(m, pmus)
        for p in parts:
            hop = oracles.subgraph_diameter(m, p.buses)
            d = resolution_depth(m, p)
            if len(p.buses) == 1:
                assert d == 0
            elif p.buses == p.pmus:
                assert d == hop
            else:
                assert d == max(hop, 2)


@pytest.fixture(scope="module")
def six_plan(six_bus):
    parts = partition_at_pmus(six_bus, [six_bus.bus_by_label(4)])
    return build_mask_plan(six_bus, parts, block_width=1)


class TestMaskPlan:
    def test_depth_and_exit_layers(self, six_bus, six_plan):
        assert six_plan.depth == 3
        by_label = {
            six_bus.buses[b].label: six_plan.exit_layer[b] for b in range(6)
        }
        assert by_label == {1: 3, 2: 3, 3: 3, 4: 3, 5: 2, 6: 2}

    def test_layer1_mask_is_adjacency(self, six_bus, six_plan):
        assert np.array_equal(six_plan.masks[0], six_bus.adjacency_pattern())

    def test_layer2_mask_prunes_pmu_leaf_pairs(self, six_bus, six_plan):
        lbl = six_bus.bus_by_label
        diff = six_bus.adjacency_pattern() & ~six_plan.masks[1]
        pruned = {(int(i), int(j)) for i, j in zip(*np.nonzero(diff))}
        assert pruned == {
            (lbl(4), lbl(5)),
            (lbl(4), lbl(6)),
            (lbl(5), lbl(4)),
            (lbl(6), lbl(4)),
        }

    def test_layer3_mask_keeps_only_unresolved_partition(self, six_bus, six_plan):
        lbl = six_bus.bus_by_label
        m3 = six_plan.masks[2]
        keep = {lbl(k) for k in (1, 2, 3, 4)}
        for i in range(6):
            for j in range(6):
                if m3[i, j]:
                    assert i in keep and j in keep

    def test_star_feeder(self):
        m = star_model()
        parts = partition_at_pmus(m, [0])
        plan = build_mask_plan(m, parts, block_width=1)
        assert plan.depth == 2
        assert all(plan.exit_layer == 2)

    def test_unpruned_plan_is_uniform(self, six_bus):
        parts = partition_at_pmus(six_bus, [six_bus.bus_by_label(4)])
        plan = build_mask_plan(six_bus, parts, block_width=2, prune=False)
        assert all(
            np.array_equal(mask, six_bus.adjacency_pattern()) for mask in plan.masks
        )
        assert all(plan.exit_layer == plan.depth)

    def test_signature_changes_with_structure(self, six_bus, six_plan):
        parts = partition_at_pmus(six_bus, [six_bus.bus_by_label(2)])
        other = build_mask_plan(six_bus, parts, block_width=1)
        assert other.signature() != six_plan.signature()

    @pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
    def test_export_roundtrip(self, six_bus, prune, tmp_path):
        parts = partition_at_pmus(six_bus, [six_bus.bus_by_label(4)])
        plan = build_mask_plan(six_bus, parts, block_width=1, prune=prune)
        path = tmp_path / "plan.json"
        export_mask_plan(plan, path)
        doc = json.loads(path.read_text())
        # each pair's lifetime is the deepest layer that lists it
        life = np.zeros((doc["n_buses"], doc["n_buses"]), dtype=int)
        for t, i, j in doc["entries"]:
            life[i, j] = max(life[i, j], t)
        back = MaskPlan(life, doc["block_width"], doc["pruned"])
        assert doc["depth"] == back.depth == plan.depth
        assert doc["exit_layer"] == back.exit_layer.tolist() == plan.exit_layer.tolist()
        assert doc["entries"] == sorted(doc["entries"])
        assert len(doc["entries"]) == sum(int(m.sum()) for m in plan.masks)
        assert back.signature() == plan.signature()

    @pytest.mark.parametrize("feeder,pmu_labels,prune,digest", [
        ("six_bus", (4,), True,
         "562ef21cdeaf8388b4119a5b1e82858f6d420dd19e44cf37e41a660bff6a647d"),
        ("six_bus", (4,), False,
         "6202de257907d64ef0acb40608ea849ccaa7ab3bf374a8c039206dc5b7cdca4d"),
        ("thirteen_bus", (1, 12), True,
         "68c38f93b2fad529f7ffd96d3863413878a0a53ff5cbb8cdb38b957cc7094fbd"),
        ("thirteen_bus", (1, 12), False,
         "c8fa58416924ad259003e1e3d934e806b884ce1dd5f848790d028b068834ad13"),
    ])
    def test_signature_bytes_pinned(self, request, feeder, pmu_labels, prune, digest):
        # checkpoints store this signature: a plan that hashes otherwise
        # would refuse every checkpoint trained before it
        model = request.getfixturevalue(feeder)
        parts = partition_at_pmus(model, [model.bus_by_label(b) for b in pmu_labels])
        plan = build_mask_plan(model, parts, block_width=8, prune=prune)
        assert hashlib.sha256(plan.signature().encode()).hexdigest() == digest

    def test_export_bytes_pinned(self, thirteen_bus, tmp_path):
        parts = partition_at_pmus(thirteen_bus, [thirteen_bus.bus_by_label(b) for b in (1, 12)])
        path = tmp_path / "plan.json"
        export_mask_plan(build_mask_plan(thirteen_bus, parts, block_width=8), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "43ae45a2ef5e66692c688fe982013151423cdef8adc1b0b88bfbc16934a308eb")

    def test_parts_derive_from_life(self, six_plan):
        life = six_plan.life
        assert not life.flags.writeable
        assert np.array_equal(six_plan.adjacency, life > 0)
        assert np.array_equal(six_plan.exit_layer, np.diag(life))
        assert six_plan.depth == life.max() == len(six_plan.masks)
        for t, mask in enumerate(six_plan.masks, start=1):
            assert np.array_equal(mask, life >= t)
        again = MaskPlan(life, six_plan.block_width, six_plan.pruned)
        assert again.signature() == six_plan.signature()

    @pytest.mark.parametrize("life, width", [
        (np.ones((2, 3), dtype=int), 1),  # not square
        (np.array([[1, -1], [-1, 1]]), 1),  # negative
        (np.array([[1, 1], [1, 0]]), 1),  # a bus with no exit layer
        (np.ones(3, dtype=int), 1),  # not a matrix
        (np.ones((2, 2), dtype=int), 0),  # no channels
        (np.array([[1, 2], [1, 1]]), 1),  # not symmetric
    ])
    def test_rejects_what_is_not_a_lifetime_matrix(self, life, width):
        with pytest.raises(ValueError):
            MaskPlan(life, width, True)

    @pytest.mark.parametrize("feeder,pmu_labels", [
        ("six_bus", (4,)), ("six_bus", (2, 5)), ("six_bus", (1, 2, 3, 4, 5, 6)),
        ("thirteen_bus", (1, 12)), ("thirteen_bus", (3, 7, 10)),
    ])
    def test_one_hop_diameter_per_partition(self, request, monkeypatch, feeder, pmu_labels):
        model = request.getfixturevalue(feeder)
        parts = partition_at_pmus(model, [model.bus_by_label(b) for b in pmu_labels])
        self._check_hop_calls(monkeypatch, model, parts)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 25), st.data())
    def test_one_hop_diameter_per_partition_random_trees(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        m = oracles.random_tree_model(rng, n)
        k = data.draw(st.integers(1, n))
        pmus = sorted(rng.choice(n, size=k, replace=False).tolist())
        with pytest.MonkeyPatch.context() as mp:
            self._check_hop_calls(mp, m, partition_at_pmus(m, pmus))

    @staticmethod
    def _check_hop_calls(monkeypatch, model, parts):
        # one hop diameter per partition, and the plan built from the
        # brute-force diameters is the plan built from the package's own
        plans = [build_mask_plan(model, parts, block_width=2, prune=p) for p in (True, False)]
        calls = []

        def oracle_hop(m, buses):
            calls.append(buses)
            return oracles.subgraph_diameter(m, buses)

        monkeypatch.setattr(partitioning, "_hop_diameter", oracle_hop)
        for plan in plans:
            calls.clear()
            again = build_mask_plan(model, parts, block_width=2, prune=plan.pruned)
            assert len(calls) == len(parts)
            assert again.signature() == plan.signature()

    def test_rejects_bad_block_width(self, six_bus):
        parts = partition_at_pmus(six_bus, [3])
        with pytest.raises(ValueError):
            build_mask_plan(six_bus, parts, block_width=0)


class TestPanels:
    """The reverse Cuthill-McKee order and the least-cost cuts into panels."""

    # the 6-bus feeder is as narrow in file order, which it keeps
    @pytest.mark.parametrize("feeder, pmu_labels, order, band, file_band", [
        ("six_bus", (4,), [0, 1, 2, 3, 4, 5], 2, 2),
        ("thirteen_bus", (1, 12), [12, 10, 8, 9, 7, 4, 6, 3, 5, 2, 11, 1, 0], 3, 10),
    ])
    def test_rcm_order_and_bandwidth_pinned(self, request, feeder, pmu_labels, order, band,
                                            file_band):
        model = request.getfixturevalue(feeder)
        pmu = [model.bus_by_label(b) for b in pmu_labels]
        for prune in (True, False):
            plan = build_mask_plan(model, partition_at_pmus(model, pmu), prune=prune)
            net_order = MaskedNetwork(plan, model).order
            assert net_order.tolist() == order
            assert oracles.bandwidth(plan.adjacency, net_order) == band
            assert oracles.bandwidth(plan.adjacency, np.arange(model.n_buses)) == file_band

    def test_rcm_order_visits_every_component_and_narrows_the_band(self):
        adjacency = np.eye(5, dtype=bool)
        adjacency[0, 4] = adjacency[4, 0] = adjacency[1, 3] = adjacency[3, 1] = True
        order = partitioning.rcm_order(adjacency)
        assert sorted(order.tolist()) == list(range(5))
        assert oracles.bandwidth(adjacency, order) == 1 < oracles.bandwidth(adjacency, range(5))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 10), st.data(), st.booleans())
    def test_cuts_cover_live_entries_with_least_area(self, n, data, prune):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        m = oracles.random_tree_model(rng, n)
        k = data.draw(st.integers(1, n))
        plan = build_mask_plan(m, partition_at_pmus(m, sorted(rng.choice(n, size=k,
                                                                      replace=False).tolist())),
                               prune=prune)
        order = rcm_order(plan.adjacency)
        assert sorted(order.tolist()) == list(range(n))
        for mask in plan.masks:
            banded = mask[np.ix_(order, order)]
            assert np.array_equal(banded, banded.T)  # a cut by rows is one by columns
            brute = oracles.brute_force_cut_areas(banded)
            for run_cost in (0, 1, 7, 1e12):
                cut = least_cost_cut(banded, 1, run_cost)
                assert sum((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in cut) + (
                    run_cost * len(cut)) == min(area + run_cost * count
                                                for count, area in enumerate(brute, 1))
                covered = np.zeros(banded.shape, dtype=int)
                for r0, r1, c0, c1 in cut:
                    covered[r0:r1, c0:c1] += 1
                    assert banded[r0].any() and banded[r1 - 1].any()  # runs end on live rows
                assert covered.max() == 1 and not np.any(banded & (covered == 0))

    def test_six_bus_third_layer_drops_its_dead_rows(self, six_plan):
        # the two leaves exit at layer 2, so layer 3 has neither their rows nor their columns
        order = rcm_order(six_plan.adjacency)
        assert least_cost_cut(six_plan.masks[2][np.ix_(order, order)], 1, 1e12) == (
            (0, 4, 0, 4),)
        dead = order[4:]
        assert not six_plan.masks[2][dead].any() and not six_plan.masks[2][:, dead].any()


def assert_same_plan(got, want):
    assert got.signature() == want.signature()
    assert got.depth == want.depth and got.pruned == want.pruned
    assert got.exit_layer.dtype == want.exit_layer.dtype
    assert np.array_equal(got.exit_layer, want.exit_layer)
    assert len(got.masks) == len(want.masks)
    for a, b in zip(got.masks, want.masks):
        assert a.dtype == b.dtype == bool
        assert np.array_equal(a, b)
    # every mask is its own array, never a view of a shared one
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(got.masks, 2))


class TestReferencePlan:
    """The lifetime-matrix plan equals the pair-loop plan it replaced."""

    @pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
    @pytest.mark.parametrize("feeder", ["six_bus", "thirteen_bus"])
    def test_every_small_pmu_set(self, request, feeder, prune):
        model = request.getfixturevalue(feeder)
        for k in (1, 2, 3):
            for pmus in itertools.combinations(range(model.n_buses), k):
                parts = partition_at_pmus(model, pmus)
                assert_same_plan(
                    build_mask_plan(model, parts, block_width=2, prune=prune),
                    oracles.reference_mask_plan(model, parts, block_width=2, prune=prune),
                )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.data(), st.booleans())
    def test_random_trees(self, n, data, prune):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        m = oracles.random_tree_model(rng, n)
        k = data.draw(st.integers(1, n))
        parts = partition_at_pmus(m, sorted(rng.choice(n, size=k, replace=False).tolist()))
        assert_same_plan(
            build_mask_plan(m, parts, block_width=3, prune=prune),
            oracles.reference_mask_plan(m, parts, block_width=3, prune=prune),
        )
        for p in parts:
            assert partitioning._hop_diameter(m, p.buses) == oracles.subgraph_diameter(m, p.buses)


class TestParamCount:
    def test_six_bus_f1_counts(self, six_bus):
        parts = partition_at_pmus(six_bus, [six_bus.bus_by_label(4)])
        plan = build_mask_plan(six_bus, parts, block_width=1)
        counts = count_params(plan)
        # adjacency has 6 diagonal + 10 off-diagonal entries
        assert plan.adjacency.sum() == 16
        assert counts.pawnn_params == 3 * (16 + 6)
        # layer 2 drops 4 weights; layer 3 drops 6 weights and 2 biases
        assert int(plan.masks[1].sum()) == 12
        assert int(plan.masks[2].sum()) == 10
        assert counts.p2n2_params == (16 + 6) + (12 + 6) + (10 + 4)
        assert counts.p2n2_params < counts.pawnn_params

    def test_uniform_diameters_no_pruning_gain(self):
        # chain with PMUs every other bus: both partitions span two hops,
        # matching the network depth, so every mask keeps full adjacency
        doc = {
            "buses": [
                {"id": i, "phases": "A", "kind": "source" if i == 1 else "load",
                 "base_voltage_v": 2400.0}
                for i in range(1, 6)
            ],
            "branches": [
                {"from": i, "to": i + 1, "phases": "A", "impedance": [[[0.3, 0.6]]]}
                for i in range(1, 5)
            ],
            "loads": [
                {"bus": i, "power": {"A": [1000.0, 0.0]}} for i in range(2, 6)
            ],
        }
        m = feeder_from_dict(doc)
        parts = partition_at_pmus(m, [0, 2, 4])
        plan = build_mask_plan(m, parts, block_width=2)
        counts = count_params(plan)
        assert counts.p2n2_params == counts.pawnn_params

    def test_all_pmu_no_pruning_gain(self, six_bus):
        parts = partition_at_pmus(six_bus, list(range(6)))
        plan = build_mask_plan(six_bus, parts, block_width=2)
        counts = count_params(plan)
        assert plan.depth == 1
        assert counts.p2n2_params == counts.pawnn_params

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 25), st.data())
    def test_pruned_never_larger(self, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        m = oracles.random_tree_model(rng, n)
        k = data.draw(st.integers(1, n))
        pmus = sorted(rng.choice(n, size=k, replace=False).tolist())
        parts = partition_at_pmus(m, pmus)
        plan = build_mask_plan(m, parts, block_width=3)
        counts = count_params(plan)
        assert counts.p2n2_params <= counts.pawnn_params
        for mask in plan.masks:
            assert not np.any(mask & ~plan.adjacency)
