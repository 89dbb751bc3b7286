import copy
import itertools

import numpy as np
import pytest
import yaml

import oracles
from dsse.fixtures import fixture_path
from dsse.grid_model import (
    SAFE_DUMPER,
    SAFE_LOADER,
    FeederParseError,
    FeederValidationError,
    dump_feeder,
    feeder_from_dict,
    load_feeder,
    parse_phases,
)


def minimal_doc(**overrides):
    doc = {
        "buses": [
            {"id": 1, "phases": "A", "kind": "source", "base_voltage_v": 2400.0},
            {"id": 2, "phases": "A", "kind": "load", "base_voltage_v": 2400.0},
        ],
        "branches": [
            {"from": 1, "to": 2, "phases": "A", "impedance": [[[0.3, 0.6]]]},
        ],
        "loads": [{"bus": 2, "power": {"A": [10000.0, 4000.0]}}],
    }
    doc.update(overrides)
    return doc


class TestPhaseSet:
    def test_canonical_subsets(self, thirteen_bus):
        assert parse_phases("abc") == "ABC"
        assert parse_phases("CA") == "AC"
        assert parse_phases("b") == "B"
        # bus and branch phases are the parser's strings
        doc = minimal_doc()
        doc["buses"][0]["phases"] = "cba"
        assert feeder_from_dict(doc).buses[0].phases == "ABC"
        assert {b.phases for b in thirteen_bus.buses} == {"ABC", "AB", "A", "BC", "B"}

    @pytest.mark.parametrize("bad", ["", "D", "AA", "AD", 3, None, ["A"]])
    def test_rejects_garbage(self, bad):
        with pytest.raises(FeederParseError, match="invalid phases field"):
            parse_phases(bad)


class TestIngestion:
    def test_six_bus_fixture(self, six_bus):
        assert six_bus.n_buses == 6
        assert len(six_bus.branches) == 5
        assert six_bus.buses[six_bus.source].label == 1
        assert six_bus.n_slots == 18  # 6 three-phase buses

    def test_thirteen_bus_fixture(self, thirteen_bus):
        assert thirteen_bus.n_buses == 13
        assert len(thirteen_bus.branches) == 12
        # ABC everywhere except 6=AB, 7=A, 8=BC, 9=B, 13=A
        assert thirteen_bus.n_slots == 31

    def test_labels_remap_to_sorted_contiguous_indices(self):
        doc = minimal_doc()
        doc["buses"][0]["id"] = 40
        doc["buses"][1]["id"] = 7
        doc["branches"][0].update({"from": 40, "to": 7})
        doc["loads"][0]["bus"] = 7
        m = feeder_from_dict(doc)
        assert [b.label for b in m.buses] == [7, 40]
        assert m.bus_by_label(40) == 1
        assert m.buses[m.source].label == 40

    def test_cycle_rejected(self):
        doc = {
            "buses": [
                {"id": i, "phases": "A", "kind": "source" if i == 1 else "load",
                 "base_voltage_v": 2400.0}
                for i in (1, 2, 3)
            ],
            "branches": [
                {"from": a, "to": b, "phases": "A", "impedance": [[[0.3, 0.6]]]}
                for a, b in ((1, 2), (2, 3), (3, 1))
            ],
            "loads": [],
        }
        with pytest.raises(FeederValidationError, match="cycle"):
            feeder_from_dict(doc)

    def test_disconnection_rejected(self):
        doc = minimal_doc()
        doc["buses"].append(
            {"id": 3, "phases": "A", "kind": "load", "base_voltage_v": 2400.0}
        )
        doc["branches"].append(
            {"from": 3, "to": 3, "phases": "A", "impedance": [[[0.3, 0.6]]]}
        )
        with pytest.raises(FeederValidationError):
            feeder_from_dict(doc)

    def test_branch_count_mismatch_rejected(self):
        doc = minimal_doc(branches=[])
        with pytest.raises(FeederValidationError, match="branches"):
            feeder_from_dict(doc)

    @pytest.mark.parametrize(
        "mutate,error",
        [
            (lambda d: d["buses"].append(dict(d["buses"][0], id=9)), "source"),
            (lambda d: d["buses"][0].update(kind="load"), "source"),
            (lambda d: d["buses"][0].update(kind="generator"), "kind"),
            (lambda d: d.update(extra=1), "unknown"),
            (lambda d: d["branches"][0].update(color="red"), "unknown"),
            (lambda d: d["loads"][0].update(bus=99), "unknown bus"),
            (lambda d: d["loads"][0]["power"].update(D=[1.0, 0.0]), "not one of"),
            (lambda d: d["loads"][0].update(bus=1), "source"),
            (lambda d: d["buses"][1].update(base_voltage_v=3000.0),
             "bus 2 base_voltage_v 3000.0 differs from the source's 2400.0"),
        ],
    )
    def test_schema_violations(self, mutate, error):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises((FeederParseError, FeederValidationError), match=error):
            feeder_from_dict(doc)

    def test_asymmetric_impedance_rejected(self):
        doc = minimal_doc()
        doc["buses"][0]["phases"] = "AB"
        doc["buses"][1]["phases"] = "AB"
        doc["branches"][0]["phases"] = "AB"
        doc["branches"][0]["impedance"] = [
            [[0.3, 0.6], [0.1, 0.2]],
            [[0.0, 0.0], [0.3, 0.6]],
        ]
        with pytest.raises(FeederValidationError, match="symmetric"):
            feeder_from_dict(doc)

    def test_nonpositive_resistance_rejected(self):
        doc = minimal_doc()
        doc["branches"][0]["impedance"] = [[[0.0, 0.6]]]
        with pytest.raises(FeederValidationError, match="resistance"):
            feeder_from_dict(doc)

    def test_singular_impedance_rejected(self):
        doc = minimal_doc()
        doc["buses"][0]["phases"] = "AB"
        doc["buses"][1]["phases"] = "AB"
        doc["branches"][0]["phases"] = "AB"
        doc["branches"][0]["impedance"] = [
            [[0.3, 0.6], [0.3, 0.6]],
            [[0.3, 0.6], [0.3, 0.6]],
        ]
        with pytest.raises(FeederValidationError, match="singular"):
            feeder_from_dict(doc)

    @pytest.mark.parametrize(
        "mutate,error",
        [
            (lambda d: d["buses"][1].update(base_voltage_v=0.0), "bus 2 base_voltage_v"),
            (lambda d: d["buses"][1].update(base_voltage_v=-2400.0), "bus 2 base_voltage_v"),
            (lambda d: d["buses"][0].update(base_voltage_v=float("nan")), "bus 1 base_voltage_v"),
            (lambda d: d["buses"][0].update(base_voltage_v=float("inf")), "bus 1 base_voltage_v"),
            (lambda d: d["loads"][0]["power"]["A"].__setitem__(0, float("nan")),
             "load on bus 2 phase A must be finite"),
            (lambda d: d["loads"][0]["power"]["A"].__setitem__(0, float("-inf")),
             "load on bus 2 phase A must be finite"),
            (lambda d: d["loads"][0]["power"]["A"].__setitem__(0, "1e400"),
             "load on bus 2 phase A must be finite"),
            (lambda d: d["loads"][0]["power"]["A"].__setitem__(1, float("nan")),
             "load on bus 2 phase A must be finite"),
            (lambda d: d["branches"][0]["impedance"][0][0].__setitem__(0, float("nan")),
             "branch 0-1 has a non-finite entry"),
            (lambda d: d["branches"][0]["impedance"][0][0].__setitem__(1, float("inf")),
             "branch 0-1 has a non-finite entry"),
        ],
        ids=["zero-base-voltage", "negative-base-voltage", "nan-base-voltage",
             "inf-base-voltage", "nan-load-p", "inf-load-p", "overflowing-load-p",
             "nan-load-q", "nan-resistance", "inf-reactance"],
    )
    def test_nonfinite_or_nonpositive_number_named(self, mutate, error):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(FeederValidationError, match=error):
            feeder_from_dict(doc)

    @pytest.mark.parametrize(
        "mutate,error",
        [
            (lambda d: d["buses"][1].update(base_voltage_v=[1.0]),
             r"bus 2 base_voltage_v must be a number, got \[1.0\]"),
            (lambda d: d["buses"][1].update(base_voltage_v=None),
             "bus 2 base_voltage_v must be a number, got None"),
            (lambda d: d["loads"][0]["power"].update(A=5.0),
             r"load on bus 2 phase A must be a \[real, imag\] pair of numbers, got 5.0"),
            (lambda d: d["loads"][0]["power"].update(A=[1.0, None]),
             r"load on bus 2 phase A must be a \[real, imag\] pair of numbers, got \[1.0, None\]"),
            (lambda d: d["loads"][0]["power"].update(A=[1, 2, 3]),
             r"load on bus 2 phase A must be a \[real, imag\] pair of numbers, got \[1, 2, 3\]"),
            (lambda d: d["loads"][0].update(power={1: [1.0, 0.0]}),
             "load entry 0 phase 1 not one of 'ABC'"),
            (lambda d: d["loads"][0].update(power={"AB": [1.0, 0.0]}),
             "load entry 0 phase 'AB' not one of 'ABC'"),
            (lambda d: d["buses"][1].update(id=[2]), r"bus entry 1 id must be an int, got \[2\]"),
            (lambda d: d["branches"][0].update({"from": None}),
             "branch entry 0 from must be an int, got None"),
            (lambda d: d["loads"][0].update(bus="2"), "load entry 0 bus must be an int, got '2'"),
            (lambda d: d["branches"][0]["impedance"][0].__setitem__(0, "r"),
             "branch entry 0 impedance entry must be a"),
            (lambda d: d["branches"][0].update(impedance=None),
             "branch entry 0 impedance must be a square matrix, got None"),
            (lambda d: d.update(buses=5), "feeder section 'buses' must be a list, got 5"),
            (lambda d: d.update(branches=5), "feeder section 'branches' must be a list, got 5"),
            (lambda d: d.update(loads=5), "feeder section 'loads' must be a list, got 5"),
        ],
        ids=["list-base-voltage", "null-base-voltage", "scalar-load", "null-load-q",
             "triple-load", "int-load-phase", "two-phase-load-key", "list-bus-id",
             "null-branch-end", "string-load-bus", "string-impedance", "null-impedance",
             "scalar-buses", "scalar-branches", "scalar-loads"],
    )
    def test_mistyped_field_is_a_parse_error_naming_it(self, mutate, error):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(FeederParseError, match=error):
            feeder_from_dict(doc)

    def test_nonfinite_mutual_impedance_named(self):
        doc = minimal_doc()
        doc["buses"][0]["phases"] = "AB"
        doc["buses"][1]["phases"] = "AB"
        doc["branches"][0]["phases"] = "AB"
        doc["branches"][0]["impedance"] = [
            [[0.3, 0.6], [float("inf"), 0.0]],
            [[float("inf"), 0.0], [0.3, 0.6]],
        ]
        with pytest.raises(FeederValidationError, match="branch 0-1 has a non-finite entry"):
            feeder_from_dict(doc)

    def test_branch_phases_must_exist_at_endpoints(self):
        doc = minimal_doc()
        doc["branches"][0]["phases"] = "AB"
        doc["branches"][0]["impedance"] = [
            [[0.3, 0.6], [0.0, 0.0]],
            [[0.0, 0.0], [0.3, 0.6]],
        ]
        with pytest.raises(FeederValidationError, match="phase"):
            feeder_from_dict(doc)

    def test_bus_phase_not_carried_by_feeding_branch_rejected(self):
        # a phase-B load on an AB bus fed by an A-only branch would be unserved
        doc = minimal_doc()
        doc["buses"][0]["phases"] = "ABC"
        doc["buses"][1]["phases"] = "AB"
        doc["loads"][0]["power"] = {"B": [500_000.0, 0.0]}
        with pytest.raises(FeederValidationError, match="phase"):
            feeder_from_dict(doc)

    def test_branch_phase_absent_upstream_rejected(self):
        doc = minimal_doc()
        doc["buses"][0]["phases"] = "ABC"
        doc["buses"][1]["phases"] = "ABC"
        doc["buses"].append(
            {"id": 3, "phases": "B", "kind": "load", "base_voltage_v": 2400.0}
        )
        # branch 2-3 carries phase B, which branch 1-2 does not bring in
        doc["branches"].append(
            {"from": 2, "to": 3, "phases": "B", "impedance": [[[0.3, 0.6]]]}
        )
        doc["loads"] = [{"bus": 3, "power": {"B": [10000.0, 4000.0]}}]
        with pytest.raises(FeederValidationError, match="phase"):
            feeder_from_dict(doc)

    def test_zero_injection_bus_must_be_loadless(self):
        doc = minimal_doc()
        doc["buses"][1]["kind"] = "zero_injection"
        with pytest.raises(FeederValidationError, match="zero-injection"):
            feeder_from_dict(doc)

    def test_roundtrip(self, six_bus, tmp_path):
        path = tmp_path / "copy.yaml"
        dump_feeder(six_bus, path)
        assert load_feeder(path) == six_bus

    @pytest.mark.parametrize("name", ["six_bus", "thirteen_bus"])
    def test_libyaml_loader_matches_python_loader(self, name, tmp_path):
        if yaml.__with_libyaml__:
            assert SAFE_LOADER is yaml.CSafeLoader
        dumped = tmp_path / "dumped.yaml"
        dump_feeder(load_feeder(fixture_path(name)), dumped)
        for text in (fixture_path(name).read_text(), dumped.read_text()):
            assert yaml.load(text, Loader=SAFE_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_libyaml_dumper_writes_the_python_dumpers_bytes(self, tmp_path):
        if yaml.__with_libyaml__:
            assert SAFE_DUMPER is yaml.CSafeDumper
        rng = np.random.default_rng(26)
        docs = []
        for name in ("six_bus", "thirteen_bus"):
            base = load_feeder(fixture_path(name)).to_dict()
            docs.append(base)
            for _ in range(8):
                doc = copy.deepcopy(base)
                for ld in doc["loads"]:  # each load scaled by U(0.8, 1.2), as Bench6Bus does
                    for p, (real, imag) in ld["power"].items():
                        u = rng.uniform(0.8, 1.2)
                        ld["power"][p] = [real * u, imag * u]
                coupled = copy.deepcopy(doc)
                for br in coupled["branches"]:  # mutual terms a third of the self term
                    z = br["impedance"]
                    for i, j in itertools.combinations(range(len(z)), 2):
                        z[i][j] = z[j][i] = [x / 3.0 for x in z[i][i]]
                for d in (doc, coupled):
                    docs.append(d)
                    spread = copy.deepcopy(d)
                    for br in spread["branches"]:  # each branch scaled within 1e-12 to 1e12
                        k = 10.0 ** rng.uniform(-12, 12)
                        br["impedance"] = [[[x * k for x in rx] for rx in row]
                                           for row in br["impedance"]]
                    docs.append(spread)
        path = tmp_path / "dumped.yaml"
        for doc in docs:
            model = feeder_from_dict(doc)
            dump_feeder(model, path)
            assert path.read_text() == yaml.safe_dump(model.to_dict(), sort_keys=False)

    def test_yaml_syntax_error_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("buses: [\n")
        with pytest.raises(FeederParseError, match="cannot parse"):
            load_feeder(bad)


class TestDerivedStructure:
    def test_adjacency_pattern_six_bus(self, six_bus):
        a = six_bus.adjacency_pattern()
        expected = np.eye(6, dtype=bool)
        for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (3, 5)):
            expected[i, j] = expected[j, i] = True
        assert np.array_equal(a, expected)

    def test_adjacency_pattern_single_bus(self):
        m = feeder_from_dict(
            {
                "buses": [
                    {"id": 1, "phases": "A", "kind": "source", "base_voltage_v": 2400.0}
                ],
                "branches": [],
                "loads": [],
            }
        )
        assert np.array_equal(m.adjacency_pattern(), np.array([[True]]))

    def test_adjacency_count_thirteen_bus(self, thirteen_bus):
        # any tree: N diagonal entries + 2 per branch
        assert thirteen_bus.adjacency_pattern().sum() == 13 + 2 * 12

    @pytest.mark.parametrize("name", ["six_bus", "thirteen_bus"])
    def test_current_operators_match_stamped_admittance(self, name, request):
        model = request.getfixturevalue(name)
        assert np.allclose(model.ybus, oracles.nodal_admittance(model), rtol=1e-12, atol=0)
        for br in model.branches:
            for k, p in enumerate(br.phases):
                row = model.branch_current[model.branch_phase_index(br.index, p)]
                for end, sign in ((br.from_bus, 1.0), (br.to_bus, -1.0)):
                    for q_idx, q in enumerate(br.phases):
                        assert row[model.slot_index(end, q)] == sign * br.admittance[k, q_idx]
                assert np.count_nonzero(row) <= 2 * len(br.phases)

    @pytest.mark.parametrize("name", ["six_bus", "thirteen_bus"])
    def test_zbus_matches_path_impedance(self, name, request):
        model = request.getfixturevalue(name)
        expected = oracles.path_impedance(model)
        err = np.max(np.abs(model.zbus - expected))
        assert err <= 1e-13 * np.max(np.abs(expected))
        src = [model.slot_index(model.source, p) for p in model.buses[model.source].phases]
        assert not model.zbus[src].any()
        assert not model.zbus[:, src].any()

    def test_slots_are_bus_major_phase_minor(self, thirteen_bus):
        assert thirteen_bus.slots == sorted(
            thirteen_bus.slots,
            key=lambda bp: (bp[0], "ABC".index(bp[1])),
        )
        for s, (b, p) in enumerate(thirteen_bus.slots):
            assert thirteen_bus.slot_index(b, p) == s

    def test_downstream_bus_is_the_end_farther_from_the_source(self, thirteen_bus):
        m = thirteen_bus
        for br, down in zip(m.branches, m.downstream_bus.tolist()):
            up = br.from_bus + br.to_bus - down
            assert oracles.bfs_distance(m, m.source, down) == oracles.bfs_distance(
                m, m.source, up
            ) + 1
        # a branch written child -> parent feeds its from-bus
        doc = minimal_doc()
        doc["branches"][0]["from"], doc["branches"][0]["to"] = 2, 1
        assert feeder_from_dict(doc).downstream_bus.tolist() == [1]


def zbus_components(model) -> list:
    """networkx's connected components of the pattern ``zbus != 0``, as sorted
    slot lists ordered by first slot, without the all-zero source slots."""
    g = oracles.nx.Graph()
    g.add_nodes_from(np.flatnonzero(model.zbus.any(axis=1)).tolist())
    rows, cols = np.nonzero(model.zbus)
    g.add_edges_from(zip(rows.tolist(), cols.tolist()))
    return sorted(sorted(c) for c in oracles.nx.connected_components(g))


@pytest.fixture(scope="module")
def group_feeders(six_bus, thirteen_bus):
    rng = np.random.default_rng(7)
    return {
        "six_bus": six_bus,
        "thirteen_bus": thirteen_bus,
        "thirteen_bus_coupled": oracles.fully_coupled(thirteen_bus),
        "thirteen_bus_chain": oracles.coupled_feeder(
            thirteen_bus, {0: [("A", "B")], 2: [("B", "C")]}),
        "six_bus_coupled": oracles.fully_coupled(six_bus),
        **{f"random_tree_{n}": oracles.random_tree_model(rng, n) for n in (9, 15, 30)},
        "source_only": feeder_from_dict(minimal_doc(buses=minimal_doc()["buses"][:1],
                                                    branches=[], loads=[])),
    }


class TestZbusGroups:
    @pytest.mark.parametrize("name", ["six_bus", "thirteen_bus", "thirteen_bus_coupled",
                                      "thirteen_bus_chain", "six_bus_coupled", "random_tree_9",
                                      "random_tree_15", "random_tree_30", "source_only"])
    def test_groups_partition_the_free_slots_into_the_components(self, group_feeders, name):
        model = group_feeders[name]
        free = [s for s, (b, _) in enumerate(model.slots) if b != model.source]
        slots = [g.tolist() for g, _ in model.zbus_groups]
        assert sorted(s for g in slots for s in g) == free
        assert slots == zbus_components(model)  # each ascending, ordered by first slot
        inside = np.zeros(model.zbus.shape, dtype=bool)
        for g, block in model.zbus_groups:
            assert np.array_equal(block, model.zbus[np.ix_(g, g)])
            inside[np.ix_(g, g)] = True
        assert not model.zbus[~inside].any()

    @pytest.mark.parametrize("name,sizes", [("six_bus", [5, 5, 5]), ("thirteen_bus", [8, 10, 10])])
    def test_decoupled_fixtures_have_a_group_per_phase(self, group_feeders, name, sizes):
        model = group_feeders[name]
        assert sorted(len(g) for g, _ in model.zbus_groups) == sizes
        for g, _ in model.zbus_groups:
            assert len({model.slots[s][1] for s in g.tolist()}) == 1

    def test_coupled_variants_are_one_group(self, group_feeders):
        (g, block), = group_feeders["thirteen_bus_coupled"].zbus_groups
        assert len(g) == 28 and block.all()
        # no branch couples A with C, but the inverse leaves rounding-sized A-C entries
        assert [len(g) for g, _ in group_feeders["thirteen_bus_chain"].zbus_groups] == [28]
        assert [len(g) for g, _ in group_feeders["six_bus_coupled"].zbus_groups] == [15]

    def test_chained_pattern_is_one_group(self):
        # 3-9 and 9-15 are coupled, 3-15 is not: the rows of 3, 9 and 15 all
        # differ, so only a closure over the pattern puts the three in one group
        model = load_feeder(fixture_path("six_bus"))
        model.zbus[:] = np.diag(model.zbus.diagonal())
        for a, b in ((3, 9), (9, 15)):
            model.zbus[a, b] = model.zbus[b, a] = 1.0 + 2.0j
        assert [g.tolist() for g, _ in model.zbus_groups] == (
            [[3, 9, 15]] + [[s] for s in range(4, 18) if s not in (9, 15)])

    def test_groups_are_built_on_first_use(self):
        model = load_feeder(fixture_path("six_bus"))
        assert "zbus_groups" not in vars(model)
        assert model.zbus_groups is model.zbus_groups
