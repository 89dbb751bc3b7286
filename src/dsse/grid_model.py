"""Feeder data model: buses, branches, loads, and file ingestion.

A feeder file is a YAML document with exactly three top-level keys::

    buses:
      - {id: 1, phases: ABC, kind: source, base_voltage_v: 2400.0}
    branches:
      - {from: 1, to: 2, phases: ABC,
         impedance: [[[0.3, 0.6], [0.0, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [0.3, 0.6], [0.0, 0.0]],
                     [[0.0, 0.0], [0.0, 0.0], [0.3, 0.6]]]}
    loads:
      - {bus: 2, power: {A: [20000.0, 8000.0]}}

``impedance`` is a |phases| x |phases| matrix of ``[r_ohm, x_ohm]`` pairs
(mutual coupling on the off-diagonals). Bus ids may be arbitrary integers;
ingestion remaps them to contiguous indices 0..N-1 in sorted-id order and
keeps the original id as ``label``. Unknown keys are rejected.

The graph must be a tree (radial) with exactly one source bus, which
carries no load and whose base voltage every bus shares, and every other bus
must have exactly the phases of the branch that feeds it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import yaml

PHASES = "ABC"

BUS_KINDS = ("source", "load", "zero_injection", "junction")


class FeederValidationError(ValueError):
    """A feeder file parsed but violates a structural invariant."""


class FeederParseError(ValueError):
    """A feeder file is malformed (bad YAML, missing/unknown keys)."""


def parse_phases(text) -> str:
    """A phases field as its canonical string: a non-empty subset of 'ABC', in
    that order (any case and order is read); anything else is a FeederParseError."""
    canon = "".join(p for p in PHASES if p in text.upper()) if isinstance(text, str) else ""
    if not canon or len(canon) != len(text):
        raise FeederParseError(f"invalid phases field: {text!r}")
    return canon


@dataclass(frozen=True)
class Bus:
    index: int
    label: int
    phases: str  # canonical, as ``parse_phases`` returns it
    kind: str
    base_voltage: float


@dataclass
class Branch:
    index: int
    from_bus: int
    to_bus: int
    phases: str
    series_impedance: np.ndarray  # complex, |phases| x |phases|

    @property
    def admittance(self) -> np.ndarray:
        return np.linalg.inv(self.series_impedance)


@dataclass
class Load:
    bus: int
    power: dict  # phase -> complex S in W + jvar (constant-power)


class FeederModel:
    """Validated, immutable radial feeder.

    Exposes the adjacency structure, each branch's ``downstream_bus`` (its
    end farther from the source), and the fixed state-slot ordering
    (bus-major, phase-minor) used everywhere else.
    """

    def __init__(self, buses, branches, loads):
        self.buses: list[Bus] = buses
        self.branches: list[Branch] = branches
        self.loads: list[Load] = loads
        self._validate()  # also builds ``_nbr`` and ``downstream_bus``

        self.n_buses = len(buses)
        self.source = next(b.index for b in buses if b.kind == "source")
        self.base_voltage = buses[self.source].base_voltage

        # state slots: (bus, phase) bus-major, phase-minor
        self.slots: list[tuple[int, str]] = [
            (b.index, p) for b in buses for p in b.phases
        ]
        self._slot_index = {bp: s for s, bp in enumerate(self.slots)}
        self.n_slots = len(self.slots)

        # apparent-power base used to scale injection noise floors
        self.power_base = sum(
            abs(s) for ld in loads for s in ld.power.values()
        ) or 1.0e3

        self._label_to_index = {b.label: b.index for b in buses}

        # linear current operators over the slot phasors, one impedance
        # inversion per branch: row (branch, phase) of ``branch_current`` is
        # that phase's current from -> to; row s of the nodal admittance
        # ``ybus`` is the net current leaving slot s into its branches
        self.branch_phases = [(br.index, p) for br in branches for p in br.phases]
        self._branch_phase_index = {bp: r for r, bp in enumerate(self.branch_phases)}
        self.branch_current = np.zeros((len(self.branch_phases), self.n_slots), complex)
        incidence = np.zeros((self.n_slots, len(self.branch_phases)))
        for br in branches:
            rows = [self.branch_phase_index(br.index, p) for p in br.phases]
            y = br.admittance
            for bus, sign in ((br.from_bus, 1.0), (br.to_bus, -1.0)):
                cols = [self.slot_index(bus, p) for p in br.phases]
                self.branch_current[np.ix_(rows, cols)] = sign * y
                incidence[cols, rows] = sign
        self.ybus = incidence @ self.branch_current
        # bus impedance matrix: inverse of the non-source block of ``ybus``,
        # zero in the source rows and columns
        free = [s for s, (b, _) in enumerate(self.slots) if b != self.source]
        self.zbus = np.zeros((self.n_slots, self.n_slots), complex)
        self.zbus[np.ix_(free, free)] = np.linalg.inv(self.ybus[np.ix_(free, free)])

    @cached_property
    def zbus_groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The connected components of the pattern ``zbus != 0`` as (ascending
        slots, dense block ``zbus[g][:, g]``), by first slot; the source's slots,
        whose rows are all zero, are in none. Built on first use."""
        reach = (self.zbus != 0) | (self.zbus.T != 0)
        while not np.array_equal(reach, wider := reach | reach @ reach):  # transitive closure
            reach = wider
        # a component's rows are now equal, and the first is at its first slot
        slots = dict.fromkeys(tuple(np.flatnonzero(row).tolist()) for row in reach if row.any())
        return [(np.array(g), self.zbus[np.ix_(g, g)]) for g in slots]

    # -- lookups ---------------------------------------------------------

    def bus_by_label(self, label: int) -> int:
        try:
            return self._label_to_index[label]
        except KeyError:
            raise KeyError(f"unknown bus label {label!r}") from None

    def slot_index(self, bus: int, phase: str) -> int:
        return self._slot_index[(bus, phase)]

    def branch_phase_index(self, branch: int, phase: str) -> int:
        return self._branch_phase_index[(branch, phase)]

    def pmu_placement(self, pmu_buses) -> tuple:
        """``pmu_buses`` sorted and distinct, as given (nothing is coerced); an
        empty placement is a ValueError and a bus not on the feeder a KeyError."""
        pmus = tuple(sorted(set(pmu_buses)))
        if not pmus:
            raise ValueError("pmu_buses must be non-empty")
        for b in pmus:
            if not 0 <= b < self.n_buses:
                raise KeyError(f"invalid pmu bus id {b}")
        return pmus

    def neighbors(self, bus: int):
        """Buses one branch away from ``bus``, as a set-like view."""
        return self._nbr[bus].keys()

    def branches_at(self, bus: int) -> list[Branch]:
        return list(self._nbr[bus].values())

    # -- derived structure -----------------------------------------------

    def adjacency_pattern(self) -> np.ndarray:
        """Boolean N x N admittance sparsity pattern (diagonal included)."""
        a = np.eye(self.n_buses, dtype=bool)
        for br in self.branches:
            a[br.from_bus, br.to_bus] = True
            a[br.to_bus, br.from_bus] = True
        return a

    # -- validation --------------------------------------------------------

    def _validate(self):
        buses, branches, loads = self.buses, self.branches, self.loads
        if not buses:
            raise FeederValidationError("feeder has no buses")
        for b in buses:
            if not 0 < b.base_voltage < np.inf:
                raise FeederValidationError(f"bus {b.label} base_voltage_v must be finite and "
                                            f"positive, got {b.base_voltage}")
        sources = [b for b in buses if b.kind == "source"]
        if len(sources) != 1:
            raise FeederValidationError(
                f"multiple sources: feeder must have exactly one source bus, got {len(sources)}"
            )
        for b in buses:  # one base voltage serves the whole feeder
            if b.base_voltage != sources[0].base_voltage:
                raise FeederValidationError(f"bus {b.label} base_voltage_v {b.base_voltage} "
                                            f"differs from the source's {sources[0].base_voltage}")
        if len(branches) != len(buses) - 1:
            raise FeederValidationError(
                f"cycle or disconnection: |branches| = {len(branches)} != |buses| - 1 = {len(buses) - 1}"
            )
        self._nbr = nbr = [{} for _ in buses]  # bus -> {neighbour: branch}, in branch order
        for br in branches:
            if br.from_bus == br.to_bus:
                raise FeederValidationError(f"self-loop at bus {br.from_bus}")
            if br.to_bus in nbr[br.from_bus]:
                raise FeederValidationError(
                    f"cycle: duplicate branch between {br.from_bus} and {br.to_bus}"
                )
            nbr[br.from_bus][br.to_bus] = br
            nbr[br.to_bus][br.from_bus] = br
            for end in (br.from_bus, br.to_bus):
                if not set(br.phases) <= set(buses[end].phases):
                    raise FeederValidationError(
                        f"phase mismatch: branch {br.from_bus}-{br.to_bus} phases "
                        f"{br.phases} not a subset of bus {end} phases {buses[end].phases}"
                    )
            z, n = br.series_impedance, len(br.phases)
            what = f"impedance of branch {br.from_bus}-{br.to_bus}"
            if z.shape != (n, n):
                raise FeederValidationError(f"{what} must be {n}x{n}")
            if not np.isfinite(z).all():
                raise FeederValidationError(f"{what} has a non-finite entry")
            if not np.allclose(z, z.T):
                raise FeederValidationError(f"{what} is not symmetric")
            if np.any(np.real(np.diag(z)) <= 0):
                raise FeederValidationError(f"{what} needs positive resistance on the diagonal")
            if np.linalg.matrix_rank(z) < n:
                raise FeederValidationError(f"{what} is singular")
        # connectivity from the source (with the count check above, the tree
        # check); each bus has exactly the phases of the branch feeding it,
        # which keeps every phase continuous from the source and the
        # non-source block of ybus invertible; it records ``downstream_bus``
        seen = {sources[0].index}
        queue = deque(seen)
        self.downstream_bus = np.zeros(len(branches), dtype=int)
        while queue:
            u = queue.popleft()
            for v, br in nbr[u].items():
                if v in seen:
                    continue
                self.downstream_bus[br.index] = v
                if br.phases != buses[v].phases:
                    raise FeederValidationError(
                        f"phase mismatch: bus {buses[v].label} has phases "
                        f"{buses[v].phases} but its feeding branch carries {br.phases}"
                    )
                seen.add(v)
                queue.append(v)
        if len(seen) != len(buses):
            missing = sorted(set(range(len(buses))) - seen)
            raise FeederValidationError(f"disconnected bus(es): {missing}")
        seen_load_buses = set()
        for ld in loads:
            if ld.bus in seen_load_buses:
                raise FeederValidationError(f"duplicate load entry for bus {ld.bus}")
            seen_load_buses.add(ld.bus)
            bus = buses[ld.bus]
            if bus.kind == "source":
                raise FeederValidationError(f"source bus {bus.label} has an attached load")
            if bus.kind == "zero_injection":
                raise FeederValidationError(
                    f"zero-injection bus {bus.label} has an attached load"
                )
            for p, power in ld.power.items():
                if p not in bus.phases:
                    raise FeederValidationError(
                        f"load on bus {bus.label} uses phase {p} absent at the bus"
                    )
                if not np.isfinite(power):
                    raise FeederValidationError(f"load on bus {bus.label} phase {p} must be "
                                                f"finite, got {power}")

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "buses": [
                {
                    "id": b.label,
                    "phases": b.phases,
                    "kind": b.kind,
                    "base_voltage_v": float(b.base_voltage),
                }
                for b in self.buses
            ],
            "branches": [
                {
                    "from": self.buses[br.from_bus].label,
                    "to": self.buses[br.to_bus].label,
                    "phases": br.phases,
                    "impedance": [
                        [[float(z.real), float(z.imag)] for z in row]
                        for row in br.series_impedance
                    ],
                }
                for br in self.branches
            ],
            "loads": [
                {
                    "bus": self.buses[ld.bus].label,
                    "power": {
                        p: [float(s.real), float(s.imag)]
                        for p, s in sorted(ld.power.items())
                    },
                }
                for ld in sorted(self.loads, key=lambda l: l.bus)
            ],
        }

    def __eq__(self, other):
        return isinstance(other, FeederModel) and self.to_dict() == other.to_dict()


def is_bus_list(value) -> bool:
    """Whether a value read from a file is a list of bus indices: ints, not bools."""
    return isinstance(value, list) and all(type(b) is int for b in value)


def check_fields(values, rules, what="{}") -> None:
    """ValueError "<what> must be <rule>, got <value>" for the first failing (name, ok, rule)."""
    for name, ok, rule in rules:
        if not ok:
            raise ValueError(f"{what.format(name)} must be {rule}, got {values.get(name)!r}")


def _require_keys(entry: dict, required: set, what: str):
    if not isinstance(entry, dict):
        raise FeederParseError(f"{what} entry must be a mapping, got {entry!r}")
    keys = set(entry)
    if not required <= keys:
        raise FeederParseError(f"{what} entry missing keys {sorted(required - keys)}")
    unknown = keys - required
    if unknown:
        raise FeederParseError(f"{what} entry has unknown keys {sorted(unknown)}")


def _number(value, kind, what: str):
    """``value`` as an int, float or complex ``kind``, or a FeederParseError naming
    ``what``: an int takes an int, a float what ``float`` reads (a bare 1e400 is the
    YAML string '1e400', so inf), a complex a [real, imag] pair of floats."""
    try:
        if kind is int and type(value) is int:
            return value
        if kind is float:
            return float(value)
        if kind is complex and isinstance(value, list) and len(value) == 2:
            return complex(float(value[0]), float(value[1]))
    except (TypeError, ValueError):
        pass
    expected = {int: "an int", float: "a number", complex: "a [real, imag] pair of numbers"}
    raise FeederParseError(f"{what} must be {expected[kind]}, got {value!r}")


def feeder_from_dict(doc: dict) -> FeederModel:
    if not isinstance(doc, dict):
        raise FeederParseError("feeder document must be a mapping")
    unknown = set(doc) - {"buses", "branches", "loads"}
    if unknown:
        raise FeederParseError(f"unknown top-level keys {sorted(unknown)}")
    if "buses" not in doc or "branches" not in doc:
        raise FeederParseError("feeder document needs 'buses' and 'branches'")

    def section(key):  # null reads as empty
        entries = [] if doc.get(key) is None else doc[key]
        if not isinstance(entries, list):
            raise FeederParseError(f"feeder section {key!r} must be a list, got {entries!r}")
        return entries

    raw_buses = section("buses")
    for entry in raw_buses:
        _require_keys(entry, {"id", "phases", "kind", "base_voltage_v"}, "bus")
    labels = [_number(entry["id"], int, f"bus entry {i} id") for i, entry in enumerate(raw_buses)]
    if len(set(labels)) != len(labels):
        raise FeederParseError("duplicate bus ids")
    index_of = {lab: i for i, lab in enumerate(sorted(labels))}

    def bus_ref(entry, key, what):
        label = _number(entry[key], int, f"{what} {key}")
        if label not in index_of:
            raise FeederParseError(f"{what} references unknown bus {label}")
        return index_of[label]

    buses = [None] * len(labels)
    for label, entry in zip(labels, raw_buses):
        kind = entry["kind"]
        if kind not in BUS_KINDS:
            raise FeederParseError(f"unknown bus kind {kind!r}")
        volts = _number(entry["base_voltage_v"], float, f"bus {label} base_voltage_v")
        buses[index_of[label]] = Bus(index=index_of[label], label=label, kind=kind,
                                     phases=parse_phases(entry["phases"]), base_voltage=volts)

    branches = []
    for k, entry in enumerate(section("branches")):
        _require_keys(entry, {"from", "to", "phases", "impedance"}, "branch")
        what, rows = f"branch entry {k}", entry["impedance"]
        if not (isinstance(rows, list)
                and all(isinstance(row, list) and len(row) == len(rows) for row in rows)):
            raise FeederParseError(f"{what} impedance must be a square matrix, got {rows!r}")
        z = [[_number(rx, complex, f"{what} impedance entry") for rx in row] for row in rows]
        branches.append(Branch(index=k, from_bus=bus_ref(entry, "from", what),
                               to_bus=bus_ref(entry, "to", what),
                               phases=parse_phases(entry["phases"]),
                               series_impedance=np.array(z, dtype=complex)))

    loads = []
    for i, entry in enumerate(section("loads")):
        _require_keys(entry, {"bus", "power"}, "load")
        bus = bus_ref(entry, "bus", f"load entry {i}")
        if not isinstance(entry["power"], dict):
            raise FeederParseError("load 'power' must map phase -> [p_w, q_var]")
        power = {}
        for p, pq in entry["power"].items():
            if p not in tuple(PHASES):
                raise FeederParseError(f"load entry {i} phase {p!r} not one of 'ABC'")
            power[p] = _number(pq, complex, f"load on bus {entry['bus']} phase {p}")
        loads.append(Load(bus=bus, power=power))

    return FeederModel(buses, branches, loads)


# libyaml's parser and emitter when PyYAML was built with it: the same safe
# document and the same bytes, about 8x faster to parse than the pure-Python
# loader and 3x faster to write than its emitter on the bundled feeders
SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
SAFE_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def load_feeder(path) -> FeederModel:
    """Parse and validate a feeder file; raises on any schema violation."""
    with open(path) as fh:
        try:
            doc = yaml.load(fh, Loader=SAFE_LOADER)
        except yaml.YAMLError as exc:
            raise FeederParseError(f"cannot parse {path}: {exc}") from exc
    return feeder_from_dict(doc)


def dump_feeder(model: FeederModel, path) -> None:
    with open(path, "w") as fh:
        yaml.dump(model.to_dict(), fh, Dumper=SAFE_DUMPER, sort_keys=False)
