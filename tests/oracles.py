"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms and
different libraries than the code under test: the power flow is a dense
Newton-Raphson solve on the full nodal equations (scipy), graph questions
go through networkx, and derivative checks use central finite differences.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import scipy.optimize

from dsse.grid_model import FeederModel
from dsse.powerflow import SLACK_ANGLES, StateVector


# -- graph oracles ---------------------------------------------------------


def nx_graph(model: FeederModel) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(model.n_buses))
    g.add_edges_from((br.from_bus, br.to_bus) for br in model.branches)
    return g


def bfs_distance(model: FeederModel, a: int, b: int) -> int:
    return nx.shortest_path_length(nx_graph(model), a, b)


def enumerate_partitions(model: FeederModel, pmu_buses) -> set:
    """Brute-force vertex-cut partitions as frozensets of bus ids.

    Components of the graph with PMU buses deleted, each united with its
    adjacent PMU buses; plus one two-bus partition per PMU-PMU edge; plus
    bare singletons for PMU buses isolated by the cut.
    """
    g = nx_graph(model)
    pmus = set(pmu_buses)
    rest = g.subgraph(set(g) - pmus)
    parts = set()
    for comp in nx.connected_components(rest):
        boundary = {p for p in pmus if any(g.has_edge(p, u) for u in comp)}
        parts.add(frozenset(comp | boundary))
    for u, v in g.edges:
        if u in pmus and v in pmus:
            parts.add(frozenset({u, v}))
    covered = set().union(*parts) if parts else set()
    for b in g:
        if b not in covered:
            parts.add(frozenset({b}))
    return parts


def subgraph_diameter(model: FeederModel, buses) -> int:
    """All-pairs BFS hop diameter of the induced subgraph."""
    sub = nx_graph(model).subgraph(buses)
    if len(buses) <= 1:
        return 0
    return nx.diameter(sub)


def random_tree_model(rng: np.random.Generator, n: int) -> FeederModel:
    """Random N-bus single-phase radial feeder for property tests."""
    from dsse.grid_model import feeder_from_dict

    doc = {
        "buses": [
            {
                "id": i + 1,
                "phases": "A",
                "kind": "source" if i == 0 else "load",
                "base_voltage_v": 2400.0,
            }
            for i in range(n)
        ],
        "branches": [
            {
                "from": int(rng.integers(0, i)) + 1,
                "to": i + 1,
                "phases": "A",
                "impedance": [[[0.3, 0.6]]],
            }
            for i in range(1, n)
        ],
        "loads": [
            {"bus": i + 1, "power": {"A": [10000.0, 4000.0]}} for i in range(1, n)
        ],
    }
    return feeder_from_dict(doc)


def path_impedance(model: FeederModel) -> np.ndarray:
    """Bus impedance over slots from the tree paths to the source.

    Z[s, t] sums Z_br[p(s), p(t)] over the branches that lie on both the
    source path of slot s's bus and that of slot t's bus.
    """
    g = nx_graph(model)
    branch_of = {frozenset((br.from_bus, br.to_bus)): br for br in model.branches}
    path = {}
    for b in range(model.n_buses):
        hops = nx.shortest_path(g, model.source, b)
        path[b] = {branch_of[frozenset(e)].index for e in zip(hops, hops[1:])}
    z = np.zeros((model.n_slots, model.n_slots), complex)
    for s, (b, p) in enumerate(model.slots):
        for t, (c, q) in enumerate(model.slots):
            for k in path[b] & path[c]:
                br = model.branches[k]
                z[s, t] += br.series_impedance[br.phases.index(p), br.phases.index(q)]
    return z


# -- power-flow oracle -----------------------------------------------------


def nodal_admittance(model: FeederModel) -> np.ndarray:
    """Complex nodal admittance over slots, stamped entry by entry."""
    n = model.n_slots
    y = np.zeros((n, n), complex)
    for br in model.branches:
        adm = br.admittance
        for i, p in enumerate(br.phases):
            for j, q in enumerate(br.phases):
                a = model.slot_index(br.from_bus, p)
                b = model.slot_index(br.from_bus, q)
                c = model.slot_index(br.to_bus, p)
                d = model.slot_index(br.to_bus, q)
                y[a, b] += adm[i, j]
                y[c, d] += adm[i, j]
                y[a, d] -= adm[i, j]
                y[c, b] -= adm[i, j]
    return y


def newton_power_flow(model: FeederModel, loads=None, tol=1e-10) -> StateVector:
    """Dense Newton-Raphson on the nodal current-balance equations.

    Unknowns are the non-source slot voltages (rectangular). For each
    non-source slot the equation is: current leaving through branches
    minus the load current conj(S/V) equals zero.
    """
    if loads is None:
        loads = {ld.bus: ld.power for ld in model.loads}

    n = model.n_slots
    y = nodal_admittance(model)

    slack = np.array(
        [
            model.buses[b].base_voltage * np.exp(1j * SLACK_ANGLES[p])
            for b, p in model.slots
        ]
    )
    free = [s for s, (b, _) in enumerate(model.slots) if b != model.source]
    s_load = np.zeros(n, complex)
    for bus, power in loads.items():
        for p, s in power.items():
            s_load[model.slot_index(bus, p)] = s

    def residual(xr):
        v = slack.copy()
        v[free] = xr[: len(free)] + 1j * xr[len(free) :]
        i_net = y @ v  # current injected into the network at each slot
        i_load = np.conj(s_load / v)
        r = i_net[free] + i_load[free]
        return np.concatenate([r.real, r.imag])

    x0 = np.concatenate([slack[free].real, slack[free].imag])
    sol = scipy.optimize.fsolve(residual, x0, xtol=tol, full_output=True)
    xr, _, ier, msg = sol
    if ier != 1:
        raise RuntimeError(f"oracle power flow failed: {msg}")
    v = slack.copy()
    v[free] = xr[: len(free)] + 1j * xr[len(free) :]
    return StateVector(v)


def two_bus_receiving_voltage(v_source: float, r_ohm: float, p_watt: float) -> float:
    """Closed form for a single-phase, purely resistive, purely active 2-bus
    feeder: V (V0 - V) / R = P  =>  larger root of V^2 - V0 V + P R = 0."""
    disc = v_source**2 - 4.0 * p_watt * r_ohm
    return (v_source + np.sqrt(disc)) / 2.0


# -- derivative oracles ----------------------------------------------------


def fd_jacobian(fun, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference Jacobian of a vector function of a flat vector."""
    f0 = np.asarray(fun(x))
    out = np.empty((len(f0), len(x)))
    for k in range(len(x)):
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        out[:, k] = (np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2.0 * h)
    return out


def fd_scalar_grad(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    out = np.empty_like(x)
    for k in range(len(x)):
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        out[k] = (fun(xp) - fun(xm)) / (2.0 * h)
    return out
