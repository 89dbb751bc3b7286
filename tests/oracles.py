"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms and
different libraries than the code under test: the power flow is a dense
Newton-Raphson solve on the full nodal equations (scipy), graph questions
go through networkx, derivative checks use central finite differences,
and the reference trainer is the network's dense, array-by-array training
path: ADAM over every entry, masks re-applied after each update. Its
products are whole masked products on the network's unit order, where the
network multiplies panels; its readout is one dense product per exit layer
with a matrix written slot by slot; the gather-and-``einsum`` readout it
replaced is kept beside it. The
reference generator is the per-sample dataset loop that batched generation
replaced: one load dict, ``solve_power_flow`` and ``synthesize`` per sample.
The reference batch power flow is the sweep before Zbus was split into its
groups: one dense ``einsum`` over the whole matrix, source slots included.
The reference estimator is WLS as it was before templates were compiled: it
rebuilds the evaluator and reruns the observability test on every call, and
solves each Gauss-Newton step through an explicit Q; its Jacobian is the
evaluator's before constant rows were compiled, every row built from dense
one-hot own-slot products and full-size selections. The reference mask plan
is plan construction before the lifetime matrix: an all-pairs BFS per
partition, a separate unpruned return, and a loop over layers, partitions
and bus pairs. The reference network parameters are a network's first
construction path: every layer drawn in bus order over every input cell
with its kron-expanded mask, then permuted into unit order, then W_0's kept
columns taken.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict

import networkx as nx
import numpy as np
import scipy.optimize

from dsse import powerflow, wls
from dsse.grid_model import FeederModel
from dsse.measurements import MeasurementSet, RowEvaluator, synthesize, unit_bases
from dsse.network import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    INPUT_CHANNELS,
    LEAKY_SLOPE,
    LIVE,
    InputEmbedding,
    MaskedNetwork,
    TrainConfig,
    WHOLE,
    TrainingDiverged,
    split_indices,
)
from dsse.partitioning import MaskPlan, rcm_order, resolution_depth
from dsse.pipeline import Dataset, sample_multipliers
from dsse.powerflow import (SLACK_ANGLES, NotConvergedError, StateVector, slack_state,
                            solve_power_flow)
from dsse.wls import MAX_STEP_HALVINGS, NonConvergedError, WlsReport, check_observable


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


def _reference_hop_diameter(model: FeederModel, buses: frozenset) -> int:
    """All-pairs max hop distance on the induced subgraph (tree-exact)."""
    if len(buses) <= 1:
        return 0
    best = 0
    for a in buses:
        dist = {a: 0}
        stack = [a]
        while stack:
            u = stack.pop()
            for v in model.neighbors(u):
                if v in buses and v not in dist:
                    dist[v] = dist[u] + 1
                    stack.append(v)
        best = max(best, max(dist.values()))
    return best


def reference_mask_plan(
    model: FeederModel,
    partitions,
    block_width: int = 8,
    prune: bool = True,
) -> MaskPlan:
    """Masks and output routing for a pruned (or unpruned) network.

    With ``prune=False`` every layer keeps the full adjacency pattern and
    all buses exit at the last layer (the unpruned physics-aware variant).
    """
    n = model.n_buses
    adjacency = model.adjacency_pattern()
    hops = [_reference_hop_diameter(model, p.buses) for p in partitions]
    depths = [resolution_depth(model, p, hop) for p, hop in zip(partitions, hops)]
    depth = max(1, max(depths, default=1))

    exit_layer = np.zeros(n, dtype=int)
    for part, d in zip(partitions, depths):
        for b in part.buses:
            exit_layer[b] = max(exit_layer[b], d)
    exit_layer = np.maximum(exit_layer, 1)

    if not prune:
        return MaskPlan(np.sum([adjacency] * depth, axis=0), block_width, False)

    masks = []
    for t in range(1, depth + 1):
        mask = np.zeros((n, n), dtype=bool)
        for part, hop in zip(partitions, hops):
            if t <= hop:
                for i in part.buses:
                    for j in part.buses:
                        if i != j and adjacency[i, j]:
                            mask[i, j] = True
        for b in range(n):
            if t <= exit_layer[b]:
                mask[b, b] = True
        masks.append(mask)
    # the layers are nested, so a pair's layer count is its lifetime
    return MaskPlan(np.sum(masks, axis=0), block_width, True)


def bandwidth(pattern, order) -> int:
    """The largest |i - j| over the live entries of ``pattern`` laid out in ``order``."""
    i, j = np.nonzero(np.asarray(pattern)[np.ix_(order, order)])
    return int(np.abs(i - j).max())


def brute_force_cut_areas(mask) -> list:
    """For k = 1, 2, ...: the least total area of k bounding rectangles over
    runs of consecutive live rows of ``mask``, each run from its first live
    row to its last, found by trying every way to cut the live rows."""
    rows = np.flatnonzero(mask.any(axis=1))
    best = {}
    for cuts in itertools.product((False, True), repeat=len(rows) - 1):
        ends = [i + 1 for i, cut in enumerate(cuts) if cut] + [len(rows)]
        area, start = 0, 0
        for end in ends:
            run = rows[start:end]
            cols = np.flatnonzero(mask[run].any(axis=0))
            area += (run[-1] + 1 - run[0]) * (cols[-1] + 1 - cols[0])
            start = end
        best[len(ends)] = min(best.get(len(ends), area), area)
    return [best[k] for k in sorted(best)]


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


def coupled_feeder(model: FeederModel, couplings: dict) -> FeederModel:
    """``model`` with mutual impedances: ``couplings`` maps a branch index to
    the phase pairs it couples, each at a third of the first phase's self
    impedance."""
    from dsse.grid_model import feeder_from_dict

    doc = model.to_dict()
    for k, pairs in couplings.items():
        z, phases = doc["branches"][k]["impedance"], model.branches[k].phases
        for p, q in pairs:
            i, j = phases.index(p), phases.index(q)
            z[i][j] = z[j][i] = [x / 3.0 for x in z[i][i]]
    return feeder_from_dict(doc)


def fully_coupled(model: FeederModel) -> FeederModel:
    """Every pair of phases coupled on every branch."""
    return coupled_feeder(model, {br.index: list(itertools.combinations(br.phases, 2))
                                  for br in model.branches})


def random_loads(model: FeederModel, m: int, scale: float, seed: int) -> np.ndarray:
    """(m, n_slots) slot loads: the feeder's own times ``scale``, a per-row and a
    per-slot random factor."""
    base = np.zeros(model.n_slots, complex)
    for ld in model.loads:
        for p, value in ld.power.items():
            base[model.slot_index(ld.bus, p)] = value
    rng = np.random.default_rng(seed)
    return base * scale * rng.uniform(0.2, 1.8, (m, 1)) * rng.uniform(0.5, 1.5, (m, model.n_slots))


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
                phases = br.phases
                z[s, t] += br.series_impedance[phases.index(p), phases.index(q)]
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


def reference_solve_batch(model: FeederModel, s: np.ndarray):
    """``dsse.powerflow.solve_batch`` as it was before the Zbus groups: every
    sweep contracts the whole dense ``model.zbus``. The body is that version's,
    reading the iteration budget and tolerance from ``dsse.powerflow``."""
    tol = powerflow.TOL_PU * model.base_voltage
    slack = slack_state(model).values
    # each slot's phase of the source voltage
    v0 = slack[[model.slot_index(model.source, p) for _, p in model.slots]]
    m = len(s)
    v, va, sa, rows = np.empty((m, len(slack)), complex), np.tile(slack, (m, 1)), s, np.arange(m)
    iterations, mismatch = np.zeros(m, dtype=int), np.full(m, np.inf)
    for it in range(1, powerflow.MAX_ITER + 1):
        if not len(rows):
            break
        v_new = v0 - np.einsum("ij,mj->mi", model.zbus, np.conj(sa / va))
        gap = np.abs(v_new - va).max(axis=1, initial=0.0)
        va, stop = v_new, (gap < tol) | (it == powerflow.MAX_ITER)
        if stop.any():
            v[rows[stop]], iterations[rows[stop]], mismatch[rows[stop]] = va[stop], it, gap[stop]
            va, sa, rows = va[~stop], sa[~stop], rows[~stop]
    return v, iterations, mismatch < tol, mismatch


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


# -- training oracle -------------------------------------------------------


def reference_initial_parameters(plan: MaskPlan, model: FeederModel, seed: int, inputs=None):
    """(theta, mask) of ``MaskedNetwork(plan, model, seed, inputs)`` as networks
    were first built: each layer's live rows drawn in bus order over every
    cell, beside its mask as the kron of the plan's bus mask with an F x C
    (F x F) block of LIVE; then every hidden-unit axis permuted into the
    ``rcm_order`` unit order; then W_0's ``inputs`` columns taken (every
    cell if None) and the masked entries zeroed."""
    n, f, slots = model.n_buses, plan.block_width, len(model.slots)
    units = (rcm_order(plan.adjacency)[:, None] * f + np.arange(f)).ravel()
    cells = np.arange(n * INPUT_CHANNELS) if inputs is None else np.asarray(inputs, dtype=int)
    rng = np.random.default_rng(seed)
    weights, biases, weight_masks, bias_masks = [], [], [], []
    for t, mask in enumerate(plan.masks):
        wm = np.kron(mask, np.full((f, f if t else INPUT_CHANNELS), LIVE))
        fan_in = np.count_nonzero(wm, axis=1)
        live = fan_in > 0
        w = np.zeros(wm.shape)
        w[live] = rng.normal(0.0, 1.0, (int(live.sum()), w.shape[1])) * np.sqrt(
            2.0 / fan_in[live])[:, None]
        w, wm = w[units], wm[units]  # the permutation, rows first
        cols = units if t else cells  # then the hidden columns, or the column take
        weights.append(w[:, cols])
        weight_masks.append(wm[:, cols])
        biases.append(np.zeros(n * f))
        bias_masks.append((LIVE * live)[units])
    readout = [rng.normal(0.0, 1.0, (slots, f)) / np.sqrt(f), np.ones(slots)]
    theta = np.concatenate([a.ravel() for a in weights + biases + readout])
    mask = np.concatenate([a.ravel() for a in weight_masks + bias_masks]
                          + [np.full(slots * (f + 1), LIVE)])
    return np.where(mask != 0, theta, 0.0), mask


def parameter_masks(net: MaskedNetwork) -> list:
    """Bool mask of each parameter array, in ``parameters()`` order: the
    views of ``net.mask``."""
    w, b, rw, rb = net._views(net.mask)
    return [m != 0 for m in w + b + [rw, rb]]


def exit_routing(net: MaskedNetwork) -> list:
    """(exit layer, slot indices, their buses' block positions) per exit layer,
    worked out from the plan's ``exit_layer``, the network's slots and its unit
    order: bus ``net.order[i]`` has the i-th F-block of every hidden layer."""
    slot_bus = np.array([b for b, _ in net.slots])
    slot_exit = net.plan.exit_layer[slot_bus]
    block = {int(b): i for i, b in enumerate(net.order)}
    slot_block = np.array([block[b] for b in slot_bus.tolist()])
    return [(e, np.flatnonzero(slot_exit == e), slot_block[slot_exit == e])
            for e in np.unique(slot_exit).tolist()]


def readout_matrices(net: MaskedNetwork) -> list:
    """(exit layer, slot indices, their buses' blocks, R) per exit layer: R is a
    (slots x n_buses*F) matrix of zeros, but for each slot exiting there,
    whose ``readout_w`` row sits at its bus's F-block, written slot by slot."""
    out = []
    for e, sel, bus in exit_routing(net):
        r = np.zeros((len(net.slots), net.n_buses * net.f))
        for s, b in zip(sel, bus):
            r[s, b * net.f : (b + 1) * net.f] = net.readout_w[s]
        out.append((e, sel, bus, r))
    return out


def dense_readout(net: MaskedNetwork, acts):
    """The readout as masked dense products: acts[e] @ R^T summed over the exit
    layers in order, plus ``readout_b``."""
    (e, _, _, r), *rest = readout_matrices(net)
    out = acts[e] @ r.T
    for e, _, _, r in rest:
        out = out + acts[e] @ r.T
    return out + net.readout_b


def dense_readout_backward(net: MaskedNetwork, acts, d_out, d_acts):
    """``readout_w``'s gradient, each slot's own block of the dense product
    d_out^T @ acts[e]; each exit layer's d_acts[e] is set to d_out @ R."""
    g_rw = np.empty_like(net.readout_w)
    for e, sel, bus, r in readout_matrices(net):
        g = d_out.T @ acts[e]
        for s, b in zip(sel, bus):
            g_rw[s] = g[s, b * net.f : (b + 1) * net.f]
        d_acts[e] = d_out @ r
    return g_rw


def einsum_readout(net: MaskedNetwork, acts):
    """The readout as it was before its dense products: per exit layer, the
    slots' blocks gathered and read out by one ``einsum``."""
    out = np.empty((len(acts[0]), len(net.slots)))
    for e, sel, bus in exit_routing(net):
        block = acts[e].reshape(len(out), net.n_buses, net.f)[:, bus]
        out[:, sel] = np.einsum("bsf,sf->bs", block, net.readout_w[sel]) + net.readout_b[sel]
    return out


def einsum_readout_backward(net: MaskedNetwork, acts, d_out, d_acts):
    """``einsum_readout``'s gradients: ``readout_w``'s by ``einsum``, each exit
    layer's scattered slot by slot into d_acts[e] with ``np.add.at``."""
    g_rw = np.empty_like(net.readout_w)
    for e, sel, bus in exit_routing(net):
        block = acts[e].reshape(len(d_out), net.n_buses, net.f)[:, bus]
        g_rw[sel] = np.einsum("bs,bsf->sf", d_out[:, sel], block)
        d_block = d_acts[e].reshape(len(d_out), net.n_buses, net.f)
        np.add.at(d_block, (slice(None), bus), d_out[:, sel, None] * net.readout_w[sel])
    return g_rw


READOUTS = {"dense": (dense_readout, dense_readout_backward),
            "einsum": (einsum_readout, einsum_readout_backward)}


def reference_forward(net: MaskedNetwork, x, readout="dense"):
    """Dense forward pass of ``net`` on the ``net.inputs`` columns of ``x``:
    (outputs, pre-activations, activations, the first being those columns).
    ``readout`` names the readout's form in ``READOUTS``."""
    k = np.take(np.atleast_2d(x), net.inputs, axis=1)  # C order, as x[:, inputs] is not
    pre = []
    acts = [k]
    for w, b, (panels, _) in zip(net.weights, net.biases, net.panels(len(k))):
        # a layer the network cuts into panels reads a unit-major copy of its
        # input, as the network's products do: BLAS sums in an order that
        # depends on the operands' layout
        z = (k if panels is WHOLE else np.ascontiguousarray(k.T).T) @ w.T + b
        pre.append(z)
        k = np.where(z >= 0, z, LEAKY_SLOPE * z)
        acts.append(k)
    return READOUTS[readout][0](net, acts), pre, acts


def reference_loss_and_gradients(net: MaskedNetwork, x, targets, readout="dense"):
    """Summed squared error and per-array gradients of ``net``, each weight
    gradient a dense product with 0.0 at its masked entries, and the
    readout's as ``readout`` (a name in ``READOUTS``) computes it."""
    x = np.atleast_2d(x)
    targets = np.atleast_2d(targets)
    out, pre, acts = reference_forward(net, x, readout)
    diff = out - targets
    loss = float(np.sum(diff * diff))

    d_out = 2.0 * diff
    d_acts = [np.zeros_like(a) for a in acts]
    g_rw = READOUTS[readout][1](net, acts, d_out, d_acts)
    g_rb = d_out.sum(axis=0)

    g_w = [np.zeros_like(w) for w in net.weights]
    g_b = [np.zeros_like(b) for b in net.biases]
    masks = parameter_masks(net)
    for t in range(net.plan.depth - 1, -1, -1):
        d_pre = d_acts[t + 1] * np.where(pre[t] >= 0, 1.0, LEAKY_SLOPE)
        g_w[t] = np.where(masks[t], d_pre.T @ acts[t], 0.0)
        g_b[t] = np.where(masks[net.plan.depth + t], d_pre.sum(axis=0), 0.0)
        d_acts[t] += d_pre @ net.weights[t]
    return loss, g_w + g_b + [g_rw, g_rb]


def reference_train(plan, model, features, targets, config=None):
    """ADAM training as ``dsse.network.train`` specifies it, run on each
    parameter array separately over every dense entry, with the masks
    re-applied after every update and the gradients of
    ``reference_loss_and_gradients``, on a network that reads the columns of
    ``features`` nonzero in some row. Returns (network, curve,
    heldout_indices)."""
    config = config or TrainConfig()
    train_idx, val_idx = split_indices(len(features), config.train_fraction, config.seed)
    if len(train_idx) == 0 or len(val_idx) == 0:
        raise ValueError("dataset too small for the configured split")
    net = MaskedNetwork(plan, model, config.seed,
                        [c for c in range(features.shape[1]) if np.any(features[:, c])])
    x_tr, y_tr = features[train_idx], targets[train_idx]
    x_val, y_val = features[val_idx], targets[val_idx]

    params = net.parameters()
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    masks = parameter_masks(net)
    rng = np.random.default_rng(config.seed + 1)

    def val_loss():
        out, _, _ = reference_forward(net, x_val)
        return float(np.mean(np.sum((out - y_val) ** 2, axis=1)))

    best = (val_loss(), [p.copy() for p in params])
    curve = []
    step = 0
    stale = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(x_tr))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = reference_loss_and_gradients(net, x_tr[batch], y_tr[batch])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss} at epoch {epoch}")
            epoch_loss += loss
            step += 1
            inv_b = 1.0 / len(batch)
            for p, g, mi, vi, mask in zip(params, grads, m, v, masks):
                g = g * inv_b  # per-sample scale so lr is batch-size free
                mi *= ADAM_BETA1
                mi += (1 - ADAM_BETA1) * g
                vi *= ADAM_BETA2
                vi += (1 - ADAM_BETA2) * g * g
                m_hat = mi / (1 - ADAM_BETA1**step)
                v_hat = vi / (1 - ADAM_BETA2**step)
                p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                p *= mask
        vl = val_loss()
        curve.append((epoch, epoch_loss / max(len(x_tr), 1), vl))
        if vl < best[0] - 1e-12:
            best = (vl, [p.copy() for p in params])
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    net.set_parameters(best[1])
    return net, curve, val_idx


# -- dataset generation ----------------------------------------------------


def reference_generate(model, template, profile, pmu_buses) -> Dataset:
    """``dsse.pipeline.generate_dataset`` as a loop over samples: each sample
    builds a load dict, solves its own power flow (resampling up to 20 times
    on non-convergence) and synthesizes its measurements from the same
    generator."""
    seed = profile.seed
    embedding = InputEmbedding(model, template)
    base_loads = sorted(model.loads, key=lambda l: l.bus)

    values = np.empty((profile.samples, len(template)))
    variances = np.empty((profile.samples, len(template)))
    v_true = np.empty((profile.samples, model.n_slots))
    resampled = 0
    for i in range(profile.samples):
        attempt = 0
        while True:
            rng = np.random.default_rng([seed, i, attempt])
            mult = sample_multipliers(profile, rng, len(base_loads))
            loads = {
                ld.bus: {p: s * k for p, s in ld.power.items()}
                for ld, k in zip(base_loads, mult)
            }
            try:
                pf = solve_power_flow(model, loads)
                break
            except NotConvergedError:
                resampled += 1
                attempt += 1
                if attempt > 20:
                    raise
        mset = synthesize(template, pf.state, model, rng)
        values[i] = mset.values()
        variances[i] = mset.variances()
        v_true[i] = pf.state.magnitudes() / model.base_voltage

    return Dataset(
        template=template,
        pmu_buses=tuple(sorted(set(pmu_buses))),
        values=values,
        variances=variances,
        features=embedding.embed_values(values),
        v_true_pu=v_true,
        seed=seed,
        resampled=resampled,
        meta={"profile": asdict(profile)},
    )


# -- WLS ------------------------------------------------------------------


def reference_jacobian(ev: RowEvaluator, state: StateVector) -> np.ndarray:
    """``RowEvaluator.jacobian`` before constant rows were compiled: every
    row, PMU or injection, from the compiled ``C`` at each call."""
    v = state.values
    power = ev.power[:, None]
    own_slot = (ev.slot[:, None] == np.arange(ev.model.n_slots)).astype(float)
    # complex derivatives of each row's i or s w.r.t. e_s and f_s:
    # di/de = C, di/df = jC; ds/de = -(own conj(i) + V conj(C)),
    # ds/df = -j (own conj(i) - V conj(C)), own = one-hot at the row's slot
    own = own_slot * np.conj(ev.C @ v)[:, None]
    across = v[ev.slot][:, None] * np.conj(ev.C)
    d_e = np.where(power, -(own + across), ev.C)
    d_f = np.where(power, -1j * (own - across), 1j * ev.C)
    imag = ev.imag[:, None]
    H = np.empty((len(ev.slot), 2 * ev.model.n_slots))
    H[:, 0::2] = np.where(imag, d_e.imag, d_e.real)
    H[:, 1::2] = np.where(imag, d_f.imag, d_f.real)
    return H


def reference_objective(
    model: FeederModel, z: MeasurementSet, x: StateVector, evaluator=None
) -> float:
    """[z - h(x)]^T R^-1 [z - h(x)], optionally through a prebuilt evaluator."""
    ev = evaluator or RowEvaluator(model, z)
    r = z.values() - ev.h(x)
    return float(np.sum(r * r / z.variances()))


def reference_estimate(model: FeederModel, z: MeasurementSet) -> WlsReport:
    """``dsse.wls.estimate`` before compiled templates: a new evaluator, flat
    Jacobian and observability test per call, a full QR and two h(x)
    evaluations per step. Reads ``wls.MAX_ITER`` and ``wls.TOLERANCE`` at
    call time."""
    ev = RowEvaluator(model, z)
    zv, variances = z.values(), z.variances()
    if not (np.isfinite(zv).all() and (np.isfinite(variances) & (variances > 0)).all()):
        raise ValueError("measurement values must be finite, variances finite and positive")
    sigma = np.sqrt(variances)

    flat = slack_state(model)
    H = reference_jacobian(ev, flat)
    margin = check_observable(H / unit_bases(model, z)[:, None])
    x = flat
    j_cur = reference_objective(model, z, x, ev)
    base = model.base_voltage

    for it in range(1, wls.MAX_ITER + 1):
        if x is not flat:  # the first step reuses the flat-start H
            H = reference_jacobian(ev, x)
        # Gauss-Newton step: least squares on the sigma-whitened rows
        # (H / sigma) delta = r / sigma by QR, without the normal equations
        q, R = np.linalg.qr(H / sigma[:, None])
        delta = np.linalg.solve(R, q.T @ ((zv - ev.h(x)) / sigma))

        # step-halving guard: never accept an objective increase beyond
        # floating-point slack
        alpha = 1.0
        accepted = None
        for _ in range(MAX_STEP_HALVINGS + 1):
            x_try = StateVector.from_rect(x.rect + alpha * delta)
            j_try = reference_objective(model, z, x_try, ev)
            if j_try <= j_cur * (1.0 + 1e-9) + 1e-12:
                accepted = (x_try, min(j_try, j_cur), alpha)
                break
            alpha *= 0.5
        if accepted is None:
            # no productive step left; converged if the full step was already
            # below tolerance, otherwise report the stall
            if float(np.max(np.abs(delta))) / base < wls.TOLERANCE:
                return WlsReport(x, j_cur, it, True, margin)
            raise NonConvergedError(WlsReport(x, j_cur, it, False, margin))
        x, j_cur, alpha = accepted

        if float(np.max(np.abs(alpha * delta))) / base < wls.TOLERANCE:
            return WlsReport(x, j_cur, it, True, margin)

    raise NonConvergedError(WlsReport(x, j_cur, wls.MAX_ITER, False, margin))
