"""Masked feed-forward network with early-exit readouts, trained with ADAM.

Layer recursion: k_t = leaky_relu(W_t k_{t-1} + b_t) with k_0 the embedded
measurement vector, each row's per-unit value in its own (bus, phase, kind)
cell. W_t is gated by the plan's bus mask expanded to F x F blocks (F x C
for the input layer). The input layer reads only the feature cells
``inputs`` the network is built with: every cell by default, and in one
from ``train`` the cells its data fills, so no pass multiplies cells that
are 0 in every sample. All parameters are views of one flat vector
``theta``, gated by one int vector ``mask`` laid out like it; masked
entries are zero from initialisation on and ADAM updates only the live
ones. A per-slot linear head reads bus b from layer ``exit_layer[b]``, all
slots in slot order: per exit layer e, one product of the layer's
activations with a readout matrix that holds each slot exiting at e's
``readout_w`` row at its bus's block.

Hidden units run in a banded bus order, the ``rcm_order`` of the plan's
adjacency (``order``): a hidden layer's forward product and both gradients
run as a few dense panels over that order, the least-cost cut of its mask
for a pass's row count (``panels``), the forward ones on a unit-major copy
of the layer's input; the input layer is one product.
Checkpoints keep every array in bus order.

Gradients are hand-rolled reverse mode into one array laid out like
``theta``, exactly +0.0 at masked entries, also where no panel writes.
Targets and outputs are per-unit voltage magnitudes.

Every pass writes its intermediates into a ``Workspace`` with ``out=``,
keeping the operands and order of the plain expressions, so results are
bit-for-bit those of freshly allocated arrays, and each panel gives the
bytes of the whole masked product on the unit order. ``train`` allocates its
workspaces, ADAM's vectors and the best-epoch snapshot once per call; a
caller of ``forward`` or ``loss_and_gradients`` that passes no workspace
gets one for that call. Returned arrays are fresh, except gradients
written into a caller's ``out``.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np

from dsse.grid_model import PHASES, FeederModel, check_fields, is_bus_list
from dsse.measurements import MeasurementSet, row_index, unit_bases
from dsse.partitioning import (MaskPlan, build_mask_plan, least_cost_cut, partition_at_pmus,
                               rcm_order)

LEAKY_SLOPE = 0.01
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
LIVE = -1  # a live ``mask`` entry: all bits set, so ANDed with a float's bits it keeps it
# one more product costs about this many multiply-adds: about 2 us a call at
# 25-40 multiply-adds per ns (OpenBLAS 0.3.31, one thread, 2-core x86-64)
PRODUCT_COST = 80_000
# OpenBLAS groups a product's terms by their offset, so only panels whose
# edges fall on multiples of this sum as the whole product does
PANEL_ALIGN = 8
WHOLE = [(slice(None), slice(None))]  # the panels of a layer that is one product

# input cells per bus and phase, one per row kind code (``KIND_CODE``)
CHANNELS_PER_PHASE = 6
INPUT_CHANNELS = 3 * CHANNELS_PER_PHASE
INPUT_LAYOUT = 2  # checkpoint stamp: one cell per row, currents at the downstream bus


class InputEmbedding:
    """Puts each row's per-unit value in its own cell (bus, phase, kind code): a
    branch-current row at the branch's downstream bus, which only that branch
    feeds, any other row at its bus. Rows off the feeder (``row_index``) or sharing
    a cell are rejected. Layout: bus-major, phase-major (A, B, C), then kind."""

    def __init__(self, model: FeederModel, template: MeasurementSet):
        self.width = model.n_buses * INPUT_CHANNELS
        _, branch = row_index(model, template)
        code, bus = template.code, template.locus.copy()
        bus[branch] = model.downstream_bus[bus[branch]]
        phase = np.array([PHASES.index(p) for p in template.phase.tolist()], dtype=int)
        self._index = bus * INPUT_CHANNELS + phase * CHANNELS_PER_PHASE + code
        shared = np.setdiff1d(np.arange(len(code)), np.unique(self._index, return_index=True)[1])
        if len(shared):
            raise ValueError(f"measurement row {shared[0]} shares an earlier row's input cell")
        self._scale = unit_bases(model, template)

    def embed_values(self, values: np.ndarray) -> np.ndarray:
        """Value vector(s) -> feature vector(s); empty cells hold 0."""
        out = np.zeros(np.shape(values)[:-1] + (self.width,))
        out[..., self._index] = np.asarray(values) / self._scale
        return out


def check_batch(model, features, targets=None) -> None:
    """ValueError unless ``features`` is (rows, n_buses * INPUT_CHANNELS) and ``targets``,
    if given, (rows, slots), for ``model`` a FeederModel or a MaskedNetwork."""
    rows, width, slots = len(features), model.n_buses * INPUT_CHANNELS, len(model.slots)
    if np.shape(features) != (rows, width):
        raise ValueError(f"features must be of shape {(rows, width)}, got {np.shape(features)}")
    if targets is not None and np.shape(targets) != (rows, slots):
        raise ValueError(f"targets must be of shape {(rows, slots)}, got {np.shape(targets)}")


class MaskedNetwork:
    """Parameters {W_t, b_t} conforming to a MaskPlan, plus linear readouts,
    as views of one vector ``theta``; ``mask`` is laid out like it (LIVE or
    0), and ``live`` indexes its live entries. Hidden unit u is channel u % F
    of bus ``order[u // F]``, and ``units[u]`` its index in bus order.
    ``inputs``, increasing ints below n_buses * INPUT_CHANNELS (every cell
    if None; ValueError for any other), are the feature cells W_0's columns
    read. Each weight row is drawn over every cell, in bus order, and then
    kept in this layout: a network over some cells holds those columns of
    the one over all of them."""

    def __init__(self, plan: MaskPlan, model: FeederModel, seed: int = 0, inputs=None):
        self.plan = plan
        self.n_buses = model.n_buses
        self.f = plan.block_width
        self.slots = list(model.slots)
        # set by ``train``: the curve index of the epoch whose parameters it
        # kept (None for the initialisation) and their held-out loss
        self.best_epoch = self.best_loss = None
        n, f, depth, slots = self.n_buses, self.f, plan.depth, len(self.slots)
        cells = np.arange(n * INPUT_CHANNELS) if inputs is None else np.asarray(inputs)
        if (cells.ndim != 1 or cells.size and cells.dtype.kind not in "iu"
                or np.any(np.diff(cells, prepend=-1, append=n * INPUT_CHANNELS) <= 0)):
            raise ValueError(f"input cells must increase and be ints in [0, {n * INPUT_CHANNELS}),"
                             f" got {cells.tolist()!r}")
        self.inputs = cells.astype(int)
        self.order = rcm_order(plan.adjacency)
        self.units = (self.order[:, None] * f + np.arange(f)).ravel()
        # the layers that feed a readout, and where each slot's ``readout_w``
        # row sits in a workspace's stacked readout matrices: in its exit
        # layer's matrix, its own row and its bus's F-block
        slot_bus = np.array([b for b, _ in self.slots])
        self.exits = np.unique(plan.exit_layer).tolist()
        slot_exit = np.searchsorted(self.exits, plan.exit_layer[slot_bus])
        block = np.argsort(self.order)[slot_bus]  # a bus's block in unit order
        start = ((slot_exit * slots + np.arange(slots)) * n + block) * f
        self.readout_cells = start[:, None] + np.arange(f)
        self._panels = {}  # by row count

        # theta: depth weight matrices (F x C blocks at the input layer, F x F
        # after), depth biases and the readout, in unit order and with W_0's
        # ``inputs`` columns only; ``mask`` is LIVE at its live entries
        widths = [INPUT_CHANNELS] + [f] * (depth - 1)  # input cells per bus, layer by layer
        cols = [self.inputs] + [self.units] * (depth - 1)  # W_t's columns, as bus-order cells
        shapes = [(n * f, len(c)) for c in cols] + [(n * f,)] * depth + [(slots, f), (slots,)]
        ends = np.cumsum([np.prod(shape) for shape in shapes]).tolist()
        self._spans = [(end - np.prod(shape), end, shape) for shape, end in zip(shapes, ends)]
        self.theta, self.mask = np.zeros(ends[-1]), np.zeros(ends[-1], dtype=int)
        self.weights, self.biases, self.readout_w, self.readout_b = self._views(self.theta)
        weight_masks, bias_masks, readout_wm, readout_bm = self._views(self.mask)
        rng = np.random.default_rng(seed)
        unit_row = np.argsort(self.units)  # bus-order row r is unit row unit_row[r]
        for mask, c, col, w, wm, bm in zip(plan.masks, widths, cols, self.weights,
                                           weight_masks, bias_masks):
            # a live row's normals are drawn in bus order over every cell, so
            # the random stream does not depend on the order or ``inputs``;
            # they go to its unit row, in the columns ``col``
            fan_in = np.repeat(mask.sum(axis=1) * c, f)
            live = fan_in > 0  # a row without live weights has no live bias
            scale = np.sqrt(2.0 / fan_in[live])[:, None]
            w[unit_row[live]] = rng.normal(0.0, 1.0, (int(live.sum()), n * c))[:, col] * scale
            wm.reshape(n, f, len(col))[...] = (LIVE * mask[np.ix_(self.order, col // c)])[:, None]
            bm[...] = LIVE * live[self.units]
        self.readout_w[...] = rng.normal(0.0, 1.0, (slots, f)) / np.sqrt(f)
        self.readout_b[...] = 1.0  # magnitudes sit near 1 p.u.
        readout_wm[...] = readout_bm[...] = LIVE
        np.bitwise_and(self.theta.view(np.int64), self.mask, out=self.theta.view(np.int64))
        self.live = np.flatnonzero(self.mask)

    # -- parameter plumbing ------------------------------------------------

    def _views(self, flat):
        """(weights, biases, readout_w, readout_b) as views of a theta-like vector."""
        v, t = [flat[a:b].reshape(shape) for a, b, shape in self._spans], self.plan.depth
        return v[:t], v[t : 2 * t], v[2 * t], v[2 * t + 1]

    def _unit_axes(self, params, index):
        """Arrays in ``parameters()`` order with every hidden-unit axis indexed by
        ``index``, one at a time: ``units`` takes bus order to unit order, its
        ``argsort`` back."""
        for i, p in enumerate(map(np.asarray, params)):
            yield p[np.ix_(index, index)] if 0 < i < self.plan.depth else (
                p[index] if i < 2 * self.plan.depth else p)

    def parameters(self):
        return self.weights + self.biases + [self.readout_w, self.readout_b]

    def parameter_names(self):
        t = range(self.plan.depth)
        return [f"w{i}" for i in t] + [f"b{i}" for i in t] + ["readout_w", "readout_b"]

    def set_parameters(self, params, bus_order: bool = False):
        """Copy arrays in ``parameters()`` order into ``theta``, masked entries
        as 0. With ``bus_order`` their hidden-unit axes run in bus order, as
        checkpoints keep them. Raises ValueError, naming the array, unless
        every array is present (not None), has the plan's shape and is finite."""
        for name, p, new in zip(self.parameter_names(), self.parameters(), params, strict=True):
            if new is None or np.shape(new) != p.shape:
                raise ValueError(f"parameter {name} is missing or not of shape {p.shape}")
            if np.asarray(new).dtype.kind not in "biuf" or not np.isfinite(new).all():
                raise ValueError(f"parameter {name} must hold finite real numbers")
        for p, new in zip(self.parameters(), self._unit_axes(params, self.units) if bus_order
                          else params):
            p[...] = new
        np.bitwise_and(self.theta.view(np.int64), self.mask, out=self.theta.view(np.int64))

    # -- evaluation --------------------------------------------------------

    def panels(self, rows: int):
        """Per layer, the (panels, gaps) a pass over ``rows`` rows multiplies. A
        panel is a (rows, columns) pair of unit slices, which the input
        gradient reads as (columns, rows): the masks are symmetric. Gaps are
        the rows in no panel. A hidden layer takes the ``least_cost_cut`` of
        its mask in ``order`` at rows * F^2 per bus pair of area and
        PRODUCT_COST per panel, and WHOLE, one product, where that is one
        panel, as the input layer does. So does every layer if F %
        PANEL_ALIGN, and every one where rows * (F * n)^2 <= PRODUCT_COST,
        which no cut into two panels can beat."""
        if rows not in self._panels:
            f, n, depth = self.f, self.n_buses, self.plan.depth
            layers = [(WHOLE, [])] * depth
            if not (f % PANEL_ALIGN or rows * (f * n) ** 2 <= PRODUCT_COST):
                banded = self.plan.life[np.ix_(self.order, self.order)]
                for t in range(1, depth):
                    cut = least_cost_cut(banded > t, rows * f * f, PRODUCT_COST)
                    if len(cut) > 1:
                        stops, starts = zip(*[(r1, r0) for r0, r1, _, _ in cut])
                        layers[t] = (
                            [(slice(f * r0, f * r1), slice(f * c0, f * c1))
                             for r0, r1, c0, c1 in cut],
                            [slice(f * a, f * b) for a, b in zip((0,) + stops, starts + (n,))
                             if a < b])
            self._panels[rows] = layers
        return self._panels[rows]

    def _forward(self, x, ws):
        """Outputs for the rows of ``x``, a fresh array. Leaves the ``inputs``
        columns of ``x``, each layer's pre-activation and activation, and the
        readout matrices, in ``ws``, which must have exactly ``len(x)`` rows."""
        n = len(x)
        if n != ws.rows:
            raise ValueError(f"a pass over {n} rows needs a workspace of {n} rows, not {ws.rows}")
        k = x.take(self.inputs, axis=1, out=ws.x, mode="clip")
        layers = zip(self.weights, self.biases, ws.pre, ws.act, ws.panels)
        for w, b, z, act, (panels, gaps) in layers:
            if panels is WHOLE:
                np.matmul(k, w.T, out=z)
            else:
                if ws.kt is not None:  # a unit-major copy: BLAS then sums each panel's
                    np.copyto(ws.kt, k.T)  # terms in the order of the whole product's
                    k = ws.kt.T
                for rows, cols in panels:
                    np.matmul(k[:, cols], w[rows, cols].T, out=z[:, rows])
                for rows in gaps:  # exactly 0, as the whole product gives them
                    z[:, rows] = 0.0
            z += b
            k = act
            np.multiply(z, LEAKY_SLOPE, out=k)
            np.maximum(z, k, out=k)  # leaky ReLU, exact for 0 < slope < 1
        # one product per exit layer with the readout matrix of the current
        # ``readout_w``, summed in layer order
        ws.readout.put(self.readout_cells, self.readout_w)
        (e, r), *rest = zip(self.exits, ws.readout)
        y = np.matmul(ws.act[e - 1], r.T)
        for e, r in rest:
            y += np.matmul(ws.act[e - 1], r.T)
        y += self.readout_b
        return y

    def forward(self, x: np.ndarray, workspace: Workspace | None = None) -> np.ndarray:
        """Per (bus, phase) voltage magnitudes (p.u.) for feature vector(s), a
        fresh array. Scratch arrays come from ``workspace`` (either kind), or
        from one made for this call. ValueError for rows that fail ``check_batch``."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        check_batch(self, x)
        ws = Workspace(self, len(x), backward=False) if workspace is None else workspace
        out = self._forward(x, ws)
        return out[0] if single else out

    def loss_and_gradients(self, x, targets, out=None, workspace: Workspace | None = None):
        """Summed squared L2 magnitude error over the batch, plus gradients
        aligned with ``parameters()``: views of one array laid out like
        ``theta`` (``out`` if given). Masked entries get exactly 0. Scratch
        arrays come from ``workspace`` (a backward one), or from one made
        for this call. ValueError for arrays that fail ``check_batch``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        targets = np.atleast_2d(targets)
        n = len(x)
        if n == 0:
            raise ValueError("empty batch")
        check_batch(self, x, targets)
        ws = Workspace(self, n) if workspace is None else workspace
        if not ws.backward:
            raise ValueError("a forward-only workspace cannot hold a backward pass")
        y = self._forward(x, ws)
        diff = y - targets
        loss = float(np.sum(diff * diff))

        grad = np.empty_like(self.theta) if out is None else out
        g_w, g_b, g_rw, g_rb = self._views(grad)
        d_out = 2.0 * diff
        d_act = ws.d_act  # d_act[t]: gradient w.r.t. ws.act[t]
        d_out.sum(axis=0, out=g_rb)
        # per exit layer, every slot against every block, and the layer's
        # gradient through the readout matrix; g_rw takes each slot's own block
        for e, r, g in zip(self.exits, ws.readout, ws.readout_grad):
            np.matmul(d_out.T, ws.act[e - 1], out=g)
            np.matmul(d_out, r, out=d_act[e - 1])
        ws.readout_grad.take(self.readout_cells, out=g_rw, mode="clip")

        for t in range(self.plan.depth - 1, -1, -1):
            d, pre = d_act[t], ws.pre[t]
            # pre[t] is spent: it takes the leaky ReLU's slope (1 or LEAKY_SLOPE),
            # then the product that carries the gradient down a layer
            slope = np.greater_equal(pre, 0, out=pre, casting="unsafe")
            d *= np.maximum(slope, LEAKY_SLOPE, out=slope)  # now w.r.t. pre[t]
            a, g, w = ws.act[t - 1] if t else ws.x, g_w[t], self.weights[t]
            panels = ws.panels[t][0]
            if panels is WHOLE:
                np.matmul(d.T, a, out=g)
                down = [(d, w, d_act[t - 1], pre)] if t else []
            else:  # a panel's rows are the input gradient's columns
                for rows, cols in panels:
                    np.matmul(d[:, rows].T, a[:, cols], out=g[rows, cols])
                down = [(d[:, cols], w[cols, rows], d_act[t - 1][:, rows], pre[:, rows])
                        for rows, cols in panels]
            d.sum(axis=0, out=g_b[t])
            # nothing reads the input's gradient; a layer that feeds a readout
            # adds this one's to the readouts', any other takes it as it is.
            # A column in no panel keeps the readouts' gradient, or its 0
            for d_in, w_in, below, scratch in down:
                if t in self.exits:
                    below += np.matmul(d_in, w_in, out=scratch)
                else:
                    np.matmul(d_in, w_in, out=below)
        # +0.0 at every masked entry, also where no panel wrote
        np.bitwise_and(grad.view(np.int64), self.mask, out=grad.view(np.int64))
        return loss, g_w + g_b + [g_rw, g_rb]


class Workspace:
    """Scratch arrays for passes of ``net`` over exactly ``rows`` samples; a
    pass over any other count is a ValueError. Activations are slices of one
    array ``acts``. A ``backward`` workspace keeps an activation slice, a
    pre-activation and a gradient buffer per layer, and per exit layer the
    readout's (slots x n_buses*F) gradient, as ``loss_and_gradients`` needs.
    A forward-only one, all ``forward`` needs, gives its own slice only to
    layers that feed a readout; the other layers share one, and every layer
    shares one pre-activation buffer. Either kind holds the ``panels`` of its
    row count, the ``inputs`` columns of a pass's rows in ``x``, the input of
    a layer cut into panels unit-major in ``kt`` (None for one row, which is
    unit-major already), and per exit layer e a
    readout matrix ``readout[i]`` (i = ``net.exits.index(e)``), zero except
    that each slot exiting at e has its ``readout_w`` row at its bus's
    F-block. Every pass writes the current ``readout_w`` into it, so it
    cannot go stale."""

    def __init__(self, net: MaskedNetwork, rows: int, backward: bool = True):
        shape = (rows, net.n_buses * net.f)
        depth = net.plan.depth
        self.rows = rows
        self.backward = backward
        self.panels = net.panels(rows)
        self.x = np.empty((rows, len(net.inputs)))
        self.readout = np.zeros((len(net.exits), len(net.slots), shape[1]))
        if backward:
            layer_slice = np.arange(depth)
            self.pre = [np.empty(shape) for _ in range(depth)]
            self.d_act = [np.zeros(shape) for _ in range(depth)]
            self.readout_grad = np.empty_like(self.readout)
        else:
            exits = np.array(net.exits)
            layer_slice = np.full(depth, len(exits))
            layer_slice[exits - 1] = np.arange(len(exits))
            self.pre = [np.empty(shape)] * depth
        self.acts = np.empty((layer_slice.max() + 1,) + shape)
        self.act = [self.acts[i] for i in layer_slice.tolist()]
        # the last layer's slice, which only the last leaky ReLU writes
        self.kt = self.act[-1].reshape(shape[::-1]) if rows > 1 else None


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 300
    seed: int = 0
    train_fraction: float = 0.9
    patience: int = 20

    def __post_init__(self):
        check_fields(vars(self), (("epochs", self.epochs >= 1, ">= 1"),
                                  ("batch_size", self.batch_size >= 1, ">= 1"),
                                  ("patience", self.patience >= 1, ">= 1"),
                                  ("seed", self.seed >= 0, ">= 0"),
                                  ("learning_rate", 0 <= self.learning_rate < np.inf,
                                   "finite and >= 0"),
                                  ("train_fraction", 0 < self.train_fraction < 1, "in (0, 1)")))


@dataclass
class EvalReport:
    nu: float  # mean squared L2 voltage-magnitude error over samples
    n_samples: int


class TrainingDiverged(RuntimeError):
    pass


def split_indices(n: int, fraction: float, seed: int):
    """Seeded shuffle split: (train indices, held-out indices)."""
    rng = np.random.default_rng(seed)
    idx = rng.permutation(n)
    cut = int(round(n * fraction))
    return idx[:cut], idx[cut:]


def train(
    plan: MaskPlan,
    model: FeederModel,
    features: np.ndarray,
    targets: np.ndarray,
    config: TrainConfig | None = None,
):
    """ADAM training of the summed squared-error objective.

    Splits ``features``/``targets`` per ``train_fraction`` with a seeded
    shuffle, trains on the first part, tracks loss on the held-out part,
    and returns the parameters at the best held-out loss. Deterministic
    per seed. The network reads only the columns of ``features`` that are
    nonzero in some row (its ``inputs``). Returns (network, curve,
    heldout_indices). ValueError for arrays that fail ``check_batch`` or an
    empty part; TrainingDiverged once a minibatch loss is not finite.

    All scratch arrays -- a workspace per minibatch size and one held-out,
    ADAM's vectors and the best-epoch snapshot -- are allocated once per call.
    """
    config = config or TrainConfig()
    check_batch(model, features, targets)
    train_idx, val_idx = split_indices(len(features), config.train_fraction, config.seed)
    if len(train_idx) == 0 or len(val_idx) == 0:
        raise ValueError("dataset too small for the configured split")
    net = MaskedNetwork(plan, model, config.seed, np.flatnonzero(features.any(axis=0)))
    x_tr, y_tr = features[train_idx], targets[train_idx]
    x_val, y_val = features[val_idx], targets[val_idx]

    # scratch for the call: minibatch and held-out passes, and ADAM on the
    # live entries of theta only (masked ones stay zero), all in place; ``p``
    # holds the live entries, and each step writes them back to theta
    live = net.live
    p = net.theta[live]
    m = np.zeros(len(live))
    v = np.zeros(len(live))
    g = np.empty(len(live))
    s = np.empty(len(live))
    grad = np.empty_like(net.theta)
    rows = min(config.batch_size, len(x_tr))
    x_batch = np.empty_like(x_tr, shape=(rows,) + x_tr.shape[1:])
    y_batch = np.empty_like(y_tr, shape=(rows,) + y_tr.shape[1:])
    step_ws = {n: Workspace(net, n) for n in (rows, len(x_tr) % rows) if n}
    val_ws = Workspace(net, len(x_val), backward=False)
    rng = np.random.default_rng(config.seed + 1)

    def val_loss():
        return nu(net.forward(x_val, val_ws), y_val)

    best_loss, best_theta, best_epoch = val_loss(), net.theta.copy(), None
    curve = []
    step = 0
    stale = 0
    # a diverging run overflows on its way to the non-finite loss that stops it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(len(x_tr))
            epoch_loss = 0.0
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                xb = x_tr.take(batch, axis=0, out=x_batch[: len(batch)], mode="clip")
                yb = y_tr.take(batch, axis=0, out=y_batch[: len(batch)], mode="clip")
                loss, _ = net.loss_and_gradients(xb, yb, out=grad, workspace=step_ws[len(batch)])
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"loss became {loss} at epoch {epoch}")
                epoch_loss += loss
                step += 1
                # ADAM in two scratch vectors, each reused once spent
                grad.take(live, out=g, mode="clip")
                g *= 1.0 / len(batch)  # per-sample scale so lr is batch-size free
                m *= ADAM_BETA1
                m += np.multiply(g, 1 - ADAM_BETA1, out=s)
                v *= ADAM_BETA2
                np.multiply(g, 1 - ADAM_BETA2, out=s)
                s *= g
                v += s
                m_hat = np.divide(m, 1 - ADAM_BETA1**step, out=s)
                v_hat = np.divide(v, 1 - ADAM_BETA2**step, out=g)
                denom = np.sqrt(v_hat, out=v_hat)
                denom += ADAM_EPS
                update = np.multiply(m_hat, config.learning_rate, out=m_hat)
                update /= denom
                p -= update
                net.theta[live] = p
            vl = val_loss()
            curve.append((epoch, epoch_loss / max(len(x_tr), 1), vl))
            if vl < best_loss - 1e-12:
                best_loss, best_epoch = vl, epoch
                np.copyto(best_theta, net.theta)
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    net.theta[:] = best_theta
    net.best_epoch, net.best_loss = best_epoch, best_loss
    return net, curve, val_idx


def nu(estimates, truth) -> float:
    """ν: the mean over samples of the summed squared magnitude error."""
    return float(np.mean(np.sum((np.asarray(estimates) - truth) ** 2, axis=1)))


def evaluate(net: MaskedNetwork, features: np.ndarray, targets: np.ndarray) -> EvalReport:
    """ν of ``net`` on ``features`` against ``targets`` (``check_batch``)."""
    if len(features) == 0:
        raise ValueError("empty test set")
    check_batch(net, features, targets)
    return EvalReport(nu(net.forward(features), targets), len(features))


# -- archives: datasets and checkpoints --------------------------------------


def write_npz(path, meta: dict, arrays: dict) -> None:
    """One ``.npz`` archive: ``arrays`` in their order, then ``meta`` as sorted-key JSON."""
    encoded = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays, meta=encoded)


def read_npz(path) -> tuple[dict, dict]:
    """(meta, arrays) of a ``write_npz`` file, every member read while it is open. A file
    that is no zip archive with a JSON object ``meta`` (cut short, empty, a member failing
    its CRC check, one ``.npy`` array, text or pickled data) is a ValueError naming it."""
    try:
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays.pop("meta")).decode())
        if not isinstance(meta, dict):
            raise ValueError("meta is no JSON object")
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
        raise ValueError(f"{path} is not an .npz archive with a JSON meta member") from exc
    return meta, arrays


def save_checkpoint(net: MaskedNetwork, path, pmu_buses, template: MeasurementSet) -> None:
    """Write ``net``'s parameters and a ``meta`` of ``kind`` (p2n2 if the plan is pruned,
    else pawnn), ``pmu_buses``, ``block_width``, ``plan_signature``, ``template_signature``
    (of ``template``), ``input_layout``, ``inputs``, ``n_buses`` and ``slots``
    (``write_npz``)."""
    meta = dict(kind="p2n2" if net.plan.pruned else "pawnn",
                pmu_buses=sorted({int(b) for b in pmu_buses}), block_width=net.f,
                plan_signature=net.plan.signature(), template_signature=template.signature(),
                input_layout=INPUT_LAYOUT, inputs=net.inputs.tolist(), n_buses=net.n_buses,
                slots=[[int(b), p] for b, p in net.slots])
    bus_order = net._unit_axes(net.parameters(), np.argsort(net.units))
    write_npz(path, meta, dict(zip(net.parameter_names(), bus_order)))


def load_checkpoint(path, model: FeederModel) -> tuple[MaskedNetwork, dict]:
    """(network, meta) from a ``save_checkpoint`` file (``read_npz``); the plan rebuilt on
    ``model`` from ``pmu_buses``, ``block_width`` and ``kind`` must hash to ``plan_signature``.
    The network reads the feature cells ``inputs``, or every cell if the field is absent.
    ValueError for an unreadable archive, a missing stamp, a missing or mistyped field,
    another plan, bad ``inputs`` or a bad array."""
    meta, arrays = read_npz(path)
    if meta.get("input_layout") != INPUT_LAYOUT:
        raise ValueError(f"checkpoint predates input layout {INPUT_LAYOUT}; retrain it")
    for name in ("kind", "pmu_buses", "block_width", "plan_signature", "template_signature"):
        if name not in meta:
            raise ValueError(f"checkpoint metadata lacks the field {name!r}")
    kind, pmu_buses, width = meta["kind"], meta["pmu_buses"], meta["block_width"]
    check_fields(meta, (("kind", kind in ("p2n2", "pawnn"), "'p2n2' or 'pawnn'"),
                        ("pmu_buses", is_bus_list(pmu_buses), "a list of ints"),
                        ("block_width", type(width) is int and width >= 1, "an int >= 1")),
                 "checkpoint metadata {!r}")
    plan = build_mask_plan(model, partition_at_pmus(model, pmu_buses), width,
                           prune=kind == "p2n2")
    if meta["plan_signature"] != plan.signature():
        raise ValueError("checkpoint plan hash does not match the feeder's plan")
    check_fields(meta, (("inputs", "inputs" not in meta or is_bus_list(meta["inputs"]),
                         "a list of ints"),), "checkpoint metadata {!r}")
    net = MaskedNetwork(plan, model, inputs=meta.get("inputs"))
    net.set_parameters([arrays.get(name) for name in net.parameter_names()], bus_order=True)
    return net, meta
