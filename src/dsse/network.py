"""Masked feed-forward network with early-exit readouts, trained with ADAM.

Layer recursion: k_t = leaky_relu(W_t k_{t-1} + b_t) with k_0 the embedded
measurement vector, each row's per-unit value in its own (bus, phase, kind)
cell. W_t is gated by the plan's bus mask expanded to F x F blocks (F x C
for the input layer). All parameters are views of one flat vector ``theta``;
masked entries are zero from initialisation on and ADAM updates only the
live ones. A per-slot linear head reads bus b from layer ``exit_layer[b]``.

Gradients are hand-rolled reverse mode into one array laid out like
``theta``, exactly 0 at masked entries. Targets and outputs are per-unit
voltage magnitudes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from dsse.grid_model import PHASES, FeederModel
from dsse.measurements import I_IMAG, I_REAL, KIND_CODE, MeasurementSet, unit_bases
from dsse.partitioning import MaskPlan

LEAKY_SLOPE = 0.01

# input cells per bus and phase, one per row kind code (``KIND_CODE``)
CHANNELS_PER_PHASE = 6
INPUT_CHANNELS = 3 * CHANNELS_PER_PHASE
INPUT_LAYOUT = 2  # checkpoint stamp: one cell per row, currents at the downstream bus


class TemplateMismatchError(ValueError):
    """Measurement rows differ from the template the embedding was built on."""


class InputEmbedding:
    """Puts each row's per-unit value in its own cell (bus, phase, kind code): a
    branch-current row at the branch's downstream bus, which only that branch
    feeds, any other row at its bus. Rows off the feeder or sharing a cell are
    rejected. Layout: bus-major, phase-major (A, B, C), then kind."""

    def __init__(self, model: FeederModel, template: MeasurementSet):
        self.signature = template.signature()
        self.width = model.n_buses * INPUT_CHANNELS
        code, bus = template.code, template.locus.copy()
        branch = (code == KIND_CODE[I_REAL]) | (code == KIND_CODE[I_IMAG])
        if ((bus < 0) | (bus >= np.where(branch, len(model.branches), model.n_buses))).any():
            raise ValueError("a measurement row's locus is not a bus or branch of the feeder")
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


def embed_input(z: MeasurementSet, embedding: InputEmbedding) -> np.ndarray:
    """Feature vector for one realized measurement set."""
    if z.signature() != embedding.signature:
        raise TemplateMismatchError(
            "measurement rows do not match the embedding's training template"
        )
    return embedding.embed_values(z.values())


def _leaky(x):
    return np.maximum(x, LEAKY_SLOPE * x)  # exact for 0 < slope < 1


class MaskedNetwork:
    """Parameters {W_t, b_t} conforming to a MaskPlan, plus linear readouts,
    as views of one vector ``theta``; ``live`` indexes its unmasked entries."""

    def __init__(self, plan: MaskPlan, model: FeederModel, seed: int = 0):
        self.plan = plan
        self.n_buses = model.n_buses
        self.f = plan.block_width
        self.slots = list(model.slots)
        self.slot_bus = np.array([b for b, _ in self.slots])
        # per exit layer: the slots it feeds, in slot order, their buses, and
        # per phase rank (place among its bus's slots) their positions and buses
        slot_exit = plan.exit_layer[self.slot_bus]
        self.exits = []
        for e in np.unique(slot_exit).tolist():
            sel = np.flatnonzero(slot_exit == e)
            bus = self.slot_bus[sel]
            rank = np.arange(len(bus)) - np.searchsorted(bus, bus)
            ranks = [np.flatnonzero(rank == r) for r in range(rank.max() + 1)]
            self.exits.append((e, sel, bus, [(i, bus[i]) for i in ranks]))

        f, c = self.f, INPUT_CHANNELS
        self.weight_masks = []
        for t, mask in enumerate(plan.masks):
            fin = c if t == 0 else f
            self.weight_masks.append(np.kron(mask, np.ones((f, fin))).astype(bool))
        self.bias_masks = [
            np.kron(mask.any(axis=1), np.ones(f)).astype(bool) for mask in plan.masks
        ]

        rng = np.random.default_rng(seed)
        params = []
        for wm in self.weight_masks:
            w = np.zeros(wm.shape)
            fan_in = wm.sum(axis=1)
            live = fan_in > 0
            w[live] = rng.normal(0.0, 1.0, (int(live.sum()), wm.shape[1])) * np.sqrt(
                2.0 / fan_in[live]
            )[:, None]
            params.append(w * wm)
        params += [np.zeros(wm.shape[0]) for wm in self.weight_masks]
        params.append(rng.normal(0.0, 1.0, (len(self.slots), self.f)) / np.sqrt(self.f))
        params.append(np.ones(len(self.slots)))  # magnitudes sit near 1 p.u.
        ends = np.cumsum([p.size for p in params]).tolist()
        self._spans = [(end - p.size, end, p.shape) for p, end in zip(params, ends)]
        self.theta = np.concatenate([p.ravel() for p in params])
        self.weights, self.biases, self.readout_w, self.readout_b = self._views(self.theta)
        self._mask = np.concatenate([m.ravel() for m in self.parameter_masks()])
        self.live = np.flatnonzero(self._mask)

    # -- parameter plumbing ------------------------------------------------

    def _views(self, flat):
        """(weights, biases, readout_w, readout_b) as views of a theta-like vector."""
        v = [flat[start:stop].reshape(shape) for start, stop, shape in self._spans]
        t = self.plan.depth
        return v[:t], v[t : 2 * t], v[2 * t], v[2 * t + 1]

    def parameters(self):
        return self.weights + self.biases + [self.readout_w, self.readout_b]

    def parameter_names(self):
        t = range(self.plan.depth)
        return [f"w{i}" for i in t] + [f"b{i}" for i in t] + ["readout_w", "readout_b"]

    def parameter_masks(self):
        return self.weight_masks + self.bias_masks + [
            np.ones_like(self.readout_w, dtype=bool), np.ones_like(self.readout_b, dtype=bool)
        ]

    def set_parameters(self, params):
        """Copy arrays in ``parameters()`` order, times their masks, into
        ``theta``. Raises ValueError, naming the array, unless every array
        is present (not None), has the plan's shape and is finite."""
        for name, p, new in zip(self.parameter_names(), self.parameters(), params, strict=True):
            if new is None or np.shape(new) != p.shape:
                raise ValueError(f"parameter {name} is missing or not of shape {p.shape}")
            if np.asarray(new).dtype.kind not in "biuf" or not np.isfinite(new).all():
                raise ValueError(f"parameter {name} must hold finite real numbers")
        for p, new in zip(self.parameters(), params):
            p[...] = new
        self.theta *= self._mask

    # -- evaluation --------------------------------------------------------

    def _forward_cached(self, x):
        x = np.atleast_2d(x)
        pre = []
        acts = [x]
        k = x
        for w, b in zip(self.weights, self.biases):
            z = k @ w.T + b
            pre.append(z)
            k = _leaky(z)
            acts.append(k)
        out = np.empty((x.shape[0], len(self.slots)))
        for e, sel, bus, _ in self.exits:
            block = acts[e].reshape(len(x), self.n_buses, self.f)[:, bus]
            out[:, sel] = np.einsum("bsf,sf->bs", block, self.readout_w[sel]) + self.readout_b[sel]
        return out, pre, acts

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Per (bus, phase) voltage magnitudes (p.u.) for feature vector(s)."""
        single = np.asarray(x).ndim == 1
        out, _, _ = self._forward_cached(x)
        return out[0] if single else out

    def loss_and_gradients(self, x, targets, out=None):
        """Summed squared L2 magnitude error over the batch, plus gradients
        aligned with ``parameters()``: views of one array laid out like
        ``theta`` (``out`` if given). Masked entries get exactly 0."""
        x = np.atleast_2d(x)
        targets = np.atleast_2d(targets)
        if x.shape[0] == 0:
            raise ValueError("empty batch")
        y, pre, acts = self._forward_cached(x)
        diff = y - targets
        loss = float(np.sum(diff * diff))

        grad = np.empty_like(self.theta) if out is None else out
        g_w, g_b, g_rw, g_rb = self._views(grad)
        d_out = 2.0 * diff
        d_acts = [None] + [np.zeros_like(a) for a in acts[1:]]
        np.sum(d_out, axis=0, out=g_rb)
        for e, sel, bus, passes in self.exits:
            block = acts[e].reshape(len(x), self.n_buses, self.f)[:, bus]
            g_rw[sel] = np.einsum("bs,bsf->sf", d_out[:, sel], block)
            # the phases of one bus share its block: accumulate in slot order
            d_slot = d_out[:, sel, None] * self.readout_w[sel]
            d_block = d_acts[e].reshape(len(x), self.n_buses, self.f)
            for idx, rank_bus in passes:
                d_block[:, rank_bus] += d_slot[:, idx]

        for t in range(self.plan.depth - 1, -1, -1):
            d = d_acts[t + 1]
            d_pre = np.where(pre[t] >= 0, d, LEAKY_SLOPE * d)
            np.matmul(d_pre.T, acts[t], out=g_w[t])
            np.sum(d_pre, axis=0, out=g_b[t])
            if t:  # nothing reads the input's gradient
                d_acts[t] += d_pre @ self.weights[t]
        np.multiply(grad, self._mask, out=grad)
        return loss, g_w + g_b + [g_rw, g_rb]


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 64
    epochs: int = 300
    seed: int = 0
    train_fraction: float = 0.9
    patience: int = 20

    def __post_init__(self):
        for name, ok, rule in (("epochs", self.epochs >= 1, ">= 1"),
                               ("batch_size", self.batch_size >= 1, ">= 1"),
                               ("learning_rate", self.learning_rate >= 0, ">= 0"),
                               ("train_fraction", 0 < self.train_fraction < 1, "in (0, 1)")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


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
    per seed. Returns (network, curve, heldout_indices).
    """
    config = config or TrainConfig()
    net = MaskedNetwork(plan, model, seed=config.seed)
    train_idx, val_idx = split_indices(len(features), config.train_fraction, config.seed)
    if len(train_idx) == 0 or len(val_idx) == 0:
        raise ValueError("dataset too small for the configured split")
    x_tr, y_tr = features[train_idx], targets[train_idx]
    x_val, y_val = features[val_idx], targets[val_idx]

    # ADAM runs on the live entries of theta only; masked ones stay zero
    live = net.live
    m = np.zeros(len(live))
    v = np.zeros(len(live))
    grad = np.empty_like(net.theta)
    rng = np.random.default_rng(config.seed + 1)

    def val_loss():
        out = net.forward(x_val)
        return float(np.mean(np.sum((out - y_val) ** 2, axis=1)))

    best = (val_loss(), net.theta.copy())
    curve = []
    step = 0
    stale = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(x_tr))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, _ = net.loss_and_gradients(x_tr[batch], y_tr[batch], out=grad)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss} at epoch {epoch}")
            epoch_loss += loss
            step += 1
            g = grad[live] * (1.0 / len(batch))  # per-sample scale so lr is batch-size free
            m *= config.beta1
            m += (1 - config.beta1) * g
            v *= config.beta2
            v += (1 - config.beta2) * g * g
            m_hat = m / (1 - config.beta1**step)
            v_hat = v / (1 - config.beta2**step)
            net.theta[live] -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
        vl = val_loss()
        curve.append((epoch, epoch_loss / max(len(x_tr), 1), vl))
        if vl < best[0] - 1e-12:
            best = (vl, net.theta.copy())
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    net.theta[:] = best[1]
    return net, curve, val_idx


def evaluate(net: MaskedNetwork, features: np.ndarray, targets: np.ndarray) -> EvalReport:
    """Mean over samples of the squared L2 magnitude-error norm."""
    if len(features) == 0:
        raise ValueError("empty test set")
    out = net.forward(np.atleast_2d(features))
    sq = (out - np.atleast_2d(targets)) ** 2
    nu = float(np.mean(np.sum(sq, axis=1)))
    return EvalReport(nu=nu, n_samples=len(features))


# -- checkpointing ---------------------------------------------------------


def save_checkpoint(net: MaskedNetwork, path, extra_meta=None) -> None:
    meta = {
        "plan_signature": net.plan.signature(),
        "input_layout": INPUT_LAYOUT,
        "n_buses": net.n_buses,
        "block_width": net.f,
        "slots": [[int(b), p] for b, p in net.slots],
    }
    if extra_meta:
        meta.update(extra_meta)
    arrays = dict(zip(net.parameter_names(), net.parameters()))
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def checkpoint_meta(path, *fields) -> dict:
    """A checkpoint's metadata; ValueError without the layout stamp or one of ``fields``."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
    if meta.get("input_layout") != INPUT_LAYOUT:
        raise ValueError(f"checkpoint predates input layout {INPUT_LAYOUT}; retrain it")
    missing = [name for name in fields if name not in meta]
    if missing:
        raise ValueError(f"checkpoint metadata lacks the field {missing[0]!r}")
    return meta


def load_checkpoint(path, plan: MaskPlan, model: FeederModel) -> MaskedNetwork:
    if checkpoint_meta(path, "plan_signature")["plan_signature"] != plan.signature():
        raise ValueError("checkpoint plan hash does not match the feeder's plan")
    net = MaskedNetwork(plan, model, seed=0)
    with np.load(path) as data:
        net.set_parameters([data.get(name) for name in net.parameter_names()])
    return net
