"""Masked feed-forward network with early-exit readouts, trained with ADAM.

Layer recursion: k_t = leaky_relu(W_t k_{t-1} + b_t) with k_0 the embedded
measurement vector. Every W_t is dense storage gated by the plan's bus
mask expanded to F x F blocks (F x C for the input layer); masked entries
are forced to exactly zero after every update. Bus b's voltage magnitudes
are read from layer ``exit_layer[b]`` through a per-slot linear head.

Gradients are hand-rolled reverse mode; masked entries get gradient zero
by construction. Targets and outputs are per-unit voltage magnitudes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from dsse.grid_model import PHASES, FeederModel
from dsse.measurements import I_IMAG, I_REAL, KIND_CODE, MeasurementSet, unit_bases
from dsse.partitioning import MaskPlan

LEAKY_SLOPE = 0.01

# per-phase input channels, one per row kind code (``KIND_CODE``): v_real,
# v_imag, i_real, i_imag, p, q
CHANNELS_PER_PHASE = 6
INPUT_CHANNELS = 3 * CHANNELS_PER_PHASE


class TemplateMismatchError(ValueError):
    """Measurement rows differ from the template the embedding was built on."""


class InputEmbedding:
    """Routes measurement rows to per-bus channel slots (branch currents to
    the PMU-side bus), normalized by the feeder bases. Deterministic layout:
    bus-major, phase-major (A, B, C), then kind."""

    def __init__(self, model: FeederModel, template: MeasurementSet, pmu_buses=None):
        self.model = model
        self.signature = template.signature()
        self.width = model.n_buses * INPUT_CHANNELS
        pmu = np.zeros(model.n_buses, dtype=bool)
        pmu[list(pmu_buses or [])] = True
        code, bus = template.code, template.locus.copy()
        branch = (code == KIND_CODE[I_REAL]) | (code == KIND_CODE[I_IMAG])
        ends = np.array([(br.from_bus, br.to_bus) for br in model.branches], dtype=int)
        from_bus, to_bus = ends.reshape(-1, 2)[template.locus[branch]].T
        to_pmu = pmu[to_bus] & ~pmu[from_bus]
        bus[branch] = np.where(to_pmu, to_bus, from_bus)
        phase = np.array([PHASES.index(p) for p in template.phase.tolist()], dtype=int)
        self._index = bus * INPUT_CHANNELS + phase * CHANNELS_PER_PHASE + code
        self._scale = unit_bases(model, template)

    def embed_values(self, values: np.ndarray) -> np.ndarray:
        """Value vector(s) -> feature vector(s); rows sharing a slot sum, in
        row order."""
        scaled = np.atleast_2d(values) / self._scale
        out = np.zeros((len(scaled), self.width))
        np.add.at(out, (slice(None), self._index), scaled)
        return out[0] if np.ndim(values) == 1 else out


def embed_input(
    z: MeasurementSet, model: FeederModel, embedding: InputEmbedding
) -> np.ndarray:
    """Feature vector for one realized measurement set."""
    if z.signature() != embedding.signature:
        raise TemplateMismatchError(
            "measurement rows do not match the embedding's training template"
        )
    return embedding.embed_values(z.values())


def _leaky(x):
    return np.where(x >= 0, x, LEAKY_SLOPE * x)


def _leaky_grad(x):
    return np.where(x >= 0, 1.0, LEAKY_SLOPE)


class MaskedNetwork:
    """Parameters {W_t, b_t} conforming to a MaskPlan, plus linear readouts."""

    def __init__(self, plan: MaskPlan, model: FeederModel, seed: int = 0):
        self.plan = plan
        self.n_buses = model.n_buses
        self.f = plan.block_width
        self.slots = list(model.slots)
        self.slot_bus = np.array([b for b, _ in self.slots])
        self.width = self.n_buses * self.f
        # per exit layer: the slots it feeds, in slot order, and their buses
        slot_exit = plan.exit_layer[self.slot_bus]
        self.exits = []
        for e in np.unique(slot_exit).tolist():
            sel = np.flatnonzero(slot_exit == e)
            self.exits.append((e, sel, self.slot_bus[sel]))

        f, c = self.f, INPUT_CHANNELS
        self.weight_masks = []
        for t, mask in enumerate(plan.masks):
            fin = c if t == 0 else f
            self.weight_masks.append(np.kron(mask, np.ones((f, fin))).astype(bool))
        self.bias_masks = [
            np.kron(mask.any(axis=1), np.ones(f)).astype(bool) for mask in plan.masks
        ]

        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for wm in self.weight_masks:
            w = np.zeros(wm.shape)
            fan_in = wm.sum(axis=1)
            live = fan_in > 0
            w[live] = rng.normal(0.0, 1.0, (int(live.sum()), wm.shape[1])) * np.sqrt(
                2.0 / fan_in[live]
            )[:, None]
            self.weights.append(w * wm)
            self.biases.append(np.zeros(wm.shape[0]))
        self.readout_w = rng.normal(0.0, 1.0, (len(self.slots), self.f)) / np.sqrt(self.f)
        self.readout_b = np.ones(len(self.slots))  # magnitudes sit near 1 p.u.

    # -- parameter plumbing ------------------------------------------------

    def parameters(self):
        return self.weights + self.biases + [self.readout_w, self.readout_b]

    def parameter_masks(self):
        return (
            self.weight_masks
            + [m.astype(bool) for m in self.bias_masks]
            + [np.ones_like(self.readout_w, dtype=bool), np.ones_like(self.readout_b, dtype=bool)]
        )

    def set_parameters(self, params):
        t = self.plan.depth
        self.weights = [p.copy() for p in params[:t]]
        self.biases = [p.copy() for p in params[t : 2 * t]]
        self.readout_w = params[2 * t].copy()
        self.readout_b = params[2 * t + 1].copy()
        self.apply_masks()

    def apply_masks(self):
        for w, m in zip(self.weights, self.weight_masks):
            w *= m
        for b, m in zip(self.biases, self.bias_masks):
            b *= m

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
        for e, sel, bus in self.exits:
            block = acts[e].reshape(len(x), self.n_buses, self.f)[:, bus]
            out[:, sel] = np.einsum("bsf,sf->bs", block, self.readout_w[sel]) + self.readout_b[sel]
        return out, pre, acts

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Per (bus, phase) voltage magnitudes (p.u.) for feature vector(s)."""
        single = np.asarray(x).ndim == 1
        out, _, _ = self._forward_cached(x)
        return out[0] if single else out

    def loss_and_gradients(self, x, targets):
        """Summed squared L2 magnitude error over the batch, plus gradients
        aligned with ``parameters()``. Masked entries get exactly 0."""
        x = np.atleast_2d(x)
        targets = np.atleast_2d(targets)
        if x.shape[0] == 0:
            raise ValueError("empty batch")
        out, pre, acts = self._forward_cached(x)
        diff = out - targets
        loss = float(np.sum(diff * diff))

        d_out = 2.0 * diff
        d_acts = [np.zeros_like(a) for a in acts]
        g_rw = np.empty_like(self.readout_w)
        g_rb = d_out.sum(axis=0)
        for e, sel, bus in self.exits:
            block = acts[e].reshape(len(x), self.n_buses, self.f)[:, bus]
            g_rw[sel] = np.einsum("bs,bsf->sf", d_out[:, sel], block)
            # the phases of one bus share its block: accumulate in slot order
            d_block = d_acts[e].reshape(len(x), self.n_buses, self.f)
            np.add.at(d_block, (slice(None), bus), d_out[:, sel, None] * self.readout_w[sel])

        g_w = [np.zeros_like(w) for w in self.weights]
        g_b = [np.zeros_like(b) for b in self.biases]
        for t in range(self.plan.depth - 1, -1, -1):
            d_pre = d_acts[t + 1] * _leaky_grad(pre[t])
            g_w[t] = (d_pre.T @ acts[t]) * self.weight_masks[t]
            g_b[t] = d_pre.sum(axis=0) * self.bias_masks[t]
            d_acts[t] += d_pre @ self.weights[t]
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

    params = net.parameters()
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    masks = net.parameter_masks()
    rng = np.random.default_rng(config.seed + 1)

    def val_loss():
        out = net.forward(x_val)
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
            loss, grads = net.loss_and_gradients(x_tr[batch], y_tr[batch])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss} at epoch {epoch}")
            epoch_loss += loss
            step += 1
            inv_b = 1.0 / len(batch)
            for p, g, mi, vi, mask in zip(params, grads, m, v, masks):
                g = g * inv_b  # per-sample scale so lr is batch-size free
                mi *= config.beta1
                mi += (1 - config.beta1) * g
                vi *= config.beta2
                vi += (1 - config.beta2) * g * g
                m_hat = mi / (1 - config.beta1**step)
                v_hat = vi / (1 - config.beta2**step)
                p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
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
        "n_buses": net.n_buses,
        "block_width": net.f,
        "slots": [[int(b), p] for b, p in net.slots],
    }
    if extra_meta:
        meta.update(extra_meta)
    arrays = {f"w{t}": w for t, w in enumerate(net.weights)}
    arrays.update({f"b{t}": b for t, b in enumerate(net.biases)})
    arrays["readout_w"] = net.readout_w
    arrays["readout_b"] = net.readout_b
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path, plan: MaskPlan, model: FeederModel) -> MaskedNetwork:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta["plan_signature"] != plan.signature():
            raise ValueError("checkpoint plan hash does not match the feeder's plan")
        net = MaskedNetwork(plan, model, seed=0)
        net.weights = [data[f"w{t}"].copy() for t in range(plan.depth)]
        net.biases = [data[f"b{t}"].copy() for t in range(plan.depth)]
        net.readout_w = data["readout_w"].copy()
        net.readout_b = data["readout_b"].copy()
    net.apply_masks()
    return net
