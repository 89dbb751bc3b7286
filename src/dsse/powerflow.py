"""Bus-impedance-matrix power flow for radial three-phase feeders.

Constant-power loads draw the slot currents I = conj(S / V). With the source
held at the slack voltage V0, the non-source voltages satisfy
V = V0 - Zbus @ I, where ``FeederModel.zbus`` inverts the non-source block of
the nodal admittance (Teng, "A direct approach for distribution system load
flow solutions", IEEE Trans. Power Delivery, 2003). Iterating that fixed
point from the slack state is exactly the classic backward/forward sweep: on
a shunt-free tree, Zbus @ I sums each branch's impedance times the load
current downstream of it along every slot's path to the source.

``solve_batch`` iterates that fixed point over an (M, n_slots) load matrix,
each row until no voltage moves by ``TOL_PU`` of the base voltage, for at most
``MAX_ITER`` sweeps; ``solve_power_flow`` is its one-row case.
Zbus contracts through ``einsum``, which sums a row in the same order for any
M, so a row's voltages are bit-for-bit independent of its batch. It contracts
only the blocks of ``FeederModel.zbus_groups``, the connected components of
Zbus's nonzero pattern (one per phase on a feeder without mutual impedance).
A skipped entry is an exact zero times a finite current, a signed zero that
leaves the sum unchanged, and the kept terms are added in the same ascending
order, so the voltages equal the dense product's bit for bit.

State ordering is the model's slot list: bus-major, phase-minor. Voltages
are complex line-to-neutral volts; the source bus is the slack with a
balanced reference (angles 0, -120, +120 degrees for phases A, B, C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dsse.grid_model import FeederModel

SLACK_ANGLES = {"A": 0.0, "B": -2.0 * np.pi / 3.0, "C": 2.0 * np.pi / 3.0}

TOL_PU = 1e-8
MAX_ITER = 100


class PowerFlowError(RuntimeError):
    pass


class NotConvergedError(PowerFlowError):
    def __init__(self, iterations, mismatch):
        super().__init__(
            f"power flow did not converge in {iterations} iterations "
            f"(last mismatch {mismatch:.3e} V)"
        )
        self.iterations = iterations
        self.mismatch = mismatch


@dataclass
class StateVector:
    """Per (bus, phase) complex voltage, rectangular under the hood.

    ``values[s]`` is the phasor for the model's slot ``s``; ``rect`` is the
    interleaved real/imag vector of length ``2 * n_slots`` used by the
    estimator (slot s -> entries 2s, 2s+1).
    """

    values: np.ndarray  # complex, (n_slots,)

    @property
    def rect(self) -> np.ndarray:
        out = np.empty(2 * len(self.values))
        out[0::2] = self.values.real
        out[1::2] = self.values.imag
        return out

    @staticmethod
    def from_rect(rect: np.ndarray) -> "StateVector":
        return StateVector(rect[0::2] + 1j * rect[1::2])

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)

    def copy(self) -> "StateVector":
        return StateVector(self.values.copy())


@dataclass
class PowerFlowResult:
    state: StateVector
    branch_currents: dict  # branch index -> complex array over branch phases
    iterations: int


def slack_state(model: FeederModel) -> StateVector:
    """Balanced nominal voltages at every bus (flat start / slack reference)."""
    return StateVector(np.array(
        [model.base_voltage * np.exp(1j * SLACK_ANGLES[p]) for _, p in model.slots]
    ))


def solve_batch(model: FeederModel, s: np.ndarray):
    """Fixed point V = V0 - Zbus @ conj(S / V) for each row of the (M, n_slots)
    slot loads ``s`` (W + jvar), iterated from V0, the slack state (a feeder has
    one base voltage). S, the state and V0 are permuted once into the order of
    ``model.zbus_groups``, and each sweep contracts each group's block with its
    own columns; the source's slots stay out and keep V0. Sweeps run on compact
    copies of V and S that hold only the rows still iterating and shrink on a
    sweep where some row stops; that row's voltages (back through the
    permutation), sweep count and mismatch are written then, once. Returns
    (voltages, sweeps, converged, last mismatch) per row."""
    tol = TOL_PU * model.base_voltage
    v0 = slack_state(model).values  # one base voltage: the source's on each slot's phase
    groups = model.zbus_groups
    perm = np.array([k for g, _ in groups for k in g], dtype=int)
    bounds = np.cumsum([0] + [len(g) for g, _ in groups]).tolist()
    m = len(s)
    v, va, sa, rows = np.tile(v0, (m, 1)), np.tile(v0[perm], (m, 1)), s[:, perm], np.arange(m)
    v0, drop = v0[perm], np.empty((m, len(perm)), complex)
    iterations, mismatch = np.zeros(m, dtype=int), np.full(m, np.inf)
    for it in range(1, MAX_ITER + 1):
        if not len(rows):
            break
        i_inj, out = np.conj(sa / va), drop[: len(rows)]
        for (_, block), a, b in zip(groups, bounds, bounds[1:]):
            np.einsum("ij,mj->mi", block, i_inj[:, a:b], out=out[:, a:b])
        v_new = v0 - out
        gap = np.abs(v_new - va).max(axis=1, initial=0.0)
        va, stop = v_new, (gap < tol) | (it == MAX_ITER)
        if stop.any():
            done = rows[stop]
            v[done[:, None], perm], iterations[done], mismatch[done] = va[stop], it, gap[stop]
            va, sa, rows = va[~stop], sa[~stop], rows[~stop]
    return v, iterations, mismatch < tol, mismatch


def solve_power_flow(model: FeederModel, loads: dict | None = None) -> PowerFlowResult:
    """``solve_batch`` on one sample. ``loads`` maps bus index -> {phase:
    complex S in W + jvar} and defaults to the feeder's own loads;
    ``branch_currents`` maps each branch index to its per-phase current from
    ``from_bus`` to ``to_bus``."""
    if loads is None:
        loads = {ld.bus: ld.power for ld in model.loads}
    s = np.zeros((1, model.n_slots), complex)
    for bus, power in loads.items():
        for p, value in power.items():
            try:
                s[0, model.slot_index(bus, p)] = value
            except KeyError:
                raise PowerFlowError(f"load on bus {bus} phase {p} has no state slot") from None
    (v,), (iterations,), (converged,), (mismatch,) = solve_batch(model, s)
    if not converged:
        raise NotConvergedError(MAX_ITER, mismatch)
    splits = np.cumsum([len(br.phases) for br in model.branches])[:-1]
    currents = np.split(model.branch_current @ v, splits)
    branch_i = {br.index: i for br, i in zip(model.branches, currents)}
    return PowerFlowResult(StateVector(v), branch_i, int(iterations))


def complex_power_balance(model: FeederModel, result: PowerFlowResult, loads=None):
    """(source injection, total load, total series loss) as complex powers.

    Diagnostic used by tests: source injection = load + loss on a converged
    solution, up to tolerance-induced slack.
    """
    if loads is None:
        loads = {ld.bus: ld.power for ld in model.loads}
    v = result.state.values
    s_src = 0.0 + 0.0j
    for br in model.branches_at(model.source):
        i = result.branch_currents[br.index]
        sign = 1.0 if br.from_bus == model.source else -1.0
        for k, p in enumerate(br.phases):
            s_src += v[model.slot_index(model.source, p)] * np.conj(sign * i[k])
    s_load = sum(s for power in loads.values() for s in power.values())
    s_loss = 0.0 + 0.0j
    for br in model.branches:
        i = result.branch_currents[br.index]
        drop = br.series_impedance @ i
        s_loss += drop @ np.conj(i)
    return s_src, s_load, s_loss
