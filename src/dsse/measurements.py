"""Measurement synthesis z = h(x) + e and the rows consumed by the estimator.

Measurement taxonomy and default accuracy classes:

* ``pmu`` -- synchronized voltage and branch-current phasors, stored as
  rectangular (real, imag) rows so they stay linear in the state.
  Maximum error 1% on magnitude and 1e-2 rad on angle, propagated to
  rectangular sigmas to first order.
* ``smart_meter`` -- per-phase P/Q at metered load buses, maximum error 2%.
* ``pseudo`` -- per-phase P/Q stand-ins at unmetered load buses, maximum
  error 30% or 50% depending on the scenario.
* ``zero_injection`` -- P/Q rows pinned to zero at buses with no load,
  maximum error 0.001% of the feeder power base.

"Maximum error" converts to a Gaussian sigma as max/3 (3-sigma coverage).
Injection rows use the load convention: positive value = power consumed at
the bus, so a load bus's P row equals its active demand.

A template is a ``MeasurementSet``: read-only columns, one entry per row,
which ``plan_measurements`` and ``read_csv`` build directly; there are no
per-row objects. A realized set shares its template's columns.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
from functools import cached_property

import numpy as np

from dsse.grid_model import FeederModel
from dsse.powerflow import StateVector

V_REAL, V_IMAG = "v_real", "v_imag"
I_REAL, I_IMAG = "i_real", "i_imag"
P_INJ, Q_INJ = "p_injection", "q_injection"

# row kind codes: PMU rows 0-3, injection rows 4-5; an even code takes the
# real part of its phasor, an odd code the imaginary part
_KINDS = (V_REAL, V_IMAG, I_REAL, I_IMAG, P_INJ, Q_INJ)
KIND_CODE = {k: c for c, k in enumerate(_KINDS)}

PMU_MAG_MAX_ERROR = 0.01
PMU_ANGLE_MAX_ERROR = 1e-2  # rad, absolute
SMART_METER_MAX_ERROR = 0.02
ZERO_INJECTION_MAX_ERROR = 1e-5
PSEUDO_NOISE = 0.3  # max error of a pseudo P/Q row, scenarios 1 and 3

# relative floor keeping every variance strictly positive
SIGMA_FLOOR_REL = 1e-6


def _column(data, dtype) -> np.ndarray:
    col = np.array(data, dtype=dtype)
    col.flags.writeable = False
    return col


class MeasurementSet:
    """Ordered measurement rows plus the diagonal covariance they induce.

    The rows are read-only columns: ``code`` (kind code), ``locus`` (bus, or
    branch for current rows), ``phase``, ``noise_kind`` and ``max_error``, plus
    the ``values()`` and ``variances()`` arrays, NaN where unset. Realized sets
    from ``with_values`` share the template's columns, digest and ``compiled`` record.
    """

    def __init__(self, kind, locus, phase, noise_kind, max_error, values=None, variances=None):
        unknown = set(kind) - KIND_CODE.keys()
        if unknown:
            raise ValueError(f"unknown measurement kind {min(unknown)!r}")
        self.code = _column([KIND_CODE[k] for k in kind], int)
        self.locus = _column(locus, int)
        self.phase = _column(phase, str)
        self.noise_kind = _column(noise_kind, str)
        self.max_error = _column(max_error, float)
        nan = np.full(len(self.code), np.nan)
        self._values = _column(nan if values is None else values, float)
        self._variances = _column(nan if variances is None else variances, float)
        if {c.shape for c in vars(self).values()} != {self.code.shape}:
            raise ValueError("measurement columns differ in length")
        if not ((self.max_error > 0) & (self.max_error < np.inf)).all():
            raise ValueError("max_error must be positive and finite")
        self._digest = None
        self._compiled = {}  # build -> (model, record); with_values sets share it

    def __len__(self):
        return len(self.code)

    def _keys(self):
        """Per-row (kind, locus, phase, noise kind, max error) tuples."""
        return zip(
            [_KINDS[c] for c in self.code.tolist()], self.locus.tolist(), self.phase.tolist(),
            self.noise_kind.tolist(), self.max_error.tolist(),
        )

    def values(self) -> np.ndarray:
        return self._values

    def variances(self) -> np.ndarray:
        return self._variances

    def signature(self) -> str:
        """Hash of the template structure (rows sans values), once per column set."""
        if self._digest is None:
            self._digest = hashlib.sha256(json.dumps(list(self._keys())).encode()).hexdigest()
        return self._digest

    def compiled(self, model, build):
        """``build(model, self)``, one record per ``build``, kept for the last
        model it was asked for (compared by ``is``)."""
        c = self._compiled
        if build not in c or c[build][0] is not model:
            c[build] = model, build(model, self)
        return c[build][1]

    def _replace(self, **columns) -> "MeasurementSet":
        new = copy.copy(self)
        new.__dict__.update(columns)
        return new

    def with_values(self, values, variances) -> "MeasurementSet":
        """The same rows carrying ``values`` and ``variances``."""
        values, variances = _column(values, float), _column(variances, float)
        if values.shape != (len(self),) or variances.shape != (len(self),):
            raise ValueError(
                f"expected {len(self)} values and variances, "
                f"got shapes {values.shape} and {variances.shape}"
            )
        return self._replace(_values=values, _variances=variances, _digest=self.signature())

    def select(self, keep) -> "MeasurementSet":
        """The rows ``keep`` picks, a boolean mask or an index array (which
        may repeat or reorder rows), in its order."""
        cols = {k: _column(c[keep], c.dtype) for k, c in vars(self).items()
                if k not in ("_digest", "_compiled")}
        return self._replace(**cols, _digest=None, _compiled={})

    def save(self, path):
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    def write_csv(self, fh):
        w = csv.writer(fh)
        w.writerow(["kind", "locus", "phase", "noise_class", "max_error", "value", "variance"])
        for (kind, locus, phase, noise, max_error), v, s2 in zip(
            self._keys(), self._values.tolist(), self._variances.tolist()
        ):
            w.writerow([kind, locus, phase, noise, repr(max_error),
                        "" if math.isnan(v) else repr(v), "" if math.isnan(s2) else repr(s2)])

    @staticmethod
    def load(path) -> "MeasurementSet":
        with open(path, newline="") as fh:
            return MeasurementSet.read_csv(fh)

    @staticmethod
    def read_csv(fh) -> "MeasurementSet":
        """Rows from ``write_csv`` text. Only the value and variance cells may
        be blank or absent; any other blank or absent cell is a ValueError."""
        recs = list(csv.DictReader(fh))

        def column(name, cast=str, blank=None):
            cells = [rec.get(name) or blank for rec in recs]
            if None in cells:
                raise ValueError(f"measurement row {cells.index(None)} has no {name!r} cell")
            return [cast(c) for c in cells]

        return MeasurementSet(
            column("kind"), column("locus", int), column("phase"), column("noise_class"),
            column("max_error", float), column("value", float, "nan"),
            column("variance", float, "nan"),
        )


def plan_measurements(
    model: FeederModel,
    pmu_buses,
    metered_loads=frozenset(),
    pseudo_noise: float = PSEUDO_NOISE,
) -> MeasurementSet:
    """Template (values unset) for a PMU placement and metering choice.

    Rows, in stable order: PMU voltage (real+imag per phase) at each PMU
    bus; PMU current (real+imag per phase) on every branch incident to a
    PMU bus; P/Q per phase at every load bus (smart-meter class if metered,
    pseudo otherwise); P/Q per phase at every zero-injection bus.
    """
    pmu_buses = model.pmu_placement(pmu_buses)
    metered = set(metered_loads)
    load_buses = {ld.bus for ld in model.loads}
    if not metered <= load_buses:
        raise ValueError(f"metered buses {sorted(metered - load_buses)} carry no load")

    cols = kind, locus, phase, noise_kind, max_error = [], [], [], [], []

    def add(kinds, at, phases, noise, error):
        kind.extend(kinds * len(phases))
        phase.extend(p for p in phases for _ in kinds)
        for col, x in ((locus, at), (noise_kind, noise), (max_error, error)):
            col.extend([x] * len(kinds) * len(phases))

    for b in pmu_buses:
        add((V_REAL, V_IMAG), b, model.buses[b].phases, "pmu_voltage", PMU_MAG_MAX_ERROR)
    # every branch incident to a PMU bus, once, in first-seen order
    branches = {br.index: br for b in pmu_buses for br in model.branches_at(b)}
    for br in branches.values():
        add((I_REAL, I_IMAG), br.index, br.phases, "pmu_current", PMU_MAG_MAX_ERROR)
    for ld in sorted(model.loads, key=lambda l: l.bus):
        noise = (("smart_meter_power", SMART_METER_MAX_ERROR) if ld.bus in metered
                 else ("pseudo_power", pseudo_noise))
        add((P_INJ, Q_INJ), ld.bus, sorted(ld.power), *noise)
    for bus in model.buses:
        if bus.kind == "zero_injection":
            add((P_INJ, Q_INJ), bus.index, bus.phases, "zero_injection", ZERO_INJECTION_MAX_ERROR)
    return MeasurementSet(*cols)


# -- h(x) and its Jacobian -------------------------------------------------
#
# A template compiles to one complex matrix C (rows x slots) over the slot
# phasors v. Row r reads the current i = C[r] @ v: a unit vector for a PMU
# voltage row (i = V), a row of the model's ``branch_current`` for a PMU
# current row, and a row of ``ybus`` for an injection row (the net current
# leaving the bus). PMU rows take the real or imaginary part of i, which is
# linear in the rectangular state; injection rows take that part of the
# bilinear s = -V * conj(i) at the row's own slot (consumption-positive).


def row_index(model: FeederModel, template: MeasurementSet) -> tuple[np.ndarray, np.ndarray]:
    """(index, branch): each row's slot, or branch-phase index for a branch-current
    row, and the branch-row mask. A row whose (bus or branch, phase) the feeder
    lacks is a ValueError; every consumer of a template checks its rows here."""
    code = template.code
    branch = (code == KIND_CODE[I_REAL]) | (code == KIND_CODE[I_IMAG])
    index = []
    for r, (n, p, b) in enumerate(zip(template.locus.tolist(), template.phase.tolist(), branch)):
        try:
            index.append(model.branch_phase_index(n, p) if b else model.slot_index(n, p))
        except KeyError:
            raise ValueError(f"measurement row {r} ({_KINDS[code[r]]}, locus {n}, "
                             f"phase {p}) is not on the feeder") from None
    return np.array(index, dtype=int), branch


def check_usable(z: MeasurementSet) -> None:
    """The rule both estimators apply to a realized set: a ValueError unless every
    value is finite and every variance finite and positive."""
    values, variances = z.values(), z.variances()
    if not (np.isfinite(values).all() and (np.isfinite(variances) & (variances > 0)).all()):
        raise ValueError("measurement values must be finite, variances finite and positive")


def unit_bases(model: FeederModel, template: MeasurementSet) -> np.ndarray:
    """Per-row unit base: V for voltage rows, VA/V for current rows, VA for
    P/Q rows. Dividing a row by its base makes it per-unit."""
    v, s = model.base_voltage, model.power_base
    return np.array([v, s / v, s])[template.code // 2]


class RowEvaluator:
    """One template compiled into arrays, reused for every state.

    PMU rows are linear in the rectangular state, so their Jacobian rows are
    compiled once; ``jacobian`` copies them and writes ``injection_rows``, the
    only state-dependent rows, at rows ``inj``."""

    def __init__(self, model: FeederModel, template: MeasurementSet):
        self.model = model
        code = template.code
        index, branch = row_index(model, template)
        self.power = code >= KIND_CODE[P_INJ]
        self.imag = code % 2 == 1
        # the row's own bus slot (0, unused, for branch rows)
        self.slot = np.where(branch, 0, index)
        own_slot = (self.slot[:, None] == np.arange(model.n_slots)).astype(float)
        self.C = np.where(self.power[:, None], model.ybus[self.slot], own_slot)
        self.C[branch] = model.branch_current[index[branch]]

        # H with each (e, f) column pair read as e + jf: a PMU row's i has
        # di/de = C, di/df = jC, so its pair is conj(C) for a real part and
        # j conj(C) for an imaginary part, at every state. An injection row's
        # s = -V conj(i) gives -(w + own i) for P and j (w - own i) for Q, where
        # w = V conj(C) and own is the row's slot
        turn = np.where(self.imag, 1j, np.where(self.power, -1.0, 1.0))[:, None]
        self._H = (np.conj(self.C) * turn).view(float)
        self.inj = np.flatnonzero(self.power)
        self._inj_slot, self._inj_turn = self.slot[self.inj], turn[self.inj]
        self._inj_conj_C = np.conj(self.C[self.inj])
        self._inj_sign = np.where(self.imag[self.inj], -1.0, 1.0)
        self._inj_own = np.arange(len(self.inj)), self._inj_slot
        # each row's real or imaginary part, as an index into q.view(float)
        self._part = 2 * np.arange(len(code)) + self.imag

    @cached_property
    def sparse_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(cols, coef): each row's nonzero columns of C in ascending order and
        their coefficients, padded to the widest row with C's next zero columns
        (coefficient 0). Built on the first batched ``h``."""
        nonzero = self.C != 0
        width = nonzero.sum(axis=1).max(initial=0)
        cols = np.argsort(~nonzero, axis=1, kind="stable")[:, :width]
        return cols, np.take_along_axis(self.C, cols, axis=1)

    def h(self, state: StateVector) -> np.ndarray:
        """h at one state (BLAS product), or per row of states with (M, n_slots)
        ``values``: einsum over ``sparse_rows``, so each sum adds the nonzero terms
        of C's row in the dense einsum's order, equal bit for bit and, unlike
        BLAS, independent of M."""
        v = state.values
        q = self.C @ v if v.ndim == 1 else np.einsum(
            "rk,mrk->mr", self.sparse_rows[1], v.take(self.sparse_rows[0], axis=1))
        q[..., self.inj] = (-v.take(self._inj_slot, axis=-1)
                            * np.conj(q.take(self.inj, axis=-1)))
        return q.view(float).take(self._part, axis=-1)

    def injection_rows(self, state: StateVector) -> np.ndarray:
        """Rows ``inj`` of d h / d x_rect at ``state``, |inj| x (2 * n_slots)."""
        v = state.values
        w = v.take(self._inj_slot)[:, None] * self._inj_conj_C
        w[self._inj_own] += self._inj_sign * (self.C @ v).take(self.inj)
        return np.multiply(w, self._inj_turn, out=w).view(float)

    def jacobian(self, state: StateVector) -> np.ndarray:
        """Analytic d h / d x_rect, |rows| x (2 * n_slots): the compiled PMU
        rows plus the injection rows at ``state``."""
        H = self._H.copy()
        H[self.inj] = self.injection_rows(state)
        return H


def measurement_function(model: FeederModel, x: StateVector,
                         template: MeasurementSet) -> np.ndarray:
    """h(x) aligned with the template's row order."""
    return RowEvaluator(model, template).h(x)


def jacobian_rows(model: FeederModel, x: StateVector, template: MeasurementSet) -> np.ndarray:
    """Analytic partial derivatives of every row w.r.t. the rectangular state."""
    return RowEvaluator(model, template).jacobian(x)


def _phasor_sigmas(value, max_mag_err, max_ang_err: float, floor):
    """First-order propagation of magnitude/angle maxima to rectangular sigmas."""
    mag = np.abs(value)
    theta = np.angle(value)
    s_mag = max_mag_err * mag / 3.0
    s_ang = max_ang_err / 3.0
    c, s = np.cos(theta), np.sin(theta)
    s_re = np.hypot(c * s_mag, mag * s * s_ang)
    s_im = np.hypot(s * s_mag, mag * c * s_ang)
    return np.maximum(s_re, floor), np.maximum(s_im, floor)


def row_sigmas(model: FeederModel, template: MeasurementSet, h_true: np.ndarray):
    """Per-row Gaussian sigma implied by each row's noise class at h(x_true);
    ``h_true`` may be one vector or a (M, rows) batch."""
    code, max_error = template.code, template.max_error

    # PMU rows come in adjacent (real, imag) pairs sharing one phasor
    pmu = code < KIND_CODE[P_INJ]
    re = np.flatnonzero(pmu & (code % 2 == 0))
    im = np.flatnonzero(pmu & (code % 2 == 1))
    if not (
        np.array_equal(re + 1, im)
        and np.array_equal(code[re] + 1, code[im])
        and np.array_equal(template.locus[re], template.locus[im])
        and np.array_equal(template.phase[re], template.phase[im])
    ):
        raise ValueError("unpaired PMU row: each real row needs its imaginary row next")

    base = unit_bases(model, template)
    floor = SIGMA_FLOOR_REL * base
    sigmas = np.maximum(max_error * np.abs(h_true) / 3.0, floor)
    zero = ~pmu & (template.noise_kind == "zero_injection")
    sigmas[..., zero] = max_error[zero] * base[zero] / 3.0
    sigmas[..., re], sigmas[..., im] = _phasor_sigmas(
        h_true[..., re] + 1j * h_true[..., im], max_error[re], PMU_ANGLE_MAX_ERROR, floor[re]
    )
    return sigmas


def synthesize(
    template: MeasurementSet,
    x_true: StateVector,
    model: FeederModel,
    rng,
) -> MeasurementSet:
    """Realize a measurement set: value = h(x_true) + N(0, sigma) per row, variance sigma^2.

    ``rng`` is a seed or a ``numpy.random.Generator``; identical seeds give
    identical sets.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    h_true = measurement_function(model, x_true, template)
    sigmas = row_sigmas(model, template, h_true)
    return template.with_values(h_true + rng.normal(0.0, 1.0, len(h_true)) * sigmas, sigmas**2)
