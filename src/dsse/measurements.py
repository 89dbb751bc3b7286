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
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import math
from dataclasses import dataclass

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

# relative floor keeping every variance strictly positive
SIGMA_FLOOR_REL = 1e-6


@dataclass(frozen=True)
class NoiseClass:
    kind: str  # pmu_voltage | pmu_current | smart_meter_power | pseudo_power | zero_injection
    max_error: float

    def __post_init__(self):
        if self.max_error <= 0:
            raise ValueError("max_error must be positive")


@dataclass(frozen=True)
class Measurement:
    """One row: built to construct a set, or read back from one."""

    kind: str  # v_real | v_imag | i_real | i_imag | p_injection | q_injection
    locus: int  # bus index, or branch index for current kinds
    phase: str
    noise: NoiseClass
    value: float | None = None
    variance: float | None = None

    def key(self):
        return (self.kind, self.locus, self.phase, self.noise.kind, self.noise.max_error)


def _column(data, dtype) -> np.ndarray:
    col = np.array(data, dtype=dtype)
    col.flags.writeable = False
    return col


class MeasurementSet:
    """Ordered measurement rows plus the diagonal covariance they induce.

    The rows are stored as read-only columns, built once: ``code`` (kind
    code), ``locus``, ``phase``, ``noise_kind`` and ``max_error``, plus the
    ``values()`` and ``variances()`` arrays, NaN where unset. Realized sets
    from ``with_values`` share the template's columns.
    """

    def __init__(self, rows):
        rows = list(rows)
        unknown = {m.kind for m in rows} - KIND_CODE.keys()
        if unknown:
            raise ValueError(f"unknown measurement kind {min(unknown)!r}")
        self.code = _column([KIND_CODE[m.kind] for m in rows], int)
        self.locus = _column([m.locus for m in rows], int)
        self.phase = _column([m.phase for m in rows], str)
        self.noise_kind = _column([m.noise.kind for m in rows], str)
        self.max_error = _column([m.noise.max_error for m in rows], float)
        self._values = _column([np.nan if m.value is None else m.value for m in rows], float)
        self._variances = _column(
            [np.nan if m.variance is None else m.variance for m in rows], float
        )

    def __len__(self):
        return len(self.code)

    def _keys(self):
        """Per-row (kind, locus, phase, noise kind, max error) tuples."""
        return zip(
            [_KINDS[c] for c in self.code.tolist()], self.locus.tolist(), self.phase.tolist(),
            self.noise_kind.tolist(), self.max_error.tolist(),
        )

    def __iter__(self):
        """Frozen row views, rebuilt from the columns."""
        for (kind, locus, phase, noise, max_error), v, s2 in zip(
            self._keys(), self._values.tolist(), self._variances.tolist()
        ):
            yield Measurement(
                kind, locus, phase, NoiseClass(noise, max_error),
                None if math.isnan(v) else v, None if math.isnan(s2) else s2,
            )

    @property
    def rows(self) -> list:
        return list(self)

    def values(self) -> np.ndarray:
        return self._values

    def variances(self) -> np.ndarray:
        return self._variances

    def signature(self) -> str:
        """Hash of the template structure (rows sans values)."""
        return hashlib.sha256(json.dumps(list(self._keys())).encode()).hexdigest()

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
        return self._replace(_values=values, _variances=variances)

    def select(self, keep) -> "MeasurementSet":
        """The rows where the boolean mask ``keep`` is true, in order."""
        return self._replace(
            **{name: _column(col[keep], col.dtype) for name, col in vars(self).items()}
        )

    def save(self, path):
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    def write_csv(self, fh):
        w = csv.writer(fh)
        w.writerow(["kind", "locus", "phase", "noise_class", "max_error", "value", "variance"])
        for m in self:
            w.writerow(
                [m.kind, m.locus, m.phase, m.noise.kind, repr(m.noise.max_error),
                 "" if m.value is None else repr(m.value),
                 "" if m.variance is None else repr(m.variance)]
            )

    @staticmethod
    def load(path) -> "MeasurementSet":
        with open(path, newline="") as fh:
            return MeasurementSet.read_csv(fh)

    @staticmethod
    def read_csv(fh) -> "MeasurementSet":
        """Rows from ``write_csv`` text; the value and variance columns may be absent."""
        return MeasurementSet(
            Measurement(
                rec["kind"], int(rec["locus"]), rec["phase"],
                NoiseClass(rec["noise_class"], float(rec["max_error"])),
                float(rec["value"]) if rec.get("value") else None,
                float(rec["variance"]) if rec.get("variance") else None,
            )
            for rec in csv.DictReader(fh)
        )


def plan_measurements(
    model: FeederModel,
    pmu_buses,
    metered_loads=frozenset(),
    pseudo_noise: float = 0.3,
) -> MeasurementSet:
    """Template (values unset) for a PMU placement and metering choice.

    Rows, in stable order: PMU voltage (real+imag per phase) at each PMU
    bus; PMU current (real+imag per phase) on every branch incident to a
    PMU bus; P/Q per phase at every load bus (smart-meter class if metered,
    pseudo otherwise); P/Q per phase at every zero-injection bus.
    """
    pmu_buses = sorted(set(pmu_buses))
    if not pmu_buses:
        raise ValueError("pmu_buses must be non-empty")
    for b in pmu_buses:
        if not 0 <= b < model.n_buses:
            raise KeyError(f"invalid pmu bus id {b}")
    metered = set(metered_loads)
    load_buses = {ld.bus for ld in model.loads}
    if not metered <= load_buses:
        raise ValueError(f"metered buses {sorted(metered - load_buses)} carry no load")

    rows = []

    def add(kinds, locus, phases, noise):
        rows.extend(Measurement(k, locus, p, noise) for p in phases for k in kinds)

    pmu_v = NoiseClass("pmu_voltage", PMU_MAG_MAX_ERROR)
    pmu_i = NoiseClass("pmu_current", PMU_MAG_MAX_ERROR)
    for b in pmu_buses:
        add((V_REAL, V_IMAG), b, model.buses[b].phases, pmu_v)
    # every branch incident to a PMU bus, once, in first-seen order
    branches = {br.index: br for b in pmu_buses for br in model.branches_at(b)}
    for br in branches.values():
        add((I_REAL, I_IMAG), br.index, br.phases, pmu_i)
    for ld in sorted(model.loads, key=lambda l: l.bus):
        noise = (
            NoiseClass("smart_meter_power", SMART_METER_MAX_ERROR)
            if ld.bus in metered
            else NoiseClass("pseudo_power", pseudo_noise)
        )
        add((P_INJ, Q_INJ), ld.bus, sorted(ld.power), noise)
    zi = NoiseClass("zero_injection", ZERO_INJECTION_MAX_ERROR)
    for bus in model.buses:
        if bus.kind == "zero_injection":
            add((P_INJ, Q_INJ), bus.index, bus.phases, zi)
    return MeasurementSet(rows)


# -- h(x) and its Jacobian -------------------------------------------------
#
# A template compiles to one complex matrix C (rows x slots) over the slot
# phasors v. Row r reads the current i = C[r] @ v: a unit vector for a PMU
# voltage row (i = V), a row of the model's ``branch_current`` for a PMU
# current row, and a row of ``ybus`` for an injection row (the net current
# leaving the bus). PMU rows take the real or imaginary part of i, which is
# linear in the rectangular state; injection rows take that part of the
# bilinear s = -V * conj(i) at the row's own slot (consumption-positive).


def unit_bases(model: FeederModel, template: MeasurementSet) -> np.ndarray:
    """Per-row unit base: V for voltage rows, VA/V for current rows, VA for
    P/Q rows. Dividing a row by its base makes it per-unit."""
    v, s = model.base_voltage, model.power_base
    return np.array([v, s / v, s])[template.code // 2]


class RowEvaluator:
    """One template compiled into arrays, reused for every state."""

    def __init__(self, model: FeederModel, template: MeasurementSet):
        self.model = model
        code = template.code
        branch = (code == KIND_CODE[I_REAL]) | (code == KIND_CODE[I_IMAG])
        self.power = code >= KIND_CODE[P_INJ]
        self.imag = code % 2 == 1
        # the row's own bus slot (0, unused, for branch rows)
        loci = list(zip(template.locus.tolist(), template.phase.tolist(), branch.tolist()))
        self.slot = np.array([0 if b else model.slot_index(n, p) for n, p, b in loci], dtype=int)
        self.own_slot = (self.slot[:, None] == np.arange(model.n_slots)).astype(float)
        self.C = np.where(self.power[:, None], model.ybus[self.slot], self.own_slot)
        self.C[branch] = model.branch_current[
            [model.branch_phase_index(n, p) for n, p, b in loci if b]
        ]

    def h(self, state: StateVector) -> np.ndarray:
        v = state.values
        i = self.C @ v
        q = np.where(self.power, -v[self.slot] * np.conj(i), i)
        return np.where(self.imag, q.imag, q.real)

    def jacobian(self, state: StateVector) -> np.ndarray:
        """Analytic d h / d x_rect, |rows| x (2 * n_slots)."""
        v = state.values
        power = self.power[:, None]
        # complex derivatives of each row's i or s w.r.t. e_s and f_s:
        # di/de = C, di/df = jC; ds/de = -(own conj(i) + V conj(C)),
        # ds/df = -j (own conj(i) - V conj(C)), own = one-hot at the row's slot
        own = self.own_slot * np.conj(self.C @ v)[:, None]
        across = v[self.slot][:, None] * np.conj(self.C)
        d_e = np.where(power, -(own + across), self.C)
        d_f = np.where(power, -1j * (own - across), 1j * self.C)
        imag = self.imag[:, None]
        H = np.empty((len(self.slot), 2 * self.model.n_slots))
        H[:, 0::2] = np.where(imag, d_e.imag, d_e.real)
        H[:, 1::2] = np.where(imag, d_f.imag, d_f.real)
        return H


def measurement_function(
    model: FeederModel, x: StateVector, template: MeasurementSet
) -> np.ndarray:
    """h(x) aligned with the template's row order."""
    return RowEvaluator(model, template).h(x)


def jacobian_rows(
    model: FeederModel, x: StateVector, template: MeasurementSet
) -> np.ndarray:
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
    """Per-row Gaussian sigma implied by each row's noise class at h(x_true)."""
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
    sigmas[zero] = max_error[zero] * base[zero] / 3.0
    sigmas[re], sigmas[im] = _phasor_sigmas(
        h_true[re] + 1j * h_true[im], max_error[re], PMU_ANGLE_MAX_ERROR, floor[re]
    )
    return sigmas


def synthesize(
    template: MeasurementSet,
    x_true: StateVector,
    model: FeederModel,
    rng,
    noiseless: bool = False,
) -> MeasurementSet:
    """Realize a measurement set: value = h(x_true) + N(0, sigma) per row.

    ``rng`` is a seed or a ``numpy.random.Generator``; identical seeds give
    identical sets. ``noiseless=True`` keeps the class variances (R must
    stay positive definite) but skips the noise draw.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    h_true = measurement_function(model, x_true, template)
    sigmas = row_sigmas(model, template, h_true)
    noise = np.zeros_like(h_true) if noiseless else rng.normal(0.0, 1.0, len(h_true)) * sigmas
    return template.with_values(h_true + noise, sigmas**2)
