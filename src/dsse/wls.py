"""Weighted-least-squares state estimation via Gauss-Newton iterations.

Minimizes J(x) = [z - h(x)]^T R^-1 [z - h(x)] over the rectangular voltage
state. ``check_observable`` tests each template once per model: the flat-start
Jacobian, each row made per-unit by its unit base, must have full column rank,
or the estimator raises ``UnobservableError`` (scenario 3 tests row subsets of
one such matrix). The evaluator, flat start, its Jacobian, that outcome and an
upper-triangular 0/1 mask are compiled once and shared by every set
``with_values`` realizes from the template. Each step recomputes only what the
state changes (the evaluator's injection rows of H; its PMU rows are compiled),
writes the sigma-whitened augmented system [H | r] into one buffer per call
and factors it with one raw-mode QR, whose R has Q^T r in its last column. The
accepted trial's residual and rectangular state carry into the next step; a
step-halving guard keeps the objective non-increasing. Every estimate starts
from the flat state and stops when a step moves no state entry by
``TOLERANCE`` per-unit, or after ``MAX_ITER`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dsse.grid_model import FeederModel
from dsse.measurements import MeasurementSet, RowEvaluator, check_usable, unit_bases
from dsse.powerflow import StateVector, slack_state

MAX_STEP_HALVINGS = 4
MAX_ITER = 50
TOLERANCE = 1e-7  # max-norm of the state update, in per-unit


class UnobservableError(RuntimeError):
    """The measurement rows do not determine the state."""


class NonConvergedError(RuntimeError):
    def __init__(self, report):
        super().__init__(f"Gauss-Newton did not converge in {report.iterations} iterations "
                         f"(objective {report.objective:.4e})")
        self.report = report


@dataclass
class WlsReport:
    x_hat: StateVector
    objective: float
    iterations: int
    converged: bool
    observability_margin: float


def objective(model: FeederModel, z: MeasurementSet, x: StateVector) -> float:
    """[z - h(x)]^T R^-1 [z - h(x)]."""
    r = z.values() - RowEvaluator(model, z).h(x)
    return float(np.sum(r * r / z.variances()))


def check_observable(H: np.ndarray) -> float:
    """Margin s_min / s_max of ``H``, a template's flat-start Jacobian with
    each row divided by its unit base, so that neither the row weights nor
    the units move it. Raises ``UnobservableError`` when the margin is at
    most max(H.shape) * eps, numpy's default rank tolerance: H then lacks
    full column rank."""
    s = np.linalg.svd(H, compute_uv=False)
    margin = float(s[-1] / s[0]) if len(s) == H.shape[1] and s[0] > 0 else 0.0
    if margin <= max(H.shape) * np.finfo(float).eps:
        raise UnobservableError(f"observability margin {margin:.3e}: rank-deficient Jacobian")
    return margin


def _compile(model: FeederModel, template: MeasurementSet) -> tuple:
    """(evaluator, flat state, flat-start Jacobian, margin or UnobservableError,
    read-only upper-triangular 0/1 mask that cuts R out of a raw QR)."""
    ev, flat = RowEvaluator(model, template), slack_state(model)
    H = ev.jacobian(flat)
    upper = np.triu(np.ones((H.shape[1], H.shape[1])))
    upper.flags.writeable = False
    try:
        margin = check_observable(H / unit_bases(model, template)[:, None])
    except UnobservableError as exc:
        margin = exc
    return ev, flat, H, margin, upper


def estimate(model: FeederModel, z: MeasurementSet) -> WlsReport:
    ev, flat, H, margin, upper = z.compiled(model, _compile)
    check_usable(z)
    zv, variances = z.values(), z.variances()
    if isinstance(margin, UnobservableError):
        raise UnobservableError(*margin.args)
    sigma = np.sqrt(variances)[:, None]
    x = flat.copy()
    xr = x.rect
    r = zv - ev.h(x)
    j_cur = float(np.sum(r * r / variances))
    base, n = model.base_voltage, H.shape[1]
    A = np.empty((len(zv), n + 1))  # [H | r] / sigma, rewritten each step

    for it in range(1, MAX_ITER + 1):
        if it > 1:  # the first step reuses the flat-start H
            H = ev.jacobian(x)
        # Gauss-Newton step (H / sigma) delta = r / sigma by least squares: the
        # R factor of [H | r] / sigma holds R_H and Q^T r, so Q is never formed.
        # Raw mode returns geqrf's output, R above the diagonal and the
        # Householder vectors below it
        np.divide(H, sigma, out=A[:, :n])
        np.divide(r[:, None], sigma, out=A[:, n:])
        R = np.linalg.qr(A, mode="raw")[0].T
        delta = np.linalg.solve(R[:n, :n] * upper, R[:n, n])

        # step-halving guard: accept no objective increase beyond rounding slack
        alpha = 1.0
        for _ in range(MAX_STEP_HALVINGS + 1):
            xr_try = xr + alpha * delta
            x_try = StateVector.from_rect(xr_try)
            r_try = zv - ev.h(x_try)
            j_try = float(np.sum(r_try * r_try / variances))
            if j_try <= j_cur * (1.0 + 1e-9) + 1e-12:
                break
            alpha *= 0.5
        else:
            # no productive step left; converged if the full step was already
            # below tolerance, otherwise report the stall
            if float(np.max(np.abs(delta))) / base < TOLERANCE:
                return WlsReport(x, j_cur, it, True, margin)
            raise NonConvergedError(WlsReport(x, j_cur, it, False, margin))
        x, xr, r, j_cur = x_try, xr_try, r_try, min(j_try, j_cur)
        if float(np.max(np.abs(alpha * delta))) / base < TOLERANCE:
            return WlsReport(x, j_cur, it, True, margin)

    raise NonConvergedError(WlsReport(x, j_cur, MAX_ITER, False, margin))
