"""Weighted-least-squares state estimation via Gauss-Newton iterations.

Minimizes J(x) = [z - h(x)]^T R^-1 [z - h(x)] over the rectangular
voltage state. Before iterating, ``check_observable`` tests the template
once: the flat-start Jacobian, each row made per-unit by its unit base,
must have full column rank. Otherwise the measurement set does not pin
down the state, and the estimator raises ``UnobservableError`` instead of
returning garbage. Scenario 3 of the pipeline uses the same test. Each
iteration solves the sigma-whitened least-squares step by QR; a
step-halving guard keeps the objective monotone non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dsse.grid_model import FeederModel
from dsse.measurements import MeasurementSet, RowEvaluator, unit_bases
from dsse.powerflow import StateVector, slack_state

MAX_STEP_HALVINGS = 4


class UnobservableError(RuntimeError):
    """The measurement rows do not determine the state."""


class NonConvergedError(RuntimeError):
    def __init__(self, report):
        super().__init__(
            f"Gauss-Newton did not converge in {report.iterations} iterations "
            f"(objective {report.objective:.4e})"
        )
        self.report = report


@dataclass
class WlsConfig:
    tolerance: float = 1e-7  # max-norm of the state update, in per-unit
    max_iter: int = 50

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass
class WlsReport:
    x_hat: StateVector
    objective: float
    iterations: int
    converged: bool
    observability_margin: float


def objective(
    model: FeederModel, z: MeasurementSet, x: StateVector, evaluator=None
) -> float:
    """[z - h(x)]^T R^-1 [z - h(x)]."""
    ev = evaluator or RowEvaluator(model, z)
    r = z.values() - ev.h(x)
    return float(np.sum(r * r / z.variances()))


def check_observable(model: FeederModel, template: MeasurementSet, H: np.ndarray) -> float:
    """Margin s_min / s_max of the flat-start Jacobian ``H`` of ``template``
    with each row made per-unit by its unit base, so that neither the row
    weights nor the units move it. Raises ``UnobservableError`` when the
    margin is at most max(H.shape) * eps, numpy's default rank tolerance:
    H then lacks full column rank."""
    s = np.linalg.svd(H / unit_bases(model, template)[:, None], compute_uv=False)
    margin = float(s[-1] / s[0]) if len(s) == H.shape[1] and s[0] > 0 else 0.0
    if margin <= max(H.shape) * np.finfo(float).eps:
        raise UnobservableError(f"observability margin {margin:.3e}: rank-deficient Jacobian")
    return margin


def estimate(
    model: FeederModel,
    z: MeasurementSet,
    config: WlsConfig | None = None,
    x0: StateVector | None = None,
) -> WlsReport:
    config = config or WlsConfig()
    ev = RowEvaluator(model, z)
    zv, variances = z.values(), z.variances()
    if not (np.isfinite(zv).all() and (np.isfinite(variances) & (variances > 0)).all()):
        raise ValueError("measurement values must be finite, variances finite and positive")
    sigma = np.sqrt(variances)

    flat = slack_state(model)
    H = ev.jacobian(flat)
    margin = check_observable(model, z, H)
    x = x0.copy() if x0 is not None else flat
    j_cur = objective(model, z, x, ev)
    base = model.base_voltage

    for it in range(1, config.max_iter + 1):
        if x is not flat:  # a cold start's first step reuses the flat-start H
            H = ev.jacobian(x)
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
            j_try = objective(model, z, x_try, ev)
            if j_try <= j_cur * (1.0 + 1e-9) + 1e-12:
                accepted = (x_try, min(j_try, j_cur), alpha)
                break
            alpha *= 0.5
        if accepted is None:
            # no productive step left; converged if the full step was already
            # below tolerance, otherwise report the stall
            if float(np.max(np.abs(delta))) / base < config.tolerance:
                return WlsReport(x, j_cur, it, True, margin)
            raise NonConvergedError(WlsReport(x, j_cur, it, False, margin))
        x, j_cur, alpha = accepted

        if float(np.max(np.abs(alpha * delta))) / base < config.tolerance:
            return WlsReport(x, j_cur, it, True, margin)

    raise NonConvergedError(WlsReport(x, j_cur, config.max_iter, False, margin))
