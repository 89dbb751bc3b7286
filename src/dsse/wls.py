"""Weighted-least-squares state estimation via Gauss-Newton iterations.

Minimizes J(x) = [z - h(x)]^T R^-1 [z - h(x)] over the rectangular
voltage state. Each iteration solves the normal equations of the
sigma-whitened Jacobian; a step-halving guard keeps the objective
monotone non-increasing. A singular (or numerically singular) gain
matrix H^T R^-1 H means the measurement set does not pin down the state:
the estimator raises ``UnobservableError`` instead of returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dsse.grid_model import FeederModel
from dsse.measurements import MeasurementSet, RowEvaluator
from dsse.powerflow import StateVector, slack_state

GAIN_CONDITION_LIMIT = 1e12
MAX_STEP_HALVINGS = 4


class UnobservableError(RuntimeError):
    """Gain matrix numerically singular: the network is unobservable."""


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
    gain_condition: float


def objective(
    model: FeederModel, z: MeasurementSet, x: StateVector, evaluator=None
) -> float:
    """[z - h(x)]^T R^-1 [z - h(x)]."""
    ev = evaluator or RowEvaluator(model, z)
    r = z.values() - ev.h(x)
    return float(np.sum(r * r / z.variances()))


def estimate(
    model: FeederModel,
    z: MeasurementSet,
    config: WlsConfig | None = None,
    x0: StateVector | None = None,
) -> WlsReport:
    config = config or WlsConfig()
    ev = RowEvaluator(model, z)
    zv = z.values()
    sigma = np.sqrt(z.variances())
    if np.any(sigma <= 0):
        raise ValueError("measurement variances must be positive")

    x = x0.copy() if x0 is not None else slack_state(model)
    j_cur = objective(model, z, x, ev)
    base = model.base_voltage

    gain_condition = np.inf
    for it in range(1, config.max_iter + 1):
        H = ev.jacobian(x)
        A = H / sigma[:, None]
        r = (zv - ev.h(x)) / sigma
        # Jacobi column equilibration: the condition estimate should flag
        # structural rank deficiency, not mixed units (volts vs watts)
        col = np.linalg.norm(A, axis=0)
        if np.any(col == 0.0):
            raise UnobservableError(
                "state component(s) touched by no measurement row"
            )
        As = A / col
        G = As.T @ As
        gain_condition = float(np.linalg.cond(G))
        if not np.isfinite(gain_condition) or gain_condition > GAIN_CONDITION_LIMIT:
            raise UnobservableError(
                f"gain matrix condition {gain_condition:.3e} exceeds "
                f"{GAIN_CONDITION_LIMIT:.0e}"
            )
        try:
            c = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise UnobservableError("gain matrix factorization failed") from exc
        g = As.T @ r
        delta = np.linalg.solve(c.T, np.linalg.solve(c, g)) / col

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
                return WlsReport(x, j_cur, it, True, gain_condition)
            raise NonConvergedError(WlsReport(x, j_cur, it, False, gain_condition))
        x, j_cur, alpha = accepted

        if float(np.max(np.abs(alpha * delta))) / base < config.tolerance:
            return WlsReport(x, j_cur, it, True, gain_condition)

    raise NonConvergedError(WlsReport(x, j_cur, config.max_iter, False, gain_condition))
