"""Implicit midpoint baseline: second order, symplectic, same solver plumbing.

Kept deliberately plain; it exists so the sixth-order scheme has something
honest to be compared against.
"""

from __future__ import annotations

import math

from . import pendulum
from .mechanics import PhasePoint, Run, StepParams
from .pendulum import converged, fold, free_drift, newton_error


def step_midpoint(point: PhasePoint, params: StepParams) -> tuple:
    """One step of (q+ - q)/h = (p + p+)/2m, (p+ - p)/h = -V'((q + q+)/2).

    Scalar Newton, stopped by the Lobatto solver's `converged`, solves the state update
    and returns (next point, iterations); linear potentials converge in one iteration.
    """
    m, h = params.m, params.h
    dV, d2V = params.potential.dV, params.potential.d2V
    p0, q0 = point.p, point.q
    x = free_drift(p0, q0, params)
    for used in range(pendulum.MAX_ITER + 1):
        # the force at the midpoint serves the residual and, once converged, p1
        force = dV(0.5 * (q0 + x))
        g = x - q0 - h / m * p0 + h * h / (2.0 * m) * force
        # g is a position, scaled by the larger of |q0| and |x|
        scale = max(abs(q0), abs(x))
        if converged(abs(g), scale, used):
            return PhasePoint(p0 - h * force, x), used
        dg = 1.0 + h * h / (4.0 * m) * d2V(0.5 * (q0 + x))
        if dg == 0.0 or not math.isfinite(dg):
            raise newton_error("singular Jacobian", used, abs(g), scale)
        dx = g / dg
        if abs(dx) > pendulum.MAX_STEP:
            raise newton_error("diverged", used, abs(g), scale)
        x -= dx


def run_midpoint(point: PhasePoint, params: StepParams, n_steps: int) -> Run:
    """Fold step_midpoint; returns Run(points, iterations, None)."""
    return fold(lambda pt: step_midpoint(pt, params), point, n_steps)
