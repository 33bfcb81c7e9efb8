"""Implicit midpoint baseline: second order, symplectic, same solver plumbing.

Kept deliberately plain; it exists so the sixth-order scheme has something
honest to be compared against.
"""

from __future__ import annotations

from typing import Optional

from .mechanics import PhasePoint, StepParams
from .pendulum import NewtonConfig, NewtonError, fold


def step_midpoint(
    point: PhasePoint, params: StepParams, cfg: Optional[NewtonConfig] = None
) -> PhasePoint:
    """One step of (q+ - q)/h = (p + p+)/2m, (p+ - p)/h = -V'((q + q+)/2).

    The state update is solved by scalar Newton; linear potentials converge
    in one iteration.
    """
    if cfg is None:
        cfg = NewtonConfig()
    m, h = params.m, params.h
    dV = params.potential.dV
    d2V = params.potential.d2V
    p0, q0 = point.p, point.q
    x = q0 + h * p0 / m
    scale = max(1.0, abs(q0))
    tol = cfg.tol * scale
    g = x - q0 - h / m * p0 + h * h / (2.0 * m) * dV(0.5 * (q0 + x))
    for used in range(cfg.max_iter + 1):
        if abs(g) <= tol:
            break
        if used == cfg.max_iter:
            raise NewtonError("no convergence", residual=abs(g) / scale, iterations=used)
        dx = g / (1.0 + h * h / (4.0 * m) * d2V(0.5 * (q0 + x)))
        if abs(dx) > cfg.max_step:
            raise NewtonError("diverged", residual=abs(g) / scale, iterations=used)
        x -= dx
        g = x - q0 - h / m * p0 + h * h / (2.0 * m) * dV(0.5 * (q0 + x))
    p1 = p0 - h * dV(0.5 * (q0 + x))
    return PhasePoint(p1, x)


def run_midpoint(
    point: PhasePoint,
    params: StepParams,
    n_steps: int,
    cfg: Optional[NewtonConfig] = None,
) -> list:
    """Fold step_midpoint; returns n_steps + 1 phase points."""
    if cfg is None:
        cfg = NewtonConfig()
    return fold(lambda pt: step_midpoint(pt, params, cfg), point, n_steps)
