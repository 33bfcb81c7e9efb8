"""Implicit midpoint baseline: second order, symplectic, same solver plumbing.

Kept deliberately plain; it exists so the sixth-order scheme has something
honest to be compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .mechanics import PhasePoint, PotentialModel
from .pendulum import NewtonConfig, NewtonError, fold


@dataclass(frozen=True)
class MidpointStepParams:
    m: float
    h: float
    potential: PotentialModel
    solver: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if not self.m > 0.0:
            raise ValueError(f"mass must be positive, got {self.m!r}")
        if self.h == 0.0:
            raise ValueError("step size must be nonzero")


def step_midpoint(point: PhasePoint, params: MidpointStepParams) -> PhasePoint:
    """One step of (q+ - q)/h = (p + p+)/2m, (p+ - p)/h = -V'((q + q+)/2).

    The state update is solved by scalar Newton; linear potentials converge
    in one iteration.
    """
    m, h = params.m, params.h
    dV = params.potential.dV
    d2V = params.potential.d2V
    cfg = params.solver
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
        mid = 0.5 * (q0 + x)
        x -= g / (1.0 + h * h / (4.0 * m) * d2V(mid))
        g = x - q0 - h / m * p0 + h * h / (2.0 * m) * dV(0.5 * (q0 + x))
    p1 = p0 - h * dV(0.5 * (q0 + x))
    return PhasePoint(p1, x)


def run_midpoint(
    point: PhasePoint, params: MidpointStepParams, n_steps: int
) -> list:
    """Fold step_midpoint; returns n_steps + 1 phase points."""
    return fold(lambda pt: step_midpoint(pt, params), point, n_steps)
