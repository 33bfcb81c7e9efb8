"""Implicit Lobatto step for nonlinear potentials, specialized to the pendulum.

Once the potential is nonlinear the two interior element nodes cannot be
eliminated, so each step solves the two interior stationarity equations for
(q_xi, q_xic).  Given those nodes the Lobatto IIIA-IIIB step is explicit
(Hairer, Lubich & Wanner, GNI II.2 and VI.4): q_next from the state update,
where V'(q_next) cancels, then p_next from the momentum update.  Newton with
the analytic 2x2 Jacobian reaches the 1e-14 scaled-residual tolerance in a
handful of iterations at any sane step size.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .analysis import map_jacobian_determinant
from .harmonic import kinetic_form
from .mechanics import ElementState, PhasePoint, Run, StepParams
from .quadrature import SQRT5, XI

# The Newton policy of both implicit schemes (see `converged`); an increment
# above MAX_STEP is divergence (quadratic convergence never gets near it).
TOL = 1e-14
# 4 subnormal ulps: at one ulp the last bit of the update decides whether a
# subnormal step stops, so Cramer's rule and an LU solve differ by an iteration
FLOOR = 2e-323
MAX_ITER = 20
MAX_STEP = 1e6


class NewtonError(RuntimeError):
    """Newton failed: non-convergence, divergence, a singular Jacobian or a non-finite residual.

    A structured record: `reason` names the failure, `iterations` the `used` iterations and
    `residual` the last scaled residual size / scale (inf for scale 0).  When the solve was
    one step of a fold, `step` (1-based) and `n_steps` say which.
    """

    def __init__(self, reason: str, used: int, size: float = math.nan, scale: float = 1.0):
        super().__init__(reason)
        self.reason = reason
        self.residual = size / scale if scale else math.inf
        self.iterations = used
        self.step: Optional[int] = None
        self.n_steps: Optional[int] = None

    def __str__(self) -> str:
        where = "" if self.step is None else f"step {self.step} of {self.n_steps}: "
        return (
            f"{where}{self.reason} after {self.iterations} iterations, "
            f"scaled residual {self.residual:.3e}"
        )


def converged(size: float, scale: float, used: int) -> bool:
    """Stop once the residual `size`, a position, is at most TOL (1e-14 puts every Table 2
    entry within 2% of print) times `scale`, the step's largest position, or at most FLOOR
    where that falls below it.  Raises NewtonError for a non-finite size, and at MAX_ITER."""
    if not math.isfinite(size):
        raise NewtonError("non-finite residual", used, size)  # unscaled: inf or nan as it is
    if size <= max(TOL * scale, FLOOR):
        return True
    if used == MAX_ITER:
        raise NewtonError("no convergence", used, size, scale)
    return False


def free_drift(p: float, q: float, params: StepParams) -> float:
    """The free drift q + h p / m that starts both schemes' Newton; raises if it is not finite."""
    drift = q + params.h * p / params.m
    if not math.isfinite(drift):
        raise NewtonError("non-finite residual", 0, math.inf)
    return drift


def fold(step: Callable[[PhasePoint], tuple], point: PhasePoint, n_steps: int) -> Run:
    """Apply a one-step map n_steps times; returns Run(points, iterations, None).

    step returns (point, iterations); a non-finite momentum is a non-finite residual (NaN)
    (the residuals catch a position).  A NewtonError gets `step` and `n_steps` set.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    points = [point]
    iterations = []
    for j in range(n_steps):
        try:
            point, used = step(point)
            if not math.isfinite(point.p):
                raise NewtonError("non-finite residual", used)
        except NewtonError as exc:
            exc.step, exc.n_steps = j + 1, n_steps
            raise
        points.append(point)
        iterations.append(used)
    return Run(points, iterations, None)


def discrete_lagrangian_nl(element: ElementState, params: StepParams) -> float:
    """Element action of any potential, the oscillator's and the pendulum's:
    the kinetic form minus the potential integrated by the Lobatto rule."""
    e = element
    V = params.potential.V
    kin = kinetic_form(element, params.m, params.h)
    pot = params.h * (V(e.q_l) + 5.0 * (V(e.q_xi) + V(e.q_xic)) + V(e.q_r)) / 12.0
    return kin - pot


def step_residual(
    stages: tuple,
    p_j: float,
    q_j: float,
    params: StepParams,
    dv_j: float,
) -> tuple:
    """(r1, r2, q_next, forces) at the interior nodes stages = (q_xi, q_xic).

    q_next is explicit: the state update with the momentum update substituted,
    where V'(q_next) cancels.  r1, r2: left minus right of the two interior
    stationarity equations with that q_next, zero when the interior nodes
    make the element action stationary between q_j and q_next (for V = 0 the
    linear interpolant).  forces = V'_j + 5 (V'_xi + V'_xic), so that once
    the nodes are solved p_next = p_j - h (forces + V'(q_next)) / 12.
    V' is evaluated once at each interior node; dv_j is V'(q_j), which the
    caller evaluates once per step.
    """
    dV = params.potential.dV
    h, m = params.h, params.m
    q_xi, q_xic = stages
    coef = h * h / (30.0 * m)
    vx = dV(q_xi)
    vc = dV(q_xic)
    q_next = q_j + (
        h * p_j / m
        - h * h / (24.0 * m) * (2.0 * dv_j + (5.0 + SQRT5) * vx + (5.0 - SQRT5) * vc)
    )
    r1 = q_xi - coef * (vc + 2.0 * vx) - ((1.0 - XI) * q_j + XI * q_next)
    r2 = q_xic - coef * (2.0 * vc + vx) - (XI * q_j + (1.0 - XI) * q_next)
    return (r1, r2, q_next, dv_j + 5.0 * (vx + vc))


def jacobian_dFL(stages: tuple, params: StepParams) -> tuple:
    """Analytic 2x2 Jacobian of (r1, r2) in stages = (q_xi, q_xic), as two rows.

    With s = h^2/m, the rows are (1 + s V''_xi/60, (11 - 5 sqrt 5)/120 s V''_xic)
    and ((11 + 5 sqrt 5)/120 s V''_xi, 1 + s V''_xic/60), so
    det = 1 + (s/60)(V''_xi + V''_xic) + (s^2/1800) V''_xi V''_xic tends to 1
    as h shrinks and the solve stays well conditioned.
    """
    d2V = params.potential.d2V
    s = params.h * params.h / params.m
    vx = s * d2V(stages[0])
    vc = s * d2V(stages[1])
    return (
        (1.0 + vx / 60.0, (11.0 - 5.0 * SQRT5) / 120.0 * vc),
        ((11.0 + 5.0 * SQRT5) / 120.0 * vx, 1.0 + vc / 60.0),
    )


def newton_step_solve(p_j: float, q_j: float, params: StepParams) -> tuple:
    """Solve one step; returns ((q_xi, q_xic, p_next, q_next), iterations used).

    Newton iterates on the interior nodes alone, from the linear interpolant between q_j and
    the `free_drift` (exact for V = 0, O(h^2) otherwise), solving the 2x2 Jacobian by Cramer's
    rule, until max(|r1|, |r2|) has `converged` against max(|q_j|, |q_xi|, |q_xic|, |q_next|).
    p_next follows once and may be non-finite: `fold`, so `run_pendulum`, fails that step.
    """
    h, drift = params.h, free_drift(p_j, q_j, params)
    dv_j = params.potential.dV(q_j)
    a, b = (1.0 - XI) * q_j + XI * drift, XI * q_j + (1.0 - XI) * drift

    for used in range(MAX_ITER + 1):
        r1, r2, n, forces = step_residual((a, b), p_j, q_j, params, dv_j)
        e1, e2 = abs(r1), abs(r2)
        # (e1 + e2) / 2 keeps a NaN that max() drops; finite, it is at most max(e1, e2)
        size, scale = max((e1 + e2) / 2.0, e1, e2), max(abs(q_j), abs(a), abs(b), abs(n))
        if converged(size, scale, used):
            return (a, b, p_j - h * (forces + params.potential.dV(n)) / 12.0, n), used
        (j11, j12), (j21, j22) = jacobian_dFL((a, b), params)
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            raise NewtonError("singular Jacobian", used, size, scale)
        da = (j12 * r2 - j22 * r1) / det
        db = (j21 * r1 - j11 * r2) / det
        if max(abs(da), abs(db)) > MAX_STEP:
            raise NewtonError("diverged", used, size, scale)
        a, b = a + da, b + db


def run_pendulum(point: PhasePoint, params: StepParams, n_steps: int) -> Run:
    """Fold the implicit step n_steps times; returns Run(points, iterations, None)."""

    def step(pt: PhasePoint) -> tuple:
        (_, _, p_next, q_next), used = newton_step_solve(pt.p, pt.q, params)
        return PhasePoint(p_next, q_next), used

    return fold(step, point, n_steps)


def symplecticity_defect(point: PhasePoint, params: StepParams) -> float:
    """|det J - 1| for the central-difference Jacobian of the one-step map."""
    det = map_jacobian_determinant(lambda pt: run_pendulum(pt, params, 1).points[1], point)
    return abs(det - 1.0)
