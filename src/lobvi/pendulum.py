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

# One stopping rule for both implicit schemes: stop once the residual, a
# position, is at most TOL times the largest position of the step (1e-14 puts
# every Table 2 entry within 2% of print) or at most 5e-324, the least
# subnormal, where that product underflows; fail after MAX_ITER iterations, and
# call a Newton increment larger than MAX_STEP divergence (quadratic
# convergence never gets near it).
TOL = 1e-14
MAX_ITER = 20
MAX_STEP = 1e6


class NewtonError(RuntimeError):
    """Newton failed: non-convergence, divergence, a singular Jacobian or a non-finite residual.

    A structured record: `reason` names the failure, `residual` is the last
    scaled residual and `iterations` the iterations done.  When the solve was
    one step of a fold, `step` (1-based) and `n_steps` say which.
    """

    def __init__(self, reason: str, residual: float = math.nan, iterations: int = 0):
        super().__init__(reason)
        self.reason = reason
        self.residual = residual
        self.iterations = iterations
        self.step: Optional[int] = None
        self.n_steps: Optional[int] = None

    def __str__(self) -> str:
        where = "" if self.step is None else f"step {self.step} of {self.n_steps}: "
        return (
            f"{where}{self.reason} after {self.iterations} iterations, "
            f"scaled residual {self.residual:.3e}"
        )


def fold(step: Callable[[PhasePoint], tuple], point: PhasePoint, n_steps: int) -> Run:
    """Apply a one-step map n_steps times; returns Run(points, iterations, None).

    step returns (point, iterations); a NewtonError it raises gets `step` and `n_steps` set.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    points = [point]
    iterations = []
    for j in range(n_steps):
        try:
            point, used = step(point)
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
    dv_j: Optional[float] = None,
) -> tuple:
    """(r1, r2, q_next, forces) at the interior nodes stages = (q_xi, q_xic).

    q_next is explicit: the state update with the momentum update substituted,
    where V'(q_next) cancels.  r1, r2: left minus right of the two interior
    stationarity equations with that q_next, zero when the interior nodes
    make the element action stationary between q_j and q_next (for V = 0 the
    linear interpolant).  forces = V'_j + 5 (V'_xi + V'_xic), so that once
    the nodes are solved p_next = p_j - h (forces + V'(q_next)) / 12.
    V' is evaluated once at each interior node; dv_j is V'(q_j) when the
    caller already has it.
    """
    dV = params.potential.dV
    h, m = params.h, params.m
    q_xi, q_xic = stages
    coef = h * h / (30.0 * m)
    vx = dV(q_xi)
    vc = dV(q_xic)
    v0 = dV(q_j) if dv_j is None else dv_j
    q_next = q_j + (
        h * p_j / m
        - h * h / (24.0 * m) * (2.0 * v0 + (5.0 + SQRT5) * vx + (5.0 - SQRT5) * vc)
    )
    r1 = q_xi - coef * (vc + 2.0 * vx) - ((1.0 - XI) * q_j + XI * q_next)
    r2 = q_xic - coef * (2.0 * vc + vx) - (XI * q_j + (1.0 - XI) * q_next)
    return (r1, r2, q_next, v0 + 5.0 * (vx + vc))


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

    Newton iterates on the interior nodes alone, from the linear interpolant
    between q_j and the free-drift prediction (exact for V = 0, O(h^2)
    otherwise), solving the 2x2 Jacobian by Cramer's rule.  r1 and r2 are
    positions, so it stops at max(|r1|, |r2|) <= TOL max(|q_j|, |q_xi|,
    |q_xic|, |q_next|) for any mass.  Below a scale of about 5e-310 that
    bound underflows to 0, so it is floored at the least subnormal, 5e-324.
    p_next follows once, after convergence.
    """
    m, h = params.m, params.h
    dv_j = params.potential.dV(q_j)
    drift = q_j + h * p_j / m
    a, b = (1.0 - XI) * q_j + XI * drift, XI * q_j + (1.0 - XI) * drift

    for used in range(MAX_ITER + 1):
        r1, r2, n, forces = step_residual((a, b), p_j, q_j, params, dv_j)
        # max() drops a NaN that is not its first argument; the sum keeps it
        if not math.isfinite(r1 + r2):
            raise NewtonError("non-finite residual", residual=abs(r1) + abs(r2), iterations=used)
        size, scale = max(abs(r1), abs(r2)), max(abs(q_j), abs(a), abs(b), abs(n))
        if size <= max(TOL * scale, 5e-324):
            p = p_j - h * (forces + params.potential.dV(n)) / 12.0
            if not math.isfinite(p):
                # V'(q_next) enters only here: the momentum update's residual is NaN
                raise NewtonError("non-finite residual", residual=math.nan, iterations=used)
            return (a, b, p, n), used
        res = size / scale if scale else math.inf
        if used == MAX_ITER:
            raise NewtonError("no convergence", residual=res, iterations=used)
        (j11, j12), (j21, j22) = jacobian_dFL((a, b), params)
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            raise NewtonError("singular Jacobian", residual=res, iterations=used)
        da = (j12 * r2 - j22 * r1) / det
        db = (j21 * r1 - j11 * r2) / det
        if max(abs(da), abs(db)) > MAX_STEP:
            raise NewtonError("diverged", residual=res, iterations=used)
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
