"""Implicit Lobatto step for nonlinear potentials, specialized to the pendulum.

Once the potential is nonlinear the two interior element nodes cannot be
eliminated, so each step solves F(u) = 0 in the unknowns (q_xi, q_xic,
p_next, q_next): two interior stationarity equations plus the momentum and
state updates.  p_next enters the Jacobian only through the column
(0, 0, 1, -h/2m), so each Newton increment eliminates it and solves the
remaining 3x3 system in (q_xi, q_xic, q_next) in closed form with Python
floats.  Newton with the analytic Jacobian reaches the 1e-14 scaled-residual
tolerance in a handful of iterations at any sane step size.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .analysis import map_jacobian_determinant
from .harmonic import kinetic_form
from .mechanics import ElementState, PhasePoint, Run, StepParams
from .quadrature import SQRT5, XI

# One stopping rule for both implicit schemes: stop once the scaled residual
# infinity norm is at most TOL (1e-14 puts every Table 2 entry within 2% of
# print), fail after MAX_ITER iterations, and call a Newton position increment
# larger than MAX_STEP divergence (quadratic convergence never gets near it; the
# momentum increment scales with m and follows from the position increments).
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
    unknowns: tuple,
    p_j: float,
    q_j: float,
    params: StepParams,
    dv_j: Optional[float] = None,
) -> tuple:
    """Step-equation left sides (r1, r2, r3, r4) at unknowns (q_xi, q_xic, p_next, q_next).

    r1, r2: left minus right of the two interior stationarity equations, zero
    when the interior nodes make the element action stationary between q_j
    and q_next (for V = 0 the linear interpolant).  r3: the momentum update
    with the (1, 5, 5, 1)/12 force weights.  r4: the state update with the
    sqrt(5)-weighted interior force difference and the averaged momentum.
    V' is evaluated once at each node; dv_j is V'(q_j) when the caller
    already has it.
    """
    dV = params.potential.dV
    h, m = params.h, params.m
    q_xi, q_xic, p_next, q_next = unknowns
    coef = h * h / (30.0 * m)
    vx = dV(q_xi)
    vc = dV(q_xic)
    v0 = dV(q_j) if dv_j is None else dv_j
    v1 = dV(q_next)
    r1 = q_xi - coef * (vc + 2.0 * vx) - ((1.0 - XI) * q_j + XI * q_next)
    r2 = q_xic - coef * (2.0 * vc + vx) - (XI * q_j + (1.0 - XI) * q_next)
    r3 = p_next - p_j + h * (v0 + 5.0 * (vx + vc) + v1) / 12.0
    r4 = (
        q_next
        - q_j
        - h * h / (24.0 * m) * (v1 + SQRT5 * (vc - vx) - v0)
        - h / (2.0 * m) * (p_next + p_j)
    )
    return (r1, r2, r3, r4)


def jacobian_dFL(unknowns: tuple, params: StepParams) -> tuple:
    """Analytic 4x4 Jacobian of the residual in (q_xi, q_xic, p_next, q_next).

    Returned as four rows of floats in equation order (internal xi, internal
    xic, momentum update, state update).  p_next enters only through the
    column (0, 0, 1, -h/2m).  det = 1 + (h^2/60m)(V''_xi + V''_xic)
    + (h^4/1800 m^2) V''_xi V''_xic, so it tends to 1 as h shrinks and the
    solve stays well conditioned.
    """
    d2V = params.potential.d2V
    h, m = params.h, params.m
    q_xi, q_xic, _, q_next = unknowns
    vx = d2V(q_xi)
    vc = d2V(q_xic)
    vn = d2V(q_next)
    h2m = h * h / m
    return (
        (1.0 - h2m / 15.0 * vx, -h2m / 30.0 * vc, 0.0, -XI),
        (-h2m / 30.0 * vx, 1.0 - h2m / 15.0 * vc, 0.0, -(1.0 - XI)),
        (5.0 * h / 12.0 * vx, 5.0 * h / 12.0 * vc, 1.0, h / 12.0 * vn),
        (
            SQRT5 * h2m / 24.0 * vx,
            -SQRT5 * h2m / 24.0 * vc,
            -h / (2.0 * m),
            1.0 - h2m / 24.0 * vn,
        ),
    )


def newton_step_solve(p_j: float, q_j: float, params: StepParams) -> tuple:
    """Solve one step; returns ((q_xi, q_xic, p_next, q_next), iterations used).

    Initial guess: interior nodes interpolate linearly between q_j and the
    free-drift prediction, p_next = p_j, q_next = drift.  Exact for V = 0,
    O(h^2) otherwise.  Residual components are scaled by max(1, |q_j|) or
    max(1, |p_j|) so the tolerance is unit consistent.

    Each increment eliminates dp_next from the state row with the momentum
    row, solves the 3x3 in (q_xi, q_xic, q_next) by Cramer's rule and
    recovers dp_next from the momentum row; the 3x3 determinant is det J.
    """
    m, h = params.m, params.h
    dv_j = params.potential.dV(q_j)
    drift = q_j + h * p_j / m
    # a, b, p, n stand for q_xi, q_xic, p_next, q_next
    a, b, p, n = (1.0 - XI) * q_j + XI * drift, XI * q_j + (1.0 - XI) * drift, p_j, drift
    sq = max(1.0, abs(q_j))
    sp = max(1.0, abs(p_j))

    res = math.inf
    for used in range(MAX_ITER + 1):
        u = (a, b, p, n)
        f1, f2, f3, f4 = step_residual(u, p_j, q_j, params, dv_j)
        res = max(abs(f1) / sq, abs(f2) / sq, abs(f3) / sp, abs(f4) / sq)
        # max() drops a NaN that is not its first argument; the sum keeps it
        # (a sum of finite terms may overflow to inf, but never to NaN)
        if math.isnan(f1 + f2 + f3 + f4):
            res = math.nan
        if not math.isfinite(res):
            raise NewtonError("non-finite residual", residual=res, iterations=used)
        if res <= TOL:
            return u, used
        if used == MAX_ITER:
            break
        (j11, j12, _, j14), (j21, j22, _, j24), (j31, j32, _, j34), (
            j41, j42, j43, j44
        ) = jacobian_dFL(u, params)
        # state row minus j43 times the momentum row: dp_next drops out
        k1, k2, k4 = j41 - j43 * j31, j42 - j43 * j32, j44 - j43 * j34
        g1, g2, g4 = -f1, -f2, j43 * f3 - f4
        # Cramer's rule; c and e are the 2x2 minors shared by the determinants
        c1, c2, c3 = j22 * k4 - j24 * k2, j21 * k4 - j24 * k1, j21 * k2 - j22 * k1
        e1, e2, e3 = g2 * k4 - j24 * g4, g2 * k2 - j22 * g4, j21 * g4 - g2 * k1
        det = j11 * c1 - j12 * c2 + j14 * c3
        if det == 0.0 or not math.isfinite(det):
            raise NewtonError("singular Jacobian", residual=res, iterations=used)
        da = (g1 * c1 - j12 * e1 + j14 * e2) / det
        db = (j11 * e1 - g1 * c2 + j14 * e3) / det
        dn = (-j11 * e2 - j12 * e3 + g1 * c3) / det
        if max(abs(da), abs(db), abs(dn)) > MAX_STEP:
            raise NewtonError("diverged", residual=res, iterations=used)
        dp = -f3 - j31 * da - j32 * db - j34 * dn
        a, b, p, n = a + da, b + db, p + dp, n + dn
    raise NewtonError("no convergence", residual=res, iterations=MAX_ITER)


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
