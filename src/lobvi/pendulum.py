"""Implicit Lobatto step for nonlinear potentials, specialized to the pendulum.

Once the potential is nonlinear the two interior element nodes cannot be
eliminated, so each step solves F(u) = 0 in the unknowns (q_xi, q_xic,
p_next, q_next): two interior stationarity equations plus the momentum and
state updates.  p_next enters the Jacobian only through the column
(0, 0, 1, -h/2m), so each Newton increment eliminates it and solves the
remaining 3x3 system in (q_xi, q_xic, q_next) in closed form with Python
floats.  Newton with the analytic Jacobian reaches the 1e-13 scaled-residual
tolerance in a handful of iterations at any sane step size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

from .analysis import map_jacobian_determinant
from .harmonic import kinetic_form, stability_limit
from .mechanics import ElementState, PhasePoint, StepParams, _require
from .quadrature import SQRT5, XI


@dataclass(frozen=True)
class StepUnknowns:
    """The per-step Newton unknowns, in equation order."""

    q_xi: float
    q_xic: float
    p_next: float
    q_next: float


@dataclass(frozen=True)
class NewtonConfig:
    """Tolerance on the scaled residual infinity norm, iteration cap, and a
    guard on the Newton step norm past which the iteration is declared
    divergent (quadratic convergence never gets near it)."""

    tol: float = 1e-13
    max_iter: int = 20
    max_step: float = 1e6

    def __post_init__(self):
        _require("tol", self.tol, self.tol > 0.0, "positive")
        _require("max_iter", self.max_iter, self.max_iter >= 1, "at least 1")
        _require("max_step", self.max_step, self.max_step > 0.0, "positive")


class NewtonError(RuntimeError):
    """Newton failed: non-convergence, divergence, or a singular Jacobian.

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


def fold(step: Callable[[PhasePoint], PhasePoint], point: PhasePoint, n_steps: int) -> list:
    """Apply a one-step map n_steps times; returns the n_steps + 1 points.

    A NewtonError raised by step j leaves with its `step` and `n_steps` set.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    points = [point]
    for j in range(n_steps):
        try:
            point = step(point)
        except NewtonError as exc:
            exc.step, exc.n_steps = j + 1, n_steps
            raise
        points.append(point)
    return points


def discrete_lagrangian_nl(element: ElementState, params: StepParams) -> float:
    """Element action with the potential integrated by the Lobatto rule."""
    e = element
    V = params.potential.V
    kin = kinetic_form(element, params.m, params.h)
    pot = params.h * (V(e.q_l) + 5.0 * (V(e.q_xi) + V(e.q_xic)) + V(e.q_r)) / 12.0
    return kin - pot


def internal_equations_residual(
    unknowns: StepUnknowns, q_l: float, q_r: float, params: StepParams
) -> tuple:
    """Left minus right of the two interior stationarity equations.

    Zero when the interior nodes make the element action stationary for the
    given borders.  For V = 0 the solution is the linear interpolant.
    """
    dV = params.potential.dV
    h, m = params.h, params.m
    coef = h * h / (30.0 * m)
    vx = dV(unknowns.q_xi)
    vc = dV(unknowns.q_xic)
    r1 = unknowns.q_xi - coef * (vc + 2.0 * vx) - ((1.0 - XI) * q_l + XI * q_r)
    r2 = unknowns.q_xic - coef * (2.0 * vc + vx) - (XI * q_l + (1.0 - XI) * q_r)
    return (r1, r2)


def dynamics_residual(
    unknowns: StepUnknowns,
    p_j: float,
    q_j: float,
    params: StepParams,
    dv_j: Optional[float] = None,
) -> tuple:
    """Left sides of the momentum and state update equations.

    Momentum update carries the (1, 5, 5, 1)/12 force weights; the state
    update carries the sqrt(5)-weighted interior force difference and the
    averaged momentum.  dv_j is V'(q_j) when the caller already has it.
    """
    dV = params.potential.dV
    h, m = params.h, params.m
    vx = dV(unknowns.q_xi)
    vc = dV(unknowns.q_xic)
    v0 = dV(q_j) if dv_j is None else dv_j
    v1 = dV(unknowns.q_next)
    r3 = unknowns.p_next - p_j + h * (v0 + 5.0 * (vx + vc) + v1) / 12.0
    r4 = (
        unknowns.q_next
        - q_j
        - h * h / (24.0 * m) * (v1 + SQRT5 * (vc - vx) - v0)
        - h / (2.0 * m) * (unknowns.p_next + p_j)
    )
    return (r3, r4)


def jacobian_dFL(unknowns: StepUnknowns, params: StepParams) -> tuple:
    """Analytic 4x4 Jacobian of the residual in (q_xi, q_xic, p_next, q_next).

    Returned as four rows of floats in equation order (internal xi, internal
    xic, momentum update, state update).  p_next enters only through the
    column (0, 0, 1, -h/2m).  det = 1 + (h^2/60m)(V''_xi + V''_xic)
    + (h^4/1800 m^2) V''_xi V''_xic, so it tends to 1 as h shrinks and the
    solve stays well conditioned.
    """
    d2V = params.potential.d2V
    h, m = params.h, params.m
    vx = d2V(unknowns.q_xi)
    vc = d2V(unknowns.q_xic)
    vn = d2V(unknowns.q_next)
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


def newton_step_solve(
    p_j: float,
    q_j: float,
    params: StepParams,
    cfg: Optional[NewtonConfig] = None,
) -> tuple:
    """Solve one step; returns (StepUnknowns, iterations used).

    Initial guess: interior nodes interpolate linearly between q_j and the
    free-drift prediction, p_next = p_j, q_next = drift.  Exact for V = 0,
    O(h^2) otherwise.  Residual components are scaled by max(1, |q_j|) or
    max(1, |p_j|) so the tolerance is unit consistent.

    Each increment eliminates dp_next from the state row with the momentum
    row, solves the 3x3 in (q_xi, q_xic, q_next) by Cramer's rule and
    recovers dp_next from the momentum row; the 3x3 determinant is det J.
    """
    if cfg is None:
        cfg = NewtonConfig()
    m, h = params.m, params.h
    dv_j = params.potential.dV(q_j)
    drift = q_j + h * p_j / m
    # a, b, p, n stand for q_xi, q_xic, p_next, q_next
    a, b, p, n = (1.0 - XI) * q_j + XI * drift, XI * q_j + (1.0 - XI) * drift, p_j, drift
    sq = max(1.0, abs(q_j))
    sp = max(1.0, abs(p_j))

    res = math.inf
    for used in range(cfg.max_iter + 1):
        u = StepUnknowns(a, b, p, n)
        f1, f2 = internal_equations_residual(u, q_j, n, params)
        f3, f4 = dynamics_residual(u, p_j, q_j, params, dv_j)
        res = max(abs(f1) / sq, abs(f2) / sq, abs(f3) / sp, abs(f4) / sq)
        if res <= cfg.tol:
            return u, used
        if used == cfg.max_iter:
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
        dp = -f3 - j31 * da - j32 * db - j34 * dn
        if max(abs(da), abs(db), abs(dp), abs(dn)) > cfg.max_step:
            raise NewtonError("diverged", residual=res, iterations=used)
        a, b, p, n = a + da, b + db, p + dp, n + dn
    raise NewtonError("no convergence", residual=res, iterations=cfg.max_iter)


def _warn_if_stiff(point: PhasePoint, params: StepParams) -> None:
    # linearized surrogate bound; advisory only, never enforced
    z = abs(params.h) * math.sqrt(abs(params.potential.d2V(point.q)) / params.m)
    if z >= stability_limit():
        warnings.warn(
            f"|h|*sqrt|V''(q)/m| = {z:.3f} is at or beyond the linearized "
            f"stability bound {stability_limit():.4f}",
            RuntimeWarning,
            stacklevel=3,
        )


def step_pendulum(
    point: PhasePoint,
    params: StepParams,
    cfg: Optional[NewtonConfig] = None,
) -> PhasePoint:
    """Advance one step; propagates NewtonError on solver failure."""
    _warn_if_stiff(point, params)
    unknowns, _ = newton_step_solve(point.p, point.q, params, cfg)
    return PhasePoint(unknowns.p_next, unknowns.q_next)


def run_pendulum(
    point: PhasePoint,
    params: StepParams,
    n_steps: int,
    cfg: Optional[NewtonConfig] = None,
) -> tuple:
    """Fold the implicit step n_steps times.

    Returns (points, iterations) with len(points) = n_steps + 1 and one
    iteration count per step.
    """
    _warn_if_stiff(point, params)
    if cfg is None:
        cfg = NewtonConfig()
    iterations = []

    def step(pt: PhasePoint) -> PhasePoint:
        unknowns, used = newton_step_solve(pt.p, pt.q, params, cfg)
        iterations.append(used)
        return PhasePoint(unknowns.p_next, unknowns.q_next)

    return fold(step, point, n_steps), iterations


def symplecticity_defect(
    point: PhasePoint,
    params: StepParams,
    cfg: Optional[NewtonConfig] = None,
    eps: float = 1e-6,
) -> float:
    """|det J - 1| for the central-difference Jacobian of the one-step map."""
    det = map_jacobian_determinant(
        lambda pt: step_pendulum(pt, params, cfg), point, eps
    )
    return abs(det - 1.0)
