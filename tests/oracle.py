"""Independent oracles: RK4 for the exact references, Lobatto IIIA-IIIB for the step.

A classical fourth-order one-step method that shares nothing with the
variational schemes: no element structure, no implicit solve, no elliptic
identities.  The tests march it finely to check the exact solutions.

The Galerkin variational step with 4-point Lobatto quadrature is the
4-stage Lobatto IIIA-IIIB partitioned Runge-Kutta method (Marsden & West,
Acta Numerica 2001, section 2.6; Hairer, Lubich & Wanner, Geometric
Numerical Integration, section VI.6).  `prk_step` solves that method's
stage equations by fixed-point iteration, with no element, residual or
Jacobian of lobvi's, so the tests can check the Newton step against it.
"""

import math

from lobvi.mechanics import PhasePoint, PotentialModel

_S5 = math.sqrt(5.0)
_XI = 0.5 - _S5 / 10.0
LOBATTO_C = (0.0, _XI, 1.0 - _XI, 1.0)
LOBATTO_B = (1.0 / 12.0, 5.0 / 12.0, 5.0 / 12.0, 1.0 / 12.0)
# Lobatto IIIA: a_ij is the integral from 0 to c_i of the j-th Lagrange
# polynomial on the nodes c
LOBATTO_IIIA = tuple(
    tuple(x / 120.0 for x in row)
    for row in (
        (0.0, 0.0, 0.0, 0.0),
        (11.0 + _S5, 25.0 - _S5, 25.0 - 13.0 * _S5, -1.0 + _S5),
        (11.0 - _S5, 25.0 + 13.0 * _S5, 25.0 + _S5, -1.0 - _S5),
        (10.0, 50.0, 50.0, 10.0),
    )
)
# Lobatto IIIB from the symplecticity condition b_i abar_ij + b_j a_ji = b_i b_j
LOBATTO_IIIB = tuple(
    tuple(LOBATTO_B[j] * (1.0 - LOBATTO_IIIA[j][i] / LOBATTO_B[i]) for j in range(4))
    for i in range(4)
)


def oracle_integrate(
    potential: PotentialModel,
    point: PhasePoint,
    t_end: float,
    n_steps: int,
    m: float = 1.0,
) -> PhasePoint:
    """RK4 from point over t_end in n_steps equal steps."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    dV = potential.dV
    h = t_end / n_steps
    p, q = point.p, point.q
    for _ in range(n_steps):
        k1p = -dV(q)
        k1q = p / m
        k2p = -dV(q + 0.5 * h * k1q)
        k2q = (p + 0.5 * h * k1p) / m
        k3p = -dV(q + 0.5 * h * k2q)
        k3q = (p + 0.5 * h * k2p) / m
        k4p = -dV(q + h * k3q)
        k4q = (p + h * k3p) / m
        p += h / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p)
        q += h / 6.0 * (k1q + 2.0 * (k2q + k3q) + k4q)
    return PhasePoint(p, q)


def prk_step(
    a_q: tuple,
    a_p: tuple,
    potential: PotentialModel,
    point: PhasePoint,
    h: float,
    m: float = 1.0,
) -> tuple:
    """One partitioned Runge-Kutta step with weights LOBATTO_B and nodes LOBATTO_C.

    The q stages advance by the tableau a_q with the stage momenta, the p
    stages by a_p with the stage forces; the Lobatto step is
    a_q = LOBATTO_IIIA, a_p = LOBATTO_IIIB.  The stages are iterated from
    the free-drift guess until they stop changing, or for 100 rounds.
    Returns (Q, next point), Q the four q stages: Q[1] and Q[2] sit at the
    interior nodes xi and 1 - xi.
    """
    dV = potential.dV
    p0, q0 = point.p, point.q
    Q = [q0 + c * h * p0 / m for c in LOBATTO_C]
    for _ in range(100):
        forces = [dV(x) for x in Q]
        P = [p0 - h * sum(a * f for a, f in zip(row, forces)) for row in a_p]
        new = [q0 + h / m * sum(a * v for a, v in zip(row, P)) for row in a_q]
        if new == Q:
            break
        Q = new
    forces = [dV(x) for x in Q]
    p_next = p0 - h * sum(b * f for b, f in zip(LOBATTO_B, forces))
    q_next = q0 + h / m * sum(b * v for b, v in zip(LOBATTO_B, P))
    return Q, PhasePoint(p_next, q_next)
