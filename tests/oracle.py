"""Independent brute-force oracle for the closed-form references.

A classical fourth-order one-step method that shares nothing with the
variational schemes: no element structure, no implicit solve, no elliptic
identities.  The tests march it finely to check the exact solutions.
"""

from lobvi.mechanics import PhasePoint, PotentialModel


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
