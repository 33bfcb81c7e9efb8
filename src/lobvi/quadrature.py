"""Four-point Lobatto rule on [0, 1] and its cubic nodal basis.

Nodes sit at both endpoints plus the interior pair {xi, 1 - xi} with
xi = 1/2 - sqrt(5)/10, weights (1/12, 5/12, 5/12, 1/12).  The rule is exact
through degree 5; the degree-6 defect (43/300 instead of 1/7) sets the
accuracy ceiling of the element and is pinned by tests rather than treated
as noise.  xi and sqrt(5) are computed from sqrt at full precision so that
derived identities such as xi * (1 - xi) = 1/5 hold to machine precision.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .mechanics import ElementState

SQRT5 = math.sqrt(5.0)
XI = 0.5 - SQRT5 / 10.0


class QuadratureRule(NamedTuple):
    nodes: tuple
    weights: tuple


LOBATTO = QuadratureRule(
    nodes=(0.0, XI, 1.0 - XI, 1.0),
    weights=(1.0 / 12.0, 5.0 / 12.0, 5.0 / 12.0, 1.0 / 12.0),
)


def integrate_unit(f: Callable[[float], float]) -> float:
    """Weighted node sum; exact for polynomials of degree <= 5."""
    total = 0.0
    for node, weight in zip(LOBATTO.nodes, LOBATTO.weights):
        total += weight * f(node)
    return total


def _check_theta(theta: float) -> None:
    # elements never evaluate outside their interval; reject instead of extrapolating
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta outside [0, 1]: {theta!r}")


def eval_basis(theta: float) -> tuple:
    """Values of (phi_0, phi_xi, phi_xic, phi_1) at theta, in product form."""
    _check_theta(theta)
    phi_0 = 5.0 * (theta - XI) * (theta - (1.0 - XI)) * (1.0 - theta)
    phi_xi = -5.0 * SQRT5 * theta * (1.0 - theta) * (theta - (1.0 - XI))
    phi_xic = 5.0 * SQRT5 * theta * (1.0 - theta) * (theta - XI)
    phi_1 = 5.0 * theta * (theta - XI) * (theta - (1.0 - XI))
    return (phi_0, phi_xi, phi_xic, phi_1)


def eval_basis_deriv(theta: float) -> tuple:
    """Derivatives of the four basis polynomials at theta."""
    _check_theta(theta)
    u = (theta - XI) * (theta - (1.0 - XI))
    du = 2.0 * theta - 1.0
    w = theta * (1.0 - theta)
    dw = 1.0 - 2.0 * theta
    d_phi_0 = 5.0 * (du * (1.0 - theta) - u)
    d_phi_xi = -5.0 * SQRT5 * (dw * (theta - (1.0 - XI)) + w)
    d_phi_xic = 5.0 * SQRT5 * (dw * (theta - XI) + w)
    d_phi_1 = 5.0 * (u + theta * du)
    return (d_phi_0, d_phi_xi, d_phi_xic, d_phi_1)


def interpolate(element: ElementState, theta: float) -> float:
    """Cubic interpolant through the four node values."""
    b = eval_basis(theta)
    return (
        element.q_l * b[0]
        + element.q_xi * b[1]
        + element.q_xic * b[2]
        + element.q_r * b[3]
    )


def stiffness_matrix() -> tuple:
    """Closed-form element matrix K_ab = integral over [0,1] of phi_a' phi_b'.

    Returned as four rows of floats.  Symmetric, rows sum to zero, kernel
    (1, 1, 1, 1).
    """
    s = 5.0 * SQRT5 / 4.0
    d = 25.0 / 12.0
    return (
        (13.0 / 3.0, -s - d, s - d, -1.0 / 6.0),
        (-s - d, 25.0 / 3.0, -25.0 / 6.0, s - d),
        (s - d, -25.0 / 6.0, 25.0 / 3.0, -s - d),
        (-1.0 / 6.0, s - d, -s - d, 13.0 / 3.0),
    )


def assemble_stiffness() -> tuple:
    """K assembled by Lobatto quadrature of phi_a' phi_b', as four rows of floats.

    The integrands are degree 4, inside the exactness range of the rule, so
    this must reproduce the closed form; it is kept as an independent route
    on purpose.
    """
    grads = [(w, eval_basis_deriv(node)) for node, w in zip(LOBATTO.nodes, LOBATTO.weights)]
    return tuple(
        tuple(sum(w * (g[a] * g[b]) for w, g in grads) for b in range(4))
        for a in range(4)
    )
