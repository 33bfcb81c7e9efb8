"""Shared state containers, potential models and the parameter rule.

Small immutable records: a phase point (p, q), the node values of one time
element, a potential with its first two derivatives, and the parameters of
one implicit step.  Every parameter record checks its fields with `_require`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


def _require(name: str, value: float, ok: bool = True, want: str = "") -> None:
    """The one rule for parameter fields: finite and meeting its condition.

    The ValueError it raises carries the field name as its `field`.
    """
    if not (math.isfinite(value) and ok):
        cond = f"finite and {want}" if want else "finite"
        exc = ValueError(f"{name} must be {cond}, got {value!r}")
        exc.field = name
        raise exc


@dataclass(frozen=True)
class PhasePoint:
    """Momentum-state pair at a mesh node."""

    p: float
    q: float


@dataclass(frozen=True)
class ElementState:
    """Node values (q_l, q_xi, q_xic, q_r) of one time element.

    xi is the first interior Lobatto node, xic its reflection 1 - xi.
    """

    q_l: float
    q_xi: float
    q_xic: float
    q_r: float


@dataclass(frozen=True)
class PotentialModel:
    """Potential V with derivatives dV, d2V and an identifying tag."""

    tag: str
    V: Callable[[float], float]
    dV: Callable[[float], float]
    d2V: Callable[[float], float]


@dataclass(frozen=True)
class StepParams:
    """Mass, step size and potential of one implicit step (Lobatto or midpoint).

    h may be negative for reverse stepping (time-reversal checks).
    """

    m: float
    h: float
    potential: PotentialModel

    def __post_init__(self):
        _require("m", self.m, self.m > 0.0, "positive")
        _require("h", self.h, self.h != 0.0, "nonzero")


def harmonic_potential(m: float, omega: float) -> PotentialModel:
    """V(q) = m omega^2 q^2 / 2."""
    k = m * omega * omega
    return PotentialModel(
        tag="harmonic",
        V=lambda q: 0.5 * k * q * q,
        dV=lambda q: k * q,
        d2V=lambda q: k,
    )


def pendulum_potential(m: float, omega: float) -> PotentialModel:
    """V(q) = m omega^2 (1 - cos q), so V(0) = 0 and V'(0) = 0."""
    k = m * omega * omega
    return PotentialModel(
        tag="pendulum",
        V=lambda q: k * (1.0 - math.cos(q)),
        dV=lambda q: k * math.sin(q),
        d2V=lambda q: k * math.cos(q),
    )


def free_potential() -> PotentialModel:
    """V identically zero; free drift."""
    return PotentialModel(
        tag="free",
        V=lambda q: 0.0,
        dV=lambda q: 0.0,
        d2V=lambda q: 0.0,
    )


def energy(point: PhasePoint, potential: PotentialModel, m: float) -> float:
    """Continuous energy H(p, q) = p^2 / 2m + V(q)."""
    return point.p * point.p / (2.0 * m) + potential.V(point.q)
