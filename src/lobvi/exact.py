"""Closed-form reference solutions and an independent brute-force oracle.

The oscillator reference is plain trigonometry.  The pendulum released from
rest at angle q0 has sin(q/2) = k cd(omega t, k) with modulus k = sin(q0/2);
cd = cn/dn follows from sn(u + K) = cd(u) and the release condition.  The
momentum is the analytic derivative p = -2 m k k' omega sn/dn, where
k' = cos(q0/2); both are validated against the RK4 oracle rather than
trusted as transcriptions.

Elliptic values come from bounded AGM / descending-Landen iterations; the
moduli shrink quadratically, so 32 passes is far more than float64 needs,
and the stop test uses a few-ulp band instead of an exact fixed point
(consecutive AGM iterates can dither one ulp apart forever).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .mechanics import PhasePoint, PotentialModel, _require

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class HarmonicExact:
    """q(t) = A cos(omega t), p(t) = -A m omega sin(omega t)."""

    amplitude: float
    omega: float
    m: float

    def __post_init__(self):
        _require("amplitude", self.amplitude)
        _require("omega", self.omega, self.omega > 0.0, "positive")
        _require("m", self.m, self.m > 0.0, "positive")


def harmonic_exact(t: float, params: HarmonicExact) -> PhasePoint:
    a, w, m = params.amplitude, params.omega, params.m
    return PhasePoint(-a * m * w * math.sin(w * t), a * math.cos(w * t))


def complete_elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind, via the AGM."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus outside [0, 1): {k!r}")
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))
    for _ in range(32):
        if abs(a - b) <= 4.0 * _EPS * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _sncndn(u: float, k: float) -> tuple:
    """Jacobi sn, cn, dn at argument u, modulus k in [0, 1).

    Descending Landen: run the AGM, seed the amplitude at the smallest
    modulus, unwind phi_{n-1} = (phi_n + asin((c_n/a_n) sin phi_n)) / 2.
    dn comes from the Pythagorean identity, which keeps it positive and
    accurate near u = K where the phi recursion loses relative accuracy.
    """
    a = 1.0
    b = math.sqrt((1.0 - k) * (1.0 + k))
    c = k
    avals = [a]
    cvals = [c]
    while abs(c) > 4.0 * _EPS * a and len(avals) < 32:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        avals.append(a)
        cvals.append(c)
    n = len(avals) - 1
    phi = (2.0 ** n) * avals[n] * u
    for i in range(n, 0, -1):
        s = cvals[i] / avals[i] * math.sin(phi)
        phi = 0.5 * (phi + math.asin(min(1.0, max(-1.0, s))))
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.sqrt((1.0 - k * sn) * (1.0 + k * sn))
    return sn, cn, dn


@dataclass(frozen=True)
class PendulumExact:
    """Release from rest: q(0) = q0 in (0, pi), p(0) = 0."""

    q0: float
    omega: float
    m: float

    def __post_init__(self):
        _require("q0", self.q0, 0.0 < self.q0 < math.pi, "in (0, pi)")
        _require("omega", self.omega, self.omega > 0.0, "positive")
        _require("m", self.m, self.m > 0.0, "positive")

    @property
    def modulus(self) -> float:
        return math.sin(0.5 * self.q0)

    @cached_property
    def elliptic_K(self) -> float:
        """K(modulus), computed once per record."""
        return complete_elliptic_K(self.modulus)

    @property
    def period(self) -> float:
        return 4.0 * self.elliptic_K / self.omega


def pendulum_exact(t: float, params: PendulumExact) -> PhasePoint:
    k = params.modulus
    kp = math.cos(0.5 * params.q0)
    bigk = params.elliptic_K
    # reduce by the full period 4K so long horizons keep full accuracy
    u = math.fmod(params.omega * t, 4.0 * bigk)
    sn, cn, dn = _sncndn(u, k)
    s = k * cn / dn
    q = 2.0 * math.asin(min(1.0, max(-1.0, s)))
    p = -2.0 * params.m * k * kp * params.omega * sn / dn
    return PhasePoint(p, q)


def oracle_integrate(
    potential: PotentialModel,
    point: PhasePoint,
    t_end: float,
    n_steps: int,
    m: float = 1.0,
) -> PhasePoint:
    """Classical fourth-order one-step method, used only as a test oracle.

    Deliberately has nothing in common with the variational schemes: no
    element structure, no implicit solve, no elliptic identities.
    """
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
