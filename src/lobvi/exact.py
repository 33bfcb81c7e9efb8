"""Closed-form reference solutions.

The oscillator reference is plain trigonometry.  The pendulum released from
rest at angle q0 has sin(q/2) = k cd(omega t, k) with modulus k = sin(q0/2);
cd = cn/dn follows from sn(u + K) = cd(u) and the release condition.  The
momentum is the analytic derivative p = -2 m k k' omega sn/dn, where
k' = cos(q0/2); the tests check both against an independent RK4 oracle
rather than trust them as transcriptions.

K and the Jacobi functions come from one bounded AGM, read as a descending
Landen sequence; the moduli shrink quadratically, so 31 passes is far more
than float64 needs, and the stop test uses a few-ulp band instead of an exact
fixed point (consecutive AGM iterates can dither one ulp apart forever).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .mechanics import PhasePoint, _require

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class HarmonicExact:
    """q(t) = A cos(omega t), p(t) = -A m omega sin(omega t)."""

    amplitude: float
    omega: float
    m: float

    def __post_init__(self):
        _require("amplitude", self.amplitude, self.amplitude != 0.0, "nonzero")
        _require("omega", self.omega, self.omega > 0.0, "positive")
        _require("m", self.m, self.m > 0.0, "positive")


def harmonic_exact(t: float, params: HarmonicExact) -> PhasePoint:
    a, w, m = params.amplitude, params.omega, params.m
    # the mass goes last: a * m can pass the float range while p does not
    return PhasePoint(-(a * w * math.sin(w * t)) * m, a * math.cos(w * t))


def _descend(k: float, kp: float) -> tuple:
    """(a_n, (c_n/a_n, ..., c_1/a_1)): the AGM of 1 and k' run as the
    descending Landen sequence of k, until c_n is a few ulp of a_n."""
    a, b, c = 1.0, kp, k
    ratios = []
    while abs(c) > 4.0 * _EPS * a and len(ratios) < 31:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        ratios.append(c / a)
    return a, tuple(reversed(ratios))


def complete_elliptic_K(k: float, kp: float | None = None) -> float:
    """Complete elliptic integral of the first kind, via the AGM.

    kp is the complementary modulus sqrt(1 - k^2).  Pass it when it is known
    more accurately than k gives it: near k = 1 the rebuilt value loses the
    digits that k rounded away, and K with them.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus outside [0, 1): {k!r}")
    a, _ = _descend(k, math.sqrt((1.0 - k) * (1.0 + k)) if kp is None else kp)
    return math.pi / (2.0 * a)


@dataclass(frozen=True)
class PendulumExact:
    """Release from rest: q(0) = q0 in (0, pi), p(0) = 0."""

    q0: float
    omega: float
    m: float

    def __post_init__(self):
        _require("q0", self.q0, 0.0 < self.q0 < math.pi, "in (0, pi)")
        _require("q0", self.q0, self.modulus < 1.0, "far enough below pi that sin(q0/2) < 1")
        _require("omega", self.omega, self.omega > 0.0, "positive")
        _require("m", self.m, self.m > 0.0, "positive")

    @property
    def modulus(self) -> float:
        return math.sin(0.5 * self.q0)

    @property
    def complementary_modulus(self) -> float:
        """k' = cos(q0/2), taken from q0: sqrt(1 - k^2) cancels as q0 nears pi."""
        return math.cos(0.5 * self.q0)

    @property
    def period(self) -> float:
        return self.landen[2] / self.omega

    @cached_property
    def landen(self) -> tuple:
        """(k, k', 4K, 2^n a_n, (c_n/a_n, ..., c_1/a_1)), computed once per record.

        K = pi / (2 a_n) and the unwinding ratios come from the one descent.
        """
        k, kp = self.modulus, self.complementary_modulus
        a, ratios = _descend(k, kp)
        return k, kp, 4.0 * (math.pi / (2.0 * a)), (2.0 ** len(ratios)) * a, ratios


def pendulum_exact(t: float, params: PendulumExact) -> PhasePoint:
    """Jacobi sn, cn, dn at u = omega t by unwinding the record's Landen table.

    Seed the amplitude at the smallest modulus and unwind
    phi_{i-1} = (phi_i + asin((c_i/a_i) sin phi_i)) / 2.  Then
    dn = hypot(k', k cn) from dn^2 = k'^2 + k^2 cn^2, and q = 2 atan2(k cn, k')
    from sin(q/2) = k cn/dn, cos(q/2) = k'/dn (DLMF 22.6): neither cancels
    near the separatrix, and q(0) is q0 exactly.
    """
    k, kp, four_k, scale, ratios = params.landen
    # reduce by the full period 4K so long horizons keep full accuracy
    phi = scale * math.fmod(params.omega * t, four_k)
    for r in ratios:
        # |c_i| <= a_i rounds to |r| <= 1, so |r sin phi| <= 1 needs no clamp
        phi = 0.5 * (phi + math.asin(r * math.sin(phi)))
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.hypot(kp, k * cn)
    q = 2.0 * math.atan2(k * cn, kp)
    p = -2.0 * k * kp * params.omega * sn / dn * params.m
    return PhasePoint(p, q)
