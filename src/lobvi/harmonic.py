"""Closed-form Lobatto variational integrator for the harmonic oscillator.

Everything is a function of x = (h omega)^2.  While delta = (x - 30)(x - 10)
stays positive the two interior element nodes can be eliminated exactly,
which yields a reduced two-point Lagrangian, a 2x2 transfer matrix for
(p, q), and a conserved discrete quadratic energy.  The scheme is stable for
h omega below sqrt(42 - 6 sqrt(29)) ~ 3.1127, slightly less than pi.

The diagnostic helpers (center_residual, taylor_samples,
truncation_leading_term) use only +, -, *, / and integer literals so that
extended-precision inputs flow through unchanged; the h^6 residual signal
sits far below float64 cancellation noise for small h omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import compensated as dd
from .mechanics import ElementState, PhasePoint, _require
from .quadrature import SQRT5, XI


class EliminationError(ValueError):
    """Interior nodes cannot be eliminated: (h omega)^2 is at or above 10."""


@dataclass(frozen=True)
class HarmonicParams:
    """Mass, angular frequency, and step size.

    h may be negative: reverse steps are exercised by the time-reversal
    checks.  omega = 0 degenerates to free drift and is allowed.
    """

    m: float
    omega: float
    h: float

    def __post_init__(self):
        _require("m", self.m, self.m > 0.0, "positive")
        _require("omega", self.omega, self.omega >= 0.0, "nonnegative")
        _require("h", self.h, self.h != 0.0, "nonzero")


@dataclass(frozen=True)
class TransferMatrix:
    """One-step map Phi = [[a, b], [c, a]] / delta acting on (p, q).

    delta = 1 + x/30 + x^2/1800 is positive for every x >= 0, so the matrix
    is evaluable past the stability limit; `stable` flags whether h omega is
    inside it.  a^2 - b c = delta^2 identically, hence det Phi = 1.
    """

    delta: float
    a: float
    b: float
    c: float
    stable: bool

    @property
    def phi(self) -> tuple:
        return (
            (self.a / self.delta, self.b / self.delta),
            (self.c / self.delta, self.a / self.delta),
        )


def _x(params: HarmonicParams) -> float:
    z = params.h * params.omega
    return z * z


def _delta_elim(params: HarmonicParams) -> tuple:
    """(x, delta) with delta = (x - 30)(x - 10), for x inside [0, 10)."""
    x = _x(params)
    # delta alone is no gate: it turns positive again past x = 30
    if x >= 10.0:
        raise EliminationError(
            f"(h*omega)^2 = {x:.6g} is outside [0, 10); interior nodes are not defined"
        )
    return x, (x - 30.0) * (x - 10.0)


def internal_dofs(q_l: float, q_r: float, params: HarmonicParams) -> tuple:
    """Interior node values that make the discrete Lagrangian stationary.

    Closed-form elimination; only valid while delta = (x - 30)(x - 10) > 0,
    i.e. h omega < sqrt(10).
    """
    x, delta = _delta_elim(params)
    sym = -5.0 * (x - 30.0) * (q_r + q_l)
    asym = 3.0 * SQRT5 * (x - 10.0) * (q_r - q_l)
    return ((sym + asym) / delta, (sym - asym) / delta)


def kinetic_form(element: ElementState, m: float, h: float) -> float:
    """Quadrature of m qdot^2 / 2 over one element, as an explicit bracket.

    Equals (m / 2h) q^T K q with K the element stiffness matrix; the two
    routes are checked against each other in the tests.
    """
    e = element
    bracket = (
        26.0 * (e.q_l * e.q_l + e.q_r * e.q_r)
        - 2.0 * e.q_l * e.q_r
        + 50.0 * (e.q_xi * e.q_xi - e.q_xi * e.q_xic + e.q_xic * e.q_xic)
        - 25.0 * (e.q_l + e.q_r) * (e.q_xi + e.q_xic)
        - 15.0 * SQRT5 * (e.q_l - e.q_r) * (e.q_xi - e.q_xic)
    )
    return m * bracket / (12.0 * h)


def discrete_lagrangian(element: ElementState, params: HarmonicParams) -> float:
    """Element action: quadrature of m qdot^2/2 - m omega^2 q^2/2."""
    e = element
    kin = kinetic_form(element, params.m, params.h)
    pot = (
        params.m
        * params.h
        * params.omega ** 2
        / 24.0
        * (
            e.q_l * e.q_l
            + e.q_r * e.q_r
            + 5.0 * (e.q_xi * e.q_xi + e.q_xic * e.q_xic)
        )
    )
    return kin - pot


def reduced_lagrangian(q_l: float, q_r: float, params: HarmonicParams) -> float:
    """discrete_lagrangian with the interior nodes eliminated.

    Symmetric in (q_l, q_r); reduces to m (q_r - q_l)^2 / 2h as omega -> 0.
    """
    x, delta = _delta_elim(params)
    even = 3600.0 + x * (-1680.0 + x * (92.0 - x))
    cross = 1800.0 + x * (60.0 + x)
    m = params.m
    return (0.25 * m * even * (q_l * q_l + q_r * q_r) - m * cross * q_l * q_r) / (
        6.0 * params.h * delta
    )


def right_momentum(q_l: float, q_r: float, params: HarmonicParams) -> float:
    """p_r = d reduced_lagrangian / d q_r, in expanded form."""
    x, delta = _delta_elim(params)
    m, h, omega = params.m, params.h, params.omega
    lead = m * (q_r - q_l) / h
    corr = (
        m
        * h
        * omega ** 2
        / (6.0 * delta)
        * (-300.0 * (q_l + 2.0 * q_r) + 5.0 * x * (q_l + 8.0 * q_r) - 0.5 * x * x * q_r)
    )
    return lead + corr


def stability_limit() -> float:
    """Largest stable h omega: sqrt(42 - 6 sqrt(29)) ~ 3.1127.

    A little more than two steps per period of oscillation (the value is
    just below pi).  Tighter than the sqrt(10) elimination bound.
    """
    return math.sqrt(42.0 - 6.0 * math.sqrt(29.0))


def transfer_matrix(params: HarmonicParams) -> TransferMatrix:
    """Coefficients of the one-step map, Horner-evaluated in x = (h omega)^2."""
    x = _x(params)
    m, h, omega = params.m, params.h, params.omega
    delta = 1.0 + x * (1.0 / 30.0 + x * (1.0 / 1800.0))
    a = 1.0 + x * (-7.0 / 15.0 + x * (23.0 / 900.0 + x * (-1.0 / 3600.0)))
    b = m * h * omega ** 2 * (-43200.0 + x * (5760.0 + x * (-144.0 + x))) / 43200.0
    c = h / m * (1.0 + x * (-2.0 / 15.0 + x * (1.0 / 300.0)))
    stable = abs(h) * omega < stability_limit()
    return TransferMatrix(delta=delta, a=a, b=b, c=c, stable=stable)


def step_harmonic(point: PhasePoint, tm: TransferMatrix) -> PhasePoint:
    """(p, q) -> Phi (p, q)."""
    p = (tm.a * point.p + tm.b * point.q) / tm.delta
    q = (tm.c * point.p + tm.a * point.q) / tm.delta
    return PhasePoint(p, q)


def discrete_energy(point: PhasePoint, tm: TransferMatrix) -> float:
    """H_d = (c p^2 - b q^2) / 2 delta; invariant under step_harmonic.

    Positive definite in the stable region, where c > 0 and -b > 0.  Scales
    as h * H(p, q) for small x, so it is an action-like quantity, not the
    continuous energy.
    """
    return (tm.c * point.p * point.p - tm.b * point.q * point.q) / (2.0 * tm.delta)


def truncation_leading_term(params: HarmonicParams, q: float) -> float:
    """Leading truncation term -omega^8 h^6 q / 21600 of the 3-point recurrence.

    This is the residual constant exposed by degree-6 propagated samples
    (see taylor_samples).  Plain arithmetic only: extended-precision inputs
    pass through.
    """
    return -(params.omega ** 8) * params.h ** 6 * q / 21600


def center_residual(q_prev: float, q_mid: float, q_next: float, params: HarmonicParams) -> float:
    """Residual of the three-point recurrence linking consecutive mesh states.

    Trajectories of the scheme satisfy this identically (up to roundoff);
    substituting samples of the continuous solution instead exposes the
    truncation error.  Plain arithmetic only.
    """
    h = params.h
    omega = params.omega
    return (
        (q_prev - 2 * q_mid + q_next) / h ** 2
        + omega ** 2 * (q_prev + 28 * q_mid + q_next) / 30
        + omega ** 4 * h ** 2 * (q_prev - 92 * q_mid + q_next) / 1800
        + omega ** 6 * h ** 4 * q_mid / 1800
    )


def taylor_samples(q: float, v: float, params: HarmonicParams) -> tuple:
    """Degree-6 propagation of a state one step back and forward.

    q and v are position and velocity at the center time; higher derivatives
    are reduced through qddot = -omega^2 q, so the samples are the degree-6
    truncations of the trigonometric solution through (q, v).  Against these
    samples center_residual exhibits the -omega^8 h^6 q / 21600 law.  Exact
    trigonometric samples instead leave only the quadrature-defect residual
    +omega^8 h^6 q / 302400, which the tests pin separately.
    """
    x = (params.h * params.omega) ** 2
    even = 1 - x / 2 + x ** 2 / 24 - x ** 3 / 720
    odd = params.h * (1 - x / 6 + x ** 2 / 120)
    return (q * even - v * odd, q, q * even + v * odd)


def _dd_coefficients(params: HarmonicParams) -> tuple:
    """Transfer-matrix coefficients as double-doubles.

    Same Horner forms as transfer_matrix.  Needed because float64-rounded
    coefficients break a^2 - b c = delta^2 by an ulp, which shows up as a
    systematic per-step leak of the discrete energy.
    """
    hh = dd.two_prod(params.h, params.h)
    ww = dd.two_prod(params.omega, params.omega)
    x = dd.mul(hh, ww)
    one = dd.from_float(1.0)
    delta = dd.add(one, dd.mul(x, dd.add(dd.rational(1, 30), dd.mul(x, dd.rational(1, 1800)))))
    a = dd.add(
        one,
        dd.mul(
            x,
            dd.add(
                dd.rational(-7, 15),
                dd.mul(x, dd.add(dd.rational(23, 900), dd.mul(x, dd.rational(-1, 3600)))),
            ),
        ),
    )
    poly_b = dd.add(
        dd.from_float(-43200.0),
        dd.mul(x, dd.add(dd.from_float(5760.0), dd.mul(x, dd.add(dd.from_float(-144.0), x)))),
    )
    scale_b = dd.div(
        dd.mul(dd.mul(dd.from_float(params.m), dd.from_float(params.h)), ww),
        dd.from_float(43200.0),
    )
    b = dd.mul(scale_b, poly_b)
    poly_c = dd.add(one, dd.mul(x, dd.add(dd.rational(-2, 15), dd.mul(x, dd.rational(1, 300)))))
    c = dd.mul(dd.div(dd.from_float(params.h), dd.from_float(params.m)), poly_c)
    return delta, a, b, c


def run_harmonic(point: PhasePoint, params: HarmonicParams, n_steps: int) -> tuple:
    """Fold the one-step map n_steps times.

    Returns (points, discrete_energies), both of length n_steps + 1.  The
    fold runs in double-double arithmetic and rounds once per emitted value,
    so the discrete-energy column is flat to the last bit over any horizon
    the tests care about.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    delta, a, b, c = _dd_coefficients(params)
    two_delta = dd.mul(dd.from_float(2.0), delta)
    p = dd.from_float(point.p)
    q = dd.from_float(point.q)

    def hd(pv, qv):
        num = dd.sub(dd.mul(c, dd.mul(pv, pv)), dd.mul(b, dd.mul(qv, qv)))
        return dd.to_float(dd.div(num, two_delta))

    points = [point]
    energies = [hd(p, q)]
    for _ in range(n_steps):
        pn = dd.div(dd.add(dd.mul(a, p), dd.mul(b, q)), delta)
        qn = dd.div(dd.add(dd.mul(c, p), dd.mul(a, q)), delta)
        p, q = pn, qn
        points.append(PhasePoint(dd.to_float(p), dd.to_float(q)))
        energies.append(hd(p, q))
    return points, energies
