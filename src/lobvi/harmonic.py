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
from .mechanics import ElementState, PhasePoint, Run, _require
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
    # K annihilates constants, so take the form on offsets from q_l: on the raw
    # values a barely moving element cancels terms of size m q^2 / h
    a, b, c = e.q_xi - e.q_l, e.q_xic - e.q_l, e.q_r - e.q_l
    bracket = (
        26.0 * c * c
        + 50.0 * (a * a - a * b + b * b)
        - 25.0 * c * (a + b)
        + 15.0 * SQRT5 * c * (a - b)
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
    # the x-free parts of even (3600) and cross (1800) combine into
    # 900 (q_r - q_l)^2, so a barely moving element does not cancel them
    even = x * (-1680.0 + x * (92.0 - x))
    cross = x * (60.0 + x)
    d = q_r - q_l
    num = 900.0 * d * d + 0.25 * even * (q_l * q_l + q_r * q_r) - cross * q_l * q_r
    return params.m * num / (6.0 * params.h * delta)


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


def run_harmonic(point: PhasePoint, params: HarmonicParams, n_steps: int) -> Run:
    """Fold the one-step map n_steps times.

    Returns Run(points, None, discrete_energies), both lists of n_steps + 1
    values.  The fold runs in double-double arithmetic and rounds once per
    emitted value, so the discrete-energy column is flat to the last bit
    over any horizon the tests care about.

    The loop is the `compensated` fold written out as float code: each
    double-double operation named in a comment is expanded into its
    two_sum / split / two_prod steps, same operations in the same order, so
    the bits are those of the calls.  The Dekker splits of the coefficients
    are taken once, and each new p and q is split once for H_d and the step.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    (d0, d1), (a0, a1), (b0, b1), (c0, c1) = _dd_coefficients(params)
    # two_delta = mul(from_float(2.0), delta)
    g0, g1 = dd.mul(dd.from_float(2.0), (d0, d1))
    # the splits two_prod takes of each coefficient, once for the whole run
    dh, dl = dd.split(d0)
    ah, al = dd.split(a0)
    bh, bl = dd.split(b0)
    ch, cl = dd.split(c0)
    gh, gl = dd.split(g0)
    splitter = dd.SPLITTER
    # p, q = from_float(point.p), from_float(point.q)
    p0, p1, q0, q1 = point.p, 0.0, point.q, 0.0

    points = [point]
    energies = []
    for k in range(n_steps + 1):
        # split(p[0]), split(q[0])
        y = splitter * p0
        ph = y - (y - p0)
        pl = p0 - ph
        y = splitter * q0
        qh = y - (y - q0)
        ql = q0 - qh

        # u = mul(c, mul(p, p))
        x = p0 * p0
        e = ((ph * ph - x) + ph * pl + pl * ph) + pl * pl
        e += p0 * p1 + p1 * p0
        w0 = x + e
        t = w0 - x
        w1 = (x - (w0 - t)) + (e - t)
        y = splitter * w0
        wh = y - (y - w0)
        wl = w0 - wh
        x = c0 * w0
        e = ((ch * wh - x) + ch * wl + cl * wh) + cl * wl
        e += c0 * w1 + c1 * w0
        u0 = x + e
        t = u0 - x
        u1 = (x - (u0 - t)) + (e - t)
        # v = mul(b, mul(q, q))
        x = q0 * q0
        e = ((qh * qh - x) + qh * ql + ql * qh) + ql * ql
        e += q0 * q1 + q1 * q0
        w0 = x + e
        t = w0 - x
        w1 = (x - (w0 - t)) + (e - t)
        y = splitter * w0
        wh = y - (y - w0)
        wl = w0 - wh
        x = b0 * w0
        e = ((bh * wh - x) + bh * wl + bl * wh) + bl * wl
        e += b0 * w1 + b1 * w0
        v0 = x + e
        t = v0 - x
        v1 = (x - (v0 - t)) + (e - t)
        # n = sub(u, v), that is add(u, neg(v))
        s = u0 + -v0
        t = s - u0
        e = (u0 - (s - t)) + (-v0 - t)
        e += u1 + -v1
        n0 = s + e
        t = n0 - s
        n1 = (s - (n0 - t)) + (e - t)
        # H_d = to_float(div(n, two_delta))
        f = n0 / g0
        y = splitter * f
        fh = y - (y - f)
        fl = f - fh
        x = f * g0
        e = ((fh * gh - x) + fh * gl + fl * gh) + fl * gl
        e += f * g1 + 0.0 * g0
        m0 = x + e
        t = m0 - x
        m1 = (x - (m0 - t)) + (e - t)
        s = n0 + -m0
        t = s - n0
        e = (n0 - (s - t)) + (-m0 - t)
        e += n1 + -m1
        r0 = s + e
        t = r0 - s
        r1 = (s - (r0 - t)) + (e - t)
        f2 = (r0 + r1) / g0
        s = f + f2
        t = s - f
        energies.append(s + ((f - (s - t)) + (f2 - t)))
        if k == n_steps:
            break

        # n = add(mul(a, p), mul(b, q))
        x = a0 * p0
        e = ((ah * ph - x) + ah * pl + al * ph) + al * pl
        e += a0 * p1 + a1 * p0
        u0 = x + e
        t = u0 - x
        u1 = (x - (u0 - t)) + (e - t)
        x = b0 * q0
        e = ((bh * qh - x) + bh * ql + bl * qh) + bl * ql
        e += b0 * q1 + b1 * q0
        v0 = x + e
        t = v0 - x
        v1 = (x - (v0 - t)) + (e - t)
        s = u0 + v0
        t = s - u0
        e = (u0 - (s - t)) + (v0 - t)
        e += u1 + v1
        n0 = s + e
        t = n0 - s
        n1 = (s - (n0 - t)) + (e - t)
        # p_next = div(n, delta)
        f = n0 / d0
        y = splitter * f
        fh = y - (y - f)
        fl = f - fh
        x = f * d0
        e = ((fh * dh - x) + fh * dl + fl * dh) + fl * dl
        e += f * d1 + 0.0 * d0
        m0 = x + e
        t = m0 - x
        m1 = (x - (m0 - t)) + (e - t)
        s = n0 + -m0
        t = s - n0
        e = (n0 - (s - t)) + (-m0 - t)
        e += n1 + -m1
        r0 = s + e
        t = r0 - s
        r1 = (s - (r0 - t)) + (e - t)
        f2 = (r0 + r1) / d0
        pn0 = f + f2
        t = pn0 - f
        pn1 = (f - (pn0 - t)) + (f2 - t)

        # n = add(mul(c, p), mul(a, q))
        x = c0 * p0
        e = ((ch * ph - x) + ch * pl + cl * ph) + cl * pl
        e += c0 * p1 + c1 * p0
        u0 = x + e
        t = u0 - x
        u1 = (x - (u0 - t)) + (e - t)
        x = a0 * q0
        e = ((ah * qh - x) + ah * ql + al * qh) + al * ql
        e += a0 * q1 + a1 * q0
        v0 = x + e
        t = v0 - x
        v1 = (x - (v0 - t)) + (e - t)
        s = u0 + v0
        t = s - u0
        e = (u0 - (s - t)) + (v0 - t)
        e += u1 + v1
        n0 = s + e
        t = n0 - s
        n1 = (s - (n0 - t)) + (e - t)
        # q_next = div(n, delta)
        f = n0 / d0
        y = splitter * f
        fh = y - (y - f)
        fl = f - fh
        x = f * d0
        e = ((fh * dh - x) + fh * dl + fl * dh) + fl * dl
        e += f * d1 + 0.0 * d0
        m0 = x + e
        t = m0 - x
        m1 = (x - (m0 - t)) + (e - t)
        s = n0 + -m0
        t = s - n0
        e = (n0 - (s - t)) + (-m0 - t)
        e += n1 + -m1
        r0 = s + e
        t = r0 - s
        r1 = (s - (r0 - t)) + (e - t)
        f2 = (r0 + r1) / d0
        q0 = f + f2
        t = q0 - f
        q1 = (f - (q0 - t)) + (f2 - t)

        p0, p1 = pn0, pn1
        # to_float(p), to_float(q)
        points.append(PhasePoint(p0 + p1, q0 + q1))
    return Run(points, None, energies)
