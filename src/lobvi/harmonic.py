"""Closed-form Lobatto variational integrator for the harmonic oscillator.

Everything is a function of x = (h omega)^2.  While delta = (x - 30)(x - 10)
stays positive the two interior element nodes can be eliminated exactly,
which yields a reduced two-point Lagrangian, the one-step map Phi on (p, q),
a 2x2 with det Phi = 1, and a conserved discrete quadratic energy.  The
scheme is stable for h omega below sqrt(42 - 6 sqrt(29)) ~ 3.1127, slightly
less than pi.

transfer_matrix and the diagnostic helpers (center_residual, taylor_samples,
truncation_leading_term) use plain arithmetic and take every constant in the
number type of their inputs, so Decimal inputs flow through unchanged:
discrete_energy_series, the one oscillator fold (run_harmonic calls it
with a point list), folds transfer_matrix in decimal and reads H_d only
where a rounding bound cannot vouch for its float, and the h^6 residual
signal sits far below float64 cancellation noise for small h omega.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Context, Decimal, Inexact, localcontext

from .mechanics import ElementState, PhasePoint, Run, _require
from .quadrature import SQRT5, XI

# the fold's arithmetic: 34 significant digits (IEEE decimal128); with no
# traps a NaN or inf input propagates instead of raising InvalidOperation
_FOLD = Context(prec=34, traps=[])
# exact arithmetic on float values: a midpoint of two adjacent floats has at
# most 768 significant digits, and any rounding raises instead of passing
_EXACT = Context(prec=800, traps=[Inexact])
_HALF = Decimal("0.5")
# the unit roundoff of _FOLD: half a unit in the 34th significant digit
_U = Decimal("5e-34")
_EMPTY = (Decimal(0), Decimal(0))


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


def reduced_lagrangian(q_l: float, q_r: float, params: HarmonicParams) -> float:
    """discrete_lagrangian_nl with V = m omega^2 q^2 / 2 and the interior nodes eliminated.

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


def transfer_matrix(params: HarmonicParams) -> tuple:
    """The one-step map Phi = ((a, b), (c, a)) / delta on (p, q), as two rows.

    a, b, c and delta are Horner-evaluated in x = (h omega)^2 and divided
    once, in the number type of the inputs.  delta = 1 + x/30 + x^2/1800 is
    positive for every x >= 0, so the map is evaluable past the stability
    limit, and a^2 - b c = delta^2 identically, hence det Phi = 1.
    """
    x = _x(params)
    m, h, omega = params.m, params.h, params.omega
    one = type(x)(1)  # not x ** 0: a Decimal 0 ** 0 (omega = 0) is NaN
    delta = 1 + x * (one / 30 + x * (one / 1800))
    a = 1 + x * (-7 * one / 15 + x * (23 * one / 900 + x * (-one / 3600)))
    b = m * h * omega ** 2 * (-43200 + x * (5760 + x * (-144 + x))) / 43200
    c = h / m * (1 + x * (-2 * one / 15 + x * (one / 300)))
    d = a / delta
    return ((d, b / delta), (c / delta, d))


def step_harmonic(point: PhasePoint, phi: tuple) -> PhasePoint:
    """(p, q) -> Phi (p, q) for phi = transfer_matrix(params); no division."""
    (a, b), (c, d) = phi
    return PhasePoint(a * point.p + b * point.q, c * point.p + d * point.q)


def discrete_energy(point: PhasePoint, phi: tuple) -> float:
    """H_d = (Phi21 p^2 - Phi12 q^2) / 2; invariant under step_harmonic.

    phi is transfer_matrix(params).  Positive definite in the stable region,
    where Phi21 > 0 and -Phi12 > 0.  Scales as h * H(p, q) for small x, so
    it is an action-like quantity, not the continuous energy.
    """
    (_, b), (c, _) = phi
    return (c * point.p * point.p - b * point.q * point.q) / 2.0


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


def _float_interval(f: float) -> tuple:
    """Decimal bounds (lo, hi) of the open interval that float() rounds to f.

    Each bound lies halfway between f and a neighbour.  float() rounds half
    to even, so every decimal strictly between the bounds converts to f,
    while a bound itself is a tie that `lo < e < hi` leaves to float().
    The interval is empty, so that every value converts, at 0.0 (a tiny
    negative decimal converts to -0.0), at a non-finite f and at the
    largest float, whose outer neighbour is inf.
    """
    if f == 0.0 or not math.isfinite(f) or abs(f) == sys.float_info.max:
        return _EMPTY
    d = Decimal(f)
    lo = _EXACT.multiply(_EXACT.add(d, Decimal(math.nextafter(f, -math.inf))), _HALF)
    hi = _EXACT.multiply(_EXACT.add(d, Decimal(math.nextafter(f, math.inf))), _HALF)
    return lo, hi


def run_harmonic(point: PhasePoint, params: HarmonicParams, n_steps: int) -> Run:
    """Fold the one-step map n_steps times: Run(points, None, discrete_energies),
    both lists of n_steps + 1 values, from discrete_energy_series."""
    points = [point]
    return Run(points, None, discrete_energy_series(point, params, n_steps, points))


def _covered(e: Decimal, lo: Decimal, hi: Decimal, rate: Decimal) -> int:
    """How many nodes after one whose H_d is e the bound keeps strictly inside (lo, hi).

    0 when H_d has no bound (an infinite rate) or e is not strictly inside,
    as at NaN, inf, 0 and the largest floats, whose intervals are empty.
    """
    if not lo < e < hi:
        return 0
    return int(min(e - lo, hi - e) / (rate * abs(e)))


def discrete_energy_series(
    point: PhasePoint, params: HarmonicParams, n_steps: int, points: list | None = None
) -> list:
    """H_d at the n_steps + 1 nodes of the oscillator fold; appends each new node to `points`.

    The one loop of run_harmonic and of the energy drift, which passes no
    list and so skips the float conversions and PhasePoint of every step.
    It runs in 34-digit decimal arithmetic and rounds once per emitted value,
    so H_d is flat to the last bit over any horizon the tests care about.
    The map is transfer_matrix on the exact decimal values of m, omega and
    h, divided by delta once per run: float64-rounded coefficients would
    break a^2 - b c = delta^2 by an ulp, which shows up as a systematic
    per-step leak of H_d.

    Every node is stepped, but H_d is evaluated only where a rounding bound
    cannot vouch that it stays strictly inside (lo, hi), the rounding
    interval of the last float f it gave, and converted only where it has
    left that interval; a covered node emits f again.  The bound (Higham,
    Accuracy and Stability of Numerical Algorithms, section 2.2): an exact
    step multiplies H_d = (c p p - b q q) / 2 by 1 + eps, eps = a^2 - b c - 1
    on the stored entries, computed exactly once per run.  While b c <= 0,
    H_d is semidefinite and the map is a scaled rotation in
    (sqrt|c| p, sqrt|b| q), so with u = 5e-34, the unit roundoff of 34
    digits, the roundings of one step move H_d by at most (|eps| + 12u)|H_d|
    (for |eps| < 1; a larger eps counts no node) and an evaluation lies
    within 4u|H_d| of the form.  After a node evaluated to e, the next k
    nodes thus stay strictly inside (lo, hi) whenever
    2k(|eps| + 18u)|e| < min(e - lo, hi - e); the fold counts k with
    rate = 4(|eps| + 64u), twice that margin, which also covers the
    rounding of the count.  Two fallbacks evaluate H_d at every node, as a
    plain fold would: b c > 0, where H_d is indefinite and the rate is
    infinite, and an e not strictly inside (lo, hi), which includes NaN,
    inf, 0.0 and the largest floats.  The run's last node is always evaluated, so every series ends
    on a measured H_d.  A map that leaks H_d (a large eps) gets short
    counts and is read node by node.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    with localcontext(_FOLD):
        exact = HarmonicParams(Decimal(params.m), Decimal(params.omega), Decimal(params.h))
        (a, b), (c, _) = transfer_matrix(exact)
        rate = Decimal("Infinity")
        if b * c <= 0:
            with localcontext(_EXACT):
                # exact: a^2 + |b c| = 1 + eps keeps a^2 - 1 to few digits, and
                # it is 0 where x rounds a to 1, so no sum spans from 1 down to
                # the last digit of a tiny b c
                eps = a * a - 1 - b * c
            rate = 4 * (abs(eps) + 64 * _U)
        p, q = Decimal(point.p), Decimal(point.q)
        # c p and b q serve twice: in H_d = (c p p - b q q) / 2 and in the next step
        cp, bq = c * p, b * q
        e = (cp * p - bq * q) * _HALF
        f = float(e)
        lo, hi = _float_interval(f)
        energies = [f]
        # steps i < until end on covered nodes; the last step, n_steps - 1, never does
        last = n_steps - 1
        until = min(_covered(e, lo, hi, rate), last)
        for i in range(n_steps):
            p, q = a * p + bq, cp + a * q
            if points is not None:
                points.append(PhasePoint(float(p), float(q)))
            cp, bq = c * p, b * q
            if i >= until:
                e = (cp * p - bq * q) * _HALF
                # a NaN compares False here: _FOLD traps nothing
                if not lo < e < hi:
                    f = float(e)
                    lo, hi = _float_interval(f)
                until = min(i + 1 + _covered(e, lo, hi, rate), last)
            energies.append(f)
    return energies
