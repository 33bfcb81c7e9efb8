"""Independent oracles: RK4 for the exact references, Lobatto IIIA-IIIB for
the step, and the oscillator fold in double-double and in 50-digit arithmetic.
`pendulum_landen` rebuilds the pendulum reference's Landen descent at every
call, so the tests can check the record's cached table against it.
`drift_by_time` cuts a drift's periods by node time, an independent split
that the node-index split of `energy_drift_series` must reproduce on
uniform grids.  `scan_by_points` and `fold_by_products` are the stability
scan and the oscillator fold written plainly, one `PhasePoint` step and
every product spelled out, for the tests that pin the library's lean
loops to them.

A classical fourth-order one-step method that shares nothing with the
variational schemes: no element structure, no implicit solve, no elliptic
identities.  The tests march it finely to check the exact solutions.

The Galerkin variational step with 4-point Lobatto quadrature is the
4-stage Lobatto IIIA-IIIB partitioned Runge-Kutta method (Marsden & West,
Acta Numerica 2001, section 2.6; Hairer, Lubich & Wanner, Geometric
Numerical Integration, section VI.6).  `prk_step` solves that method's
stage equations by fixed-point iteration, with no element, residual or
Jacobian of lobvi's, so the tests can check the Newton step against it.
For the oscillator the stage equations are linear, and `lobatto_phi`
solves them directly for the one-step matrix.
"""

import math
import sys
from decimal import Context, Decimal, localcontext

import mpmath as mp
import numpy as np

from lobvi import compensated as dd
from lobvi.analysis import STABILITY_GRID, STABILITY_STEPS
from lobvi.exact import complete_elliptic_K
from lobvi.harmonic import HarmonicParams, step_harmonic, transfer_matrix
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


def lobatto_phi(hw: float) -> np.ndarray:
    """One-step matrix on (p, q) of Lobatto IIIA-IIIB for the oscillator.

    Taken at m = omega = 1, so h = hw: the map depends on h omega alone
    once p is measured in units of m omega.  With q' = p and p' = -q the
    stage equations Q = q0 + h A P and P = p0 - h Abar Q are linear;
    solving them for the unit starts (p0, q0) = (1, 0) and (0, 1) gives the
    two columns.  prk_step's fixed-point iteration stops converging near
    h omega = 3.1, a direct solve does not.
    """
    eye = np.eye(4)
    system = np.block(
        [[eye, -hw * np.array(LOBATTO_IIIA)], [hw * np.array(LOBATTO_IIIB), eye]]
    )
    # one column per start: q0 on the four Q equations, p0 on the four P ones
    starts = np.repeat([[0.0, 1.0], [1.0, 0.0]], 4, axis=0)
    stages = np.linalg.solve(system, starts)
    b = np.array(LOBATTO_B)
    return np.eye(2) + hw * np.vstack((-b @ stages[:4], b @ stages[4:]))


def _dd_coefficients(params) -> tuple:
    """Transfer-matrix coefficients (delta, a, b, c) as double-doubles.

    Same Horner forms as transfer_matrix.
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


def reference_fold(point: PhasePoint, params, n_steps: int) -> tuple:
    """The oscillator fold in double-double, as `compensated` calls.

    Returns (points, discrete energies), n_steps + 1 of each, every value
    rounded once from its double-double.  The low words underflow for
    states near 1e-308 or H_d near 1e-154, and SPLITTER * x overflows for
    |x| above about 1e300, so it is a reference for normal-range inputs
    only.
    """
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


def exact_coefficients(params) -> tuple:
    """Transfer-matrix coefficients (delta, a, b, c) in mpmath at 50 digits.

    The Horner forms of transfer_matrix on the exact values of the float
    inputs, as mpf values.
    """
    with mp.workdps(50):
        m, h, w = mp.mpf(params.m), mp.mpf(params.h), mp.mpf(params.omega)
        x = (h * w) ** 2
        delta = 1 + x * (mp.mpf(1) / 30 + x * (mp.mpf(1) / 1800))
        a = 1 + x * (mp.mpf(-7) / 15 + x * (mp.mpf(23) / 900 + x * (mp.mpf(-1) / 3600)))
        b = m * h * w * w * (-43200 + x * (5760 + x * (-144 + x))) / 43200
        c = h / m * (1 + x * (mp.mpf(-2) / 15 + x * (mp.mpf(1) / 300)))
    return delta, a, b, c


def exact_fold(point: PhasePoint, params, n_steps: int) -> tuple:
    """The oscillator fold in mpmath at 50 significant digits.

    Steps the map of exact_coefficients.  Returns (points, discrete
    energies) as lists of n_steps + 1 mpf values, (p, q) pairs for the
    points, not rounded to float.
    """
    with mp.workdps(50):
        delta, a, b, c = exact_coefficients(params)
        a, b, c = a / delta, b / delta, c / delta
        p, q = mp.mpf(point.p), mp.mpf(point.q)
        points = [(p, q)]
        energies = [(c * p * p - b * q * q) / 2]
        for _ in range(n_steps):
            p, q = a * p + b * q, c * p + a * q
            points.append((p, q))
            energies.append((c * p * p - b * q * q) / 2)
    return points, energies


def nearest_float(v) -> float:
    """The float nearest to the mpf v, rounded once, subnormals included."""
    man, exp = v.man_exp  # |v| = man * 2**exp
    r = float(man << exp) if exp >= 0 else man / (1 << -exp)
    return -r if v < 0 else r


def _sncndn(u: float, k: float, kp: float) -> tuple:
    """Jacobi sn, cn, dn at argument u, modulus k in [0, 1), from scratch.

    kp is the complementary modulus sqrt(1 - k^2).  Descending Landen: run
    the AGM from (1, kp), seed the amplitude at the smallest modulus, unwind
    phi_{n-1} = (phi_n + asin((c_n/a_n) sin phi_n)) / 2.
    """
    a = 1.0
    b = kp
    c = k
    avals = [a]
    cvals = [c]
    while abs(c) > 4.0 * sys.float_info.epsilon * a and len(avals) < 32:
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
    return sn, cn, math.hypot(kp, k * cn)


def pendulum_landen(t: float, q0: float, omega: float, m: float) -> PhasePoint:
    """The pendulum released from rest at q0, with every constant rebuilt."""
    k = math.sin(0.5 * q0)
    kp = math.cos(0.5 * q0)
    u = math.fmod(omega * t, 4.0 * complete_elliptic_K(k, kp))
    sn, cn, dn = _sncndn(u, k, kp)
    q = 2.0 * math.atan2(k * cn, kp)
    p = -2.0 * k * kp * omega * sn / dn * m
    return PhasePoint(p, q)


def drift_by_time(times, energies, window: int) -> list:
    """Running |E - E0| maxima per period, with the periods cut by time.

    Period i ends at the last node whose time is within 1e-9 periods of
    t0 + i * span / window; the last period takes every node left.
    Returns the list of maxima as `lobvi.analysis.energy_drift_series` does.
    """
    t0 = times[0]
    period = (times[-1] - t0) / window
    ref = energies[0]
    running = 0.0
    out = []
    j = 0
    n = len(times)
    for i in range(1, window + 1):
        t_end = times[-1] if i == window else t0 + i * period
        while j < n and times[j] <= t_end + 1e-9 * period:
            err = abs(energies[j] - ref)
            running = err if math.isnan(err) else max(running, err)
            j += 1
        out.append(running)
    return out


def scan_by_points(phi_of) -> tuple:
    """The stability scan as PhasePoint steps with a running max(|p|, |q|).

    phi_of(params) gives the map at each STABILITY_GRID value, as
    transfer_matrix does.  max() drops a NaN that follows a number, so a
    NaN component reads bounded.  Returns (verdicts, transition) as
    `lobvi.analysis.stability_scan` holds them.
    """
    verdicts = []
    for g in STABILITY_GRID:
        phi = phi_of(HarmonicParams(m=1.0, omega=1.0, h=g))
        pt = PhasePoint(0.0, 1.0)
        worst = 1.0
        for _ in range(STABILITY_STEPS):
            pt = step_harmonic(pt, phi)
            worst = max(worst, abs(pt.p), abs(pt.q))
            if worst > 10.0:
                break
        verdicts.append(worst <= 10.0)
    transition = None
    for i, ok in enumerate(verdicts):
        if not ok:
            transition = (STABILITY_GRID[i - 1] if i > 0 else 0.0, STABILITY_GRID[i])
            break
    return tuple(verdicts), transition


def fold_by_products(point: PhasePoint, params, n_steps: int) -> tuple:
    """The oscillator fold in 34-digit decimal, every product written out.

    Each step forms a p + b q and c p + a q, and each H_d (c p p - b q q) / 2,
    on the map transfer_matrix gives for the exact decimal values of the
    fields.  Returns (points, discrete energies), n_steps + 1 floats each.
    """
    with localcontext(Context(prec=34, traps=[])):
        exact = HarmonicParams(Decimal(params.m), Decimal(params.omega), Decimal(params.h))
        (a, b), (c, _) = transfer_matrix(exact)
        p, q = Decimal(point.p), Decimal(point.q)
        points = [point]
        energies = [float((c * p * p - b * q * q) / 2)]
        for _ in range(n_steps):
            p, q = a * p + b * q, c * p + a * q
            points.append(PhasePoint(float(p), float(q)))
            energies.append(float((c * p * p - b * q * q) / 2))
    return points, energies
