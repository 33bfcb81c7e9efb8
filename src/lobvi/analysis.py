"""Error norms, convergence orders, energy-drift tracking, stability probing.

Conventions fixed here so every experiment reports the same quantities:
errors are infinity norms sampled at mesh nodes only, and the energy
reference is the value at the first record entry, for the errors and for
the drift's running per-period maxima alike.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .harmonic import HarmonicParams, transfer_matrix
from .mechanics import PhasePoint

_OBSERVABLES = ("p", "q", "H", "H_d")
# the roundoff floor of an error, in ulps of its observable's orbit_scale
FLOOR_ULPS = 64


class TrajectoryRecord(NamedTuple):
    """Node-sampled run: times, states, exact states, H and optional H_d.

    One run fills every column, one entry per node.  discrete_energies is
    only meaningful for the linear closed-form scheme; leave it None elsewhere.
    """

    times: Sequence[float]
    points: Sequence[PhasePoint]
    exact: Sequence[PhasePoint]
    energies: Sequence[float]
    discrete_energies: Optional[Sequence[float]] = None


def linf_error(record: TrajectoryRecord, observable: str) -> float:
    """Max node error of one observable.

    p and q are measured against the exact sequence; H and H_d against
    their own first entry (runs are seeded on the reference orbit, so the
    first entry is the conserved reference value).
    """
    if observable not in _OBSERVABLES:
        raise ValueError(f"unknown observable {observable!r}")
    if observable in ("p", "q"):
        pick = (lambda pt: pt.p) if observable == "p" else (lambda pt: pt.q)
        errs = [abs(pick(a) - pick(b)) for a, b in zip(record.points, record.exact)]
    else:
        series = record.energies if observable == "H" else record.discrete_energies
        if series is None:
            raise ValueError(f"observable {observable!r} not present in the record")
        errs = [abs(v - series[0]) for v in series]
    # max() keeps its running value when the next one is NaN
    return math.nan if any(map(math.isnan, errs)) else max(errs)


def orbit_scale(record: TrajectoryRecord, observable: str) -> float:
    """Size of p, q or H on the exact orbit: max |p| or max |q| over the
    exact nodes, or |H0|, the first energy."""
    if observable == "H":
        return abs(record.energies[0])
    return max(abs(pt.p if observable == "p" else pt.q) for pt in record.exact)


def estimate_order(err_coarse: float, err_fine: float, scale: float = 0.0) -> Optional[int]:
    """Closest integer to log2 of the error ratio between meshes N and 2N.

    An error that is zero, subnormal or not finite has no ratio to read.
    One at or below FLOOR_ULPS * eps * scale, where scale is the observable's
    orbit_scale, is roundoff: the pair gives no order, None.
    """
    for e in (err_coarse, err_fine):
        if not (isinstance(e, (int, float)) and math.isfinite(e) and e >= sys.float_info.min):
            raise ValueError(f"degenerate error value {e!r}")
    if min(err_coarse, err_fine) <= FLOOR_ULPS * sys.float_info.epsilon * scale:
        return None
    return round(math.log2(err_coarse / err_fine))


def mesh_pairs(meshes: Sequence[int]) -> tuple:
    """(coarse, fine) pairs of successive mesh counts, at least one, each fine = 2 coarse."""
    pairs = tuple(zip(meshes, meshes[1:]))
    if not pairs:
        raise ValueError("need at least two meshes")
    for a, b in pairs:
        if b != 2 * a:
            raise ValueError(f"mesh counts must double: {a} then {b}")
    return pairs


def convergence_table(meshes: Sequence[int], errors: dict, scales: dict) -> dict:
    """Integer orders between successive meshes, one tuple per observable.

    `errors` maps each observable to one error per mesh, and `scales` maps
    each observable that gets orders to its orbit_scale, in the order they
    are estimated.  `meshes` must pass mesh_pairs.  Each tuple holds one
    order per doubling, None where an error is at the roundoff floor.

    A degenerate error raises estimate_order's ValueError with `observable`
    and `meshes`, the mesh pair of the failed order, set.  Put H first in
    `scales`: at a tiny amplitude its error is exactly 0, which names the
    cause more plainly than the subnormal p or q errors beside it.
    """
    pairs = mesh_pairs(meshes)
    for observable in scales:
        if len(errors[observable]) != len(meshes):
            raise ValueError(f"{observable} needs one error per mesh")
    orders = {}
    for observable, scale in scales.items():
        errs, out = errors[observable], []
        for pair, a, b in zip(pairs, errs, errs[1:]):
            try:
                out.append(estimate_order(a, b, scale))
            except ValueError as exc:
                exc.observable, exc.meshes = observable, pair
                raise
        orders[observable] = tuple(out)
    return orders


def energy_drift_series(energies: Sequence[float], periods: int) -> list:
    """Running maxima of |E - E0| over the first 1, 2, ..., periods periods.

    `energies` holds one value per node of a fixed-step run over `periods`
    equal periods, so period i ends at node i * (len(energies) - 1) // periods.
    Entry i - 1 of the returned list is the maximum over periods 1 to i; a
    NaN error stays in every later entry.
    """
    if periods < 1:
        raise ValueError("periods must be at least 1")
    if not energies:
        raise ValueError("no energies to track")
    ref = energies[0]
    last = len(energies) - 1
    running = 0.0
    out = []
    j = 0
    for i in range(1, periods + 1):
        end = i * last // periods
        for v in energies[j:end + 1]:
            err = abs(v - ref)
            # max(running, nan) drops the NaN, but max(nan, err) keeps it
            running = err if math.isnan(err) else max(running, err)
        j = end + 1
        out.append(running)
    return out


# h*omega from 2.80 to 3.16 at 0.01 spacing, across the onset at stability_limit()
STABILITY_GRID = tuple((280 + i) / 100.0 for i in range(37))
STABILITY_STEPS = 2000


@dataclass(frozen=True)
class StabilityScan:
    """Boundedness verdict per STABILITY_GRID value of (step x frequency)."""

    bounded: tuple
    transition: Optional[tuple]


def stability_scan() -> StabilityScan:
    """Probe boundedness of the closed-form update along STABILITY_GRID.

    The map depends on h omega alone once p is scaled by m omega, so the
    scan steps it STABILITY_STEPS times at m = omega = 1 from (p, q) = (0, 1),
    with h set to each grid value.  A grid point is bounded when neither |p|
    nor |q| ever exceeds 10 over the run; geometric growth of an unstable
    mode makes any O(1) threshold equivalent.  The state is two floats
    stepped with step_harmonic's expressions on Phi's entries.
    """
    verdicts = []
    for g in STABILITY_GRID:
        (a, b), (c, d) = transfer_matrix(HarmonicParams(m=1.0, omega=1.0, h=g))
        p, q = 0.0, 1.0
        for _ in range(STABILITY_STEPS):
            p, q = a * p + b * q, c * p + d * q
            # abs(nan) > 10.0 is False: a NaN component reads bounded
            if abs(p) > 10.0 or abs(q) > 10.0:
                verdicts.append(False)
                break
        else:
            verdicts.append(True)

    transition = None
    for i, ok in enumerate(verdicts):
        if not ok:
            transition = (STABILITY_GRID[i - 1] if i > 0 else 0.0, STABILITY_GRID[i])
            break
    return StabilityScan(bounded=tuple(verdicts), transition=transition)


def map_jacobian_determinant(
    step: Callable[[PhasePoint], PhasePoint], point: PhasePoint
) -> float:
    """Central-difference Jacobian determinant of a one-step phase map."""
    eps = 1e-6
    pp = step(PhasePoint(point.p + eps, point.q))
    pm = step(PhasePoint(point.p - eps, point.q))
    qp = step(PhasePoint(point.p, point.q + eps))
    qm = step(PhasePoint(point.p, point.q - eps))
    dp_dp = (pp.p - pm.p) / (2.0 * eps)
    dq_dp = (pp.q - pm.q) / (2.0 * eps)
    dp_dq = (qp.p - qm.p) / (2.0 * eps)
    dq_dq = (qp.q - qm.q) / (2.0 * eps)
    return dp_dp * dq_dq - dp_dq * dq_dp
