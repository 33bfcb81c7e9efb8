"""The benchmark's workloads and the checks on their CSV output.

Each workload is a fixed list of `lobvi` CLI invocations, run in turn as
one repetition.  The seed picks
the amplitude (release angle for the pendulum) from AMPLITUDES and nothing
else; over that range Newton takes 2 iterations per step, so the seed
changes the inputs without changing the cost mix.  Why each workload exists
is written down in NOTES.md.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

AMPLITUDES = tuple(round(1.2 + 0.02 * k, 2) for k in range(36))  # 1.20 .. 1.90
STABILITY_LIMIT = math.sqrt(42.0 - 6.0 * math.sqrt(29.0))
STABILITY_GRID_POINTS = 37  # 2.80 .. 3.16 in the CLI's scan
STABILITY_STEPS = 2000
EXPECTED_ORDER = 6


class CheckError(Exception):
    """An invocation's output breaks a paper invariant or its own format."""


@dataclass(frozen=True)
class Invocation:
    """One CLI run.  `steps` is the integrator work the inputs request."""

    kind: str  # drift, trajectory, convergence or stability
    args: tuple
    steps: int


def amplitude_for(seed: int) -> float:
    return random.Random(seed).choice(AMPLITUDES)


def invocations(workload: str, amplitude: float, smoke: bool = False) -> list:
    amp = ("--amplitude", repr(amplitude))
    if workload == "pendulum":
        periods = 5 if smoke else 250
        meshes, traj_periods = (200, 2) if smoke else (2000, 10)
        return [
            Invocation("drift", ("drift", "--system", "pendulum",
                                 "--periods", str(periods)) + amp, 47 * periods),
            Invocation("convergence", ("convergence", "--system", "pendulum") + amp,
                       50 + 100 + 200),
            Invocation("trajectory", ("trajectory", "--system", "pendulum",
                                      "--scheme", "midpoint", "--meshes", str(meshes),
                                      "--periods", str(traj_periods)) + amp,
                       meshes * traj_periods),
        ]
    if workload == "harmonic":
        periods = 20 if smoke else 8000
        return [
            Invocation("drift", ("drift", "--system", "harmonic",
                                 "--periods", str(periods)) + amp, 10 * periods),
            Invocation("convergence", ("convergence", "--system", "harmonic") + amp,
                       10 + 20 + 40),
            Invocation("stability", ("stability",),
                       STABILITY_GRID_POINTS * STABILITY_STEPS),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("pendulum", "harmonic")


def _floats(cells) -> list:
    try:
        values = [float(c) for c in cells]
    except ValueError:
        raise CheckError(f"non-numeric cell in {cells!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise CheckError(f"non-finite value in {cells!r}")
    return values


def check_drift(lines: list, inv: Invocation) -> float:
    """Running maxima must be non-decreasing; H_d's must be exactly 0."""
    harmonic = "harmonic" in inv.args
    want = "# observable: H_d" if harmonic else "# observable: H"
    if lines[0] != want or lines[2] != "period,err":
        raise CheckError(f"unexpected drift header {lines[:3]!r}")
    periods = int(inv.args[inv.args.index("--periods") + 1])
    rows = [_floats(line.split(",")) for line in lines[3:]]
    if len(rows) != periods:
        raise CheckError(f"{len(rows)} drift rows for {periods} periods")
    errs = [r[1] for r in rows]
    if any(b < a for a, b in zip(errs, errs[1:])) or errs[0] < 0.0:
        raise CheckError("running maximum decreases")
    if harmonic and errs[-1] != 0.0:
        raise CheckError(f"H_d drifted by {errs[-1]!r}; it must stay flat to the last bit")
    return errs[-1]


def check_trajectory(lines: list, inv: Invocation) -> float:
    """Row count must match the requested steps; returns max |q - q_exact|."""
    if lines[0] != "t,q,p,q_exact,p_exact,H":
        raise CheckError(f"unexpected trajectory header {lines[0]!r}")
    if len(lines) - 1 != inv.steps + 1:
        raise CheckError(f"{len(lines) - 1} rows for {inv.steps} steps")
    worst = 0.0
    for line in lines[1:]:
        t, q, p, qe, pe, h = _floats(line.split(","))
        worst = max(worst, abs(q - qe))
    return worst


def check_convergence(lines: list, inv: Invocation) -> float:
    """Every order is 6 and the harmonic H_d error is 0; returns the
    finest-mesh err_q."""
    if lines[0] != "meshes,err_p,err_q,err_H,err_Hd,order_p,order_q,order_H":
        raise CheckError(f"unexpected convergence header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != 3:
        raise CheckError(f"{len(rows)} convergence rows, expected 3")
    for row in rows[1:]:
        orders = [int(c) for c in row[5:8]]
        if orders != [EXPECTED_ORDER] * 3:
            raise CheckError(f"orders {orders} at meshes {row[0]}, expected 6")
    if "harmonic" in inv.args:
        hd = _floats([row[4] for row in rows])
        if any(v != 0.0 for v in hd):
            raise CheckError(f"H_d errors {hd} are not exactly 0")
    return _floats([rows[-1][2]])[0]


def check_stability(lines: list, inv: Invocation) -> float:
    """The transition must bracket sqrt(42 - 6 sqrt(29)); returns its width."""
    head = "# transition: "
    if not lines[0].startswith(head) or lines[1] != "h_omega,bounded":
        raise CheckError(f"unexpected stability header {lines[:2]!r}")
    lo, hi = _floats(lines[0][len(head):].split(","))
    if not lo < STABILITY_LIMIT < hi:
        raise CheckError(f"transition ({lo}, {hi}) misses {STABILITY_LIMIT:.6f}")
    if len(lines) - 2 != STABILITY_GRID_POINTS:
        raise CheckError(f"{len(lines) - 2} scan rows, expected {STABILITY_GRID_POINTS}")
    return hi - lo


CHECKS = {
    "drift": check_drift,
    "trajectory": check_trajectory,
    "convergence": check_convergence,
    "stability": check_stability,
}


def check_output(data: bytes, inv: Invocation) -> float:
    """Validate one invocation's CSV bytes; returns its accuracy figure."""
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise CheckError("output is not ASCII") from None
    if not lines:
        raise CheckError("empty output")
    try:
        return CHECKS[inv.kind](lines, inv)
    except (IndexError, ValueError) as exc:
        raise CheckError(f"malformed output: {exc}") from None

