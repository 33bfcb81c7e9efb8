"""End-to-end acceptance gate.

One test per headline capability, each printing a single PASS/FAIL line with
the measured figure and its runtime budget.  Tolerances are asserted exactly
as stated; published table values are matched within 2 percent where the
initial condition is pinned, and recorded (not failed) where it is not.
"""

import math
from time import perf_counter

import numpy as np
from mpmath import mp

from lobvi.analysis import (
    TrajectoryRecord,
    energy_drift_series,
    estimate_order,
    linf_error,
    stability_scan,
)
from lobvi.cli import main
from lobvi.exact import PendulumExact, harmonic_exact, HarmonicExact, oracle_integrate, pendulum_exact
from lobvi.harmonic import (
    HarmonicParams,
    center_residual,
    run_harmonic,
    step_harmonic,
    taylor_samples,
    transfer_matrix,
    truncation_leading_term,
)
from lobvi.mechanics import (
    PhasePoint,
    StepParams,
    energy,
    harmonic_potential,
    pendulum_potential,
)
from lobvi.midpoint import run_midpoint
from lobvi.pendulum import run_pendulum, symplecticity_defect
from lobvi.quadrature import assemble_stiffness, integrate_unit, stiffness_matrix

W = 2.0 * math.pi

TABLE1 = {
    "p": (8.95248e-6, 1.39279e-7, 2.17034e-9),
    "q": (7.64034e-7, 1.19368e-8, 1.87641e-10),
    "H": (6.61948e-5, 1.09831e-6, 1.69917e-8),
}
# published pendulum energy errors are scaled by m omega^2
TABLE2 = {
    "p": (2.83174e-9, 4.56684e-11, 7.0699e-13),
    "q": (4.21838e-10, 6.69165e-12, 1.05693e-13),
    "H": tuple(v * W * W for v in (6.23384e-10, 1.02788e-11, 1.58925e-13)),
}


def report(name, ok, detail, elapsed, budget):
    ok = bool(ok) and elapsed <= budget
    line = (
        f"{'PASS' if ok else 'FAIL'} {name}: {detail} "
        f"[{elapsed * 1e3:.2f} ms, budget {budget * 1e3:.0f} ms]"
    )
    print(line, flush=True)
    assert ok, line


def harmonic_record(n, periods=1):
    h = 1.0 / n
    ref = HarmonicExact(amplitude=math.pi / 2.0, omega=W, m=1.0)
    pot = harmonic_potential(1.0, W)
    pts, hds = run_harmonic(
        harmonic_exact(0.0, ref), HarmonicParams(m=1.0, omega=W, h=h), n * periods
    )
    times = tuple(j * h for j in range(n * periods + 1))
    return TrajectoryRecord(
        times=times,
        points=pts,
        exact=tuple(harmonic_exact(t, ref) for t in times),
        energies=tuple(energy(pt, pot, 1.0) for pt in pts),
        discrete_energies=hds,
    )


def pendulum_record(n, periods=1, h=None):
    ref = PendulumExact(q0=math.pi / 2.0, omega=W, m=1.0)
    pot = pendulum_potential(1.0, W)
    if h is None:
        h = ref.period / n
        steps = n * periods
    else:
        steps = int(round(periods * ref.period / h))
    params = StepParams(m=1.0, h=h, potential=pot)
    pts, iters = run_pendulum(pendulum_exact(0.0, ref), params, steps)
    times = tuple(j * h for j in range(steps + 1))
    rec = TrajectoryRecord(
        times=times,
        points=pts,
        exact=tuple(pendulum_exact(t, ref) for t in times),
        energies=tuple(energy(pt, pot, 1.0) for pt in pts),
    )
    return rec, iters


def test_quadrature_exactness():
    t0 = perf_counter()
    worst = max(
        abs(integrate_unit(lambda t, k=k: t ** k) - 1.0 / (k + 1)) for k in range(6)
    )
    six = integrate_unit(lambda t: t ** 6)
    gap = abs(six - 43.0 / 300.0)
    defect = abs((six - 1.0 / 7.0) - 1.0 / 2100.0)
    elapsed = perf_counter() - t0
    report(
        "quadrature exactness",
        worst <= 1e-15 and gap <= 1e-15 and defect <= 1e-15,
        f"monomials k<=5 off by {worst:.1e}, t^6 gives 43/300 off by {gap:.1e}",
        elapsed,
        1e-3,
    )


def test_stiffness_identity():
    t0 = perf_counter()
    closed = stiffness_matrix().k
    assembled = assemble_stiffness().k
    gap = float(np.max(np.abs(closed - assembled)))
    rows = float(np.max(np.abs(closed.sum(axis=1))))
    elapsed = perf_counter() - t0
    report(
        "stiffness identity",
        gap <= 1e-13 and rows <= 1e-13,
        f"assembled vs closed form off by {gap:.1e}, row sums {rows:.1e}",
        elapsed,
        1e-3,
    )


def test_table_one_reproduction():
    t0 = perf_counter()
    worst_rel = 0.0
    hd_drift = 0.0
    errs = {"p": [], "q": [], "H": []}
    for i, n in enumerate((10, 20, 40)):
        rec = harmonic_record(n)
        for obs in ("p", "q", "H"):
            got = linf_error(rec, obs)
            errs[obs].append(got)
            worst_rel = max(worst_rel, abs(got / TABLE1[obs][i] - 1.0))
        hd_drift = max(hd_drift, linf_error(rec, "H_d"))
    orders = [
        estimate_order(errs[obs][i], errs[obs][i + 1])
        for obs in ("p", "q", "H")
        for i in range(2)
    ]
    elapsed = perf_counter() - t0
    report(
        "oscillator error table",
        worst_rel <= 0.02 and all(o == 6 for o in orders) and hd_drift <= 5e-15,
        f"nine values within {worst_rel * 100:.2f}% of print, orders {sorted(set(orders))}, "
        f"discrete-energy drift {hd_drift:.1e}",
        elapsed,
        1.0,
    )


def test_linear_symplecticity():
    t0 = perf_counter()
    worst = 0.0
    for hw in np.linspace(0.01, 3.1, 40):
        for m in (0.5, 1.0, 2.0, 5.0, 10.0):
            tm = transfer_matrix(HarmonicParams(m=m, omega=W, h=float(hw) / W))
            det = (tm.a * tm.a - tm.b * tm.c) / (tm.delta * tm.delta)
            worst = max(worst, abs(det - 1.0))
    elapsed = perf_counter() - t0
    report(
        "closed-form map determinant",
        worst <= 1e-13,
        f"|det - 1| <= {worst:.1e} over 200 stable samples",
        elapsed,
        1e-2,
    )


def test_stability_boundary():
    t0 = perf_counter()
    grid = [3.05 + 0.01 * j for j in range(11)]
    scan = stability_scan(W, 1.0, grid, steps=2000)
    limit = math.sqrt(42.0 - 6.0 * math.sqrt(29.0))
    lo, hi = scan.transition if scan.transition else (math.nan, math.nan)
    elapsed = perf_counter() - t0
    report(
        "stability boundary bracket",
        scan.transition is not None
        and lo < limit < hi
        and abs(hi - lo - 0.01) < 1e-12,
        f"transition ({lo:.2f}, {hi:.2f}) brackets {limit:.6f}",
        elapsed,
        1.0,
    )


def test_truncation_law():
    t0 = perf_counter()
    ratios = []
    with mp.workdps(40):
        t_ref = mp.mpf("0.3")
        for hw in (0.05, 0.025):
            params = HarmonicParams(m=1.0, omega=1.0, h=mp.mpf(hw))
            q, v = mp.cos(t_ref), -mp.sin(t_ref)
            qm, qc, qp = taylor_samples(q, v, params)
            ratio = center_residual(qm, qc, qp, params) / truncation_leading_term(
                params, qc
            )
            ratios.append(float(ratio))
    elapsed = perf_counter() - t0
    report(
        "truncation leading term",
        all(0.95 <= r <= 1.05 for r in ratios),
        f"residual over -w^8 h^6 q/21600 = {ratios[0]:.5f}, {ratios[1]:.5f}",
        elapsed,
        1e-2,
    )


def test_nonlinear_consistency():
    t0 = perf_counter()
    n = 20
    hp = HarmonicParams(m=1.0, omega=W, h=1.0 / n)
    tm = transfer_matrix(hp)
    params = StepParams(m=1.0, h=1.0 / n, potential=harmonic_potential(1.0, W))
    newton_pts, _ = run_pendulum(PhasePoint(0.0, math.pi / 2.0), params, n)
    worst = 0.0
    linear = PhasePoint(0.0, math.pi / 2.0)
    for j in range(1, n + 1):
        linear = step_harmonic(linear, tm)
        worst = max(
            worst, abs(linear.p - newton_pts[j].p), abs(linear.q - newton_pts[j].q)
        )
    elapsed = perf_counter() - t0
    report(
        "implicit path matches closed form",
        worst <= 1e-12,
        f"quadratic-potential Newton vs transfer matrix off by {worst:.1e}",
        elapsed,
        0.1,
    )


def test_pendulum_order_table():
    t0 = perf_counter()
    errs = {"p": [], "q": [], "H": []}
    for n in (50, 100, 200):
        rec, _ = pendulum_record(n)
        for obs in ("p", "q", "H"):
            errs[obs].append(linf_error(rec, obs))
    orders = [
        estimate_order(errs[obs][i], errs[obs][i + 1])
        for obs in ("p", "q", "H")
        for i in range(2)
    ]
    recorded = []
    for obs in ("p", "q", "H"):
        for i in range(3):
            rel = abs(errs[obs][i] / TABLE2[obs][i] - 1.0)
            if rel > 0.02:
                recorded.append(f"{obs}@{(50, 100, 200)[i]} off print by {rel * 100:.0f}%")
    elapsed = perf_counter() - t0
    note = "; recorded (not failed): " + ", ".join(recorded) if recorded else ""
    report(
        "pendulum order table",
        all(o == 6 for o in orders),
        f"orders {sorted(set(orders))} across N=50/100/200{note}",
        elapsed,
        5.0,
    )


def test_newton_performance():
    t0 = perf_counter()
    _, iters = pendulum_record(50)
    elapsed = perf_counter() - t0
    report(
        "newton iteration budget",
        max(iters) <= 6,
        f"max {max(iters)} iterations to 1e-13 over one period at N=50",
        elapsed,
        1.0,
    )


def test_nonlinear_symplecticity():
    t0 = perf_counter()
    ref = PendulumExact(q0=math.pi / 2.0, omega=W, m=1.0)
    params = StepParams(m=1.0, h=ref.period / 50.0, potential=pendulum_potential(1.0, W))
    worst = 0.0
    for q in np.linspace(-3.0, 3.0, 5):
        for p in np.linspace(-3.0 * W, 3.0 * W, 5):
            worst = max(
                worst, symplecticity_defect(PhasePoint(float(p), float(q)), params)
            )
    elapsed = perf_counter() - t0
    report(
        "one-step map area preservation",
        worst <= 1e-7,
        f"|det J - 1| <= {worst:.1e} on the 5x5 grid",
        elapsed,
        1.0,
    )


def test_long_horizon_drift():
    t0 = perf_counter()
    rec = harmonic_record(10, periods=1000)
    _, rate_h = energy_drift_series(rec, window=1000)
    rec_p, _ = pendulum_record(0, periods=1000, h=0.025)
    _, rate_p = energy_drift_series(rec_p, window=1000, observable="H")
    elapsed = perf_counter() - t0
    report(
        "thousand-period energy drift",
        abs(rate_h) <= 1e-10 and abs(rate_p) <= 1e-10,
        f"discrete-energy rate {rate_h:.1e}/period (h=0.1), "
        f"pendulum energy rate {rate_p:.1e}/period (h=0.025)",
        elapsed,
        30.0,
    )


def test_baseline_separation():
    t0 = perf_counter()
    ref = HarmonicExact(amplitude=math.pi / 2.0, omega=W, m=1.0)
    pot = harmonic_potential(1.0, W)
    mid_errs = []
    for n in (10, 20):
        h = 1.0 / n
        pts = run_midpoint(
            PhasePoint(0.0, math.pi / 2.0), StepParams(m=1.0, h=h, potential=pot), n
        )
        mid_errs.append(
            max(abs(pt.q - harmonic_exact(j * h, ref).q) for j, pt in enumerate(pts))
        )
    ratio = mid_errs[0] / mid_errs[1]
    lob_err = linf_error(harmonic_record(10), "q")
    separation = mid_errs[0] / lob_err
    elapsed = perf_counter() - t0
    report(
        "midpoint baseline separation",
        abs(ratio / 4.0 - 1.0) <= 0.1 and separation >= 1e3,
        f"midpoint ratio {ratio:.2f} (order 2), error {separation:.0f}x the sixth-order scheme",
        elapsed,
        1.0,
    )


def test_elliptic_oracle_agreement():
    t0 = perf_counter()
    ref = PendulumExact(q0=math.pi / 2.0, omega=W, m=1.0)
    pot = pendulum_potential(1.0, W)
    segments, per_segment = 40, 25000
    seg_t = ref.period / segments
    pt = pendulum_exact(0.0, ref)
    worst = 0.0
    for s in range(1, segments + 1):
        pt = oracle_integrate(pot, pt, seg_t, per_segment)
        want = pendulum_exact(s * seg_t, ref)
        worst = max(worst, abs(pt.q - want.q), abs(pt.p - want.p))
    elapsed = perf_counter() - t0
    report(
        "independent oracle agreement",
        worst <= 1e-10,
        f"closed form vs 1e6-step one-step method: linf {worst:.1e}",
        elapsed,
        30.0,
    )


def test_cli_determinism(tmp_path):
    import contextlib
    import io

    t0 = perf_counter()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf):
        assert main(["convergence", "--out", str(a)]) == 0
        assert main(["convergence", "--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    rows = [line.split(",") for line in a.read_text().splitlines()[1:]]
    worst_rel = 0.0
    col = {"p": 1, "q": 2, "H": 3}
    for i in range(3):
        for obs in ("p", "q", "H"):
            worst_rel = max(
                worst_rel, abs(float(rows[i][col[obs]]) / TABLE1[obs][i] - 1.0)
            )
    orders_ok = rows[1][5:] == ["6", "6", "6"] and rows[2][5:] == ["6", "6", "6"]
    elapsed = perf_counter() - t0
    report(
        "experiment runner determinism",
        identical and worst_rel <= 0.02 and orders_ok,
        f"byte-identical reruns, regenerated table within {worst_rel * 100:.2f}% of print",
        elapsed,
        5.0,
    )
