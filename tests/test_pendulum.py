import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import lobvi.pendulum
from lobvi.exact import PendulumExact, pendulum_exact
from lobvi.harmonic import (
    HarmonicParams,
    internal_dofs,
    run_harmonic,
    step_harmonic,
    transfer_matrix,
)
from lobvi.mechanics import (
    ElementState,
    PhasePoint,
    PotentialModel,
    Run,
    StepParams,
    energy,
    harmonic_potential,
    pendulum_potential,
)
from lobvi.midpoint import run_midpoint, step_midpoint
from lobvi.pendulum import (
    NewtonError,
    discrete_lagrangian_nl,
    jacobian_dFL,
    newton_step_solve,
    run_pendulum,
    step_residual,
    symplecticity_defect,
)
from lobvi.quadrature import XI

W = 2.0 * math.pi
EXACT = PendulumExact(q0=math.pi / 2.0, omega=W, m=1.0)
PERIOD = EXACT.period


def pendulum_params(h=PERIOD / 50.0, m=1.0):
    return StepParams(m=m, h=h, potential=pendulum_potential(m, W))


def harmonic_nl_params(h=0.05, m=1.0):
    return StepParams(m=m, h=h, potential=harmonic_potential(m, W))


lengths = st.floats(-3.0, 3.0, allow_nan=False)
# every subnormal float and zero, as multiples of the least subnormal
subnormals = st.integers(-(2 ** 52), 2 ** 52).map(lambda k: k * 5e-324)


def stops(r1, r2, q_j, stages, q_next):
    """The stop rule: max(|r1|, |r2|) at most TOL times the largest position,
    or at most FLOOR where that product falls below it."""
    scale = max(abs(q_j), *map(abs, stages), abs(q_next))
    return max(abs(r1), abs(r2)) <= max(lobvi.pendulum.TOL * scale, lobvi.pendulum.FLOOR)


def dense_newton(p_j, q_j, params):
    """Reference solve: Newton with np.linalg.solve on the same 2x2 residual,
    Jacobian, initial guess, scaled stopping rule and constants."""
    m, h = params.m, params.h
    drift = q_j + h * p_j / m
    x = np.array([(1.0 - XI) * q_j + XI * drift, XI * q_j + (1.0 - XI) * drift])
    for used in range(lobvi.pendulum.MAX_ITER + 1):
        stages = tuple(x.tolist())
        r1, r2, q_next, forces = step_residual(stages, p_j, q_j, params, params.potential.dV(q_j))
        if stops(r1, r2, q_j, stages, q_next):
            p_next = p_j - h * (forces + params.potential.dV(q_next)) / 12.0
            return (*stages, p_next, q_next), used
        x = x + np.linalg.solve(np.array(jacobian_dFL(stages, params)), -np.array([r1, r2]))
    raise AssertionError("dense reference did not converge")


class TestValidation:
    def test_params(self):
        pot = pendulum_potential(1.0, W)
        cases = [("m", 0.0), ("h", 0.0)]
        cases += [(name, bad) for name in ("m", "h") for bad in (math.nan, math.inf)]
        for name, value in cases:
            fields = dict(m=1.0, h=0.1, potential=pot)
            fields[name] = value
            with pytest.raises(ValueError, match=rf"^{name} must be") as info:
                StepParams(**fields)
            assert info.value.field == name


class TestDiscreteLagrangianNL:
    def test_zero_element(self):
        assert discrete_lagrangian_nl(ElementState(0, 0, 0, 0), pendulum_params()) == 0.0

    def test_constant_element_at_inversion(self):
        params = pendulum_params(h=0.2)
        got = discrete_lagrangian_nl(ElementState(math.pi, math.pi, math.pi, math.pi), params)
        assert abs(got - (-2.0 * 0.2 * W ** 2)) < 1e-12


def closed_form_step(pt, hp):
    """The transfer-matrix step from pt and its interior nodes."""
    out = step_harmonic(pt, transfer_matrix(hp))
    return out, internal_dofs(pt.q, out.q, hp)


class TestInternalEquations:
    def test_harmonic_closed_form_satisfies_system(self):
        pt = PhasePoint(0.4, 1.1)
        _, stages = closed_form_step(pt, HarmonicParams(m=1.0, omega=W, h=0.05))
        params = harmonic_nl_params()
        r1, r2 = step_residual(stages, pt.p, pt.q, params, params.potential.dV(pt.q))[:2]
        assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12

    def test_free_motion_linear_interpolant(self):
        # p = 4 drifts from q_l = 0.2 to q_r = 1.4 in h = 0.3
        params = StepParams(m=1.0, h=0.3, potential=harmonic_potential(1.0, 0.0))
        q_l, q_r = 0.2, 1.4
        dv_l = params.potential.dV(q_l)
        stages = ((1 - XI) * q_l + XI * q_r, XI * q_l + (1 - XI) * q_r)
        r1, r2 = step_residual(stages, 4.0, q_l, params, dv_l)[:2]
        assert abs(r1) < 1e-15 and abs(r2) < 1e-15
        off_line = (stages[0] + 1e-3, stages[1])
        assert abs(step_residual(off_line, 4.0, q_l, params, dv_l)[0]) > 1e-4

    def test_equilibrium(self):
        params = pendulum_params()
        out = step_residual((0.0, 0.0), 0.0, 0.0, params, params.potential.dV(0.0))
        assert out[:2] == (0.0, 0.0)


class TestDynamicsResidual:
    """q_next comes out of the residual and p_next from its force sum."""

    def test_equilibrium(self):
        params = pendulum_params()
        out = step_residual((0.0, 0.0), 0.0, 0.0, params, params.potential.dV(0.0))
        assert out[2:] == (0.0, 0.0)

    def test_closed_form_step_is_the_explicit_update(self):
        pt = PhasePoint(0.4, 1.1)
        out, stages = closed_form_step(pt, HarmonicParams(m=1.0, omega=W, h=0.05))
        params = harmonic_nl_params()
        _, _, q_next, forces = step_residual(stages, pt.p, pt.q, params, params.potential.dV(pt.q))
        p_next = pt.p - params.h * (forces + params.potential.dV(q_next)) / 12.0
        assert abs(q_next - out.q) <= 1e-12 and abs(p_next - out.p) <= 1e-11

    def test_free_motion_is_drift(self):
        params = StepParams(m=2.0, h=0.25, potential=harmonic_potential(2.0, 0.0))
        p0, q0 = 1.2, 0.3
        dv0 = params.potential.dV(q0)
        for stages in ((0.0, 0.0), (0.5, -0.7)):
            assert step_residual(stages, p0, q0, params, dv0)[2:] == (q0 + 0.25 * p0 / 2.0, 0.0)


class TestJacobian:
    def test_zero_curvature_structure(self):
        params = StepParams(m=2.0, h=0.3, potential=harmonic_potential(2.0, 0.0))
        assert jacobian_dFL((0.1, 0.2), params) == ((1.0, 0.0), (0.0, 1.0))

    def test_determinant_closed_form(self):
        """det = 1 + (h^2/60m)(V2a + V2b) + (h^4/1800 m^2) V2a V2b; the
        second-order term carries 1/m^2 (the FD oracle below is the referee)."""
        for m in (1.0, 2.0):
            pot = pendulum_potential(m, W)
            params = StepParams(m=m, h=0.03, potential=pot)
            q_xi, q_xic = 0.4, 0.9
            det = np.linalg.det(jacobian_dFL((q_xi, q_xic, 0.2, 1.1), params))
            v2a, v2b = pot.d2V(q_xi), pot.d2V(q_xic)
            want = (
                1.0
                + 0.03 ** 2 / (60.0 * m) * (v2a + v2b)
                + 0.03 ** 4 / (1800.0 * m * m) * v2a * v2b
            )
            assert abs(det - want) <= 1e-10 * abs(want)

    def test_against_finite_difference(self):
        params = pendulum_params(h=0.04, m=1.3)
        p_j, q_j = 0.5, 0.9
        u0 = np.array([0.8, 1.0])
        dv_j = params.potential.dV(q_j)

        def residual(vec):
            return np.array(step_residual(tuple(vec), p_j, q_j, params, dv_j)[:2])

        J = np.array(jacobian_dFL(tuple(u0), params))
        eps = 1e-6
        for col in range(2):
            step = np.zeros(2)
            step[col] = eps
            fd = (residual(u0 + step) - residual(u0 - step)) / (2.0 * eps)
            assert np.max(np.abs(J[:, col] - fd)) < 1e-6


class TestNewton:
    def test_equilibrium_converges_immediately(self):
        u, used = newton_step_solve(0.0, 0.0, pendulum_params())
        assert used <= 1
        assert type(u) is tuple and u == (0.0, 0.0, 0.0, 0.0)

    @given(p=st.floats(-2.0, 2.0), q=lengths)
    def test_quadratic_potential_reproduces_transfer_matrix(self, p, q):
        hp = HarmonicParams(m=1.0, omega=W, h=0.05)
        want = step_harmonic(PhasePoint(p, q), transfer_matrix(hp))
        (_, _, p_next, q_next), _ = newton_step_solve(p, q, harmonic_nl_params())
        assert abs(p_next - want.p) <= 1e-12 * max(1.0, abs(want.p))
        assert abs(q_next - want.q) <= 1e-12 * max(1.0, abs(want.q))

    @given(
        p=st.one_of(st.floats(-2.0 * W, 2.0 * W), subnormals),
        q=st.one_of(lengths, subnormals),
        h=st.floats(-0.1, 0.1).filter(lambda h: abs(h) >= 1e-3),
        potential=st.sampled_from([pendulum_potential, harmonic_potential]),
    )
    # at a subnormal position TOL times the scale underflows to 0
    @example(p=0.0, q=2.2250738585e-313, h=0.0625, potential=pendulum_potential)
    # one iteration leaves a residual of 2 subnormal ulps, where a 1-ulp floor made
    # Cramer's rule take one more iteration than LU
    @example(p=2.2250738585e-313, q=2.2250738585e-313, h=-0.048828125, potential=pendulum_potential)
    def test_matches_dense_reference(self, p, q, h, potential):
        params = StepParams(m=1.0, h=h, potential=potential(1.0, W))
        want, want_used = dense_newton(p, q, params)
        got, used = newton_step_solve(p, q, params)
        assert used == want_used
        sq, sp = max(1.0, abs(q)), max(1.0, abs(p))
        for g, w, scale in zip(got, want, (sq, sq, sp, sq)):
            assert abs(g - w) <= 1e-12 * scale
        r1, r2, q_next, _ = step_residual(got[:2], p, q, params, params.potential.dV(q))
        assert q_next == got[3]
        assert stops(r1, r2, q, got[:2], q_next)

    def test_iteration_budget_on_table_setup(self):
        params = pendulum_params()
        iters = run_pendulum(PhasePoint(0.0, math.pi / 2.0), params, 50).iterations
        assert max(iters) <= 6

    def test_nonconvergence_reports_residual(self, monkeypatch):
        pot = pendulum_potential(1.0, W)
        nan_curvature = StepParams(
            m=1.0, h=PERIOD / 50.0,
            potential=PotentialModel("nan-curvature", pot.V, pot.dV, lambda q: math.nan),
        )
        cases = [
            (pendulum_params(), dict(TOL=1e-15, MAX_ITER=1), "no convergence", 1),
            (pendulum_params(), dict(MAX_STEP=1e-12), "diverged", 0),
            (nan_curvature, {}, "singular Jacobian", 0),
        ]
        for params, constants, reason, iterations in cases:
            with monkeypatch.context() as mp, pytest.raises(NewtonError) as info:
                for name, value in constants.items():
                    mp.setattr(lobvi.pendulum, name, value)
                newton_step_solve(0.0, math.pi / 2.0, params)
            assert info.value.reason == reason
            assert info.value.iterations == iterations
            assert info.value.step is None and info.value.n_steps is None
            assert math.isfinite(info.value.residual)

    def test_error_scales_its_residual(self):
        exc = NewtonError("diverged", 3, 2.0, 4.0)
        assert (exc.reason, exc.iterations, exc.residual) == ("diverged", 3, 0.5)
        assert NewtonError("diverged", 3, 2.0, 0.0).residual == math.inf
        assert math.isnan(NewtonError("non-finite residual", 0).residual)
        assert str(exc) == "diverged after 3 iterations, scaled residual 5.000e-01"
        exc.step, exc.n_steps = 2, 5
        assert str(exc) == "step 2 of 5: diverged after 3 iterations, scaled residual 5.000e-01"

    def test_non_finite_residual_is_not_converged(self):
        # V' is NaN only at q_next = 1.0, which enters the momentum update alone
        nan_above_one = PotentialModel(
            "nan-above-one", lambda q: 0.0, lambda q: 0.0 if q < 1.0 else math.nan,
            lambda q: 0.0,
        )
        params = StepParams(m=1.0, h=0.1, potential=nan_above_one)
        # the solver's start: interior nodes on the line to the free drift 1.0
        guess = ((1.0 - XI) * 0.5 + XI, XI * 0.5 + (1.0 - XI))
        dv_j = params.potential.dV(0.5)
        assert step_residual(guess, 5.0, 0.5, params, dv_j) == (0.0, 0.0, 1.0, 0.0)
        # the fold checks each emitted point, so the NaN momentum fails its step
        with pytest.raises(NewtonError, match=r"^step 1 of 1: ") as info:
            run_pendulum(PhasePoint(5.0, 0.5), params, 1)
        assert (info.value.reason, info.value.iterations) == ("non-finite residual", 0)
        assert math.isnan(info.value.residual)

    def test_one_cap_binds_both_schemes(self, monkeypatch):
        """Both implicit steps read the solver constants from lobvi.pendulum."""
        monkeypatch.setattr(lobvi.pendulum, "MAX_ITER", 1)
        params = pendulum_params(h=0.3)
        solves = [
            lambda: newton_step_solve(2.0, 1.0, params),
            lambda: step_midpoint(PhasePoint(2.0, 1.0), params),
        ]
        for solve in solves:
            with pytest.raises(NewtonError) as info:
                solve()
            assert (info.value.reason, info.value.iterations) == ("no convergence", 1)


def counting_potential(base):
    """`base` with dV and d2V wrapped to count their calls in `calls`."""
    calls = {"dV": 0, "d2V": 0}

    def counted(name, fn):
        def wrapper(q):
            calls[name] += 1
            return fn(q)

        return wrapper

    pot = PotentialModel(base.tag, base.V, counted("dV", base.dV), counted("d2V", base.d2V))
    return pot, calls


class TestForceEvaluations:
    """V' is evaluated once per interior node per residual, plus once at q_j
    and once at q_next: 2 + 2 (iterations + 1) times per Lobatto step, and
    V'' once per interior node per Jacobian; iterations + 1 and iterations
    times per midpoint step."""

    starts = [PhasePoint(0.0, 0.0), PhasePoint(0.0, math.pi / 2.0), PhasePoint(2.0, 3.0)]

    @pytest.mark.parametrize("h", [PERIOD / 47.0, PERIOD / 7.0], ids=["N47", "N7"])
    def test_lobatto_step(self, h):
        seen = set()
        for pt in self.starts:
            pot, calls = counting_potential(pendulum_potential(1.0, W))
            _, used = newton_step_solve(pt.p, pt.q, StepParams(m=1.0, h=h, potential=pot))
            assert calls == {"dV": 2 + 2 * (used + 1), "d2V": 2 * used}
            seen.add(used)
        assert 0 in seen and len(seen) > 1

    @pytest.mark.parametrize("h", [PERIOD / 2000.0, PERIOD / 3.0], ids=["N2000", "N3"])
    def test_midpoint_step(self, h):
        seen = set()
        for pt in self.starts:
            pot, calls = counting_potential(pendulum_potential(1.0, W))
            _, used = step_midpoint(pt, StepParams(m=1.0, h=h, potential=pot))
            assert calls == {"dV": used + 1, "d2V": used}
            seen.add(used)
        assert 0 in seen and len(seen) > 1


class TestStepAndRun:
    def test_equilibrium_fixed_point(self):
        out = run_pendulum(PhasePoint(0.0, 0.0), pendulum_params(), 1).points[1]
        assert out.p == 0.0 and out.q == 0.0

    def test_period_return(self):
        params = pendulum_params()
        pts = run_pendulum(PhasePoint(0.0, math.pi / 2.0), params, 50).points
        assert type(pts[-1].q) is float and type(pts[-1].p) is float
        assert abs(pts[-1].p - 0.0) <= 5e-9
        h0 = energy(pts[0], params.potential, params.m)
        h1 = energy(pts[-1], params.potential, params.m)
        assert abs(h1 - h0) <= 5e-8

    def test_reversibility(self):
        fwd = pendulum_params()
        back = pendulum_params(h=-fwd.h)
        start = PhasePoint(0.35, 1.1)
        roundtrip = run_pendulum(run_pendulum(start, fwd, 1).points[1], back, 1).points[1]
        assert abs(roundtrip.p - start.p) <= 1e-12
        assert abs(roundtrip.q - start.q) <= 1e-12

    def test_sixth_order_state_ratio(self):
        errs = []
        for n in (50, 100):
            params = pendulum_params(h=PERIOD / n)
            pts = run_pendulum(PhasePoint(0.0, math.pi / 2.0), params, n).points
            err = max(
                abs(pt.q - pendulum_exact(params.h * j, EXACT).q)
                for j, pt in enumerate(pts)
            )
            errs.append(err)
        assert abs(errs[0] / errs[1] / 64.0 - 1.0) < 0.2

    def test_energy_band_has_no_secular_trend(self):
        params = pendulum_params()
        periods = 20
        pts = run_pendulum(PhasePoint(0.0, math.pi / 2.0), params, 50 * periods).points
        h0 = energy(pts[0], params.potential, params.m)
        drift = [abs(energy(pt, params.potential, params.m) - h0) for pt in pts]
        one_period_band = max(drift[: 50 + 1])
        assert max(drift) <= 5.0 * one_period_band

    def test_no_mass_on_the_grid_fails_or_moves_the_positions(self):
        """Amplitudes 0.1 to 3.0, N = 10, 47 and 200, 3 periods: every mass
        converges, and the positions stay those of m = 1.  The residual is a
        position, so the stop does not see the mass; the worst |q(m) - q(1)|
        measured on this grid is 4.7e-10."""
        worst = 0.0
        for q0 in (i / 10.0 for i in range(1, 31)):
            period = PendulumExact(q0=q0, omega=W, m=1.0).period
            for n in (10, 47, 200):
                runs = {}
                for m in (1.0, 1e2, 1e4, 1e6):
                    params = StepParams(m=m, h=period / n, potential=pendulum_potential(m, W))
                    start = pendulum_exact(0.0, PendulumExact(q0=q0, omega=W, m=m))
                    runs[m] = run_pendulum(start, params, 3 * n).points
                for m in (1e2, 1e4, 1e6):
                    worst = max(worst, *(abs(a.q - b.q) for a, b in zip(runs[m], runs[1.0])))
        assert worst <= 1e-9

    def test_run_return_shapes(self):
        """Every stepper returns one Run(points, iterations, discrete_energies).
        bench/child.py reads result[0] as the points and, for run_pendulum,
        result[1] as the per-step iterations, so the field order is fixed."""
        start, params = PhasePoint(0.0, 1.0), pendulum_params()
        runs = {
            "pendulum": run_pendulum(start, params, 3),
            "harmonic": run_harmonic(start, HarmonicParams(m=1.0, omega=W, h=0.05), 3),
            "midpoint": run_midpoint(start, params, 3),
        }
        assert Run._fields == ("points", "iterations", "discrete_energies")
        for name, run in runs.items():
            assert type(run) is Run and isinstance(run, tuple)
            assert run[0] is run.points and run[1] is run.iterations
            assert len(run.points) == 4
            assert {type(pt) for pt in run.points} == {PhasePoint}
            # iterations only from the implicit schemes, H_d only from the oscillator
            assert (run.iterations is None) == (name == "harmonic")
            assert (run.discrete_energies is None) == (name != "harmonic")
        for name in ("pendulum", "midpoint"):
            assert [type(used) for used in runs[name].iterations] == [int] * 3
        assert len(runs["harmonic"].discrete_energies) == 4

    def test_run_reports_failing_step(self, monkeypatch):
        params = pendulum_params()
        monkeypatch.setattr(lobvi.pendulum, "TOL", 1e-15)
        monkeypatch.setattr(lobvi.pendulum, "MAX_ITER", 1)
        with pytest.raises(NewtonError, match=r"step 1 of 3") as info:
            run_pendulum(PhasePoint(0.0, math.pi / 2.0), params, 3)
        exc = info.value
        assert exc.reason == "no convergence"
        assert (exc.step, exc.n_steps, exc.iterations) == (1, 3, 1)

    def test_stiff_step_records_no_warning(self):
        # h * omega = 0.55 * 2 pi is past the stability limit for both potentials;
        # the solver reports only through its Run record and NewtonError
        cases = [(pendulum_params(h=0.55), 0.1), (harmonic_nl_params(h=0.55), math.pi / 2.0)]
        for params, q in cases:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    run_pendulum(PhasePoint(0.0, q), params, 1)
                except NewtonError:
                    pass
            assert caught == []

    def test_action_stationarity_at_shared_node(self):
        params = pendulum_params()
        pts = run_pendulum(PhasePoint(0.0, math.pi / 2.0), params, 2).points
        (xi1, xic1, _, _), _ = newton_step_solve(pts[0].p, pts[0].q, params)
        (xi2, xic2, _, _), _ = newton_step_solve(pts[1].p, pts[1].q, params)
        q_j = pts[1].q
        d = 1e-4

        def action(v):
            left = ElementState(pts[0].q, xi1, xic1, v)
            right = ElementState(v, xi2, xic2, pts[2].q)
            return discrete_lagrangian_nl(left, params) + discrete_lagrangian_nl(
                right, params
            )

        grad = (action(q_j + d) - action(q_j - d)) / (2.0 * d)
        # central-difference truncation at d=1e-4 dominates; the discrete
        # gradient itself sits at the Newton tolerance
        assert abs(grad) / max(1.0, abs(pts[1].p)) < 1e-8


class TestSymplecticityDefect:
    def test_quadratic_potential(self):
        assert symplecticity_defect(PhasePoint(0.2, 0.8), harmonic_nl_params()) <= 1e-10

    def test_pendulum_point(self):
        params = pendulum_params()
        assert symplecticity_defect(PhasePoint(0.0, math.pi / 2.0), params) <= 1e-7

    def test_smaller_probe_stays_under_noise_floor(self):
        params = pendulum_params()
        pt = PhasePoint(0.3, 0.7)
        assert symplecticity_defect(pt, params) <= 1e-7
        # the same central difference at half the library's 1e-6 probe
        eps = 5e-7
        step = lambda x: run_pendulum(x, params, 1).points[1]
        pp, pm = step(PhasePoint(pt.p + eps, pt.q)), step(PhasePoint(pt.p - eps, pt.q))
        qp, qm = step(PhasePoint(pt.p, pt.q + eps)), step(PhasePoint(pt.p, pt.q - eps))
        det = ((pp.p - pm.p) * (qp.q - qm.q) - (qp.p - qm.p) * (pp.q - pm.q)) / (2.0 * eps) ** 2
        assert abs(det - 1.0) <= 1e-7

    def test_grid(self):
        params = pendulum_params()
        for q in np.linspace(-3.0, 3.0, 5):
            for p in np.linspace(-3.0 * W, 3.0 * W, 5):
                assert symplecticity_defect(PhasePoint(float(p), float(q)), params) <= 1e-7
