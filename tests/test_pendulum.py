import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lobvi.exact import PendulumExact, pendulum_exact
from lobvi.harmonic import HarmonicParams, internal_dofs, transfer_matrix, step_harmonic
from lobvi.harmonic import discrete_lagrangian as discrete_lagrangian_harmonic
from lobvi.mechanics import (
    ElementState,
    PhasePoint,
    PotentialModel,
    StepParams,
    energy,
    free_potential,
    harmonic_potential,
    pendulum_potential,
)
from lobvi.pendulum import (
    NewtonConfig,
    NewtonError,
    StepUnknowns,
    discrete_lagrangian_nl,
    dynamics_residual,
    internal_equations_residual,
    jacobian_dFL,
    newton_step_solve,
    run_pendulum,
    step_pendulum,
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


def dense_newton(p_j, q_j, params, cfg=NewtonConfig()):
    """Reference solve: the full 4x4 Newton with np.linalg.solve on the same
    residual, Jacobian, initial guess and scaled stopping rule."""
    m, h = params.m, params.h
    drift = q_j + h * p_j / m
    x = np.array(
        [(1.0 - XI) * q_j + XI * drift, XI * q_j + (1.0 - XI) * drift, p_j, drift]
    )
    sq, sp = max(1.0, abs(q_j)), max(1.0, abs(p_j))
    scale = np.array([sq, sq, sp, sq])
    for used in range(cfg.max_iter + 1):
        u = StepUnknowns(*x.tolist())
        f = np.array(
            [
                *internal_equations_residual(u, q_j, u.q_next, params),
                *dynamics_residual(u, p_j, q_j, params),
            ]
        )
        if np.max(np.abs(f) / scale) <= cfg.tol:
            return u, used
        x = x + np.linalg.solve(np.array(jacobian_dFL(u, params)), -f)
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

    def test_newton_config(self):
        cases = [("tol", 0.0), ("max_iter", 0), ("max_step", -1.0)]
        cases += [
            (name, bad)
            for name in ("tol", "max_iter", "max_step")
            for bad in (math.nan, math.inf)
        ]
        for name, value in cases:
            with pytest.raises(ValueError, match=rf"^{name} must be") as info:
                NewtonConfig(**{name: value})
            assert info.value.field == name


class TestDiscreteLagrangianNL:
    def test_zero_element(self):
        assert discrete_lagrangian_nl(ElementState(0, 0, 0, 0), pendulum_params()) == 0.0

    @given(qs=st.tuples(lengths, lengths, lengths, lengths))
    def test_harmonic_potential_matches_linear_module(self, qs):
        el = ElementState(*qs)
        nl = discrete_lagrangian_nl(el, harmonic_nl_params())
        lin = discrete_lagrangian_harmonic(
            el, HarmonicParams(m=1.0, omega=W, h=0.05)
        )
        assert abs(nl - lin) <= 1e-12 * (1.0 + abs(lin))

    def test_constant_element_at_inversion(self):
        params = pendulum_params(h=0.2)
        got = discrete_lagrangian_nl(ElementState(math.pi, math.pi, math.pi, math.pi), params)
        assert abs(got - (-2.0 * 0.2 * W ** 2)) < 1e-12


class TestInternalEquations:
    def test_harmonic_closed_form_satisfies_system(self):
        hp = HarmonicParams(m=1.0, omega=W, h=0.05)
        q_l, q_r = 0.3, -0.4
        q_xi, q_xic = internal_dofs(q_l, q_r, hp)
        u = StepUnknowns(q_xi=q_xi, q_xic=q_xic, p_next=0.0, q_next=q_r)
        r1, r2 = internal_equations_residual(u, q_l, q_r, harmonic_nl_params())
        assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12

    def test_free_motion_linear_interpolant(self):
        params = StepParams(m=1.0, h=0.3, potential=free_potential())
        q_l, q_r = 0.2, 1.4
        u = StepUnknowns(
            q_xi=(1 - XI) * q_l + XI * q_r,
            q_xic=XI * q_l + (1 - XI) * q_r,
            p_next=0.0,
            q_next=q_r,
        )
        r1, r2 = internal_equations_residual(u, q_l, q_r, params)
        assert abs(r1) < 1e-15 and abs(r2) < 1e-15

    def test_equilibrium(self):
        u = StepUnknowns(0.0, 0.0, 0.0, 0.0)
        assert internal_equations_residual(u, 0.0, 0.0, pendulum_params()) == (0.0, 0.0)


class TestDynamicsResidual:
    def test_equilibrium(self):
        u = StepUnknowns(0.0, 0.0, 0.0, 0.0)
        assert dynamics_residual(u, 0.0, 0.0, pendulum_params()) == (0.0, 0.0)

    def test_closed_form_step_has_zero_residual(self):
        hp = HarmonicParams(m=1.0, omega=W, h=0.05)
        pt = PhasePoint(0.4, 1.1)
        out = step_harmonic(pt, transfer_matrix(hp))
        q_xi, q_xic = internal_dofs(pt.q, out.q, hp)
        u = StepUnknowns(q_xi=q_xi, q_xic=q_xic, p_next=out.p, q_next=out.q)
        r3, r4 = dynamics_residual(u, pt.p, pt.q, harmonic_nl_params())
        assert abs(r3) <= 1e-11 and abs(r4) <= 1e-11

    def test_free_motion_iff_drift(self):
        params = StepParams(m=2.0, h=0.25, potential=free_potential())
        p0, q0 = 1.2, 0.3
        drift = q0 + 0.25 * p0 / 2.0
        good = StepUnknowns(0.0, 0.0, p_next=p0, q_next=drift)
        r3, r4 = dynamics_residual(good, p0, q0, params)
        assert abs(r3) <= 1e-15 and abs(r4) <= 1e-15
        bad_p = StepUnknowns(0.0, 0.0, p_next=p0 + 1e-3, q_next=drift)
        r3, r4 = dynamics_residual(bad_p, p0, q0, params)
        assert abs(r3) > 1e-4
        bad_q = StepUnknowns(0.0, 0.0, p_next=p0, q_next=drift + 1e-3)
        r3, r4 = dynamics_residual(bad_q, p0, q0, params)
        assert abs(r4) > 1e-4


class TestJacobian:
    def test_zero_curvature_structure(self):
        params = StepParams(m=2.0, h=0.3, potential=free_potential())
        u = StepUnknowns(0.1, 0.2, 0.3, 0.4)
        J = jacobian_dFL(u, params)
        want = np.eye(4)
        want[0, 3] = -XI
        want[1, 3] = -(1.0 - XI)
        want[3, 2] = -0.3 / (2.0 * 2.0)
        assert np.max(np.abs(J - want)) < 1e-15

    def test_determinant_closed_form(self):
        """det = 1 + (h^2/60m)(V2a + V2b) + (h^4/1800 m^2) V2a V2b; the
        second-order term carries 1/m^2 (the FD oracle below is the referee)."""
        for m in (1.0, 2.0):
            pot = pendulum_potential(m, W)
            params = StepParams(m=m, h=0.03, potential=pot)
            u = StepUnknowns(q_xi=0.4, q_xic=0.9, p_next=0.2, q_next=1.1)
            det = np.linalg.det(jacobian_dFL(u, params))
            v2a, v2b = pot.d2V(u.q_xi), pot.d2V(u.q_xic)
            want = (
                1.0
                + 0.03 ** 2 / (60.0 * m) * (v2a + v2b)
                + 0.03 ** 4 / (1800.0 * m * m) * v2a * v2b
            )
            assert abs(det - want) <= 1e-10 * abs(want)

    def test_against_finite_difference(self):
        params = pendulum_params(h=0.04, m=1.3)
        p_j, q_j = 0.5, 0.9
        u0 = np.array([0.8, 1.0, 0.45, 1.05])

        def residual(vec):
            u = StepUnknowns(*vec)
            r12 = internal_equations_residual(u, q_j, u.q_next, params)
            r34 = dynamics_residual(u, p_j, q_j, params)
            return np.array([*r12, *r34])

        J = np.array(jacobian_dFL(StepUnknowns(*u0), params))
        eps = 1e-6
        for col in range(4):
            step = np.zeros(4)
            step[col] = eps
            fd = (residual(u0 + step) - residual(u0 - step)) / (2.0 * eps)
            assert np.max(np.abs(J[:, col] - fd)) < 1e-6


class TestNewton:
    def test_equilibrium_converges_immediately(self):
        u, used = newton_step_solve(0.0, 0.0, pendulum_params())
        assert used <= 1
        assert u.q_xi == 0.0 and u.q_xic == 0.0 and u.p_next == 0.0 and u.q_next == 0.0

    @given(p=st.floats(-2.0, 2.0), q=lengths)
    def test_quadratic_potential_reproduces_transfer_matrix(self, p, q):
        hp = HarmonicParams(m=1.0, omega=W, h=0.05)
        want = step_harmonic(PhasePoint(p, q), transfer_matrix(hp))
        u, _ = newton_step_solve(p, q, harmonic_nl_params())
        assert abs(u.p_next - want.p) <= 1e-12 * max(1.0, abs(want.p))
        assert abs(u.q_next - want.q) <= 1e-12 * max(1.0, abs(want.q))

    @given(
        p=st.floats(-2.0 * W, 2.0 * W),
        q=lengths,
        h=st.floats(-0.1, 0.1).filter(lambda h: abs(h) >= 1e-3),
        potential=st.sampled_from([pendulum_potential, harmonic_potential]),
    )
    def test_matches_dense_reference(self, p, q, h, potential):
        params = StepParams(m=1.0, h=h, potential=potential(1.0, W))
        want, want_used = dense_newton(p, q, params)
        got, used = newton_step_solve(p, q, params)
        assert used == want_used
        sq, sp = max(1.0, abs(q)), max(1.0, abs(p))
        for name, scale in (("q_xi", sq), ("q_xic", sq), ("p_next", sp), ("q_next", sq)):
            assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12 * scale
        r12 = internal_equations_residual(got, q, got.q_next, params)
        r34 = dynamics_residual(got, p, q, params)
        scaled = [abs(r) / s for r, s in zip((*r12, *r34), (sq, sq, sp, sq))]
        assert max(scaled) <= NewtonConfig().tol

    def test_iteration_budget_on_table_setup(self):
        params = pendulum_params()
        _, iters = run_pendulum(PhasePoint(0.0, math.pi / 2.0), params, 50)
        assert max(iters) <= 6

    def test_nonconvergence_reports_residual(self):
        pot = pendulum_potential(1.0, W)
        nan_curvature = StepParams(
            m=1.0, h=PERIOD / 50.0,
            potential=PotentialModel("nan-curvature", pot.V, pot.dV, lambda q: math.nan),
        )
        cases = [
            (pendulum_params(), NewtonConfig(tol=1e-15, max_iter=1), "no convergence", 1),
            (pendulum_params(), NewtonConfig(max_step=1e-12), "diverged", 0),
            (nan_curvature, NewtonConfig(), "singular Jacobian", 0),
        ]
        for params, cfg, reason, iterations in cases:
            with pytest.raises(NewtonError) as info:
                newton_step_solve(0.0, math.pi / 2.0, params, cfg)
            assert info.value.reason == reason
            assert info.value.iterations == iterations
            assert info.value.step is None and info.value.n_steps is None
            assert math.isfinite(info.value.residual)


class TestStepAndRun:
    def test_equilibrium_fixed_point(self):
        out = step_pendulum(PhasePoint(0.0, 0.0), pendulum_params())
        assert out.p == 0.0 and out.q == 0.0

    def test_period_return(self):
        params = pendulum_params()
        pts, _ = run_pendulum(PhasePoint(0.0, math.pi / 2.0), params, 50)
        assert type(pts[-1].q) is float and type(pts[-1].p) is float
        assert abs(pts[-1].p - 0.0) <= 5e-9
        h0 = energy(pts[0], params.potential, params.m)
        h1 = energy(pts[-1], params.potential, params.m)
        assert abs(h1 - h0) <= 5e-8

    def test_reversibility(self):
        fwd = pendulum_params()
        back = pendulum_params(h=-fwd.h)
        start = PhasePoint(0.35, 1.1)
        roundtrip = step_pendulum(step_pendulum(start, fwd), back)
        assert abs(roundtrip.p - start.p) <= 1e-12
        assert abs(roundtrip.q - start.q) <= 1e-12

    def test_sixth_order_state_ratio(self):
        errs = []
        for n in (50, 100):
            params = pendulum_params(h=PERIOD / n)
            pts, _ = run_pendulum(PhasePoint(0.0, math.pi / 2.0), params, n)
            err = max(
                abs(pt.q - pendulum_exact(params.h * j, EXACT).q)
                for j, pt in enumerate(pts)
            )
            errs.append(err)
        assert abs(errs[0] / errs[1] / 64.0 - 1.0) < 0.2

    def test_energy_band_has_no_secular_trend(self):
        params = pendulum_params()
        periods = 20
        pts, _ = run_pendulum(PhasePoint(0.0, math.pi / 2.0), params, 50 * periods)
        h0 = energy(pts[0], params.potential, params.m)
        drift = [abs(energy(pt, params.potential, params.m) - h0) for pt in pts]
        one_period_band = max(drift[: 50 + 1])
        assert max(drift) <= 5.0 * one_period_band

    def test_run_reports_failing_step(self):
        params = pendulum_params()
        cfg = NewtonConfig(tol=1e-15, max_iter=1)
        with pytest.raises(NewtonError, match=r"step 1 of 3") as info:
            run_pendulum(PhasePoint(0.0, math.pi / 2.0), params, 3, cfg)
        exc = info.value
        assert exc.reason == "no convergence"
        assert (exc.step, exc.n_steps, exc.iterations) == (1, 3, 1)

    def test_stiff_step_warns(self):
        # h * omega = 0.55 * 2 pi is past the bound for both potentials
        cases = [(pendulum_params(h=0.55), 0.1), (harmonic_nl_params(h=0.55), math.pi / 2.0)]
        for params, q in cases:
            with pytest.warns(RuntimeWarning):
                try:
                    step_pendulum(PhasePoint(0.0, q), params)
                except NewtonError:
                    pass

    def test_action_stationarity_at_shared_node(self):
        params = pendulum_params()
        pts, _ = run_pendulum(PhasePoint(0.0, math.pi / 2.0), params, 2)
        u1, _ = newton_step_solve(pts[0].p, pts[0].q, params)
        u2, _ = newton_step_solve(pts[1].p, pts[1].q, params)
        q_j = pts[1].q
        d = 1e-4

        def action(v):
            left = ElementState(pts[0].q, u1.q_xi, u1.q_xic, v)
            right = ElementState(v, u2.q_xi, u2.q_xic, pts[2].q)
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
        assert symplecticity_defect(PhasePoint(0.0, math.pi / 2.0), params, eps=1e-6) <= 1e-7

    def test_smaller_probe_stays_under_noise_floor(self):
        params = pendulum_params()
        pt = PhasePoint(0.3, 0.7)
        assert symplecticity_defect(pt, params, eps=1e-6) <= 1e-7
        assert symplecticity_defect(pt, params, eps=5e-7) <= 1e-7

    def test_grid(self):
        params = pendulum_params()
        for q in np.linspace(-3.0, 3.0, 5):
            for p in np.linspace(-3.0 * W, 3.0 * W, 5):
                assert symplecticity_defect(PhasePoint(float(p), float(q)), params) <= 1e-7
